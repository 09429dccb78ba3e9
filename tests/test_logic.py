"""Logic names, axiom flags, and rule-set assembly."""

import pytest

from nnml.logic import (
    BOX_L,
    BOX_R,
    BOX_RM,
    LogicNameError,
    LogicSpec,
    PROP_RULES,
    RULE_C,
    RULE_D1,
    RULE_D2,
    RULE_N,
    RULE_P,
    RULE_T,
    canonical_name,
    dn_plus,
    parse_logic_name,
    rule_set,
)

CUBE = ["E", "M", "EC", "EN", "MC", "MN", "ECN", "MCN"]


class TestNames:
    @pytest.mark.parametrize("name", CUBE)
    def test_cube_names_round_trip(self, name):
        assert canonical_name(parse_logic_name(name)) == ("K" if name == "MCN" else name)

    def test_k_is_mcn(self):
        assert parse_logic_name("K") == parse_logic_name("MCN")
        assert canonical_name(parse_logic_name("K")) == "K"

    def test_deontic_suffixes(self):
        l = parse_logic_name("MCNT")
        assert l.monotonic and l.has_c and l.has_n and l.has_t
        assert canonical_name(l) == "KT"
        assert canonical_name(parse_logic_name("KT")) == "KT"

    def test_graded_suffix(self):
        l = parse_logic_name("ED3+")
        assert l.dplus == 3 and not l.has_d
        assert canonical_name(l) == "ED3+"

    def test_plain_d_is_not_graded(self):
        l = parse_logic_name("ED")
        assert l.has_d and l.dplus is None

    def test_longest_base_wins(self):
        assert parse_logic_name("ECN") == LogicSpec(has_c=True, has_n=True)
        assert parse_logic_name("ECD").has_c
        assert parse_logic_name("ECD").has_d

    @pytest.mark.parametrize("bad", ["", "X", "EE", "ETT", "EDD", "ED0+", "EZ", "e", "ED\u00b2+"])
    def test_bad_names_raise(self, bad):
        with pytest.raises(LogicNameError):
            parse_logic_name(bad)

    def test_cube_and_regular_flags(self):
        assert parse_logic_name("E").cube
        assert not parse_logic_name("ET").cube
        assert parse_logic_name("MC").regular
        assert parse_logic_name("K").regular
        assert not parse_logic_name("MN").regular
        assert not parse_logic_name("EC").regular


class TestFromAxioms:
    def test_dplus_validation(self):
        with pytest.raises(ValueError):
            LogicSpec(dplus=0)


class TestRuleSets:
    def test_minimal_logic(self):
        rules = rule_set(parse_logic_name("E"))
        assert rules == PROP_RULES | {BOX_L, BOX_R}

    def test_monotone_box_replaces_plain_box(self):
        rules = rule_set(parse_logic_name("M"))
        assert BOX_RM in rules and BOX_R not in rules

    def test_modular_extensions(self):
        rules = rule_set(parse_logic_name("ECNT"))
        assert {RULE_C, RULE_N, RULE_T} <= rules
        assert RULE_P not in rules

    def test_p_rule(self):
        assert RULE_P in rule_set(parse_logic_name("EP"))

    def test_d_rules_depend_on_monotonicity(self):
        non_mono = rule_set(parse_logic_name("ED"))
        assert {RULE_D1, RULE_D2} <= non_mono
        mono = rule_set(parse_logic_name("MD"))
        assert {dn_plus(1), dn_plus(2)} <= mono
        assert RULE_D1 not in mono and RULE_D2 not in mono

    def test_graded_rules_up_to_arity(self):
        rules = rule_set(parse_logic_name("ED3+"))
        assert {dn_plus(1), dn_plus(2), dn_plus(3)} <= rules
        assert dn_plus(4) not in rules

    def test_rule_rendering(self):
        assert dn_plus(2).render() == "D2+"
        assert RULE_D2.render() == "D2"
        assert BOX_RM.render() == "BoxRm"
