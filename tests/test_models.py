"""Forcing, frame conditions, countermodel extraction, transformations."""

import pytest
from hypothesis import given, settings

from conftest import rngs
from nnml.formula import Atom, Box, BOTTOM, TOP, And, Imp, parse, subformula_closure, to_text
from nnml.gen import random_bi_model, random_formula, random_standard_model
from nnml.hypersequent import interpret, parse_hypersequent, parse_input
from nnml.logic import parse_logic_name
from nnml.models import (
    BiModel,
    RelationalModel,
    StandardModel,
    UnknownWorldError,
    bi_from_standard,
    check_conditions,
    conditions_ok,
    extract_bi_countermodel,
    extract_relational_countermodel,
    force,
    model_from_dict,
    model_size,
    model_to_dict,
    standard_from_bi_fine,
    standard_from_bi_rough,
    truth_set,
    valid,
)
from nnml.search import Refuted, prove

p, q = Atom("p"), Atom("q")

E = parse_logic_name("E")
M = parse_logic_name("M")
EC = parse_logic_name("EC")
MC = parse_logic_name("MC")
ED = parse_logic_name("ED")

PAPER_BI = BiModel.make(
    worlds=[1, 2],
    valuation={"p": [2]},
    nbhd={1: [(frozenset(), frozenset({2}))]},
)


class TestForcing:
    def test_sandwich_clause(self):
        # the empty set is sandwiched, the truth set of p alone is not
        assert force(PAPER_BI, 1, Box(And(p, q)))
        assert not force(PAPER_BI, 1, Box(p))
        assert not force(PAPER_BI, 2, Box(p))

    def test_standard_clause_is_membership(self):
        m = StandardModel.make([1, 2], {"p": [2]}, {1: [frozenset({2})]})
        assert force(m, 1, Box(p))
        assert not force(m, 1, Box(And(p, q)))

    def test_relational_clause_skips_non_normal_worlds(self):
        m = RelationalModel.make([1, 2], [2], {1: [2]}, {"p": [2]})
        assert force(m, 1, Box(p))
        assert not force(m, 2, Box(p))
        assert not force(m, 2, Box(TOP))

    def test_propositional_clauses(self):
        assert truth_set(PAPER_BI, Imp(p, BOTTOM)) == {1}
        assert truth_set(PAPER_BI, TOP) == {1, 2}
        assert truth_set(PAPER_BI, And(p, p)) == {2}
        assert valid(PAPER_BI, Imp(p, p))
        assert not valid(PAPER_BI, p)

    def test_unknown_world_raises(self):
        with pytest.raises(UnknownWorldError):
            force(PAPER_BI, 7, p)

    def test_unknown_atom_is_false_everywhere(self):
        assert truth_set(PAPER_BI, Atom("zzz")) == frozenset()


class TestBiConditions:
    def test_empty_logic_checks_nothing(self):
        assert check_conditions(PAPER_BI, E) == {}
        assert conditions_ok({})

    def test_monotone_needs_empty_outer_bounds(self):
        report = check_conditions(PAPER_BI, M)
        assert report["M"][0] == "fail"
        assert report["M"][1] == (1, (frozenset(), frozenset({2})))
        ok = BiModel.make([1, 2], {}, {1: [({2}, ())]})
        assert check_conditions(ok, M)["M"] == ("pass", None)

    def test_n_needs_a_shared_pair(self):
        shared = BiModel.make([1, 2], {}, {1: [((1,), ())], 2: [((1,), ())]})
        assert check_conditions(shared, parse_logic_name("EN"))["N"][0] == "pass"
        missing = BiModel.make([1, 2], {}, {1: [((1,), ())]})
        assert check_conditions(missing, parse_logic_name("EN"))["N"][0] == "fail"

    def test_c_needs_merges(self):
        closed = BiModel.make(
            [1, 2, 3],
            {},
            {1: [((), (2, 3)), ((3,), ())]},
        )
        assert check_conditions(closed, EC)["C"][0] == "pass"
        open_ = BiModel.make([1, 2], {}, {1: [((1,), ()), ((2,), ())]})
        assert check_conditions(open_, EC)["C"][0] == "fail"

    def test_t_needs_membership_in_the_inner_bound(self):
        bad = check_conditions(PAPER_BI, parse_logic_name("ET"))
        assert bad["T"][0] == "fail"
        good = BiModel.make([1], {}, {1: [((1,), ())]})
        assert check_conditions(good, parse_logic_name("ET"))["T"][0] == "pass"

    def test_p_needs_nonempty_inner_bounds(self):
        assert check_conditions(PAPER_BI, parse_logic_name("EP"))["P"][0] == "fail"

    def test_d_rejects_doubly_disjoint_pairs(self):
        bad = BiModel.make([1], {}, {1: [((), ())]})
        assert check_conditions(bad, ED)["D"][0] == "fail"
        good = BiModel.make([1], {}, {1: [((1,), ())]})
        assert check_conditions(good, ED)["D"][0] == "pass"

    def test_graded_intersections(self):
        m = BiModel.make([1, 2], {}, {1: [((1,), ()), ((2,), ())]})
        report = check_conditions(m, parse_logic_name("ED2+"))
        assert report["RD1+"][0] == "pass"
        assert report["RD2+"][0] == "fail"
        assert not conditions_ok(report)


class TestStandardConditions:
    def test_monotone_is_upward_closure(self):
        closed = StandardModel.make([1, 2], {}, {1: [(1,), (1, 2)]})
        assert check_conditions(closed, M)["M"][0] == "pass"
        open_ = StandardModel.make([1, 2], {}, {1: [(1,)]})
        assert check_conditions(open_, M)["M"][0] == "fail"

    def test_n_is_the_unit(self):
        has_unit = StandardModel.make([1, 2], {}, {1: [(1, 2)], 2: [(1, 2)]})
        assert check_conditions(has_unit, parse_logic_name("EN"))["N"][0] == "pass"

    def test_c_is_intersection_closure(self):
        closed = StandardModel.make([1, 2], {}, {1: [(1,), (2,), ()]})
        assert check_conditions(closed, EC)["C"][0] == "pass"
        open_ = StandardModel.make([1, 2], {}, {1: [(1,), (2,)]})
        assert check_conditions(open_, EC)["C"][0] == "fail"

    def test_d_rejects_complement_pairs(self):
        bad = StandardModel.make([1, 2], {}, {1: [(1,), (2,)]})
        assert check_conditions(bad, ED)["D"][0] == "fail"
        good = StandardModel.make([1, 2], {}, {1: [(1,), (1, 2)]})
        assert check_conditions(good, ED)["D"][0] == "pass"


class TestRelationalConditions:
    def test_reflexivity_is_checked_on_normal_worlds(self):
        m = RelationalModel.make([1, 2], [2], {1: [1]}, {})
        report = check_conditions(m, parse_logic_name("MCT"))
        assert report["T"][0] == "pass"
        bad = RelationalModel.make([1, 2], [], {1: [1]}, {})
        assert check_conditions(bad, parse_logic_name("MCT"))["T"][0] == "fail"

    def test_n_and_seriality_are_checked(self):
        m = RelationalModel.make([1], [], {}, {})
        report = check_conditions(m, parse_logic_name("MCNP"))
        assert report["N"] == ("pass", None)
        assert report["P"] == ("fail", 1)
        assert not conditions_ok(report)

    def test_n_fails_at_the_first_non_normal_world(self):
        m = RelationalModel.make([1, 2, 3], [3, 2], {1: [2]}, {})
        assert check_conditions(m, parse_logic_name("MCN"))["N"] == ("fail", 2)

    @pytest.mark.parametrize("name, keys", [
        ("MCP", ["P"]),
        ("MCD", ["D"]),
        ("MCD3+", ["RD1+", "RD2+", "RD3+"]),
    ])
    def test_seriality_on_normal_worlds(self, name, keys):
        # world 3 is non-normal, so it needs no successor
        serial = RelationalModel.make([1, 2, 3], [3], {1: [2], 2: [2]}, {})
        stuck = RelationalModel.make([1, 2, 3], [3], {1: [2]}, {})
        logic = parse_logic_name(name)
        assert check_conditions(serial, logic) == {k: ("pass", None) for k in keys}
        assert check_conditions(stuck, logic) == {k: ("fail", 2) for k in keys}


class TestExtraction:
    def test_the_monotonicity_countermodel(self):
        out = prove(parse_input("box (p & q) -> box p"), E)
        m = extract_bi_countermodel(out.leaf, out.enumeration, E)
        assert m.worlds == {1, 2}
        assert m.valuation == {"p": frozenset({2})}
        assert m.nbhd[1] == {(frozenset(), frozenset({2}))}
        assert m.nbhd[2] == frozenset()
        assert not force(m, 1, interpret(out.leaf.components[0].seq))
        assert model_size(m) == 3

    def test_monotone_extraction_drops_negative_bounds(self):
        out = prove(parse_input("box p -> box box p"), MC)
        m = extract_bi_countermodel(out.leaf, out.enumeration, MC)
        assert m.nbhd[1] == {(frozenset({2}), frozenset())}
        assert conditions_ok(check_conditions(m, MC))

    def test_relational_extraction(self):
        out = prove(parse_input("box p -> box box p"), MC)
        m = extract_relational_countermodel(out.leaf, MC)
        assert m.worlds == {1, 2}
        assert m.non_normal == {2}
        assert m.relation[1] == {2}
        assert not force(m, 1, interpret(out.leaf.components[0].seq))

    def test_relational_extraction_needs_a_regular_logic(self):
        out = prove(parse_input("box (p & q) -> box p"), E)
        with pytest.raises(ValueError):
            extract_relational_countermodel(out.leaf, E)

    def test_extraction_needs_saturation(self):
        h = parse_hypersequent("p & q => r")
        with pytest.raises(ValueError):
            extract_bi_countermodel(h, {1: 1}, E)

    def test_extraction_validates_the_enumeration(self):
        out = prove(parse_input("box (p & q) -> box p"), E)
        with pytest.raises(ValueError):
            extract_bi_countermodel(out.leaf, {1: 1}, E)
        with pytest.raises(ValueError):
            extract_bi_countermodel(out.leaf, {1: 1, 2: 1}, E)

    @given(rngs)
    @settings(max_examples=60)
    def test_extracted_models_falsify_every_component(self, rng):
        logic = rng.choice([E, M, EC, parse_logic_name("EN"), ED])
        f = random_formula(rng, max_nodes=10, max_modal_depth=2, max_boxes=3)
        out = prove(parse_input(to_text(f)), logic)
        if not isinstance(out, Refuted):
            return
        m = extract_bi_countermodel(out.leaf, out.enumeration, logic)
        assert conditions_ok(check_conditions(m, logic))
        for c in out.leaf.components:
            w = out.enumeration[c.cid]
            assert not force(m, w, interpret(c.seq))


class TestBiFromStandard:
    def test_unsupplemented_pairs_with_complements(self):
        m = StandardModel.make([1, 2], {}, {1: [()]})
        out = bi_from_standard(m, supplemented=False)
        assert out.nbhd[1] == {(frozenset(), frozenset({1, 2}))}

    def test_supplemented_pairs_with_empty_outer_bound(self):
        m = StandardModel.make([1, 2], {}, {1: [(2,)]})
        out = bi_from_standard(m, supplemented=True)
        assert out.nbhd[1] == {(frozenset({2}), frozenset())}

    def test_empty_neighbourhoods_stay_empty(self):
        m = StandardModel.make([1], {}, {})
        assert bi_from_standard(m, False).nbhd == {1: frozenset()}

    @given(rngs)
    @settings(max_examples=80)
    def test_forcing_is_preserved(self, rng):
        m = random_standard_model(rng)
        out = bi_from_standard(m, supplemented=False)
        f = random_formula(rng, max_nodes=10, max_modal_depth=2)
        assert truth_set(out, f) == truth_set(m, f)

    @given(rngs)
    @settings(max_examples=60)
    def test_forcing_is_preserved_on_supplemented_sources(self, rng):
        m = supplement(random_standard_model(rng, max_worlds=5))
        out = bi_from_standard(m, supplemented=True)
        f = random_formula(rng, max_nodes=10, max_modal_depth=2)
        assert truth_set(out, f) == truth_set(m, f)


class TestStandardFromBiRough:
    def test_the_interval_is_enumerated(self):
        out = standard_from_bi_rough(PAPER_BI)
        assert out.nbhd[1] == {frozenset(), frozenset({1})}
        assert out.nbhd[2] == frozenset()

    def test_degenerate_interval(self):
        m = BiModel.make([1], {}, {1: [((1,), ())]})
        assert standard_from_bi_rough(m).nbhd[1] == {frozenset({1})}

    def test_crossed_bounds_contribute_nothing(self):
        m = BiModel.make([1], {}, {1: [((1,), (1,))]})
        assert standard_from_bi_rough(m).nbhd[1] == frozenset()

    def test_world_cap(self):
        m = BiModel.make(range(25), {}, {})
        with pytest.raises(ValueError):
            standard_from_bi_rough(m)
        assert standard_from_bi_rough(m, cap=30).worlds == frozenset(range(25))

    @given(rngs)
    @settings(max_examples=80)
    def test_forcing_is_preserved(self, rng):
        m = random_bi_model(rng)
        out = standard_from_bi_rough(m)
        f = random_formula(rng, max_nodes=10, max_modal_depth=2)
        assert truth_set(out, f) == truth_set(m, f)


class TestStandardFromBiFine:
    def test_the_monotonicity_example(self):
        s = subformula_closure([parse("box (p & q) -> box p")])
        out = standard_from_bi_fine(PAPER_BI, s, supplement=False)
        assert out.nbhd[1] == {frozenset()}
        assert out.nbhd[2] == frozenset()

    def test_no_boxes_means_no_neighbourhoods(self):
        out = standard_from_bi_fine(PAPER_BI, {p, q}, supplement=False)
        assert out.nbhd == {1: frozenset(), 2: frozenset()}

    def test_rejects_unclosed_sets(self):
        with pytest.raises(ValueError):
            standard_from_bi_fine(PAPER_BI, {Box(p)}, supplement=False)

    @given(rngs)
    @settings(max_examples=80)
    def test_forcing_agrees_on_the_closed_set(self, rng):
        m = random_bi_model(rng)
        f = random_formula(rng, max_nodes=10, max_modal_depth=2)
        s = subformula_closure([f])
        out = standard_from_bi_fine(m, s, supplement=False)
        for g in s:
            assert truth_set(out, g) == truth_set(m, g)

    @given(rngs)
    @settings(max_examples=60)
    def test_supplemented_agreement_on_monotone_sources(self, rng):
        m = random_bi_model(rng, max_worlds=5)
        mono = BiModel.make(
            m.worlds,
            m.valuation,
            {w: [(a, ()) for a, _ in pairs] for w, pairs in m.nbhd.items()},
        )
        f = random_formula(rng, max_nodes=10, max_modal_depth=2)
        s = subformula_closure([f])
        out = standard_from_bi_fine(mono, s, supplement=True)
        for g in s:
            assert truth_set(out, g) == truth_set(mono, g)


class TestSerialization:
    def test_bi_payload(self):
        data = model_to_dict(PAPER_BI)
        assert data == {
            "worlds": [1, 2],
            "valuation": {"p": [2]},
            "bi": {"1": [{"plus": [], "minus": [2]}], "2": []},
        }
        assert model_from_dict(data) == PAPER_BI

    def test_standard_and_relational_round_trip(self):
        st_model = StandardModel.make([1, 2], {"q": [1]}, {2: [(1, 2), ()]})
        assert model_from_dict(model_to_dict(st_model)) == st_model
        rel = RelationalModel.make([1, 2], [2], {1: [1, 2]}, {})
        assert model_from_dict(model_to_dict(rel)) == rel

    def test_unknown_payload_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"worlds": [1], "valuation": {}})

    def test_make_validates_worlds(self):
        with pytest.raises(ValueError):
            BiModel.make([1], {"p": [2]}, {})
        with pytest.raises(ValueError):
            BiModel.make([1], {}, {2: []})
        with pytest.raises(ValueError):
            StandardModel.make([1], {}, {1: [(2,)]})
        with pytest.raises(ValueError):
            RelationalModel.make([1], [2], {}, {})

    @given(rngs)
    @settings(max_examples=60)
    def test_random_round_trips(self, rng):
        m = random_bi_model(rng)
        assert model_from_dict(model_to_dict(m)) == m
        st_model = random_standard_model(rng)
        assert model_from_dict(model_to_dict(st_model)) == st_model


def supplement(m: StandardModel) -> StandardModel:
    from itertools import combinations

    ws = sorted(m.worlds)
    closed = {}
    for w, sets in m.nbhd.items():
        grown = set(sets)
        for alpha in sets:
            free = [x for x in ws if x not in alpha]
            for k in range(len(free) + 1):
                for extra in combinations(free, k):
                    grown.add(alpha | frozenset(extra))
        closed[w] = grown
    return StandardModel.make(m.worlds, m.valuation, closed)
