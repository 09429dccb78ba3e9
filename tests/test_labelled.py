"""Labelled-sequent translation and the labelled derivation checker."""

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings

from conftest import rngs
from nnml.formula import Atom, Box, Imp, TOP
from nnml.gen import random_formula, random_hypersequent
from nnml.hypersequent import parse_hypersequent, parse_input
from nnml.labelled import (
    ForcesAll,
    ForcesEx,
    LabelledDerivation,
    LabelledSequent,
    MemberOf,
    NbTerm,
    PairOf,
    TranslationError,
    WorldAt,
    check_labelled,
    labelled_derivation_to_dict,
    render_labelled_sequent,
    translate_derivation,
    translate_hypersequent,
)
from nnml.calculus import build_premisses
from nnml.logic import AND_L, AND_R, IMP_L, IMP_R, INIT, OR_L, OR_R, parse_logic_name
from nnml.search import Derivation, Proved, check_derivation, prove

p, q = Atom("p"), Atom("q")

E = parse_logic_name("E")
M = parse_logic_name("M")
EC = parse_logic_name("EC")
EN = parse_logic_name("EN")
ET = parse_logic_name("ET")

CUBE = [parse_logic_name(n) for n in ["E", "M", "EC", "EN", "ECN", "MC", "MN", "MCN"]]


def rule_trace(d: LabelledDerivation) -> list[str]:
    return [d.rule] + [r for c in d.children for r in rule_trace(c)]


class TestTerms:
    def test_labels_are_sorted(self):
        assert NbTerm.of(("b", "a")).labels == ("a", "b")

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            NbTerm.of(())

    def test_single_overline(self):
        t = NbTerm.of(("a",)).negated()
        assert t.render() == "~a"
        with pytest.raises(ValueError):
            t.negated()

    def test_only_positive_terms_compose(self):
        a, b = NbTerm.of(("a",)), NbTerm.of(("b",))
        assert a.merged(b).render() == "ab"
        with pytest.raises(ValueError):
            a.negated().merged(b)

    def test_forcing_polarities(self):
        a = NbTerm.of(("a",))
        with pytest.raises(ValueError):
            ForcesAll(a.negated(), p)
        with pytest.raises(ValueError):
            ForcesEx(a, p)
        with pytest.raises(ValueError):
            PairOf(a.negated(), "x1")


class TestInterning:
    def test_equal_terms_are_one_object(self):
        assert NbTerm.of(("b", "a")) is NbTerm.of(("a", "b"))
        assert NbTerm.of(("a",)).negated() is NbTerm.of(("a",), True)

    def test_equal_labelled_formulas_are_one_object(self):
        t = NbTerm.of(("a",))
        assert WorldAt("x1", Box(p)) is WorldAt("x1", Box(Atom("p")))
        assert ForcesEx(t.negated(), q) is ForcesEx(NbTerm.of(("a",)).negated(), q)

    def test_permuted_items_give_one_sequent(self):
        t = NbTerm.of(("a",))
        items = [WorldAt("x1", p), PairOf(t, "x1"), MemberOf("x2", t), ForcesAll(t, q)]
        s = LabelledSequent.of(items, [WorldAt("x1", q), ForcesEx(t.negated(), p)])
        assert LabelledSequent.of(items[::-1], [ForcesEx(t.negated(), p), WorldAt("x1", q)]) is s
        assert s.left == (MemberOf("x2", t), PairOf(t, "x1"), ForcesAll(t, q), WorldAt("x1", p))
        assert render_labelled_sequent(s) == "x2 in a, a |> x1, a |=A q, x1:p => ~a |=E p, x1:q"

    def test_copies_are_the_live_value(self):
        t = NbTerm.of(("a", "b"))
        s = LabelledSequent.of([PairOf(t, "x1"), ForcesAll(t, Imp(p, q))], [ForcesEx(t.negated(), p)])
        assert copy.deepcopy(s) is s
        assert copy.copy(s) is s
        assert copy.deepcopy(t.negated()) is t.negated()

    def test_translations_share_their_sequents(self):
        h = parse_hypersequent("<p, q> => box r | s => t")
        assert translate_hypersequent(h, EC) is translate_hypersequent(h, EC)


class TestStaticTranslation:
    def test_block_and_box(self):
        s = translate_hypersequent(parse_hypersequent("<p & q> => box p"), M)
        assert render_labelled_sequent(s) == (
            "a |> x1, a |=A (p & q) => ~a |=E (p & q), x1:box p"
        )

    def test_blockless_component(self):
        s = translate_hypersequent(parse_hypersequent("p => q"), E)
        assert render_labelled_sequent(s) == "x1:p => x1:q"

    def test_verum_block_uses_the_constant_term(self):
        s = translate_hypersequent(parse_hypersequent("<true> =>"), EN)
        assert render_labelled_sequent(s) == "tau |> x1, tau |=A true => ~tau |=E true"

    def test_later_components_are_anchored_to_the_first_term(self):
        s = translate_hypersequent(parse_hypersequent("<p> => q | r => s"), EC)
        assert render_labelled_sequent(s) == (
            "x2 in a, a |> x1, a |=A p, x2:r => ~a |=E p, x1:q, x2:s"
        )

    def test_no_term_means_no_anchor(self):
        s = translate_hypersequent(parse_hypersequent("p => q | r => s"), EC)
        assert render_labelled_sequent(s) == "x1:p, x2:r => x1:q, x2:s"

    def test_two_member_blocks_compose(self):
        s = translate_hypersequent(parse_hypersequent("<p, q> => r"), E)
        assert render_labelled_sequent(s) == (
            "ab |> x1, a |=A p, b |=A q => ~a |=E p, ~b |=E q, x1:r"
        )

    def test_cube_only(self):
        with pytest.raises(TranslationError):
            translate_hypersequent(parse_hypersequent("p => q"), ET)

    @given(rngs)
    @settings(max_examples=60)
    def test_blocks_get_distinct_terms_and_components_distinct_worlds(self, rng):
        h = random_hypersequent(rng)
        if any(set(b.members) == {TOP} for c in h.components for b in c.blocks):
            return
        s = translate_hypersequent(h, EC)
        pairs = [f for f in s.left if isinstance(f, PairOf)]
        assert len(pairs) == sum(len(c.blocks) for c in h.components)
        assert len({f.term for f in pairs}) == len(pairs)
        worlds = {f.world for f in s.left + s.right if isinstance(f, (WorldAt, PairOf))}
        assert worlds <= {f"x{i}" for i in range(1, len(h.components) + 1)}


class TestDerivationTranslation:
    def test_monotonicity_axiom_shape(self):
        out = prove(parse_input("box (p & q) -> box p"), M)
        ld = translate_derivation(out.derivation, M)
        assert rule_trace(ld) == [
            "R-imp",
            "L-box",
            "R-box",
            "R-forall",
            "L-forall",
            "L-and",
            "init",
            "L-exists",
            "M",
        ]
        assert ld.conclusion == translate_hypersequent(
            parse_input("box (p & q) -> box p"), M
        )
        assert check_labelled(ld, M)

    def test_verum_axiom_shape(self):
        out = prove(parse_input("box true"), EN)
        ld = translate_derivation(out.derivation, EN)
        assert rule_trace(ld) == [
            "N",
            "R-box",
            "R-forall",
            "R-top",
            "L-exists",
            "tau-empty",
        ]
        assert check_labelled(ld, EN)

    @pytest.mark.parametrize(
        "name,text",
        [
            ("E", "box (p & q) -> box (q & p)"),
            ("E", "((p -> q) -> p) -> p"),
            ("M", "box (p & q) -> box p"),
            ("M", "box p -> box (p | q)"),
            ("EC", "box p & box q -> box (p & q)"),
            ("EN", "box true"),
            ("MN", "box (p -> p)"),
            ("MCN", "box (p -> q) -> (box p -> box q)"),
        ],
    )
    def test_translated_theorems_check(self, name, text):
        logic = parse_logic_name(name)
        out = prove(parse_input(text), logic)
        assert isinstance(out, Proved)
        ld = translate_derivation(out.derivation, logic)
        report = check_labelled(ld, logic)
        assert report.ok, report.reason
        assert ld.conclusion == translate_hypersequent(parse_input(text), logic)

    def test_rejects_non_cube_logics(self):
        out = prove(parse_input("box p -> p"), parse_logic_name("ET"))
        with pytest.raises(TranslationError):
            translate_derivation(out.derivation, ET)

    def test_rejects_broken_derivations(self):
        from nnml.logic import AND_L

        out = prove(parse_input("p -> p"), E)
        broken = replace(out.derivation, rule=AND_L)
        with pytest.raises(TranslationError):
            translate_derivation(broken, E)

    def test_rejects_the_verum_rule_on_empty_components(self):
        out = prove(parse_hypersequent("=> | => box true"), EN)
        assert isinstance(out, Proved)
        with pytest.raises(TranslationError):
            translate_derivation(out.derivation, EN)

    @given(rngs)
    @settings(max_examples=40)
    def test_random_theorems_translate_and_check(self, rng):
        from nnml.formula import to_text

        logic = rng.choice(CUBE)
        f = random_formula(rng, max_nodes=10, max_modal_depth=2, max_boxes=3)
        out = prove(parse_input(to_text(f)), logic)
        if not isinstance(out, Proved):
            return
        ld = translate_derivation(out.derivation, logic)
        report = check_labelled(ld, logic)
        assert report.ok, report.reason
        assert ld.conclusion == translate_hypersequent(parse_input(to_text(f)), logic)


def compound_leaf_derivation(text: str, rules) -> Derivation:
    """A derivation of a one-component goal ``f => f`` that applies each
    rule in turn to f on every branch, then closes each leaf with Init
    on f."""
    h = parse_hypersequent(text)
    (f,) = h.component(1).left

    def build(h, rules):
        if not rules:
            return Derivation(h, INIT, 1, (f,), ())
        premisses = build_premisses(h, rules[0], 1, (f,))
        return Derivation(h, rules[0], 1, (f,), tuple(build(g, rules[1:]) for g in premisses))

    return build(h, rules)


class TestCompoundLeaves:
    """Init closes a leaf on a compound formula; its labelled translation
    closes it by the formula's rules."""

    @pytest.mark.parametrize("text", ["p & q -> p & q", "(p -> q) -> (p -> q)", "p | q -> p | q", "~p -> ~p"])
    def test_leaves_search_closes_on_a_compound(self, text):
        out = prove(parse_input(text), E)
        assert isinstance(out, Proved)
        leaf = out.derivation.children[0]
        assert leaf.rule == INIT and not isinstance(leaf.principal[0], Atom)
        ld = translate_derivation(out.derivation, E)
        report = check_labelled(ld, E)
        assert report.ok, report.reason

    @pytest.mark.parametrize(
        "text, rules",
        [("p | q => p | q", (OR_L, OR_R)), ("p -> q => p -> q", (IMP_L, IMP_R)), ("p & q => p & q", (AND_L, AND_R))],
    )
    def test_leaves_after_both_rules_on_the_compound(self, text, rules):
        # Both rules have taken the compound apart before the leaf, so
        # closing it chooses a side by what still supports it.
        d = compound_leaf_derivation(text, rules)
        assert check_derivation(d, E)
        ld = translate_derivation(d, E)
        report = check_labelled(ld, E)
        assert report.ok, report.reason
        assert ld.conclusion == translate_hypersequent(d.conclusion, E)


class TestChecker:
    def proof_of_identity(self) -> LabelledDerivation:
        out = prove(parse_input("p -> p"), E)
        return translate_derivation(out.derivation, E)

    def test_accepts_without_a_logic(self):
        assert check_labelled(self.proof_of_identity())

    def test_rejects_non_cube_logics(self):
        report = check_labelled(self.proof_of_identity(), ET)
        assert not report.ok
        assert "cube" in report.reason

    def test_rule_with_missing_principal(self):
        ld = self.proof_of_identity()
        broken = replace(ld, rule="L-imp")
        report = check_labelled(broken, E)
        assert not report.ok
        assert "missing from the left side" in report.reason

    def test_mismatched_children(self):
        ld = self.proof_of_identity()
        broken = replace(ld, children=(replace(ld.children[0], conclusion=ld.conclusion),))
        report = check_labelled(broken, E)
        assert not report.ok
        assert report.reason == "children do not match the premisses of the rule"
        assert report.path == ()

    def test_axioms_take_no_premisses(self):
        leaf = LabelledDerivation(
            "init",
            ("x1", p),
            LabelledSequent.of([WorldAt("x1", p)], [WorldAt("x1", p)]),
            (),
        )
        padded = replace(leaf, children=(leaf,))
        report = check_labelled(padded)
        assert not report.ok
        assert report.reason == "axioms take no premisses"

    def test_monotonicity_axiom_is_gated_by_the_logic(self):
        t = NbTerm.of(("a",))
        seq = LabelledSequent.of(
            [PairOf(t, "x1"), MemberOf("x2", t.negated())], []
        )
        node = LabelledDerivation("M", (t, "x1", "x2"), seq, ())
        assert check_labelled(node, M)
        report = check_labelled(node, E)
        assert not report.ok
        assert "not in this logic" in report.reason

    def test_box_left_freshness(self):
        t = NbTerm.of(("a",))
        seq = LabelledSequent.of(
            [WorldAt("x1", Box(p)), PairOf(t, "x1"), ForcesAll(t, q)],
            [ForcesEx(t.negated(), q)],
        )
        node = LabelledDerivation("L-box", ("x1", Box(p), "a"), seq, ())
        report = check_labelled(node)
        assert not report.ok
        assert report.reason == "label a is not fresh"

    def test_forall_right_freshness(self):
        t = NbTerm.of(("a",))
        seq = LabelledSequent.of(
            [PairOf(t, "x1")], [ForcesAll(t, p), WorldAt("x2", q)]
        )
        node = LabelledDerivation("R-forall", (t, p, "x2"), seq, ())
        report = check_labelled(node)
        assert not report.ok
        assert report.reason == "world x2 is not fresh"

    def test_verum_rule_needs_its_world(self):
        seq = LabelledSequent.of([], [WorldAt("x1", p)])
        node = LabelledDerivation("N", ("x2",), seq, ())
        report = check_labelled(node, EN)
        assert not report.ok
        assert "must occur in the conclusion" in report.reason

    def test_verum_rule_is_gated_by_the_logic(self):
        seq = LabelledSequent.of([], [WorldAt("x1", p)])
        node = LabelledDerivation("N", ("x1",), seq, ())
        report = check_labelled(node, E)
        assert not report.ok
        assert "not in this logic" in report.reason

    def test_unknown_rules(self):
        node = LabelledDerivation("frobnicate", (), LabelledSequent.of([], []), ())
        report = check_labelled(node)
        assert not report.ok
        assert report.reason == "unknown rule frobnicate"

    def test_failure_paths_point_at_the_offending_node(self):
        ld = self.proof_of_identity()
        broken = replace(ld, children=(replace(ld.children[0], rule="frobnicate"),))
        report = check_labelled(broken)
        assert not report.ok
        assert report.path == (0,)


class TestSerialization:
    def test_dict_shape(self):
        out = prove(parse_input("p -> p"), E)
        ld = translate_derivation(out.derivation, E)
        data = labelled_derivation_to_dict(ld)
        assert data["rule"] == "R-imp"
        assert data["conclusion"] == "=> x1:(p -> p)"
        assert data["premisses"][0] == {
            "rule": "init",
            "conclusion": "x1:p => x1:p",
            "premisses": [],
        }
