"""Proof search in both modes, plus the independent derivation checker."""

import sys

import pytest
from hypothesis import given, settings

from conftest import rngs
from nnml.calculus import is_saturated
from nnml.formula import Atom, to_text
from nnml.gen import random_formula, random_hypersequent
from nnml.hypersequent import parse_hypersequent, parse_input, render_hypersequent
from nnml.logic import INIT, OR_L, parse_logic_name
from nnml.search import (
    BudgetExceeded,
    CheckReport,
    Derivation,
    Proved,
    Refuted,
    SearchStats,
    check_derivation,
    derivation_to_dict,
    prove,
    prove_unkleened,
)

p, q = Atom("p"), Atom("q")


def to_goal(f):
    return to_text(f)


E = parse_logic_name("E")
M = parse_logic_name("M")
EC = parse_logic_name("EC")
EN = parse_logic_name("EN")
ET = parse_logic_name("ET")
EP = parse_logic_name("EP")
ED = parse_logic_name("ED")
K = parse_logic_name("K")
MD = parse_logic_name("MD")
MN = parse_logic_name("MN")
MC = parse_logic_name("MC")
ENP = parse_logic_name("ENP")
ED3 = parse_logic_name("ED3+")


def outcome(text, logic):
    return prove(parse_input(text), logic)


def hansson(n):
    """~(box p1 & ... & box pn & box ~(p1 & ... & pn))"""
    ps = [f"p{i}" for i in range(1, n + 1)]
    return "~(" + " & ".join([f"box {a}" for a in ps] + [f"box ~({' & '.join(ps)})"]) + ")"


def agglomeration(n):
    """box p1 & ... & box pn -> box (p1 & ... & pn)"""
    ps = [f"p{i}" for i in range(1, n + 1)]
    return " & ".join(f"box {a}" for a in ps) + f" -> box ({' & '.join(ps)})"


class TestDerivability:
    @pytest.mark.parametrize(
        "text,logic",
        [
            ("box (p & q) => box (q & p)", E),
            ("box (p & q) -> box p", M),
            ("box p & box q -> box (p & q)", EC),
            ("box true", EN),
            ("box p -> p", ET),
            ("~box false", EP),
            ("box p -> ~box ~p", ED),
            ("box (p -> q) -> (box p -> box q)", K),
        ],
    )
    def test_characteristic_theorems(self, text, logic):
        assert isinstance(outcome(text, logic), Proved)

    @pytest.mark.parametrize(
        "text,logic",
        [
            ("box (p & q) -> box p", E),
            ("box p & box q -> box (p & q)", E),
            ("box true", E),
            ("box (p -> q) -> (box p -> box q)", EC),
            ("box p -> p", E),
            ("~box false", ED),
            ("box p -> ~box ~p", EP),
            ("box p -> box box p", parse_logic_name("MC")),
        ],
    )
    def test_characteristic_non_theorems(self, text, logic):
        assert isinstance(outcome(text, logic), Refuted)

    def test_propositional_tautologies(self):
        assert isinstance(outcome("p | ~p", E), Proved)
        assert isinstance(outcome("((p -> q) -> p) -> p", E), Proved)
        assert isinstance(outcome("p -> q", E), Refuted)


class TestRefutations:
    def test_leaf_is_saturated_and_enumerated(self):
        out = outcome("box (p & q) -> box p", E)
        assert is_saturated(out.leaf, E)
        assert out.enumeration == {1: 1, 2: 2}

    def test_the_failed_monotonicity_search_leaf(self):
        out = outcome("box (p & q) -> box p", E)
        assert render_hypersequent(out.leaf) == (
            "box (p & q), <p & q> => box p, box (p & q) -> box p | p => q, p & q"
        )

    @given(rngs)
    @settings(max_examples=80)
    def test_every_refutation_leaf_is_saturated(self, rng):
        logic = rng.choice([E, M, EC, EN, ET, EP, ED, K])
        f = random_formula(rng, max_nodes=12, max_modal_depth=2, max_boxes=3)
        out = prove(parse_input(to_goal(f)), logic)
        if isinstance(out, Refuted):
            assert is_saturated(out.leaf, logic)
            assert sorted(out.enumeration.values()) == list(
                range(1, len(out.leaf.components) + 1)
            )


class TestDeterminism:
    def test_repeat_runs_agree(self):
        h = parse_input("box (p -> q) -> (box p -> box q)")
        assert prove(h, EC) == prove(h, EC)
        first = prove(h, K)
        second = prove(h, K)
        assert isinstance(first, Proved) and first == second


class TestBudget:
    def test_budget_exhaustion_raises(self):
        h = parse_input("box (p & q) -> box p")
        with pytest.raises(BudgetExceeded) as err:
            prove(h, E, budget=2)
        assert err.value.visited == 3
        assert err.value.budget == 2

    @pytest.mark.parametrize(
        "text,logic",
        [
            (hansson(3), ED),
            (hansson(2), parse_logic_name("ED3+")),
            (agglomeration(4), E),
            (agglomeration(4), EC),
            ("box (p & q) -> box p", E),
        ],
    )
    def test_outcome_carries_the_visited_count(self, text, logic):
        st = SearchStats()
        out = prove(parse_input(text), logic, stats=st)
        assert out.visited == st.visited

    def test_stats_are_recorded(self):
        st = SearchStats()
        prove(parse_input("box (p & q) -> box p"), E, stats=st)
        assert st.visited >= 4
        assert st.max_components == 2
        assert st.max_component_size >= 4
        assert st.max_nodes >= st.max_component_size


class TestChecker:
    def test_accepts_its_own_proofs(self):
        out = outcome("box p & box q -> box (p & q)", EC)
        assert check_derivation(out.derivation, EC)

    def test_conclusion_is_the_input(self):
        h = parse_input("box true")
        out = prove(h, EN)
        assert out.derivation.conclusion == h

    def test_rejects_rule_outside_the_calculus(self):
        out = outcome("box true", EN)
        report = check_derivation(out.derivation, E)
        assert not report.ok
        assert "not in this calculus" in report.reason

    def test_rejects_corrupted_rule_name(self):
        out = outcome("p & q -> p", E)
        d = out.derivation
        # the root applies ImpR; relabel it as OrL
        bad = Derivation(d.conclusion, OR_L, d.cid, d.principal, d.children)
        report = check_derivation(bad, E)
        assert not report.ok
        assert "bad instance" in report.reason

    def test_rejects_fake_initial_leaf(self):
        leaf = Derivation(parse_hypersequent("p => q"), INIT, 1, (p,), ())
        report = check_derivation(leaf, E)
        assert not report.ok
        assert "both sides" in report.reason

    def test_rejects_initial_tag_on_internal_node(self):
        out = outcome("p -> p", E)
        d = out.derivation
        bad = Derivation(d.conclusion, INIT, 1, (p,), d.children)
        report = check_derivation(bad, E)
        assert not report.ok
        assert "internal node" in report.reason

    def test_rejects_mismatched_children_with_path(self):
        out = outcome("p & q -> q & p", E)
        d = out.derivation

        def corrupt(node):
            if not node.children:
                return None
            first = node.children[0]
            if not first.children:
                wrong = Derivation(
                    parse_hypersequent("q => q"), INIT, 1, (q,), ()
                )
                return Derivation(
                    node.conclusion, node.rule, node.cid, node.principal,
                    (wrong,) + node.children[1:],
                )
            fixed = corrupt(first)
            return Derivation(
                node.conclusion, node.rule, node.cid, node.principal,
                (fixed,) + node.children[1:],
            )

        bad = corrupt(d)
        report = check_derivation(bad, E)
        assert not report.ok
        assert "do not match" in report.reason

    @given(rngs)
    @settings(max_examples=60)
    def test_accepts_random_proofs(self, rng):
        logic = rng.choice([E, M, EC, EN, ET, EP, ED, K])
        h = random_hypersequent(rng, max_nodes=8, max_boxes=2)
        out = prove(h, logic, budget=200_000)
        if isinstance(out, Proved):
            assert check_derivation(out.derivation, logic)


class TestLeanMode:
    def test_decides_the_same_theorems(self):
        assert prove_unkleened(parse_input("box (p & q) => box (q & p)"), E)
        assert not prove_unkleened(parse_input("box (p & q) -> box p"), E)
        assert prove_unkleened(parse_input("box (p -> q) -> (box p -> box q)"), K)
        assert not prove_unkleened(
            parse_input("box (p -> q) -> (box p -> box q)"), EC
        )

    def test_handles_verum_blocks_without_guessing(self):
        assert prove_unkleened(parse_input("box true"), EN)
        assert prove_unkleened(parse_input("box (true & true)"), parse_logic_name("ECN"))

    @pytest.mark.parametrize(
        "family,logic,counts",
        [
            (hansson, ED, {2: (False, 78, 14, 4), 3: (False, 376, 19, 5), 4: (False, 1857, 24, 6)}),
            (hansson, EP, {2: (False, 52, 14, 4), 3: (False, 188, 19, 5), 4: (False, 660, 24, 6)}),
            (agglomeration, E, {2: (False, 24, 10, 2), 4: (False, 289, 20, 2), 6: (False, 2455, 30, 2)}),
            (agglomeration, M, {2: (False, 16, 10, 2), 4: (False, 180, 20, 2), 6: (False, 1574, 30, 2)}),
            (hansson, MD, {2: (False, 78, 14, 4), 3: (False, 376, 19, 5), 4: (False, 1857, 24, 6)}),
            (agglomeration, MN, {2: (False, 26, 11, 2), 4: (False, 272, 21, 2), 6: (False, 2144, 31, 2)}),
            (hansson, ED3, {2: (True, 45, 14, 4)}),
            (agglomeration, MC, {4: (True, 19, 20, 2)}),
        ],
    )
    def test_search_order_on_the_separation_families(self, family, logic, counts):
        # The visited count pins the order in which lean search backtracks
        # over the instances; the largest goal and the most components pin
        # the premisses it builds. In MN every new component gets the
        # verum block.
        for n, pinned in counts.items():
            st = SearchStats()
            derivable = prove_unkleened(parse_input(family(n)), logic, stats=st)
            assert (derivable, st.visited, st.max_nodes, st.max_components) == pinned

    @pytest.mark.parametrize(
        "text,logic,memo_hits,cycle_cuts",
        [(hansson(3), ED, 571, 0), (hansson(2), ENP, 1202, 224)],
    )
    def test_counts_memo_hits_and_cycle_cuts(self, text, logic, memo_hits, cycle_cuts):
        st = SearchStats()
        assert not prove_unkleened(parse_input(text), logic, stats=st)
        assert (st.memo_hits, st.cycle_cuts) == (memo_hits, cycle_cuts)

    def test_invertible_search_leaves_lean_counters_at_zero(self):
        st = SearchStats()
        prove(parse_input(hansson(2)), ENP, stats=st)
        assert st.visited > 0
        assert (st.memo_hits, st.cycle_cuts) == (0, 0)

    def test_search_runs_under_the_callers_recursion_limit(self):
        limits = set()

        class LimitStats(SearchStats):
            def record(self, h):
                limits.add(sys.getrecursionlimit())
                super().record(h)

        assert not prove_unkleened(parse_input(hansson(3)), ED, stats=LimitStats())
        assert limits == {sys.getrecursionlimit()}

    @given(rngs)
    @settings(max_examples=80)
    def test_agrees_with_the_invertible_mode(self, rng):
        logic = rng.choice([E, M, EC, EN, ET, EP, ED, K])
        f = random_formula(rng, max_nodes=10, max_modal_depth=2, max_boxes=3)
        h = parse_input(to_goal(f))
        expected = isinstance(prove(h, logic), Proved)
        assert prove_unkleened(h, logic) == expected


class TestSerialization:
    def test_tree_shape(self):
        out = outcome("p -> p", E)
        data = derivation_to_dict(out.derivation)
        assert data["rule"] == "ImpR"
        assert data["conclusion"] == "=> p -> p"
        (child,) = data["premisses"]
        assert child["rule"] == "Init"
        assert child["premisses"] == []
