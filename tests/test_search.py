"""Proof search in both modes, plus the independent derivation checker."""

import sys

import pytest
from hypothesis import given, settings

from conftest import rngs
from saturation_oracle import saturated_by_clauses
from test_acceptance import LOGICS
from nnml.calculus import initial_evidence, is_saturated, iter_instances
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
ED4 = parse_logic_name("ED4+")
ECD = parse_logic_name("ECD")
ED2 = parse_logic_name("ED2+")
MCT = parse_logic_name("MCT")


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


def negations(k):
    """~^k p"""
    return "~" * k + "p"


def double_negation(k):
    """p -> ~^{2k} p"""
    return "p -> " + negations(2 * k)


def box_chain(k):
    """box^k (p & q) -> box^k p"""
    return "box " * k + "(p & q) -> " + "box " * k + "p"


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
        assert saturated_by_clauses(out.leaf, E)
        assert len(out.leaf.components) == 2

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
            assert saturated_by_clauses(out.leaf, logic)


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

    @pytest.mark.parametrize(
        "family,logic,counts",
        [
            (hansson, ECD, {2: (True, 1424, 126, 11)}),
            (hansson, ED3, {2: (True, 46, 93, 8)}),
            (hansson, ED4, {3: (True, 874, 223, 16)}),
            (agglomeration, EC, {2: (True, 18, 38, 3), 4: (True, 91, 137, 3), 6: (True, 272, 456, 3)}),
            (agglomeration, MC, {2: (True, 12, 38, 3), 4: (True, 48, 137, 3), 5: (True, 82, 245, 3)}),
            (double_negation, E, {2: (True, 8, 39, 1), 5: (True, 17, 150, 1), 8: (True, 26, 333, 1)}),
            (box_chain, M, {2: (True, 7, 36, 3), 5: (True, 13, 96, 6), 10: (True, 23, 256, 11)}),
            (hansson, ED, {2: (False, 20, 82, 7), 3: (False, 32, 150, 11), 4: (False, 47, 247, 16)}),
            (hansson, MD, {2: (False, 20, 82, 7), 3: (False, 32, 150, 11), 4: (False, 47, 247, 16)}),
            (hansson, EP, {2: (False, 12, 60, 4), 3: (False, 16, 93, 5), 4: (False, 20, 131, 6)}),
            (agglomeration, E, {2: (False, 14, 36, 3), 4: (False, 39, 132, 5), 6: (False, 76, 337, 7)}),
            (agglomeration, M, {2: (False, 10, 35, 3), 4: (False, 26, 132, 5), 6: (False, 50, 337, 7)}),
            (negations, E, {4: (False, 5, 27, 1), 10: (False, 11, 126, 1)}),
        ],
    )
    def test_invertible_search_order_on_the_separation_families(self, family, logic, counts):
        # The visited count pins the order in which invertible search
        # takes instances; the largest goal and the most components pin
        # the premisses it builds.
        for n, pinned in counts.items():
            st = SearchStats()
            out = prove(parse_input(family(n)), logic, stats=st)
            assert (isinstance(out, Proved), st.visited, st.max_nodes, st.max_components) == pinned

    def test_hansson_in_ecd_stops_at_its_budget(self):
        st = SearchStats()
        with pytest.raises(BudgetExceeded) as err:
            prove(parse_input(hansson(3)), ECD, budget=400, stats=st)
        assert (err.value.visited, st.visited, st.max_nodes, st.max_components) == (401, 401, 244, 12)

    def test_stats_are_recorded(self):
        st = SearchStats()
        prove(parse_input("box (p & q) -> box p"), E, stats=st)
        assert st.visited >= 4
        assert st.max_components == 2
        assert st.max_component_size >= 4
        assert st.max_nodes >= st.max_component_size


def full_scan_prove(h, logic, budget):
    """Invertible search that takes the first instance of a full scan at
    every goal, with no agenda: the oracle ``prove`` is checked against."""
    visited = 0

    def search(goal):
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetExceeded(visited, budget)
        if (ev := initial_evidence(goal)) is not None:
            tag, cid, f = ev
            return Derivation(goal, tag, cid, () if f is None else (f,), ())
        inst = next(iter_instances(goal, logic), None)
        if inst is None:
            return goal
        children = []
        for premiss in inst.premisses:
            child = search(premiss)
            if not isinstance(child, Derivation):
                return child
            children.append(child)
        return Derivation(goal, inst.rule, inst.cid, inst.principal, tuple(children))

    result = search(h)
    return Proved(result, visited) if isinstance(result, Derivation) else Refuted(result, visited)


def outcome_or_budget(search, h, logic, budget):
    try:
        return search(h, logic, budget=budget)
    except BudgetExceeded as e:
        return ("budget", e.visited)


class TestAgendaOracle:
    """The agenda changes how many candidates search loop-checks, never
    what it finds: the same derivation or saturated leaf, after the same
    number of goals, as a full scan of every goal."""

    @given(rngs)
    @settings(max_examples=100)
    def test_matches_the_full_scan_search_on_random_hypersequents(self, rng):
        logic = rng.choice([E, M, EC, ECD, EN, ET, ED2, MCT])
        h = random_hypersequent(rng, max_nodes=6, max_boxes=2)
        assert outcome_or_budget(prove, h, logic, 2_000) == outcome_or_budget(full_scan_prove, h, logic, 2_000)

    @pytest.mark.parametrize(
        "text,logic",
        [(agglomeration(n), logic) for logic in (EC, MC) for n in (2, 3, 4)]
        + [(hansson(2), ECD), (hansson(2), ED3)],
    )
    def test_matches_the_full_scan_search_on_the_separation_families(self, text, logic):
        h = parse_input(text)
        assert outcome_or_budget(prove, h, logic, 5_000) == full_scan_prove(h, logic, 5_000)


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

    @pytest.mark.parametrize("past", [False, True], ids=["0 and -1", "n+1"])
    def test_rejects_component_numbers_out_of_range(self, past):
        # Both components are initial on p, so a number read from the
        # end of the tuple would pass.
        goal = parse_hypersequent("p => p | p => p")
        d = outcome("p & q -> q & p", E).derivation
        for cid in (3,) if past else (0, -1):
            report = check_derivation(Derivation(goal, INIT, cid, (p,), ()), E)
            assert not report.ok
            assert "not in its conclusion" in report.reason
        for cid in (2,) if past else (0, -1):
            report = check_derivation(Derivation(d.conclusion, d.rule, cid, d.principal, d.children), E)
            assert not report.ok
            assert "no component" in report.reason

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
            (hansson, ED, {2: (False, 40, 14, 4), 3: (False, 143, 19, 5), 4: (False, 562, 24, 6)}),
            (hansson, EP, {2: (False, 22, 14, 4), 3: (False, 48, 19, 5), 4: (False, 106, 24, 6)}),
            (agglomeration, E, {2: (False, 14, 10, 2), 4: (False, 39, 20, 2), 6: (False, 76, 30, 2)}),
            (agglomeration, M, {2: (False, 10, 10, 2), 4: (False, 26, 20, 2), 6: (False, 50, 30, 2)}),
            (hansson, MD, {2: (False, 40, 14, 4), 3: (False, 143, 19, 5), 4: (False, 562, 24, 6)}),
            (agglomeration, MN, {2: (False, 12, 11, 2), 4: (False, 30, 21, 2), 6: (False, 56, 31, 2)}),
            (hansson, ED3, {2: (True, 45, 14, 4)}),
            (agglomeration, MC, {4: (True, 19, 20, 2)}),
        ],
    )
    def test_search_order_on_the_separation_families(self, family, logic, counts):
        # The visited count pins the order in which lean search backtracks
        # over the instances it does not commit to; the largest goal and
        # the most components pin the premisses it builds. In MN every new
        # component gets the verum block.
        for n, pinned in counts.items():
            st = SearchStats()
            derivable = prove_unkleened(parse_input(family(n)), logic, stats=st)
            assert (derivable, st.visited, st.max_nodes, st.max_components) == pinned

    @pytest.mark.parametrize(
        "text,logic,memo_hits,cycle_cuts",
        [(hansson(3), ED, 44, 0), (hansson(2), ENP, 185, 46)],
    )
    def test_counts_memo_hits_and_cycle_cuts(self, text, logic, memo_hits, cycle_cuts):
        st = SearchStats()
        assert not prove_unkleened(parse_input(text), logic, stats=st)
        assert (st.memo_hits, st.cycle_cuts, st.loop_checks) == (memo_hits, cycle_cuts, 0)

    @pytest.mark.parametrize(
        "text,logic,loop_checks",
        # A scan that loop-checks every candidate of every goal again
        # made 51,427 and 10,952 checks on these, and a scan resumed at
        # the goal's instance, which checks again every candidate after
        # it, whether or not a goal above found it dead, 12,062 and 4,583.
        [(agglomeration(6), EC, 2_106), (hansson(2), ECD, 1_299)],
    )
    def test_counts_invertible_loop_checks(self, text, logic, loop_checks):
        st = SearchStats()
        assert isinstance(prove(parse_input(text), logic, stats=st), Proved)
        assert st.loop_checks == loop_checks

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

    @given(rngs)
    @settings(max_examples=100)
    def test_commits_agree_with_the_invertible_mode_on_hypersequents(self, rng):
        # The corpus logics without T only: lean mode deletes the block T
        # applies to, so M or C can no longer use it, and it refutes some
        # valid goals in logics with T whatever it commits to.
        logic = parse_logic_name(rng.choice([name for name in LOGICS if "T" not in name]))
        h = random_hypersequent(rng, max_nodes=6, max_boxes=2)
        try:
            expected = isinstance(prove(h, logic, budget=1_000), Proved)
            assert prove_unkleened(h, logic, budget=1_000) == expected
        except BudgetExceeded:
            pass


class TestSerialization:
    def test_tree_shape(self):
        out = outcome("p -> p", E)
        data = derivation_to_dict(out.derivation)
        assert data["rule"] == "ImpR"
        assert data["conclusion"] == "=> p -> p"
        (child,) = data["premisses"]
        assert child["rule"] == "Init"
        assert child["premisses"] == []
