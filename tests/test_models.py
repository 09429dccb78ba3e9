"""Forcing, frame conditions, countermodel extraction, transformations."""

import dataclasses
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rngs
from saturation_oracle import leaf_and_neighbours, saturated_by_clauses
from test_acceptance import LOGICS
from nnml.cli import _Fragment, _dumps
from nnml.formula import Atom, Box, BOTTOM, TOP, And, Imp, Or, parse, subformula_closure, to_text
from nnml.gen import random_bi_model, random_formula, random_hypersequent, random_standard_model
from nnml.hypersequent import interpret, parse_hypersequent, parse_input
from nnml.logic import LogicSpec, parse_logic_name
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
    model_to_dict,
    model_to_json,
    standard_from_bi_fine,
    standard_from_bi_rough,
    truth_set,
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
        assert truth_set(PAPER_BI, Imp(p, p)) == PAPER_BI.worlds
        assert truth_set(PAPER_BI, p) != PAPER_BI.worlds

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


def _rd_fails_exhaustively(m, k: int) -> bool:
    """RDk+ by its definition: some k neighbourhoods of one world whose
    inner sets have an empty intersection."""
    inner = (lambda n: n[0]) if isinstance(m, BiModel) else (lambda n: n)
    return any(
        not m.worlds.intersection(*map(inner, chosen))
        for w in m.worlds
        for chosen in combinations(_neighbourhoods(m, w), k)
    )


def _neighbourhoods(m, w):
    """The pairs of a bi model's world, or a standard model's sets."""
    return m.pairs(w) if isinstance(m, BiModel) else m.neighbourhoods(w)


class TestGradedConditions:
    def test_minimal_sets_decide_as_every_k_neighbourhoods_do(self):
        rng = random.Random(5)
        logic = parse_logic_name("ED4+")
        verdicts = set()
        for i in range(4000):
            m = random_bi_model(rng) if i % 2 else random_standard_model(rng)
            report = check_conditions(m, logic)
            for k in range(1, 5):
                status, witness = report[f"RD{k}+"]
                fails = _rd_fails_exhaustively(m, k)
                assert (status == "fail") == fails, (m, k)
                verdicts.add(fails)
                if fails:
                    w, sets = witness
                    inner = {n[0] if isinstance(m, BiModel) else n for n in _neighbourhoods(m, w)}
                    assert len(m.nbhd[w]) >= k and len(sets) <= k
                    assert set(sets) <= inner and not frozenset.intersection(*sets)
        assert verdicts == {True, False}


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


# An independent oracle for the standard frame checks: the clauses as
# they were written on frozensets of worlds, before neighbourhoods became
# bitmasks, with their own report order. It reads a map from each world
# to its neighbourhoods as frozensets.


def _oracle_set_key(s):
    return (len(s), tuple(sorted(s)))


def _oracle_order(x):
    if isinstance(x, frozenset):
        return _oracle_set_key(x)
    if isinstance(x, tuple):
        return (len(x), tuple(map(_oracle_order, x)))
    return x


def _oracle_verdict(witnesses):
    witness = min(witnesses, key=_oracle_order, default=None)
    return ("pass", None) if witness is None else ("fail", witness)


def _oracle_graded(l, nbhd):
    if not l.dplus:
        return {}
    minimal = {}
    for w, ns in nbhd.items():
        found = []
        for alpha in sorted(ns, key=_oracle_set_key):
            if not any(low <= alpha for low in found):
                found.append(alpha)
        minimal[w] = found
    return {
        f"RD{k}+": _oracle_verdict(
            (w, chosen)
            for w, ns in nbhd.items()
            if len(ns) >= k
            for j in range(1, k + 1)
            for chosen in combinations(minimal[w], j)
            if not frozenset.intersection(*chosen)
        )
        for k in range(1, l.dplus + 1)
    }


def _oracle_standard(ws, nbhd, l):
    report = {}
    if l.monotonic:
        report["M"] = _oracle_verdict(
            (w, alpha, x)
            for w, ns in nbhd.items()
            for alpha in ns
            for x in ws - alpha
            if alpha | {x} not in ns
        )
    if l.has_n:
        report["N"] = _oracle_verdict(w for w, ns in nbhd.items() if ws not in ns)
    if l.has_c:
        report["C"] = _oracle_verdict(
            (w, a1, a2) for w, ns in nbhd.items() for a1 in ns for a2 in ns if a1 & a2 not in ns
        )
    if l.has_t:
        report["T"] = _oracle_verdict(
            (w, alpha) for w, ns in nbhd.items() for alpha in ns if w not in alpha
        )
    if l.has_p:
        report["P"] = _oracle_verdict(w for w, ns in nbhd.items() if frozenset() in ns)
    if l.has_d:
        report["D"] = _oracle_verdict(
            (w, alpha) for w, ns in nbhd.items() for alpha in ns if ws - alpha in ns
        )
    report.update(_oracle_graded(l, nbhd))
    return report


EVERY_CLAUSE = LogicSpec(
    monotonic=True, has_c=True, has_n=True, has_t=True, has_p=True, has_d=True, dplus=4
)


def _renumbered(rng, m):
    """m's frames as frozensets, on distinct sparse world numbers, some
    negative, given in an order that need not follow the old one; half
    the time each world's neighbourhoods are closed upward, so that M
    passes too. Returns the world set, the neighbourhoods and the model."""
    new = dict(zip(sorted(m.worlds), rng.sample(range(-40, 1000), len(m.worlds))))
    ws = frozenset(new.values())
    nbhd = {
        new[w]: frozenset(frozenset(map(new.get, a)) for a in m.neighbourhoods(w))
        for w in m.worlds
    }
    if rng.random() < 0.5:
        nbhd = {
            w: frozenset(
                a | frozenset(extra)
                for a in ns
                for k in range(len(ws - a) + 1)
                for extra in combinations(sorted(ws - a), k)
            )
            for w, ns in nbhd.items()
        }
    valuation = {a: frozenset(map(new.get, v)) for a, v in m.valuation.items()}
    return ws, nbhd, StandardModel.make(ws, valuation, nbhd)


class TestStandardConditionsAgainstTheOracle:
    @given(rngs)
    @settings(max_examples=100)
    def test_whole_reports_agree(self, rng):
        for _ in range(10):
            ws, nbhd, m = _renumbered(rng, random_standard_model(rng, max_worlds=6, max_sets=5))
            assert m.order == tuple(sorted(ws))
            assert check_conditions(m, EVERY_CLAUSE) == _oracle_standard(ws, nbhd, EVERY_CLAUSE)

    def test_every_clause_both_passes_and_fails(self):
        rng = random.Random(3)
        seen = set()
        for _ in range(300):
            ws, nbhd, m = _renumbered(rng, random_standard_model(rng, max_worlds=4, max_sets=4))
            report = check_conditions(m, EVERY_CLAUSE)
            assert report == _oracle_standard(ws, nbhd, EVERY_CLAUSE)
            seen |= {(k, status) for k, (status, _) in report.items()}
        assert seen == {(k, s) for k in _oracle_standard(ws, nbhd, EVERY_CLAUSE) for s in ("pass", "fail")}

    def test_a_rough_model_missing_one_set_fails_m(self):
        # Hansson n=3: the rough model of its MD countermodel has many
        # sets at world 1; taking one out of the middle of the report
        # order breaks upward closure.
        goal = "~(box p1 & box p2 & box p3 & box ~(p1 & p2 & p3))"
        md = parse_logic_name("MD")
        out = prove(parse_input(goal), md)
        rough = standard_from_bi_rough(extract_bi_countermodel(out.leaf, md))
        assert conditions_ok(check_conditions(rough, md))
        sets = sorted(rough.neighbourhoods(1), key=_oracle_set_key)
        dropped = sets[len(sets) // 2]
        nbhd = {w: rough.neighbourhoods(w) for w in rough.worlds}
        nbhd[1] = nbhd[1] - {dropped}
        mutant = StandardModel.make(rough.worlds, rough.valuation, nbhd)
        status, witness = check_conditions(mutant, md)["M"]
        assert status == "fail"
        assert (status, witness) == _oracle_standard(rough.worlds, nbhd, md)["M"]
        assert witness[0] == 1 and witness[1] | {witness[2]} == dropped


# The same kind of oracle for the bi-neighbourhood and relational frame
# checks, and for forcing in all three semantics. Each random frame is
# drawn as frozensets on distinct sparse world numbers, some negative;
# the oracles read those frozensets, never the model made from them.


def _sparse_worlds(rng, max_worlds):
    ws = sorted(rng.sample(range(-40, 1000), rng.randint(1, max_worlds)))
    return frozenset(ws), lambda prob=0.5: frozenset(w for w in ws if rng.random() < prob)


def _merge_closed(pairs):
    pairs = set(pairs)
    while True:
        new = {(a1 & a2, b1 | b2) for a1, b1 in pairs for a2, b2 in pairs} - pairs
        if not new:
            return frozenset(pairs)
        pairs |= new


def _sparse_bi(rng, max_worlds=5, max_pairs=4):
    """A random bi-neighbourhood frame: world set, valuation, pairs per
    world, and the model. Some draws drop every outer bound, give every
    world one shared pair with no outer bound, close each world's pairs
    under merging, or put each world in its own inner bounds, so that
    M, N, C, T, P, D and RDk+ all pass on some models."""
    ws, pick = _sparse_worlds(rng, max_worlds)
    valuation = {a: pick() for a in ("p", "q", "r")}
    nbhd = {w: {(pick(), pick(0.3)) for _ in range(rng.randint(0, max_pairs))} for w in sorted(ws)}
    if rng.random() < 0.5:
        nbhd = {w: {(a, frozenset()) for a, _ in ps} for w, ps in nbhd.items()}
    if rng.random() < 0.3:
        shared = pick()
        nbhd = {w: ps | {(shared, frozenset())} for w, ps in nbhd.items()}
    if rng.random() < 0.3:
        nbhd = {w: {(a | {w}, b - {w}) for a, b in ps} for w, ps in nbhd.items()}
    nbhd = {w: _merge_closed(ps) if rng.random() < 0.5 else frozenset(ps) for w, ps in nbhd.items()}
    return ws, valuation, nbhd, BiModel.make(ws, valuation, nbhd)


def _sparse_relational(rng, max_worlds=5):
    """A random relational frame: world set, valuation, non-normal worlds,
    successors per world, and the model."""
    ws, pick = _sparse_worlds(rng, max_worlds)
    valuation = {a: pick() for a in ("p", "q", "r")}
    non_normal = pick(0.2)
    succ = {w: pick(0.4) | ({w} if rng.random() < 0.5 else set()) for w in sorted(ws)}
    return ws, valuation, non_normal, succ, RelationalModel.make(ws, non_normal, succ, valuation)


def _sparse_standard(rng, max_worlds=5, max_sets=4):
    ws, pick = _sparse_worlds(rng, max_worlds)
    valuation = {a: pick() for a in ("p", "q", "r")}
    nbhd = {w: frozenset(pick() for _ in range(rng.randint(0, max_sets))) for w in sorted(ws)}
    return ws, valuation, nbhd, StandardModel.make(ws, valuation, nbhd)


def _oracle_bi(ws, nbhd, l):
    report = {}
    if l.monotonic:
        report["M"] = _oracle_verdict((w, p) for w, ps in nbhd.items() for p in ps if p[1])
    if l.has_n:
        # some inner bound is paired with no outer bound at every world
        unbounded = [{a for a, b in ps if not b} for ps in nbhd.values()]
        report["N"] = ("pass", None) if not ws or set.intersection(*unbounded) else ("fail", None)
    if l.has_c:
        report["C"] = _oracle_verdict(
            (w, p1, p2)
            for w, ps in nbhd.items()
            for p1 in ps
            for p2 in ps
            if (p1[0] & p2[0], p1[1] | p2[1]) not in ps
        )
    if l.has_t:
        report["T"] = _oracle_verdict((w, p) for w, ps in nbhd.items() for p in ps if w not in p[0])
    if l.has_p:
        report["P"] = _oracle_verdict((w, p) for w, ps in nbhd.items() for p in ps if not p[0])
    if l.has_d:
        report["D"] = _oracle_verdict(
            (w, p1, p2)
            for w, ps in nbhd.items()
            for p1 in ps
            for p2 in ps
            if not p1[0] & p2[0] and not p1[1] & p2[1]
        )
    # RDk+ reads inner bounds, one per pair: a list keeps repeated ones
    report.update(_oracle_graded(l, {w: [a for a, _ in ps] for w, ps in nbhd.items()}))
    return report


def _oracle_relational(ws, non_normal, succ, l):
    report = {}
    normal = ws - non_normal
    if l.has_t:
        report["T"] = _oracle_verdict(w for w in normal if w not in succ[w])
    if l.has_n:
        report["N"] = _oracle_verdict(non_normal)
    serial = [l.has_p and "P", l.has_d and "D", *(f"RD{k}+" for k in range(1, (l.dplus or 0) + 1))]
    for key in filter(None, serial):
        report[key] = _oracle_verdict(w for w in normal if not succ[w])
    return report


def _oracle_truth_set(ws, valuation, box, f):
    """The worlds where f holds, by recursion on f; ``box`` maps the truth
    set of a box's body to the worlds where the box holds."""
    if isinstance(f, Atom):
        return frozenset(valuation.get(f.name, ()))
    if f is TOP:
        return ws
    if f is BOTTOM:
        return frozenset()
    if isinstance(f, Box):
        return box(_oracle_truth_set(ws, valuation, box, f.body))
    a = _oracle_truth_set(ws, valuation, box, f.left)
    b = _oracle_truth_set(ws, valuation, box, f.right)
    if isinstance(f, And):
        return a & b
    if isinstance(f, Or):
        return a | b
    return (ws - a) | b


def _sparse_with_oracle(rng, kind):
    """A random model of the kind on sparse worlds, and the oracle's box
    clause on the frame it was made from."""
    if kind == "bi":
        ws, valuation, nbhd, m = _sparse_bi(rng)
        box = lambda t: frozenset(w for w in ws if any(a <= t and not t & b for a, b in nbhd[w]))
    elif kind == "standard":
        ws, valuation, nbhd, m = _sparse_standard(rng)
        box = lambda t: frozenset(w for w in ws if t in nbhd[w])
    else:
        ws, valuation, non_normal, succ, m = _sparse_relational(rng)
        box = lambda t: frozenset(w for w in ws - non_normal if succ[w] <= t)
    return ws, valuation, box, m


class TestBiAndRelationalConditionsAgainstTheOracle:
    @given(rngs)
    @settings(max_examples=100)
    def test_whole_bi_reports_agree(self, rng):
        for _ in range(10):
            ws, _, nbhd, m = _sparse_bi(rng)
            assert check_conditions(m, EVERY_CLAUSE) == _oracle_bi(ws, nbhd, EVERY_CLAUSE)

    @given(rngs)
    @settings(max_examples=100)
    def test_whole_relational_reports_agree(self, rng):
        for _ in range(10):
            ws, _, non_normal, succ, m = _sparse_relational(rng)
            expected = _oracle_relational(ws, non_normal, succ, EVERY_CLAUSE)
            assert check_conditions(m, EVERY_CLAUSE) == expected

    def test_every_clause_both_passes_and_fails(self):
        rng = random.Random(4)
        seen = {"bi": set(), "relational": set()}
        for _ in range(300):
            ws, _, nbhd, m = _sparse_bi(rng, max_worlds=3, max_pairs=3)
            report = check_conditions(m, EVERY_CLAUSE)
            assert report == _oracle_bi(ws, nbhd, EVERY_CLAUSE)
            seen["bi"] |= {(k, status) for k, (status, _) in report.items()}
            ws, _, non_normal, succ, m = _sparse_relational(rng, max_worlds=3)
            report = check_conditions(m, EVERY_CLAUSE)
            assert report == _oracle_relational(ws, non_normal, succ, EVERY_CLAUSE)
            seen["relational"] |= {(k, status) for k, (status, _) in report.items()}
        assert seen["bi"] == {(k, s) for k in _oracle_bi(ws, nbhd, EVERY_CLAUSE) for s in ("pass", "fail")}
        keys = _oracle_relational(ws, non_normal, succ, EVERY_CLAUSE)
        assert seen["relational"] == {(k, s) for k in keys for s in ("pass", "fail")}


class TestForcingAgainstTheOracle:
    @pytest.mark.parametrize("kind", ["bi", "standard", "relational"])
    @given(rng=rngs)
    @settings(max_examples=60)
    def test_truth_sets_and_forcing_agree(self, kind, rng):
        ws, valuation, box, m = _sparse_with_oracle(rng, kind)
        for _ in range(5):
            f = random_formula(rng, max_nodes=14, max_modal_depth=3, atoms=("p", "q", "r", "s"))
            expected = _oracle_truth_set(ws, valuation, box, f)
            assert truth_set(m, f) == expected
            assert all(force(m, w, f) == (w in expected) for w in ws)


class TestReportOrder:
    @given(
        st.sets(st.integers(-10**6, 10**6), min_size=1, max_size=17).flatmap(
            lambda ws: st.tuples(
                st.just(sorted(ws)), st.sets(st.frozensets(st.sampled_from(sorted(ws))), max_size=12)
            )
        )
    )
    def test_the_int_key_orders_sets_as_the_set_key_does(self, drawn):
        worlds, sets = drawn
        m = StandardModel.make(worlds, {}, {worlds[0]: sets})
        masks = sorted(m.nbhd[worlds[0]], key=m.key)
        expected = sorted(sets, key=_oracle_set_key)
        assert [m.decode(a) for a in masks] == expected
        assert [m.members(a) for a in masks] == [sorted(s) for s in expected]

    @given(rngs)
    @settings(max_examples=60)
    def test_round_trips_on_renumbered_models(self, rng):
        _, _, m = _renumbered(rng, random_standard_model(rng))
        assert model_from_dict(model_to_dict(m)) == m


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
        m = extract_bi_countermodel(out.leaf, E)
        assert m.worlds == {1, 2}
        assert m.valuation == {"p": frozenset({2})}
        assert m.pairs(1) == {(frozenset(), frozenset({2}))}
        assert m.nbhd[2] == frozenset()
        assert not force(m, 1, interpret(out.leaf.component(1)))
        assert (len(m.worlds), sum(map(len, m.nbhd.values()))) == (2, 1)

    def test_monotone_extraction_drops_negative_bounds(self):
        out = prove(parse_input("box p -> box box p"), MC)
        m = extract_bi_countermodel(out.leaf, MC)
        assert m.pairs(1) == {(frozenset({2}), frozenset())}
        assert conditions_ok(check_conditions(m, MC))

    def test_relational_extraction(self):
        out = prove(parse_input("box p -> box box p"), MC)
        m = extract_relational_countermodel(out.leaf, MC)
        assert m.worlds == {1, 2}
        assert m.non_normal == {2}
        assert m.decode(m.relation[1]) == {2}
        assert not force(m, 1, interpret(out.leaf.component(1)))

    def test_relational_extraction_needs_a_regular_logic(self):
        out = prove(parse_input("box (p & q) -> box p"), E)
        with pytest.raises(ValueError):
            extract_relational_countermodel(out.leaf, E)

    @given(rngs)
    @settings(max_examples=80)
    def test_extraction_needs_saturation(self, rng):
        logic = parse_logic_name(rng.choice(LOGICS + ("K",)))
        inputs = [
            parse_hypersequent("p & q => r"),
            random_hypersequent(rng, max_nodes=6, max_boxes=2),
            *leaf_and_neighbours(rng, logic),
        ]
        for h in inputs:
            try:
                extract_bi_countermodel(h, logic)
            except ValueError:
                assert not saturated_by_clauses(h, logic)
            else:
                assert saturated_by_clauses(h, logic)

    @given(rngs)
    @settings(max_examples=60)
    def test_extracted_models_falsify_every_component(self, rng):
        logic = rng.choice([E, M, EC, parse_logic_name("EN"), ED])
        f = random_formula(rng, max_nodes=10, max_modal_depth=2, max_boxes=3)
        out = prove(parse_input(to_text(f)), logic)
        if not isinstance(out, Refuted):
            return
        m = extract_bi_countermodel(out.leaf, logic)
        assert conditions_ok(check_conditions(m, logic))
        for w, s in enumerate(out.leaf.components, 1):
            assert not force(m, w, interpret(s))


class TestBiFromStandard:
    def test_unsupplemented_pairs_with_complements(self):
        m = StandardModel.make([1, 2], {}, {1: [()]})
        out = bi_from_standard(m, supplemented=False)
        assert out.pairs(1) == {(frozenset(), frozenset({1, 2}))}

    def test_supplemented_pairs_with_empty_outer_bound(self):
        m = StandardModel.make([1, 2], {}, {1: [(2,)]})
        out = bi_from_standard(m, supplemented=True)
        assert out.pairs(1) == {(frozenset({2}), frozenset())}

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
        assert out.neighbourhoods(1) == {frozenset(), frozenset({1})}
        assert out.neighbourhoods(2) == frozenset()

    def test_degenerate_interval(self):
        m = BiModel.make([1], {}, {1: [((1,), ())]})
        assert standard_from_bi_rough(m).neighbourhoods(1) == {frozenset({1})}

    def test_crossed_bounds_contribute_nothing(self):
        m = BiModel.make([1], {}, {1: [((1,), (1,))]})
        assert standard_from_bi_rough(m).neighbourhoods(1) == frozenset()

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
        assert out.neighbourhoods(1) == {frozenset()}
        assert out.neighbourhoods(2) == frozenset()

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
            {w: [(a, ()) for a, _ in m.pairs(w)] for w in m.worlds},
        )
        f = random_formula(rng, max_nodes=10, max_modal_depth=2)
        s = subformula_closure([f])
        out = standard_from_bi_fine(mono, s, supplement=True)
        for g in s:
            assert truth_set(out, g) == truth_set(mono, g)


# An independent oracle for the payload: the dict a model's JSON text
# must print, built value by value and written by ``json.dumps``.


def _oracle_model_dict(m) -> dict:
    members = m.members
    base = {
        "worlds": list(m.order),
        "valuation": {a: sorted(ws) for a, ws in sorted(m.valuation.items())},
    }
    if isinstance(m, BiModel):
        base["bi"] = {
            str(w): [
                {"plus": members(a), "minus": members(b)}
                for a, b in sorted(pairs, key=lambda p: (m.key(p[0]), m.key(p[1])))
            ]
            for w, pairs in sorted(m.nbhd.items())
        }
    elif isinstance(m, StandardModel):
        base["standard"] = {
            str(w): [members(a) for a in sorted(ns, key=m.key)]
            for w, ns in sorted(m.nbhd.items())
        }
    else:
        base["relational"] = {
            "non_normal": sorted(m.non_normal),
            "edges": {str(w): members(r) for w, r in sorted(m.relation.items())},
        }
    return base


@st.composite
def sparse_models(draw, max_worlds=20):
    """A bi, standard or relational model on distinct world numbers, some
    negative, with as many as 20 worlds, so that the 8- and 16-world
    chunk boundaries are crossed. Valuations, sets and entries may be
    empty, atom names need escaping, and some worlds have no entry."""
    n = draw(st.integers(0, max_worlds))
    ws = draw(st.lists(st.integers(-60, 1000), min_size=n, max_size=n, unique=True))
    sets = st.lists(st.sampled_from(ws), unique=True) if ws else st.just([])
    valuation = draw(st.dictionaries(st.sampled_from(["p", "q", "r1", "\u00e9", "a\nb"]), sets, max_size=3))
    kind = draw(st.sampled_from(["bi", "standard", "relational"]))
    given_entries = draw(st.lists(st.sampled_from(ws), unique=True)) if ws else []
    if kind == "bi":
        entries = {w: draw(st.lists(st.tuples(sets, sets), max_size=3)) for w in given_entries}
        m = BiModel.make(ws, valuation, entries)
    elif kind == "standard":
        entries = {w: draw(st.lists(sets, max_size=6)) for w in given_entries}
        m = StandardModel.make(ws, valuation, entries)
    else:
        entries = {w: draw(sets) for w in given_entries}
        m = RelationalModel.make(ws, draw(sets), entries, valuation)
    # make gives every world an entry; these worlds lose theirs
    dropped = set(draw(st.lists(st.sampled_from(ws), unique=True))) if ws else set()
    field = "relation" if kind == "relational" else "nbhd"
    kept = {w: x for w, x in getattr(m, field).items() if w not in dropped}
    return dataclasses.replace(m, **{field: kept})


class TestJsonText:
    """``model_to_json`` prints what ``json.dumps`` prints of the oracle's
    dict, at the top level and spliced into a payload by ``_dumps``."""

    @given(sparse_models())
    @settings(max_examples=300)
    def test_same_text_as_the_oracle(self, m):
        expected = _oracle_model_dict(m)
        text = model_to_json(m)
        assert text == json.dumps(expected, indent=2)
        assert model_to_dict(m) == expected
        nested = {"a": {"b": [1, _Fragment(text)], "c": {"d": _Fragment(text)}}, "e": [[_Fragment(text)]]}
        plain = {"a": {"b": [1, expected], "c": {"d": expected}}, "e": [[expected]]}
        assert _dumps(nested) == json.dumps(plain, indent=2)

    @pytest.mark.parametrize("kind", ["bi", "standard", "relational"])
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17, 20])
    def test_every_chunk_boundary(self, kind, n):
        rng = random.Random(n)
        ws = rng.sample(range(-60, 1000), n)
        pick = lambda: [w for w in ws if rng.random() < 0.5]
        valuation = {"p": pick(), "q": []}
        if kind == "bi":
            m = BiModel.make(ws, valuation, {w: [(pick(), pick()), ([], ws)] for w in ws})
        elif kind == "standard":
            m = StandardModel.make(ws, valuation, {w: [pick(), pick(), [], ws] for w in ws})
        else:
            m = RelationalModel.make(ws, pick(), {w: pick() for w in ws}, valuation)
        assert model_to_json(m) == json.dumps(_oracle_model_dict(m), indent=2)


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
    for w in m.worlds:
        sets = m.neighbourhoods(w)
        grown = set(sets)
        for alpha in sets:
            free = [x for x in ws if x not in alpha]
            for k in range(len(free) + 1):
                for extra in combinations(free, k):
                    grown.add(alpha | frozenset(extra))
        closed[w] = grown
    return StandardModel.make(m.worlds, m.valuation, closed)
