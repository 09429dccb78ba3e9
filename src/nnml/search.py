"""Proof search in two modes, plus an independent derivation checker.

Both modes read the one rule table of the calculus module. The
invertible mode takes its cumulative reading: principals stay in the
premisses and instances pass a local loop check. It is deterministic:
it keeps the first applicable instance, explores premisses depth-first,
and the first saturated leaf it meets refutes the root (every rule is
invertible, so no backtracking is needed).

The lean mode takes the deleting reading: principals leave the
premisses, which keeps hypersequents polynomially small but loses
invertibility, so it backtracks over every instance, in the same
strategy order. It decides derivability only and produces no
countermodel.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .calculus import (
    InvalidInstance,
    RuleInstance,
    build_premisses,
    first_instance,
    initial_evidence,
    is_initial,
    lean_premisses,
)
from .formula import BOTTOM, TOP
from .hypersequent import (
    Block,
    Component,
    Hypersequent,
    left_set,
    render_hypersequent,
    right_set,
    sequent_key,
)
from .logic import BOT_L, INIT, LogicSpec, RuleId, TOP_R, rule_set

_INITIAL_TAGS = (INIT, BOT_L, TOP_R)


@dataclass(frozen=True, slots=True)
class Derivation:
    """A proof tree node; leaves carry an initial tag and no children."""

    conclusion: Hypersequent
    rule: RuleId
    cid: int
    principal: tuple
    children: tuple["Derivation", ...]


@dataclass(frozen=True, slots=True)
class Proved:
    derivation: Derivation


@dataclass(frozen=True, slots=True)
class Refuted:
    leaf: Hypersequent
    enumeration: dict[int, int]


SearchOutcome = Proved | Refuted


class BudgetExceeded(Exception):
    """Search gave up after visiting more hypersequents than allowed."""

    def __init__(self, visited: int, budget: int):
        self.visited = visited
        self.budget = budget
        super().__init__(
            f"proof search budget exceeded: visited {visited} hypersequents "
            f"(budget {budget})"
        )


@dataclass(slots=True)
class SearchStats:
    visited: int = 0
    max_components: int = 0
    max_nodes: int = 0
    max_component_size: int = 0

    def record(self, h: Hypersequent) -> None:
        self.visited += 1
        n = len(h.components)
        if n > self.max_components:
            self.max_components = n
        size = h.nodes()
        if size > self.max_nodes:
            self.max_nodes = size
        for c in h.components:
            s = c.seq
            occ = len(s.left) + len(s.right) + sum(len(b.members) for b in s.blocks)
            if occ > self.max_component_size:
                self.max_component_size = occ


class _Frame:
    __slots__ = ("h", "inst", "children", "result", "seen")

    def __init__(self, h: Hypersequent):
        self.h = h
        self.inst: RuleInstance | None = None
        self.children: list[Derivation] = []
        self.result: Derivation | None = None
        self.seen = False


def prove(
    h: Hypersequent,
    l: LogicSpec,
    budget: int = 10**6,
    stats: SearchStats | None = None,
) -> SearchOutcome:
    """Decide derivability; yield a proof tree or a saturated leaf.

    Deterministic: the leaf reported on refutation is the first
    saturated hypersequent in depth-first instance order.
    """
    visited = 0
    stack = [_Frame(h)]
    while stack:
        fr = stack[-1]
        if not fr.seen:
            fr.seen = True
            visited += 1
            if stats is not None:
                stats.record(fr.h)
            if visited > budget:
                raise BudgetExceeded(visited, budget)
            ev = initial_evidence(fr.h)
            if ev is not None:
                tag, cid, f = ev
                principal = () if f is None else (f,)
                fr.result = Derivation(fr.h, tag, cid, principal, ())
            else:
                inst = first_instance(fr.h, l)
                if inst is None:
                    enumeration = {
                        c.cid: i + 1 for i, c in enumerate(fr.h.components)
                    }
                    return Refuted(fr.h, enumeration)
                fr.inst = inst
        if fr.result is not None:
            stack.pop()
            if not stack:
                return Proved(fr.result)
            stack[-1].children.append(fr.result)
            continue
        assert fr.inst is not None
        if len(fr.children) < len(fr.inst.premisses):
            stack.append(_Frame(fr.inst.premisses[len(fr.children)]))
        else:
            fr.result = Derivation(
                fr.h, fr.inst.rule, fr.inst.cid, fr.inst.principal, tuple(fr.children)
            )
    raise AssertionError("search stack drained without a result")


# --- lean (principal-deleting) mode ---------------------------------------


def _normalize(h: Hypersequent) -> Hypersequent:
    """Canonical form: components sorted, exact duplicates collapsed.

    Duplicate collapsing is external contraction, merging is external
    weakening read backwards; both are admissible, so derivability is
    unchanged and the reachable state space becomes finite.
    """
    seqs = sorted((c.seq for c in h.components), key=sequent_key)
    out = []
    for s in seqs:
        if not out or out[-1] != s:
            out.append(s)
    return Hypersequent.of(out)


def prove_unkleened(
    h: Hypersequent,
    l: LogicSpec,
    budget: int = 10**6,
    stats: SearchStats | None = None,
) -> bool:
    """Decide derivability with principal-deleting rules and backtracking.

    If the logic contains N, one verum block is added to every input
    component up front and to every component a rule creates, so N never
    needs to be guessed. Deleting principals makes most loops impossible;
    the one exception is a block spawning a component that immediately
    regrows the same block, which the ancestor check below cuts off.

    Cutting a cycle assumes the revisited goal is unprovable, so a
    failure computed under a cut is definitive only once the goal the
    cut points at has finished exploring: a minimal proof never repeats
    a goal along a branch, so if the search fails with every cycle
    closing at the current goal itself, no proof exists and the failure
    is cached. A failure still depending on a goal further up the stack
    propagates the depth of that goal instead of being cached.
    """
    if l.has_n:
        top_block = Block.of((TOP,))
        h = Hypersequent(
            tuple(
                Component(c.cid, c.seq.adding(blocks=(top_block,)))
                for c in h.components
            )
        )
    memo: dict[Hypersequent, bool] = {}
    visited = 0
    no_cut = sys.maxsize

    def run(g: Hypersequent, ancestors: dict[Hypersequent, int], depth: int):
        nonlocal visited
        g = _normalize(g)
        cached = memo.get(g)
        if cached is not None:
            return cached, no_cut
        back = ancestors.get(g)
        if back is not None:
            return False, back
        visited += 1
        if stats is not None:
            stats.record(g)
        if visited > budget:
            raise BudgetExceeded(visited, budget)
        if is_initial(g):
            memo[g] = True
            return True, no_cut
        ancestors[g] = depth
        proved = False
        lowest = no_cut
        tried: set[tuple] = set()
        try:
            for prems in lean_premisses(g, l):
                # Premisses of g number their components as g does, so ones with
                # equal sequents are one object; sorting by id ignores their order.
                key = tuple(sorted(prems, key=id))
                if key in tried:
                    continue
                tried.add(key)
                ok = True
                for p in prems:
                    r, low = run(p, ancestors, depth + 1)
                    if not r:
                        ok = False
                        if low < lowest:
                            lowest = low
                        break
                if ok:
                    proved = True
                    break
        finally:
            del ancestors[g]
        if proved:
            memo[g] = True
            return True, no_cut
        if lowest >= depth:
            memo[g] = False
            return False, no_cut
        return False, lowest

    # The search recurses once per goal on a branch; the limit is the
    # caller's again on return.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        result, _ = run(h, {}, 0)
    finally:
        sys.setrecursionlimit(limit)
    return result


# --- derivation checking ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class CheckReport:
    ok: bool
    path: tuple[int, ...] = ()
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def audit(root, premisses) -> CheckReport:
    """Audit a proof tree of either calculus node by node.

    ``premisses(node)`` gives the conclusions the node's children must
    have, in order, or a string saying why the node is not a legal step.
    The report's path leads from the root to the first node rejected.
    """
    stack = [(root, ())]
    while stack:
        node, path = stack.pop()
        expected = premisses(node)
        if isinstance(expected, str):
            return CheckReport(False, path, expected)
        if tuple(c.conclusion for c in node.children) != expected:
            return CheckReport(False, path, "children do not match the premisses of the rule")
        for i, child in enumerate(node.children):
            stack.append((child, path + (i,)))
    return CheckReport(True)


def _leaf_error(d: Derivation) -> str | None:
    try:
        s = d.conclusion.component(d.cid)
    except KeyError:
        return "leaf names a component that is not in its conclusion"
    if d.rule == BOT_L:
        if BOTTOM in left_set(s):
            return None
        return "claimed falsum axiom but no falsum in the antecedent"
    if d.rule == TOP_R:
        if TOP in right_set(s):
            return None
        return "claimed verum axiom but no verum in the succedent"
    if len(d.principal) != 1:
        return "initial leaf must name the shared formula"
    (f,) = d.principal
    if f in left_set(s) and f in right_set(s):
        return None
    return "claimed initial leaf but formula is not on both sides"


def _derivation_premisses(d: Derivation, rules) -> tuple[Hypersequent, ...] | str:
    if d.rule in _INITIAL_TAGS:
        if d.children:
            return "initial tag on an internal node"
        return _leaf_error(d) or ()
    if d.rule not in rules:
        return f"rule {d.rule.render()} is not in this calculus"
    try:
        return build_premisses(d.conclusion, d.rule, d.cid, d.principal)
    except (InvalidInstance, KeyError) as exc:
        return f"bad instance: {exc}"


def check_derivation(d: Derivation, l: LogicSpec) -> CheckReport:
    """Audit a proof tree against the calculus, independent of search.

    Every internal node must be a legal rule instance of the logic's
    calculus (the loop check is a search strategy, not a legality
    condition, so it is not required here), and every leaf must be
    initial.
    """
    rules = rule_set(l)
    return audit(d, lambda node: _derivation_premisses(node, rules))


def tree_to_dict(root, rule_text, conclusion_text) -> dict:
    """A proof tree of either calculus as nested ``rule``, ``conclusion``
    and ``premisses`` entries, built without recursion."""

    def entry(d) -> dict:
        return {"rule": rule_text(d.rule), "conclusion": conclusion_text(d.conclusion), "premisses": []}

    out = entry(root)
    stack = [(root, out)]
    while stack:
        d, e = stack.pop()
        for child in d.children:
            c = entry(child)
            e["premisses"].append(c)
            stack.append((child, c))
    return out


def derivation_to_dict(d: Derivation) -> dict:
    return tree_to_dict(d, RuleId.render, render_hypersequent)
