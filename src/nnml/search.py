"""Proof search in two modes, one loop, plus an independent derivation checker.

Both modes run ``_search``, one depth-first loop over an explicit stack
of goals, and read the one rule table of the calculus module, each in
its own way.

The invertible mode takes the cumulative reading: principals stay in the
premisses and instances pass a local loop check. Every rule is then
invertible, so the loop keeps the first applicable instance of each goal,
explores its premisses in order, and returns at the first saturated goal,
which refutes the root; no backtracking is needed. A proved root yields
its proof tree. Premisses only add to their conclusion, so the loop
check is monotone along a branch: what adds nothing at a goal adds
nothing below it. Each frame keeps the resume point of its instance, and
the scan of a premiss starts there, checking only the candidates the
premiss added and those after the instance; a premiss's initial pattern
is sought only in the component it changed or created
(``calculus.next_instance``). The order of the search is that of a full
scan of every goal.

The lean mode takes the deleting reading: principals leave the
premisses, which keeps hypersequents polynomially small but loses the
invertibility of T, C and the rules that create components. So the loop
backtracks over the instances of a goal, in the same strategy order. No
two instances of a goal have the same premisses. The propositional
rules and BoxL stay invertible, so a goal with an instance of one of
them has that instance alone: ``calculus.lean_premisses`` yields nothing
after it. It works on normalized goals (``calculus.normalize``),
remembers decided ones and cuts cycles at their ancestors (see
``prove_unkleened``). It decides derivability only and produces no
countermodel.

Lean search shares each sequent's moves within one search and builds
premisses normal, one at a time, as it reaches them. A move is what one
instance does to the principal's component: the base left without the
principal, and the new sequent of each premiss. It depends on that
sequent alone, so sibling goals and revisits share it through a move
table that lives for one search (``calculus.Moves``). A premiss is the
goal's other components plus the move's sequents, sorted, so only the
root needs normalizing; when an instance's first premiss fails, its
other premisses are never built.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .calculus import (
    _TOP_BLOCK,
    InvalidInstance,
    Moves,
    RuleInstance,
    build_premisses,
    initial_evidence,
    lean_premiss,
    lean_premisses,
    next_instance,
    normalize,
    rule_groups,
    sequent_evidence,
)
from .formula import BOTTOM, TOP
from .hypersequent import (
    Hypersequent,
    Sequent,
    left_set,
    render_hypersequent,
    right_set,
    sequent_nodes,
    sequent_size,
)
from .logic import BOT_L, INIT, LogicSpec, RuleId, TOP_R, rule_set

_INITIAL_TAGS = (INIT, BOT_L, TOP_R)


@dataclass(frozen=True, slots=True)
class Derivation:
    """A proof tree node; leaves carry an initial tag and no children.
    ``cid`` numbers a component of the conclusion as in
    ``calculus.RuleInstance``."""

    conclusion: Hypersequent
    rule: RuleId
    cid: int
    principal: tuple
    children: tuple["Derivation", ...]


@dataclass(frozen=True, slots=True)
class Proved:
    """A proof tree, and the number of hypersequents the search visited."""

    derivation: Derivation
    visited: int


@dataclass(frozen=True, slots=True)
class Refuted:
    """The first saturated leaf, whose component n is world n of its
    countermodels, and the number of hypersequents the search visited."""

    leaf: Hypersequent
    visited: int


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
    memo_hits: int = 0
    cycle_cuts: int = 0
    loop_checks: int = 0

    def record(self, components: tuple[Sequent, ...]) -> None:
        """Count one visited goal, given by its components."""
        self.visited += 1
        n = len(components)
        if n > self.max_components:
            self.max_components = n
        size = 0
        for s in components:
            size += sequent_nodes(s)
            occ = sequent_size(s)
            if occ > self.max_component_size:
                self.max_component_size = occ
        if size > self.max_nodes:
            self.max_nodes = size


_NO_CUT = sys.maxsize


class _Frame:
    """A goal on the stack: the premisses of the instance being tried
    (None in lean mode between instances) and the results of those
    decided so far. In lean mode ``h`` is the goal's normal sequence of
    components, ``premisses`` holds the new sequents of the instance's
    move and ``inst`` its position and base (see
    ``calculus.lean_premisses``), ``rest`` yields the instances not yet
    tried, and ``lowest`` is the lowest stack depth a cycle cut under the
    goal pointed at. In invertible mode
    ``rest`` is the resume point of the instance, where the scan of each
    premiss starts (see ``calculus._candidates``)."""

    __slots__ = ("h", "inst", "premisses", "proved", "rest", "lowest")

    def __init__(self, h, inst: RuleInstance | tuple[int, Sequent | None] | None, rest):
        self.h, self.inst, self.rest = h, inst, rest
        self.premisses = None if inst is None else inst.premisses
        self.proved: list = []
        self.lowest = _NO_CUT


def _search(
    h: Hypersequent, l: LogicSpec, lean: bool, budget: int, stats: SearchStats | None
) -> tuple[Derivation | Hypersequent | bool, int]:
    """Depth-first search from h in the invertible or the lean reading
    (see the module docstring), and the number of goals it visited.

    The invertible result is the root's proof tree, or the first saturated
    goal; the lean result is whether the root is derivable.

    A lean goal is the normal sequence of a hypersequent's components,
    and the memo and the ancestors are keyed by it. Only the root is
    normalized: the loop builds each premiss normal, and only when it
    reaches it (``calculus.lean_premiss``), so no premiss after a failed
    one is built. Moves come from ``moves``, the move table of this
    search, which goes when the search returns, like the memo.
    """
    visited = 0
    memo: dict[tuple[Sequent, ...], bool] = {}
    ancestors: dict[tuple[Sequent, ...], int] = {}
    moves = Moves(l) if lean else None
    groups = None if lean else rule_groups(l)
    stack: list[_Frame] = []
    goal = normalize(h.components) if lean else h
    after = None  # the resume point of the instance whose premiss goal is
    while True:
        # Enter the goal: decide it at once, or open a frame for it.
        result = None
        low = _NO_CUT
        if lean:
            result = memo.get(goal)
            if result is None:
                if goal in ancestors:
                    result, low = False, ancestors[goal]
                    if stats is not None:
                        stats.cycle_cuts += 1
            elif stats is not None:
                stats.memo_hits += 1
        if result is None:
            visited += 1
            if stats is not None:
                stats.record(goal if lean else goal.components)
            if visited > budget:
                raise BudgetExceeded(visited, budget)
            if lean:
                if any(map(sequent_evidence, goal)):
                    result = memo[goal] = True
                else:
                    ancestors[goal] = len(stack)
                    stack.append(_Frame(goal, None, lean_premisses(goal, moves)))
            elif (ev := initial_evidence(goal, after)) is None:
                inst, place, checks = next_instance(goal, groups, after)
                if stats is not None:
                    stats.loop_checks += checks
                if inst is None:
                    return goal, visited
                stack.append(_Frame(goal, inst, place))
            else:
                tag, cid, f = ev
                result = Derivation(goal, tag, cid, () if f is None else (f,), ())
        # Unwind: hand each decided goal to its parent, until a frame has a
        # premiss to explore next.
        while True:
            if not stack:
                return result, visited
            fr = stack[-1]
            if result:  # a proof tree, or True in lean mode
                fr.proved.append(result)
            elif result is not None:
                fr.premisses = None
                if low < fr.lowest:
                    fr.lowest = low
            if fr.premisses is not None:
                if len(fr.proved) < len(fr.premisses):
                    if lean:
                        goal = lean_premiss(fr.h, *fr.inst, fr.premisses[len(fr.proved)])
                    else:
                        goal, after = fr.premisses[len(fr.proved)], fr.rest
                    break
            else:
                for j, base, new in fr.rest:
                    fr.inst, fr.premisses, fr.proved = (j, base), new, []
                    goal = lean_premiss(fr.h, j, base, new[0])
                    break
                if fr.premisses is not None:
                    break
            # Every premiss is proved, or (lean) every instance failed.
            stack.pop()
            low = _NO_CUT
            if not lean:
                inst = fr.inst
                result = Derivation(fr.h, inst.rule, inst.cid, inst.principal, tuple(fr.proved))
                continue
            del ancestors[fr.h]
            result = fr.premisses is not None
            if result or fr.lowest >= len(stack):
                memo[fr.h] = result
            else:
                low = fr.lowest


def prove(
    h: Hypersequent,
    l: LogicSpec,
    budget: int = 10**6,
    stats: SearchStats | None = None,
) -> Proved | Refuted:
    """Decide derivability; yield a proof tree or a saturated leaf.

    Deterministic: the leaf reported on refutation is the first
    saturated hypersequent in depth-first instance order. With
    ``stats``, the search also counts the candidates it loop-checks.
    """
    result, visited = _search(h, l, False, budget, stats)
    if isinstance(result, Derivation):
        return Proved(result, visited)
    return Refuted(result, visited)


def prove_unkleened(
    h: Hypersequent,
    l: LogicSpec,
    budget: int = 10**6,
    stats: SearchStats | None = None,
) -> bool:
    """Decide derivability with principal-deleting rules and backtracking.

    A goal with an instance of a rule that stays invertible in the
    deleting reading (a propositional rule or BoxL) tries the first such
    instance alone, and its result is the goal's; over the other rules'
    instances the search backtracks (see ``calculus.lean_premisses``).

    If the logic contains N, one verum block is added to every input
    component up front and to every component a rule creates, so N never
    needs to be guessed. Deleting principals makes most loops impossible;
    the one exception is a block spawning a component that immediately
    regrows the same block, which the ancestor check cuts off.

    Cutting a cycle assumes the revisited goal is unprovable, so a
    failure computed under a cut is definitive only once the goal the
    cut points at has finished exploring: a minimal proof never repeats
    a goal along a branch, so if the search fails with every cycle
    closing at the current goal itself, no proof exists and the failure
    is cached. A failure still depending on a goal further up the stack
    propagates the depth of that goal instead of being cached.

    Premisses come normal and are built only when the search reaches
    them; each sequent's moves are made the first time they are asked
    for and kept in a table that goes when the search returns. With
    ``stats``, lean search also counts memo hits and cycle cuts.
    """
    if l.has_n:
        h = Hypersequent(tuple(s.adding(blocks=(_TOP_BLOCK,)) for s in h.components))
    return _search(h, l, True, budget, stats)[0]


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
