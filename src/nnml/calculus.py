"""The rule table, its two readings, and saturation.

Every rule of the calculus is one entry of ``_TABLE`` (the graded rules
one per arity, from ``_graded``). An entry says where the rule's
principal sits, a number of block occurrences followed by at most one
formula of a given connective on a given side, and gives the rule's
premiss schema: for each premiss, what it adds to the principal's
component, or the component it creates. The rest is read off the entry:

- ``_principals`` enumerates each rule's distinct principals in one
  sequent: block choices by position, then formulas in sequent order,
  as the sequent groups them by side and connective; ``_candidates``
  runs it over the components of a hypersequent, from the start or from
  a resume point (below);
- ``_new_sequents`` reads an instance's premisses off the schema, as the
  sequent each premiss brings, for both readings;
- ``rule_groups`` puts a logic's rules in strategy order;
- the cumulative reading, ``iter_instances``, keeps the principal in
  every premiss, which makes every rule invertible. It filters instances
  by a local loop check: an instance is blocked when one of its premisses
  adds nothing new, that is, when the principal's component already has
  what the premiss adds to it, or an existing component's antecedent and
  succedent sets contain those of the component the premiss creates;
- in the cumulative reading that loop check is monotone along a branch:
  a premiss keeps its conclusion whole, each component at its position,
  and only adds items or appends a component, so every candidate of a
  goal is one of each premiss, in the same relative order, and one that
  adds nothing at the goal adds nothing at the premiss. The instance
  itself adds nothing there either. So ``next_instance`` scans a premiss
  from the resume point of its goal's instance (the group, component
  position and principal where it was found): it checks only the
  candidates the goal did not have and those after the instance, and
  finds the same first instance as a full scan;
- the deleting reading, ``lean_premisses``, takes the principal out of
  the premisses, gives every new component the verum block when the
  logic has N (so N itself is never applied), and filters no instance by
  a loop check. It works on normal hypersequents, as sequences of
  components, and yields each instance as its move, with no rule
  instance around it: the base left without the principal and the new
  sequent of each premiss. A move depends on one sequent only, so the
  first time a sequent and rule group are asked for, their moves are
  made, and one search's ``Moves`` table keeps them for every later ask.
  ``lean_premiss`` builds one premiss from a move, already normal
  (``normalize``), when lean search reaches it; the instance's key, read
  off the move, tells which premiss sets were tried;
- the propositional rules and BoxL stay invertible in the deleting
  reading, and their entries say so (``RuleDef.commits``). The
  cumulative rule is invertible, so each cumulative premiss of a
  derivable goal is derivable, and it is the deleting premiss plus the
  principal. Next to what the premiss adds, that principal says nothing
  more: on the left the additions imply it, on the right it implies one
  of them, and BoxL adds the block of the box's body, which means the
  box itself. So it drops out as a contracted copy (contraction is
  admissible), and the deleting premiss is derivable too. A box on both
  sides is an initial pattern, found before BoxL is tried. So the first
  instance of such a rule decides its goal, and ``lean_premisses``
  yields no instance after it. T, C and the rules that create components
  lose what their principal said, so lean search backtracks over their
  instances;
- ``build_premisses`` gives the cumulative premisses of one instance
  and rejects principal data that does not fit; the derivation checker
  audits proofs with it.

A hypersequent where no cumulative instance survives the loop check and
no initial pattern applies is saturated, and saturation is exactly the
countermodel condition the models module consumes. ``is_saturated``
tests it clause by clause, apart from the table, as the oracle that the
test suite compares ``iter_instances`` against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Iterator, NamedTuple

from .formula import And, BOTTOM, Box, Formula, Imp, Or, TOP, sort_key
from .hypersequent import (
    Block,
    Hypersequent,
    Sequent,
    block_sets,
    by_connective,
    left_set,
    right_set,
    sequent_key,
)
from .logic import (
    AND_L,
    AND_R,
    BOT_L,
    BOX_L,
    BOX_R,
    BOX_RM,
    IMP_L,
    IMP_R,
    INIT,
    LogicSpec,
    OR_L,
    OR_R,
    RULE_C,
    RULE_D1,
    RULE_D2,
    RULE_N,
    RULE_P,
    RULE_T,
    RuleId,
    TOP_R,
    dn_plus,
    rule_set,
)

_TOP_BLOCK_SET = frozenset({TOP})
_TOP_BLOCK = Block.of((TOP,))


class InvalidInstance(ValueError):
    """Raised when principal data does not match the target hypersequent."""


@dataclass(frozen=True, slots=True)
class RuleInstance:
    """A rule applied to ``principal`` in component ``cid`` of a
    hypersequent (its position, counting from 1), and its premisses."""

    rule: RuleId
    cid: int
    principal: tuple
    premisses: tuple[Hypersequent, ...]


def sequent_evidence(s: Sequent) -> tuple[RuleId, Formula | None] | None:
    """The initial pattern of one sequent, if any: falsum on the left,
    verum on the right, or else the least formula shared by both sides."""
    ls = left_set(s)
    rs = right_set(s)
    if BOTTOM in ls:
        return (BOT_L, None)
    if TOP in rs:
        return (TOP_R, None)
    shared = ls & rs
    if shared:
        return (INIT, min(shared, key=sort_key))
    return None


def initial_evidence(h: Hypersequent, after: tuple | None = None) -> tuple[RuleId, int, Formula | None] | None:
    """The initial pattern of the first component that has one (see
    ``sequent_evidence``), with that component's number.

    With ``after``, the resume point of an instance whose premiss h is
    (see ``_candidates``), only the one component the premiss changed or
    created is read: search takes instances only on goals with no
    initial component.
    """
    comps = h.components
    if after is not None:
        goal, _, j, _ = after
        n = len(comps) if len(comps) > len(goal.components) else j + 1
        ev = sequent_evidence(comps[n - 1])
        return None if ev is None else (ev[0], n, ev[1])
    for n, s in enumerate(comps, 1):
        ev = sequent_evidence(s)
        if ev is not None:
            return (ev[0], n, ev[1])
    return None


# --- the rule table -----------------------------------------------------------


class Premiss(NamedTuple):
    """What one premiss adds to the principal's component, ``blocks``
    giving the members of each block it adds; or, for a rule that creates
    components, the formulas of the component it creates."""

    left: tuple[Formula, ...] = ()
    blocks: tuple[tuple[Formula, ...], ...] = ()
    right: tuple[Formula, ...] = ()


@dataclass(frozen=True, slots=True)
class RuleDef:
    """One rule: where its principal sits, and its premiss schema.

    A principal is ``blocks`` block occurrences of the component followed,
    when ``connective`` is set, by one formula of that class on ``side``.
    ``schema`` takes the principal's items and returns the premisses:
    each extends the principal's component or, when ``spawns`` is set,
    adds a new component. ``commits`` marks a rule that stays invertible
    in the deleting reading, so lean search tries only the first of its
    instances (see the module docstring); the rules of one strategy
    group agree on it.
    """

    rule: RuleId
    schema: Callable[..., tuple[Premiss, ...]]
    blocks: int = 0
    connective: type | None = None
    side: str = "left"
    spawns: bool = False
    commits: bool = False


def _members(b: Block) -> list[Formula]:
    """The distinct members, in canonical order (block members are kept
    sorted)."""
    return list(dict.fromkeys(b.members))


_TABLE: dict[RuleId, RuleDef] = {
    rd.rule: rd
    for rd in (
        RuleDef(AND_L, lambda f: (Premiss(left=(f.left, f.right)),), connective=And, commits=True),
        RuleDef(
            OR_L,
            lambda f: (Premiss(left=(f.left,)), Premiss(left=(f.right,))),
            connective=Or,
            commits=True,
        ),
        RuleDef(
            IMP_L,
            lambda f: (Premiss(right=(f.left,)), Premiss(left=(f.right,))),
            connective=Imp,
            commits=True,
        ),
        RuleDef(
            AND_R,
            lambda f: (Premiss(right=(f.left,)), Premiss(right=(f.right,))),
            connective=And,
            side="right",
            commits=True,
        ),
        RuleDef(
            OR_R, lambda f: (Premiss(right=(f.left, f.right)),), connective=Or, side="right", commits=True
        ),
        RuleDef(
            IMP_R,
            lambda f: (Premiss(left=(f.left,), right=(f.right,)),),
            connective=Imp,
            side="right",
            commits=True,
        ),
        RuleDef(BOX_L, lambda f: (Premiss(blocks=((f.body,),)),), connective=Box, commits=True),
        RuleDef(RULE_T, lambda b: (Premiss(left=b.members),), blocks=1),
        RuleDef(RULE_C, lambda b1, b2: (Premiss(blocks=(b1.members + b2.members,)),), blocks=2),
        RuleDef(RULE_N, lambda: (Premiss(blocks=((TOP,),)),)),
        # Without monotonicity each member of the block is also tested
        # against the body, one component per member.
        RuleDef(
            BOX_R,
            lambda b, f: tuple(Premiss(left=(f.body,), right=(a,)) for a in _members(b))
            + (Premiss(left=b.members, right=(f.body,)),),
            blocks=1,
            connective=Box,
            side="right",
            spawns=True,
        ),
        RuleDef(
            BOX_RM,
            lambda b, f: (Premiss(left=b.members, right=(f.body,)),),
            blocks=1,
            connective=Box,
            side="right",
            spawns=True,
        ),
        RuleDef(RULE_P, lambda b: (Premiss(left=b.members),), blocks=1, spawns=True),
        RuleDef(
            RULE_D1,
            lambda b: (Premiss(left=b.members),)
            + tuple(Premiss(right=(a,)) for a in _members(b)),
            blocks=1,
            spawns=True,
        ),
        RuleDef(
            RULE_D2,
            lambda b1, b2: (Premiss(left=b1.members + b2.members),)
            + tuple(Premiss(right=(a, c)) for a in _members(b1) for c in _members(b2)),
            blocks=2,
            spawns=True,
        ),
    )
}


@cache
def _graded(arity: int) -> RuleDef:
    return RuleDef(
        dn_plus(arity),
        lambda *bs: (Premiss(left=tuple(m for b in bs for m in b.members)),),
        blocks=arity,
        spawns=True,
    )


def rule_def(rule: RuleId) -> RuleDef:
    if rule.name == "DnPlus" and rule.arity >= 1:
        return _graded(rule.arity)
    try:
        return _TABLE[rule]
    except KeyError:
        raise InvalidInstance(f"unknown rule {rule!r}") from None


# The strategy order: invertible single-premiss propositional rules,
# branching propositional rules, block creation and block bookkeeping,
# the modal right rule, then the deontic rules, the graded ones by
# arity. The rules of one group take turns within each component; the
# groups follow one another, each over all components. The rules of one
# group agree on ``commits``, and the groups that commit come first.
_ORDER = (
    (AND_L, OR_L, IMP_R),
    (AND_R, OR_R, IMP_L),
    (BOX_L,),
    (RULE_T,),
    (RULE_C,),
    (RULE_N,),
    (BOX_R,),
    (BOX_RM,),
    (RULE_P,),
    (RULE_D1,),
    (RULE_D2,),
)


@cache
def rule_groups(l: LogicSpec, lean: bool = False) -> tuple[tuple[RuleDef, ...], ...]:
    """The logic's rules in strategy order, as groups (see ``_ORDER``).

    The lean procedure has no N: every component carries the verum block
    N would add.
    """
    rules = rule_set(l) - {RULE_N} if lean else rule_set(l)
    groups = [tuple(_TABLE[r] for r in group if r in rules) for group in _ORDER]
    arities = sorted(r.arity for r in rules if r.name == "DnPlus")
    groups += [(_graded(arity),) for arity in arities]
    return tuple(g for g in groups if g)


# The one choice of no blocks, or of no formula, as a constant: both
# readings call _principals on every sequent and rule group they meet.
_EMPTY_CHOICE = ((),)
_NO_ITEMS: frozenset = frozenset()


def _principals(s: Sequent, group) -> list[tuple[RuleDef, tuple]]:
    """The rules of one group and their distinct principals in one
    sequent, as a list: block choices by position, then formulas in
    sequent order, as the sequent groups them by side and connective.
    Lean search asks for them per sequent and group, and an empty list
    tells it to skip the pair."""
    out = []
    for rd in group:
        fs = _EMPTY_CHOICE
        if rd.connective is not None:
            fs = by_connective(s).get((rd.side, rd.connective))
            if not fs:
                continue
        choices = dict.fromkeys(combinations(s.blocks, rd.blocks)) if rd.blocks else _EMPTY_CHOICE
        for blocks in choices:
            for f in fs:
                out.append((rd, blocks + f))
    return out


def _added(old: Sequent, new: Sequent) -> frozenset:
    """The blocks and formulas new has and old lacks, both sides in one
    set: a principal with none of them was one in old. (A premiss adds
    at most one block, and only one of a new member set, so it never
    adds a second copy of a block.)"""
    if old is new:
        return _NO_ITEMS
    return (left_set(new) - left_set(old)) | (right_set(new) - right_set(old)) | frozenset(new.blocks).difference(old.blocks)


def _candidates(h: Hypersequent, groups, after: tuple | None = None) -> Iterator[tuple[int, int, RuleDef, Sequent, tuple]]:
    """Every rule, component and distinct principal, in strategy order,
    with the group index and component position: within one group,
    component order first, then the order of ``_principals``.

    ``after`` is the resume point ``(goal, group index, component
    position, principal)`` of an instance whose premiss h is. The goal's
    candidates up to and including the instance fail the loop check in h
    (see the module docstring), so only these are given, in the same
    order: (a) those the goal did not have, that is, principals with an
    item the premiss added to the principal's component, or any
    principal in a component it created; (b) the goal's candidates
    after the instance. No other component of the goal changed.
    """
    if after is None:
        rgi = rj = -1
    else:
        goal, rgi, rj, stop = after
        kept = len(goal.components)
        added = _added(goal.components[rj], h.components[rj])
    for gi, group in enumerate(groups):
        for j, s in enumerate(h.components):
            known = None  # when set, the goal's candidates here are known blocked
            if gi < rgi or (gi == rgi and j <= rj):  # at or before the resume point
                if j == rj and (gi == rgi or added):
                    known = added
                elif j < kept:
                    continue
            for rd, principal in _principals(s, group):
                if known is not None:
                    if gi == rgi and principal == stop:
                        known = None
                        continue
                    if known.isdisjoint(principal):
                        continue
                yield gi, j, rd, s, principal


def _without_principal(rd: RuleDef, s: Sequent, principal: tuple) -> Sequent:
    """s with the principal's blocks and formula taken out."""
    blocks = list(s.blocks)
    formulas = list(s.left if rd.side == "left" else s.right)
    try:
        for x in principal:
            (blocks if isinstance(x, Block) else formulas).remove(x)
    except ValueError:
        raise InvalidInstance(f"{rd.rule.render()}: principal not in its component") from None
    if rd.side == "left":
        return Sequent(tuple(formulas), tuple(blocks), s.right)
    return Sequent(s.left, tuple(blocks), tuple(formulas))


def _new_sequents(rd: RuleDef, base: Sequent, schema: tuple[Premiss, ...], fresh: tuple) -> tuple[Sequent, ...]:
    """The sequent each premiss of an instance brings: the component it
    creates, for a rule that creates components, else the principal's
    component as the premiss has it. ``base`` is what the premisses keep
    of the principal's component, ``fresh`` the blocks of each new
    component."""
    if rd.spawns:
        return tuple([Sequent.of(p.left, fresh, p.right) for p in schema])
    return tuple([base.adding(p.left, map(Block.of, p.blocks), p.right) for p in schema])


def _apply(
    h: Hypersequent, cid: int, rd: RuleDef, base: Sequent, schema: tuple[Premiss, ...], fresh: tuple
) -> tuple[Hypersequent, ...]:
    """The premisses of one instance (see ``_new_sequents``)."""
    new = _new_sequents(rd, base, schema, fresh)
    if rd.spawns:
        kept = h.replace(cid, base)
        return tuple([kept.with_new_component(s) for s in new])
    return tuple([h.replace(cid, s) for s in new])


def _adds_nothing(h: Hypersequent, rd: RuleDef, s: Sequent, schema: tuple[Premiss, ...]) -> bool:
    """The local loop check of the cumulative reading (see the module
    docstring); s is the principal's component."""
    for p in schema:
        if rd.spawns:
            left, right = frozenset(p.left), frozenset(p.right)
            for c in h.components:
                if left <= left_set(c) and right <= right_set(c):
                    return True
        elif (
            left_set(s).issuperset(p.left)
            and right_set(s).issuperset(p.right)
            and all(frozenset(b) in block_sets(s) for b in p.blocks)
        ):
            return True
    return False


def build_premisses(h: Hypersequent, rule: RuleId, cid: int, principal: tuple) -> tuple[Hypersequent, ...]:
    """Construct the cumulative premisses of one rule instance.

    Principal data that does not fit the rule or does not occur in the
    target component raises InvalidInstance.
    """
    rd = rule_def(rule)
    shape = (Block,) * rd.blocks + ((rd.connective,) if rd.connective else ())
    if len(principal) != len(shape) or not all(map(isinstance, principal, shape)):
        names = ", ".join(t.__name__ for t in shape) or "nothing"
        raise InvalidInstance(f"{rule.render()} needs a principal of {names}")
    s = h.component(cid)
    _without_principal(rd, s, principal)
    return _apply(h, cid, rd, s, rd.schema(*principal), ())


def iter_instances(h: Hypersequent, l: LogicSpec) -> Iterator[RuleInstance]:
    """Cumulative instances that pass the loop check, in strategy order."""
    for _, j, rd, s, principal in _candidates(h, rule_groups(l)):
        schema = rd.schema(*principal)
        if not _adds_nothing(h, rd, s, schema):
            yield RuleInstance(rd.rule, j + 1, principal, _apply(h, j + 1, rd, s, schema, ()))


def next_instance(h: Hypersequent, groups, after: tuple | None = None) -> tuple[RuleInstance | None, tuple | None, int]:
    """The first cumulative instance of h that passes the loop check, its
    resume point, and the number of candidates loop-checked; with
    ``after``, the resume point of an instance whose premiss h is, the
    scan starts there (see ``_candidates``)."""
    n = 0
    for n, (gi, j, rd, s, principal) in enumerate(_candidates(h, groups, after), 1):
        schema = rd.schema(*principal)
        if not _adds_nothing(h, rd, s, schema):
            inst = RuleInstance(rd.rule, j + 1, principal, _apply(h, j + 1, rd, s, schema, ()))
            return inst, (h, gi, j, principal), n
    return None, None, n


class Moves(dict):
    """The move table of one lean search in one logic: it maps a sequent
    to its row, one entry per lean rule group, None until asked for. An
    entry is the tuple of the pair's moves; for a group that commits, it
    holds the first move alone (see ``lean_premisses``)."""

    __slots__ = ("groups", "fresh")

    def __init__(self, l: LogicSpec):
        super().__init__()
        self.groups = rule_groups(l, lean=True)
        self.fresh = (_TOP_BLOCK,) if l.has_n else ()

    def __missing__(self, s: Sequent) -> list:
        row = self[s] = [None] * len(self.groups)
        return row


def lean_premisses(seqs: tuple[Sequent, ...], moves: Moves) -> Iterator[tuple]:
    """The principal-deleting instances of a normal hypersequent, given
    as its sequence of components, in strategy order, as ``(j, base, new,
    key)``: every instance up to the first one of a rule that commits,
    which ends them (see the module docstring), or every instance when
    there is none.

    ``j`` is the position of the principal's component. ``base`` and
    ``new`` are the instance's move: for a rule that creates components,
    ``base`` is what the principal's component keeps and ``new`` the
    component each premiss adds; for the others ``base`` is None and each
    premiss replaces the component by its item of ``new``.
    ``lean_premiss`` builds each premiss from them. Every premiss of an
    instance shares its component and base, so ``key``, that is ``(j,
    base, new sorted by id)``, is equal for two instances exactly when
    their premiss sets are.

    A move depends on the sequent alone. So the first time a (sequent,
    group) pair is asked for, its moves are made, in the order of
    ``_principals``, and kept in ``moves`` as a tuple, which every later
    ask reads: every move of the pair, or for a group that commits its
    first move alone, as a 1-tuple.
    """
    groups, fresh = moves.groups, moves.fresh
    rows = [moves[s] for s in seqs]
    for gi, group in enumerate(groups):
        commits = group[0].commits
        for j, row in enumerate(rows):
            entry = row[gi]
            if entry is None:
                s, entry = seqs[j], []
                for rd, principal in _principals(s, group):
                    base = _without_principal(rd, s, principal)
                    new = _new_sequents(rd, base, rd.schema(*principal), fresh)
                    entry.append((base if rd.spawns else None, new, new if len(new) == 1 else tuple(sorted(new, key=id))))
                    if commits:
                        break
                entry = row[gi] = tuple(entry)
            for base, new, by_id in entry:
                yield j, base, new, (j, base, by_id)
            if commits and entry:
                return


def normalize(seqs) -> tuple[Sequent, ...]:
    """Components in canonical form: sorted, exact duplicates collapsed.

    Duplicate collapsing is external contraction, merging is external
    weakening read backwards; both are admissible, so derivability is
    unchanged and the reachable state space becomes finite.
    """
    return tuple(dict.fromkeys(sorted(seqs, key=sequent_key)))


def lean_premiss(seqs: tuple[Sequent, ...], j: int, base: Sequent | None, new: Sequent) -> tuple[Sequent, ...]:
    """One premiss of an instance on a normal hypersequent, both given as
    their sequences of components; the premiss comes normal."""
    out = list(seqs)
    if base is None:
        out[j] = new
    else:
        out[j] = base
        out.append(new)
    return normalize(out)


# --- the saturation oracle ------------------------------------------------------


def _box_right_blocked(h: Hypersequent, bs: frozenset, body: Formula, monotonic: bool) -> bool:
    for c in h.components:
        if bs <= left_set(c) and body in right_set(c):
            return True
    if monotonic:
        return False
    for c in h.components:
        if body in left_set(c) and bs & right_set(c):
            return True
    return False


def _left_superset_exists(h: Hypersequent, needed: frozenset) -> bool:
    return any(needed <= left_set(c) for c in h.components)


def _right_hits(h: Hypersequent, candidates: frozenset) -> bool:
    return any(candidates & right_set(c) for c in h.components)


def _right_pair_exists(h: Hypersequent, s1: frozenset, s2: frozenset) -> bool:
    # a pair (A, B) with A and B in the same succedent set; A = B is allowed
    return any(s1 & right_set(c) and s2 & right_set(c) for c in h.components)


def is_saturated(h: Hypersequent, l: LogicSpec) -> bool:
    """Clause-by-clause saturation test, one clause per rule in the logic.

    Deliberately implemented against the component contents rather than by
    asking for instances; the test suite cross-checks the two paths.
    """
    rules = rule_set(l)
    comps = h.components
    all_left = [left_set(s) for s in comps]
    all_right = [right_set(s) for s in comps]
    for s, ls, rs in zip(comps, all_left, all_right):
        if BOTTOM in ls or TOP in rs or ls & rs:
            return False
        for f in ls:
            match f:
                case And(a, b):
                    if not (a in ls and b in ls):
                        return False
                case Or(a, b):
                    if not (a in ls or b in ls):
                        return False
                case Imp(a, b):
                    if not (a in rs or b in ls):
                        return False
                case Box(a):
                    if frozenset({a}) not in block_sets(s):
                        return False
        for f in rs:
            match f:
                case And(a, b):
                    if not (a in rs or b in rs):
                        return False
                case Or(a, b):
                    if not (a in rs and b in rs):
                        return False
                case Imp(a, b):
                    if not (a in ls and b in rs):
                        return False
        bsets = block_sets(s)
        if RULE_T in rules and any(not bs <= ls for bs in bsets):
            return False
        if RULE_C in rules:
            for i in range(len(bsets)):
                for j in range(i + 1, len(bsets)):
                    if bsets[i] | bsets[j] not in bsets:
                        return False
        if RULE_N in rules and _TOP_BLOCK_SET not in bsets:
            return False
        boxes = [f for f in rs if isinstance(f, Box)]
        if boxes and s.blocks:
            monotonic = BOX_RM in rules
            for bs in bsets:
                for f in boxes:
                    if _box_right_blocked(h, bs, f.body, monotonic):
                        continue
                    return False
        if RULE_P in rules:
            for bs in bsets:
                if not _left_superset_exists(h, bs):
                    return False
        if RULE_D1 in rules:
            for bs in bsets:
                if not (_left_superset_exists(h, bs) or _right_hits(h, bs)):
                    return False
        if RULE_D2 in rules:
            for i in range(len(bsets)):
                for j in range(i + 1, len(bsets)):
                    if not (
                        _left_superset_exists(h, bsets[i] | bsets[j])
                        or _right_pair_exists(h, bsets[i], bsets[j])
                    ):
                        return False
        for rule in sorted((r for r in rules if r.name == "DnPlus"), key=lambda r: r.arity):
            for idxs in combinations(range(len(bsets)), rule.arity):
                union: frozenset = frozenset()
                for i in idxs:
                    union = union | bsets[i]
                if not _left_superset_exists(h, union):
                    return False
    return True
