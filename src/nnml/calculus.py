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
  runs it over the components of a hypersequent;
- ``_new_sequents`` reads an instance's premisses off the schema, as the
  sequent each premiss brings, for both readings;
- ``rule_groups`` puts a logic's rules in strategy order;
- the cumulative reading, ``iter_instances``, keeps the principal in
  every premiss, which makes every rule invertible. It filters instances
  by a local loop check: an instance is blocked when one of its premisses
  adds nothing new, that is, when the principal's component already has
  what the premiss adds to it, or an existing component absorbs
  (set-wise, as in ``subsumes``) the component the premiss creates;
- the deleting reading, ``lean_premisses``, takes the principal out of
  the premisses, gives every new component the verum block when the
  logic has N (so N itself is never applied), and filters nothing. It
  works on normal hypersequents, as sequences of components, and yields
  each instance as its move, with no rule instance around it: the base
  left without the principal and the new sequent of each premiss. A
  move depends on one sequent only; ``lean_moves`` makes them as they
  are reached, and from the second time a sequent and rule group are
  asked for, one search's ``Moves`` table keeps them. ``lean_premiss``
  builds one premiss from a move, already normal, when lean search
  reaches it; the instance's key, read off the move, tells which
  premiss sets were tried;
- ``build_premisses`` gives the cumulative premisses of one instance
  and rejects principal data that does not fit; the derivation checker
  audits proofs with it.

A hypersequent where no cumulative instance survives the loop check and
no initial pattern applies is saturated, and saturation is exactly the
countermodel condition the models module consumes. ``is_saturated``
tests it clause by clause, apart from the table, as the oracle that the
test suite compares the instance enumeration against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Iterator, NamedTuple

from .formula import And, BOTTOM, Box, Formula, Imp, Or, TOP, sort_key
from .hypersequent import (
    Block,
    Component,
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


def initial_evidence(h: Hypersequent) -> tuple[RuleId, int, Formula | None] | None:
    """The initial pattern of the first component that has one (see
    ``sequent_evidence``), with that component's id."""
    for c in h.components:
        ev = sequent_evidence(c.seq)
        if ev is not None:
            return (ev[0], c.cid, ev[1])
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
    adds a new component.
    """

    rule: RuleId
    schema: Callable[..., tuple[Premiss, ...]]
    blocks: int = 0
    connective: type | None = None
    side: str = "left"
    spawns: bool = False


def _members(b: Block) -> list[Formula]:
    """The distinct members, in canonical order (block members are kept
    sorted)."""
    return list(dict.fromkeys(b.members))


_TABLE: dict[RuleId, RuleDef] = {
    rd.rule: rd
    for rd in (
        RuleDef(AND_L, lambda f: (Premiss(left=(f.left, f.right)),), connective=And),
        RuleDef(
            OR_L,
            lambda f: (Premiss(left=(f.left,)), Premiss(left=(f.right,))),
            connective=Or,
        ),
        RuleDef(
            IMP_L,
            lambda f: (Premiss(right=(f.left,)), Premiss(left=(f.right,))),
            connective=Imp,
        ),
        RuleDef(
            AND_R,
            lambda f: (Premiss(right=(f.left,)), Premiss(right=(f.right,))),
            connective=And,
            side="right",
        ),
        RuleDef(
            OR_R, lambda f: (Premiss(right=(f.left, f.right)),), connective=Or, side="right"
        ),
        RuleDef(
            IMP_R,
            lambda f: (Premiss(left=(f.left,), right=(f.right,)),),
            connective=Imp,
            side="right",
        ),
        RuleDef(BOX_L, lambda f: (Premiss(blocks=((f.body,),)),), connective=Box),
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
# groups follow one another, each over all components.
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


def _candidates(h: Hypersequent, groups) -> Iterator[tuple[RuleDef, Component, tuple]]:
    """Every rule, component and distinct principal, in strategy order;
    within one group, component order first, then the order of
    ``_principals``."""
    for group in groups:
        for c in h.components:
            for rd, principal in _principals(c.seq, group):
                yield rd, c, principal


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
                if left <= left_set(c.seq) and right <= right_set(c.seq):
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
    for rd, c, principal in _candidates(h, rule_groups(l)):
        schema = rd.schema(*principal)
        if not _adds_nothing(h, rd, c.seq, schema):
            yield RuleInstance(rd.rule, c.cid, principal, _apply(h, c.cid, rd, c.seq, schema, ()))


def lean_moves(s: Sequent, principals, fresh: tuple) -> Iterator[tuple[Sequent | None, tuple[Sequent, ...], tuple]]:
    """The deleting instances of the given principals on one sequent, as
    moves, in order.

    A move is ``(base, new, by_id)``: for a rule that creates components,
    ``base`` is what the principal's component keeps and ``new`` the
    component each premiss adds; for the others ``base`` is None and each
    premiss replaces the component by its item of ``new``. ``by_id`` is
    ``new`` sorted by ``id``. A move depends on the sequent alone, so one
    search can reuse it wherever the sequent occurs.
    """
    for rd, principal in principals:
        base = _without_principal(rd, s, principal)
        new = _new_sequents(rd, base, rd.schema(*principal), fresh)
        yield base if rd.spawns else None, new, new if len(new) == 1 else tuple(sorted(new, key=id))


def _replay(row: list, gi: int, done: list, rest: Iterator) -> Iterator:
    """The moves in ``done``, then those of ``rest``, each appended to
    ``done`` as it is made, so that readers can interleave; the last one
    puts the finished tuple in ``row[gi]``."""
    i = 0
    while True:
        if i == len(done):
            move = next(rest, None)
            if move is None:
                row[gi] = tuple(done)
                return
            done.append(move)
        yield done[i]
        i += 1


_ASKED = object()  # the entry of a (sequent, group) pair asked once


class Moves(dict):
    """The move table of one lean search in one logic: it maps a sequent
    to one entry per lean rule group (see ``lean_premisses``)."""

    __slots__ = ("groups", "fresh")

    def __init__(self, l: LogicSpec):
        super().__init__()
        self.groups = rule_groups(l, lean=True)
        self.fresh = (_TOP_BLOCK,) if l.has_n else ()


def lean_premisses(seqs: tuple[Sequent, ...], moves: Moves) -> Iterator[tuple]:
    """Every principal-deleting instance of a normal hypersequent, given
    as its sequence of components, none filtered, in strategy order, as
    ``(j, base, new, key)``.

    ``j`` is the position of the principal's component, ``base`` and
    ``new`` are its move (see ``lean_moves``), and ``lean_premiss`` builds
    each premiss from them. In a normal hypersequent component ids are
    positions plus one, and every premiss of an instance shares its
    component and base, so ``key``, that is ``(j, base, by_id)``, is equal
    for two instances exactly when their premiss sets are.

    Moves are made as they are reached. The first time a (sequent, group)
    pair is asked for, they are not kept; from the second time on, they
    are kept in ``moves`` as they are made, and the finished entry is the
    tuple of them.
    """
    groups, fresh = moves.groups, moves.fresh
    rows = []
    for s in seqs:
        row = moves.get(s)
        if row is None:
            row = moves[s] = [None] * len(groups)
        rows.append(row)
    for gi, group in enumerate(groups):
        for j, row in enumerate(rows):
            entry = row[gi]
            if type(entry) is tuple:
                found = entry
            elif entry is None:
                ps = _principals(seqs[j], group)
                if not ps:
                    row[gi] = ()
                    continue
                row[gi] = _ASKED
                found = lean_moves(seqs[j], ps, fresh)
            else:
                if entry is _ASKED:
                    entry = row[gi] = [[], lean_moves(seqs[j], _principals(seqs[j], group), fresh)]
                found = _replay(row, gi, *entry)
            for base, new, by_id in found:
                yield j, base, new, (j, base, by_id)


def lean_premiss(seqs: tuple[Sequent, ...], j: int, base: Sequent | None, new: Sequent) -> tuple[Sequent, ...]:
    """One premiss of an instance on a normal hypersequent, both given as
    their sequences of components; the premiss comes normal: sorted,
    duplicates collapsed."""
    out = list(seqs)
    if base is None:
        out[j] = new
    else:
        out[j] = base
        out.append(new)
    return tuple(dict.fromkeys(sorted(out, key=sequent_key)))


def first_instance(h: Hypersequent, l: LogicSpec) -> RuleInstance | None:
    return next(iter_instances(h, l), None)


# --- the saturation oracle ------------------------------------------------------


def _box_right_blocked(h: Hypersequent, bs: frozenset, body: Formula, monotonic: bool) -> bool:
    for c in h.components:
        if bs <= left_set(c.seq) and body in right_set(c.seq):
            return True
    if monotonic:
        return False
    for c in h.components:
        if body in left_set(c.seq) and bs & right_set(c.seq):
            return True
    return False


def _left_superset_exists(h: Hypersequent, needed: frozenset) -> bool:
    return any(needed <= left_set(c.seq) for c in h.components)


def _right_hits(h: Hypersequent, candidates: frozenset) -> bool:
    return any(candidates & right_set(c.seq) for c in h.components)


def _right_pair_exists(h: Hypersequent, s1: frozenset, s2: frozenset) -> bool:
    # a pair (A, B) with A and B in the same succedent set; A = B is allowed
    return any(s1 & right_set(c.seq) and s2 & right_set(c.seq) for c in h.components)


def is_saturated(h: Hypersequent, l: LogicSpec) -> bool:
    """Clause-by-clause saturation test, one clause per rule in the logic.

    Deliberately implemented against the component contents rather than by
    asking for instances; the test suite cross-checks the two paths.
    """
    rules = rule_set(l)
    comps = [c.seq for c in h.components]
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
