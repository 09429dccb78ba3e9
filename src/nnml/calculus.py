"""The rule table, its two readings, and saturation.

Every rule of the calculus is one entry of ``_TABLE`` (the graded rules
one per arity, from ``_graded``). An entry says where the rule's
principal sits, a number of block occurrences followed by at most one
formula of a given connective on a given side, and gives the rule's
premiss schema: for each premiss, what it adds to the principal's
component, or the component it creates. The rest is read off the entry:

- ``_candidates`` enumerates each rule's distinct principals in each
  component: block choices by position, then formulas in sequent order;
- ``rule_groups`` puts a logic's rules in strategy order;
- the cumulative reading, ``iter_instances``, keeps the principal in
  every premiss, which makes every rule invertible. It filters instances
  by a local loop check: an instance is blocked when one of its premisses
  adds nothing new, that is, when the principal's component already has
  what the premiss adds to it, or an existing component absorbs
  (set-wise, as in ``subsumes``) the component the premiss creates;
- the deleting reading, ``lean_premisses``, takes the principal out of
  the premisses, gives every new component the verum block when the
  logic has N (so N itself is never applied), and filters nothing;
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
    left_set,
    right_set,
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


def initial_evidence(h: Hypersequent) -> tuple[RuleId, int, Formula | None] | None:
    """First initial pattern in component order: falsum on the left, verum
    on the right, or a formula shared by both sides."""
    for c in h.components:
        ls = left_set(c.seq)
        rs = right_set(c.seq)
        if BOTTOM in ls:
            return (BOT_L, c.cid, None)
        if TOP in rs:
            return (TOP_R, c.cid, None)
        shared = ls & rs
        if shared:
            return (INIT, c.cid, min(shared, key=sort_key))
    return None


def is_initial(h: Hypersequent) -> bool:
    return initial_evidence(h) is not None


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


def _by_connective(s: Sequent) -> dict[tuple[str, type], list[tuple[Formula]]]:
    """(side, connective) -> the distinct formulas of s there, in sequent
    order, each as a one-item principal."""
    out: dict[tuple[str, type], list[tuple[Formula]]] = {}
    for side, formulas in (("left", s.left), ("right", s.right)):
        for f in dict.fromkeys(formulas):
            out.setdefault((side, type(f)), []).append((f,))
    return out


def _candidates(h: Hypersequent, groups) -> Iterator[tuple[RuleDef, Component, tuple]]:
    """Every rule, component and distinct principal, in strategy order;
    within one rule, component order first, then block choices by
    position, then formulas in sequent order."""
    formulas: dict[int, dict] = {}
    for group in groups:
        for c in h.components:
            for rd in group:
                fs: list[tuple] = [()]
                if rd.connective is not None:
                    if c.cid not in formulas:
                        formulas[c.cid] = _by_connective(c.seq)
                    fs = formulas[c.cid].get((rd.side, rd.connective))
                    if not fs:
                        continue
                choices = dict.fromkeys(combinations(c.seq.blocks, rd.blocks)) if rd.blocks else [()]
                for blocks in choices:
                    for f in fs:
                        yield rd, c, blocks + f


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


def _apply(
    h: Hypersequent, cid: int, rd: RuleDef, base: Sequent, schema: tuple[Premiss, ...], fresh: tuple
) -> tuple[Hypersequent, ...]:
    """The premisses of one instance; ``base`` is what they keep of the
    principal's component, ``fresh`` the blocks of each new component."""
    if rd.spawns:
        kept = h.replace(cid, base)
        return tuple([kept.with_new_component(Sequent.of(p.left, fresh, p.right)) for p in schema])
    return tuple(
        [h.replace(cid, base.adding(p.left, map(Block.of, p.blocks), p.right)) for p in schema]
    )


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


def lean_premisses(h: Hypersequent, l: LogicSpec) -> Iterator[tuple[Hypersequent, ...]]:
    """The premisses of every principal-deleting instance, none filtered,
    in strategy order."""
    fresh = (_TOP_BLOCK,) if l.has_n else ()
    for rd, c, principal in _candidates(h, rule_groups(l, lean=True)):
        base = _without_principal(rd, c.seq, principal)
        yield _apply(h, c.cid, rd, base, rd.schema(*principal), fresh)


def first_instance(h: Hypersequent, l: LogicSpec) -> RuleInstance | None:
    return next(iter_instances(h, l), None)


def applicable_instances(h: Hypersequent, l: LogicSpec) -> list[RuleInstance]:
    return list(iter_instances(h, l))


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
