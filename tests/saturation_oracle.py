"""Saturation decided clause by clause, apart from the rule table.

A hypersequent is saturated when no initial pattern applies and every
rule's saturation clause holds: what each instance would add is there
already. ``nnml.calculus.is_saturated`` reads this off the rule table;
``saturated_by_clauses`` states each clause by hand, so the tests can
check the table, and the countermodel guard that relies on it, against
an independent definition.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from nnml.formula import And, BOTTOM, Box, Formula, Imp, Or, TOP
from nnml.gen import random_formula
from nnml.hypersequent import Hypersequent, Sequent, block_sets, left_set, right_set
from nnml.logic import BOX_RM, RULE_C, RULE_D1, RULE_D2, RULE_N, RULE_P, RULE_T, LogicSpec, rule_set
from nnml.search import BudgetExceeded, Refuted, prove

_TOP_BLOCK_SET = frozenset({TOP})


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


def saturated_by_clauses(h: Hypersequent, l: LogicSpec) -> bool:
    """Clause-by-clause saturation test, one clause per rule in the logic.

    Deliberately implemented against the component contents rather than by
    asking for instances; the tests cross-check it with ``is_saturated``
    and with the instance enumeration.
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


def one_item_deleted(h: Hypersequent) -> Iterator[Hypersequent]:
    """Each hypersequent made from h by taking out one item: a formula of
    either side, a block, or a whole component when h has more than one."""
    comps = h.components
    for n, s in enumerate(comps, 1):
        for i in range(len(s.left)):
            yield h.replace(n, Sequent(s.left[:i] + s.left[i + 1 :], s.blocks, s.right))
        for i in range(len(s.blocks)):
            yield h.replace(n, Sequent(s.left, s.blocks[:i] + s.blocks[i + 1 :], s.right))
        for i in range(len(s.right)):
            yield h.replace(n, Sequent(s.left, s.blocks, s.right[:i] + s.right[i + 1 :]))
        if len(comps) > 1:
            yield Hypersequent(comps[: n - 1] + comps[n:])


def leaf_and_neighbours(rng: random.Random, l: LogicSpec) -> list[Hypersequent]:
    """The refutation leaf of a random formula in l, when search refutes
    it, and each hypersequent one item away from it (``one_item_deleted``):
    inputs on both sides of saturation, and close to its edge."""
    f = random_formula(rng, max_nodes=10, max_modal_depth=2, max_boxes=3)
    try:
        out = prove(Hypersequent.of([Sequent.of(right=(f,))]), l, budget=5_000)
    except BudgetExceeded:
        return []
    if not isinstance(out, Refuted):
        return []
    return [out.leaf, *one_item_deleted(out.leaf)]
