"""Bi-neighbourhood, standard, and relational models.

Covers forcing in all three semantics, frame-condition checks with
witnesses, countermodel extraction from saturated hypersequents, the
three transformations between the semantics, and (de)serialization.

A bi-neighbourhood pair (alpha, beta) approximates a neighbourhood from
inside and outside: a box holds when some pair sandwiches the truth set,
alpha below and the complement of beta above. Standard neighbourhoods
demand the truth set itself; relational models read boxes as universal
quantification over successors at normal worlds.

Every set of worlds a model computes with is an int mask over one layout
of its worlds (``_layout``): with the n worlds ascending, the i-th has
bit ``1 << (n-1-i)``, so the least world is the highest bit. Truth sets
are masks (``&``, ``|``, ``full ^ a | b``), a bi-neighbourhood pair is
two, a standard neighbourhood one, and so are a world's relational
successors; the transformations pass masks on unchanged. ``key`` orders
masks as their sets are reported, by size and then members ascending.
``members`` decodes a mask, only where a set leaves the module as a
set: in ``truth_set`` and in the witness of a failed frame check. A
model's payload leaves it as JSON text, which ``model_to_json`` writes
from the masks through tables of the same 8-world chunks already
written as text; ``model_to_dict`` reads that text back. Valuations and
non-normal worlds keep the frozensets they are given; a model derives
its atoms' masks once, when it is built.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_, itemgetter, or_

from .calculus import is_saturated
from .formula import BOTTOM, TOP, And, Atom, Box, Formula, Imp, Or, operands, sort_key
from .hypersequent import Hypersequent, block_sets, left_set, right_set
from .logic import LogicSpec

_ESCAPE = json.encoder.encode_basestring_ascii


class UnknownWorldError(ValueError):
    pass


@lru_cache(maxsize=32)
def _layout(worlds: frozenset[int]) -> tuple:
    """The worlds ascending, each world's bit by its rank, the one
    decoder, from a mask to its worlds ascending, and the list writers
    of ``_list_writer`` at depths 2, 3 and 4. The decoder reads the mask
    8 bits at a time, from the top, through one table per 8 bits: from
    their value to their worlds. The top 8 may be fewer. Countermodels
    number their worlds from 1, so most calls share a few world sets and
    the layouts are kept for the last 32. Every model of the same worlds
    shares one layout; nothing writes to it."""
    order = tuple(sorted(worlds))
    n = len(order)
    chunks = []
    for low in reversed(range(0, n, 8)):
        # Each world of the 8, from the lowest bit up, doubles the table:
        # the values with its bit set follow, and it is less than every
        # world of a lower bit.
        table = [()]
        for w in reversed(order[max(n - low - 8, 0) : n - low]):
            table += [(w, *rest) for rest in table]
        chunks.append((low, table))

    def members(mask: int) -> list[int]:
        out: list[int] = []
        for low, table in chunks:
            out += table[mask >> low & 255]
        return out

    bit = {w: 1 << (n - 1 - i) for i, w in enumerate(order)}
    return order, bit, members, tuple(_list_writer(chunks, depth) for depth in (2, 3, 4))


def _list_writer(chunks: list, depth: int) -> Callable[[int], str]:
    """From a mask to the JSON text of its worlds as a list at ``depth``
    in a payload that ``json.dumps(..., indent=2)`` prints. It reads the
    mask as the decoder does, through tables of the chunks' worlds as
    text, each world led by the separator; a list's text is the chunks'
    text with its first comma dropped. A model's payload has lists of
    worlds at depth 2 (valuations and non-normal worlds), 3 (standard
    neighbourhoods and relational successors) and 4 (bi bounds)."""
    sep = ",\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + "]"
    texts = [(low, ["".join([sep + str(w) for w in ws]) for ws in table]) for low, table in chunks]
    if len(texts) == 1:
        # At most 8 worlds: one lookup gives the whole list.
        return ["[" + t[1:] + close if t else "[]" for t in texts[0][1]].__getitem__

    def write(mask: int) -> str:
        t = ""
        for low, table in texts:
            t += table[mask >> low & 255]
        return "[" + t[1:] + close if t else "[]"

    return write


def _mask(bit: dict[int, int], ws) -> int:
    """The mask of the worlds ws, which may repeat; KeyError if one has no bit."""
    return reduce(or_, map(bit.__getitem__, ws), 0)


def _made(ws: frozenset[int], valuation: dict, entries: dict, encode, unknown: str, outside: str):
    """What each ``make`` checks and builds on the world set ws: the
    valuation, and each world's entry of ``entries``, keyed by world
    number, as ``encode(bit, entry)``; a world without one gets
    ``encode(bit, ())``. ``unknown`` and ``outside`` are the errors of an
    entry for a world not in ws and of one that leaves ws."""
    val = {}
    for atom, vs in valuation.items():
        vs = frozenset(vs)
        if not vs <= ws:
            raise ValueError(f"valuation of {atom!r} mentions unknown worlds")
        val[str(atom)] = vs
    bit = _layout(ws)[1]
    out = dict.fromkeys(bit, encode(bit, ()))
    for w, x in entries.items():
        w = int(w)
        if w not in ws:
            raise ValueError(f"{unknown} {w}")
        try:
            out[w] = encode(bit, x)
        except KeyError:
            raise ValueError(outside) from None
    return val, out


@dataclass(frozen=True, slots=True)
class _Ranked:
    """What every kind of model derives from its ``worlds`` and
    ``valuation``: the rank layout from ``_layout`` (``order``, the worlds
    ascending; ``bit``, each world's bit; ``members``, the one decoder,
    from a mask to its worlds ascending; and ``lists``, the writers from
    a mask to its worlds' JSON text at depths 2, 3 and 4), and ``atoms``,
    the mask of each atom's worlds."""

    order: tuple[int, ...] = field(init=False, compare=False, repr=False)
    bit: dict[int, int] = field(init=False, compare=False, repr=False)
    members: Callable[[int], list[int]] = field(init=False, compare=False, repr=False)
    lists: tuple[Callable[[int], str], ...] = field(init=False, compare=False, repr=False)
    atoms: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        order, bit, members, lists = _layout(self.worlds)
        atoms = {a: sum(map(bit.__getitem__, ws)) for a, ws in self.valuation.items()}
        names = ("order", "bit", "members", "lists", "atoms")
        for name, value in zip(names, (order, bit, members, lists, atoms)):
            object.__setattr__(self, name, value)

    @property
    def full(self) -> int:
        """The mask of the whole world set."""
        return (1 << len(self.worlds)) - 1

    def key(self, mask: int) -> int:
        """The report order of masks as one int: the set's size above n
        bits that hold the complement of the mask."""
        n = len(self.worlds)
        return (mask.bit_count() << n) | (((1 << n) - 1) ^ mask)

    def decode(self, mask: int) -> frozenset[int]:
        return frozenset(self.members(mask))


@dataclass(frozen=True, slots=True)
class BiModel(_Ranked):
    """A bi-neighbourhood model: ``nbhd`` maps each world to the frozenset
    of its pairs, each a (plus, minus) pair of masks. ``pairs`` decodes a
    world's pairs."""

    worlds: frozenset[int]
    valuation: dict[str, frozenset[int]]
    nbhd: dict[int, frozenset[tuple[int, int]]]

    @classmethod
    def make(cls, worlds, valuation, nbhd) -> "BiModel":
        def pairs(bit, ps):
            return frozenset((_mask(bit, a), _mask(bit, b)) for a, b in ps)

        ws = frozenset(map(int, worlds))
        errors = ("neighbourhood of unknown world", "neighbourhood pair leaves the world set")
        return cls(ws, *_made(ws, valuation, nbhd, pairs, *errors))

    def pairs(self, w: int) -> frozenset[tuple[frozenset[int], frozenset[int]]]:
        return frozenset((self.decode(a), self.decode(b)) for a, b in self.nbhd[w])


@dataclass(frozen=True, slots=True)
class StandardModel(_Ranked):
    """A standard neighbourhood model: ``nbhd`` maps each world to the
    frozenset of its neighbourhoods' masks. ``neighbourhoods`` decodes a
    world's."""

    worlds: frozenset[int]
    valuation: dict[str, frozenset[int]]
    nbhd: dict[int, frozenset[int]]

    @classmethod
    def make(cls, worlds, valuation, nbhd) -> "StandardModel":
        def masks(bit, sets):
            return frozenset(_mask(bit, a) for a in sets)

        ws = frozenset(map(int, worlds))
        errors = ("neighbourhood of unknown world", "neighbourhood leaves the world set")
        return cls(ws, *_made(ws, valuation, nbhd, masks, *errors))

    def neighbourhoods(self, w: int) -> frozenset[frozenset[int]]:
        return frozenset(map(self.decode, self.nbhd[w]))


@dataclass(frozen=True, slots=True)
class RelationalModel(_Ranked):
    """A relational model: ``relation`` maps each world to the mask of its
    successors, and no box holds at the ``non_normal`` worlds."""

    worlds: frozenset[int]
    non_normal: frozenset[int]
    relation: dict[int, int]
    valuation: dict[str, frozenset[int]]

    @classmethod
    def make(cls, worlds, non_normal, relation, valuation) -> "RelationalModel":
        ws = frozenset(map(int, worlds))
        nn = frozenset(map(int, non_normal))
        if not nn <= ws:
            raise ValueError("non-normal worlds outside the world set")
        errors = ("relation at unknown world", "relation targets outside the world set")
        val, rel = _made(ws, valuation, relation, _mask, *errors)
        return cls(ws, nn, rel, val)


Model = BiModel | StandardModel | RelationalModel


def _between(low: int, high: int):
    """Every mask from ``low`` up to ``high``, where low is within high:
    low with each submask of the bits between them."""
    free = high ^ low
    sub = free
    while True:
        yield low | sub
        if not sub:
            return
        sub = (sub - 1) & free


def truth_set(m: Model, f: Formula) -> frozenset[int]:
    """Worlds of m where f holds."""
    return m.decode(_truth_mask(m, f))


def force(m: Model, w: int, f: Formula) -> bool:
    if w not in m.worlds:
        raise UnknownWorldError(f"world {w} is not in the model")
    return bool(_truth_mask(m, f) & m.bit[w])


def _truth_mask(m: Model, f: Formula) -> int:
    """The mask of the worlds of m where f holds."""
    return truth_masks(m, (f,))[f]


def truth_masks(m: Model, formulas) -> dict[Formula, int]:
    """The mask of the worlds of m where each formula holds, keyed by
    formula, with every subformula's among them.

    Subformulas are evaluated bottom-up from an explicit stack, each
    distinct one once, however many of the formulas share it (formulas
    are interned, so the memo is keyed by identity), so a deep formula
    needs no recursion. A compound formula whose operands are not yet
    evaluated goes back on the stack under them.
    """
    full = m.full
    memo: dict[Formula, int] = {TOP: full, BOTTOM: 0}
    stack = list(formulas)
    while stack:
        g = stack.pop()
        if g in memo:
            continue
        kind = type(g)
        if kind is Atom:
            memo[g] = m.atoms.get(g.name, 0)
        elif kind is Box:
            ts = memo.get(g.body)
            if ts is None:
                stack += (g, g.body)
            else:
                memo[g] = _box_truth_set(m, ts)
        elif kind in _BINARY:
            a = memo.get(g.left)
            b = memo.get(g.right)
            if a is None or b is None:
                # an operand already evaluated is popped and skipped
                stack += (g, g.left, g.right)
            elif kind is And:
                memo[g] = a & b
            elif kind is Or:
                memo[g] = a | b
            else:
                memo[g] = full ^ a | b
        else:
            raise TypeError(f"not a formula: {g!r}")
    return memo


_BINARY = (And, Or, Imp)


def _box_truth_set(m: Model, ts: int) -> int:
    """The mask of the worlds of m where a box holds whose body holds at
    the mask ts."""
    bit, outside = m.bit, ~ts
    if isinstance(m, BiModel):
        # a pair sandwiches ts: plus within it, minus outside it
        return sum(
            bit[w] for w, ps in m.nbhd.items() if any(not a & outside and not b & ts for a, b in ps)
        )
    if isinstance(m, StandardModel):
        return sum(bit[w] for w, ns in m.nbhd.items() if ts in ns)
    return sum(bit[w] for w, r in m.relation.items() if not r & outside and w not in m.non_normal)


# --- frame conditions -------------------------------------------------------


def _verdict(witnesses) -> tuple[str, object]:
    """("fail", the least witness) or ("pass", None). Witnesses are
    ordered by ``_order``, so only a failing check pays for the order."""
    witness = min(witnesses, key=_order, default=None)
    return ("pass", None) if witness is None else ("fail", witness)


def _order(x):
    """The report order of witnesses: worlds by number, sets by size and
    then members, tuples by length and then item by item."""
    if isinstance(x, frozenset):
        return (len(x), tuple(sorted(x)))
    if isinstance(x, tuple):
        return (len(x), tuple(map(_order, x)))
    return x


def _graded_conditions(l: LogicSpec, m: BiModel | StandardModel, inner) -> dict:
    """RDk+ for each k up to the logic's n: no k neighbourhoods of one
    world whose inner sets have an empty intersection. Only the inner sets
    with no other one below them matter: a world fails RDk+ exactly when
    it has at least k neighbourhoods and at most k of those minimal sets
    have an empty intersection, and the witness is the world and those
    sets. ``inner`` gives a neighbourhood's inner set."""
    if not l.dplus:
        return {}
    minimal = {}
    for w, ns in m.nbhd.items():
        found = []
        for alpha in sorted(map(inner, ns), key=m.key):
            if not any(low & alpha == low for low in found):
                found.append(alpha)
        minimal[w] = found
    return {
        f"RD{k}+": _verdict(
            (w, tuple(map(m.decode, chosen)))
            for w, ns in m.nbhd.items()
            if len(ns) >= k
            for j in range(1, k + 1)
            for chosen in combinations(minimal[w], j)
            if not reduce(and_, chosen)
        )
        for k in range(1, l.dplus + 1)
    }


# Each check reports the first witness of a failure in world order, then
# in neighbourhood order: its least witness under ``_order``. The clauses
# test masks; a witness is decoded only when a check fails, so that
# ``_order`` sees frozensets of worlds.


def _bi_conditions(m: BiModel, l: LogicSpec) -> dict:
    report = {}
    nbhd, dec, bit = m.nbhd, m.decode, m.bit

    def pair(p):
        return dec(p[0]), dec(p[1])

    if l.monotonic:
        report["M"] = _verdict((w, pair(p)) for w, ps in nbhd.items() for p in ps if p[1])
    if l.has_n:
        outer_free = {a for ps in nbhd.values() for a, b in ps if not b}
        shared = any(all((a, 0) in ps for ps in nbhd.values()) for a in outer_free)
        report["N"] = ("pass", None) if shared or not m.worlds else ("fail", None)
    if l.has_c:
        report["C"] = _verdict(
            (w, pair(p1), pair(p2))
            for w, ps in nbhd.items()
            for p1 in ps
            for p2 in ps
            if (p1[0] & p2[0], p1[1] | p2[1]) not in ps
        )
    if l.has_t:
        report["T"] = _verdict(
            (w, pair(p)) for w, ps in nbhd.items() for p in ps if not p[0] & bit[w]
        )
    if l.has_p:
        report["P"] = _verdict((w, pair(p)) for w, ps in nbhd.items() for p in ps if not p[0])
    if l.has_d:
        report["D"] = _verdict(
            (w, pair(p1), pair(p2))
            for w, ps in nbhd.items()
            for p1 in ps
            for p2 in ps
            if not p1[0] & p2[0] and not p1[1] & p2[1]
        )
    report.update(_graded_conditions(l, m, itemgetter(0)))
    return report


def _standard_conditions(m: StandardModel, l: LogicSpec) -> dict:
    report = {}
    nbhd, full, dec, bit, n = m.nbhd, m.full, m.decode, m.bit, len(m.worlds)
    if l.monotonic:
        # The witness world x is the one whose rank sets the bit b.
        report["M"] = _verdict(
            (w, dec(a), m.order[n - b.bit_length()]) for w, a, b in _upward_gaps(nbhd, full)
        )
    if l.has_n:
        report["N"] = _verdict(w for w, ns in nbhd.items() if full not in ns)
    if l.has_c:
        report["C"] = _verdict(
            (w, dec(a1), dec(a2))
            for w, ns in nbhd.items()
            for a1 in ns
            for a2 in ns
            if a1 & a2 not in ns
        )
    if l.has_t:
        report["T"] = _verdict((w, dec(a)) for w, ns in nbhd.items() for a in ns if not a & bit[w])
    if l.has_p:
        report["P"] = _verdict(w for w, ns in nbhd.items() if 0 in ns)
    if l.has_d:
        report["D"] = _verdict((w, dec(a)) for w, ns in nbhd.items() for a in ns if full ^ a in ns)
    report.update(_graded_conditions(l, m, lambda a: a))
    return report


def _upward_gaps(nbhd: dict[int, frozenset[int]], full: int):
    """Each (w, a, b) where a is a neighbourhood of w and adding the one
    world of bit b, not in a, gives a set that is not."""
    for w, ns in nbhd.items():
        for a in ns:
            free = full ^ a
            while free:
                b = free & -free
                if a | b not in ns:
                    yield w, a, b
                free ^= b


def _relational_conditions(m: RelationalModel, l: LogicSpec) -> dict:
    """At a normal world a box holds when its body holds at every
    successor; at a non-normal world no box holds. So N holds when no
    world is non-normal, and P, D and every RDk+ hold when every normal
    world has a successor."""
    report = {}
    normal = m.worlds - m.non_normal
    if l.has_t:
        report["T"] = _verdict(w for w in normal if not m.relation[w] & m.bit[w])
    if l.has_n:
        report["N"] = _verdict(m.non_normal)
    serial = _verdict(w for w in normal if not m.relation[w])
    keys = [key for flag, key in ((l.has_p, "P"), (l.has_d, "D")) if flag]
    keys += [f"RD{k}+" for k in range(1, (l.dplus or 0) + 1)]
    report.update(dict.fromkeys(keys, serial))
    return report


def check_conditions(m: Model, l: LogicSpec) -> dict:
    """Frame conditions induced by the logic, each ("pass", None) or
    ("fail", witness), where the witness is the first world, or world and
    neighbourhoods, at which the condition fails. Every condition of the
    logic is checked in all three semantics; relational models check T
    on normal worlds, N and seriality as ``_relational_conditions`` says.
    """
    if isinstance(m, BiModel):
        return _bi_conditions(m, l)
    if isinstance(m, StandardModel):
        return _standard_conditions(m, l)
    return _relational_conditions(m, l)


def conditions_ok(report: dict) -> bool:
    return all(status != "fail" for status, _ in report.values())


# --- countermodel extraction ------------------------------------------------


def _leaf_worlds(leaf: Hypersequent):
    """The n-th component as world n: the components numbered, the world
    set, each world's bit, and the valuation, where each atom holds at
    the components with it on the left."""
    comps = tuple(enumerate(leaf.components, 1))
    valuation: dict[str, set[int]] = {}
    for w, s in comps:
        for f in left_set(s):
            if isinstance(f, Atom):
                valuation.setdefault(f.name, set()).add(w)
    worlds = frozenset(range(1, len(comps) + 1))
    return comps, worlds, _layout(worlds)[1], {a: frozenset(ws) for a, ws in valuation.items()}


def extract_bi_countermodel(leaf: Hypersequent, l: LogicSpec) -> BiModel:
    """Read a bi-neighbourhood countermodel off a saturated hypersequent.

    The n-th component is world n. Each block contributes the pair of its
    positive worlds (antecedents containing the whole block) and negative
    worlds (succedents meeting it); monotone logics drop the negative
    half.
    """
    if not is_saturated(leaf, l):
        raise ValueError("countermodel extraction needs a saturated hypersequent")
    comps, worlds, bit, valuation = _leaf_worlds(leaf)
    nbhd = {}
    for w, s in comps:
        pairs = set()
        for sigma in block_sets(s):
            plus = sum(bit[v] for v, s2 in comps if sigma <= left_set(s2))
            minus = 0 if l.monotonic else sum(bit[v] for v, s2 in comps if sigma & right_set(s2))
            pairs.add((plus, minus))
        nbhd[w] = frozenset(pairs)
    return BiModel(worlds, valuation, nbhd)


def extract_relational_countermodel(leaf: Hypersequent, l: LogicSpec) -> RelationalModel:
    """Relational countermodel for regular logics (M and C together).

    The n-th component is world n; blockless components are the non-normal
    worlds; each component with blocks has a maximal block (closure
    under block merging guarantees one) whose positive worlds form the
    successor set.
    """
    if not l.regular:
        raise ValueError("relational extraction needs a regular logic (M and C)")
    if not is_saturated(leaf, l):
        raise ValueError("countermodel extraction needs a saturated hypersequent")
    comps, worlds, bit, valuation = _leaf_worlds(leaf)
    non_normal = set()
    relation = {}
    for w, s in comps:
        sets = block_sets(s)
        if not sets:
            non_normal.add(w)
            relation[w] = 0
            continue
        maximal = [b for b in sets if all(other <= b for other in sets)]
        if not maximal:
            raise ValueError("no maximal block; the hypersequent is not closed under merging")
        successor_sets = {sum(bit[v] for v, s2 in comps if b <= left_set(s2)) for b in maximal}
        if len(successor_sets) != 1:
            raise ValueError("maximal blocks disagree on successors")
        relation[w] = next(iter(successor_sets))
    return RelationalModel(worlds, frozenset(non_normal), relation, valuation)


# --- transformations --------------------------------------------------------


def bi_from_standard(m: StandardModel, supplemented: bool) -> BiModel:
    """Pair every standard neighbourhood with its complement, or with the
    empty outer bound when the source is supplemented (upward closed)."""
    full = m.full
    nbhd = {
        w: frozenset((a, 0 if supplemented else full ^ a) for a in ns) for w, ns in m.nbhd.items()
    }
    return BiModel(m.worlds, m.valuation, nbhd)


def standard_from_bi_rough(m: BiModel, cap: int = 20) -> StandardModel:
    """Blow each pair up to every set it sandwiches.

    Exponential in the world count, hence the cap; the fine
    transformation is the practical route for larger models.
    """
    if len(m.worlds) > cap:
        raise ValueError(
            f"rough transformation needs at most {cap} worlds, got {len(m.worlds)}"
        )
    full = m.full
    nbhd = {}
    for w, pairs in m.nbhd.items():
        sets: set[int] = set()
        for a, b in pairs:
            if not a & b:
                sets.update(_between(a, full ^ b))
        nbhd[w] = frozenset(sets)
    return StandardModel(m.worlds, m.valuation, nbhd)


def standard_from_bi_fine(
    m: BiModel, s, supplement: bool, cap: int = 20, intersect: bool = False
) -> StandardModel:
    """Neighbourhoods are the truth sets of boxed members of s forced
    there; agreement with the source holds on every formula in s.

    With intersect, close each world's neighbourhoods under pairwise
    intersection (needed for C): where the source has C, the merge of
    the pairs that sandwich two truth sets sandwiches their intersection,
    so agreement on s still holds. With supplement, then close them
    upward (needed when the target is read as a supplemented model);
    this enumerates supersets and so shares the rough transformation's
    world cap.
    """
    fs = frozenset(s)
    for f in fs:
        missing = frozenset(operands(f)) - fs
        if missing:
            raise ValueError(
                f"formula set is not closed under subformulas: missing {next(iter(missing))!r}"
            )
    boxed = sorted((f for f in fs if isinstance(f, Box)), key=sort_key)
    if supplement and boxed and len(m.worlds) > cap:
        raise ValueError(
            f"supplemented transformation needs at most {cap} worlds, got {len(m.worlds)}"
        )
    full = m.full
    bodies: dict[int, set[int]] = {w: set() for w in m.order}
    for f in boxed:
        body = _truth_mask(m, f.body)
        for w in m.members(_box_truth_set(m, body)):
            bodies[w].add(body)
    nbhd = {}
    for w, ns in bodies.items():
        while intersect and (new := {a & b for a in ns for b in ns} - ns):
            ns |= new
        nbhd[w] = frozenset({a for body in ns for a in _between(body, full)} if supplement else ns)
    return StandardModel(m.worlds, m.valuation, nbhd)


# --- serialization ----------------------------------------------------------


def _joined(items: list[str], depth: int, brackets: str = "{}") -> str:
    """A JSON object, or with ``brackets="[]"`` a list, at ``depth`` whose
    items are already text, as ``json.dumps(..., indent=2)`` prints it."""
    if not items:
        return brackets
    pad = "\n" + "  " * depth
    return brackets[0] + pad + "  " + ("," + pad + "  ").join(items) + pad + brackets[1]


def model_to_json(m: Model) -> str:
    """The payload of m as JSON text, as ``json.dumps(payload, indent=2)``
    prints it at the top level: ``worlds``, ``valuation`` (each atom's
    worlds, atoms sorted), then ``bi``, ``standard`` or ``relational``,
    each keyed by world in ascending order. Bi pairs and standard
    neighbourhoods go in ``key`` order, bi pairs by plus then minus.

    This is the one definition of the payload's shape: ``model_to_dict``
    reads it back, and ``model_from_dict`` reads the same shape. Every
    set of worlds in it is one call of a writer of ``lists`` on a mask."""
    at_two, at_three, at_four = m.lists
    key = m.key
    valuation = _joined([_ESCAPE(a) + ": " + at_two(v) for a, v in sorted(m.atoms.items())], 1)
    out = ['{\n  "worlds": ', _joined(list(map(str, m.order)), 1, "[]"), ',\n  "valuation": ', valuation]
    if isinstance(m, RelationalModel):
        edges = _joined([f'"{w}": ' + at_three(r) for w, r in sorted(m.relation.items())], 2)
        relational = ['"non_normal": ' + at_two(_mask(m.bit, m.non_normal)), '"edges": ' + edges]
        out += [',\n  "relational": ', _joined(relational, 1), "\n}"]
        return "".join(out)
    if isinstance(m, BiModel):
        out.append(',\n  "bi": ')

        def listed(pairs) -> list[str]:
            ordered = sorted(pairs, key=lambda p: (key(p[0]), key(p[1])))
            return [_joined(['"plus": ' + at_four(a), '"minus": ' + at_four(b)], 3) for a, b in ordered]
    else:
        out.append(',\n  "standard": ')

        def listed(ns) -> list[str]:
            return list(map(at_three, sorted(ns, key=key)))

    # The worlds' lists are most of the text: each goes straight into the
    # one join of the whole, not into an object's text first.
    sep = "{\n    "
    for w, x in sorted(m.nbhd.items()):
        out += (sep, f'"{w}": ', _joined(listed(x), 2, "[]"))
        sep = ",\n    "
    out.append("\n  }\n}" if m.nbhd else "{}\n}")
    return "".join(out)


def model_to_dict(m: Model) -> dict:
    """The payload of m, read back from ``model_to_json``."""
    return json.loads(model_to_json(m))


def _listed(x, what: str) -> list:
    """x if it is a JSON list. A JSON string where a list of worlds
    belongs is an error, not the list of its characters."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, not {type(x).__name__}")
    return x


def _worlds(x, what: str) -> list[int]:
    """x if it is a JSON list of integers. A float or a bool is not a
    world, though Python would round the one and count the other as 0 or
    1 (and ``int(1e400)`` overflows)."""
    if any(type(w) is not int for w in _listed(x, what)):
        raise ValueError(f"{what} must list integers")
    return x


def _world(key: str) -> int:
    """The world a key names, which must be the decimal an int prints as:
    ``int`` alone takes whitespace, ``_`` and other scripts' digits, and
    lets two spellings of one world overwrite each other."""
    try:
        if str(w := int(key)) == key:
            return w
    except ValueError:
        pass
    raise ValueError(f"world key {key!r} is not an integer as JSON prints it")


def _mapped(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise ValueError(f"{what} must be an object, not {type(x).__name__}")
    return x


def model_from_dict(data: dict) -> Model:
    """The model of a payload in the form ``model_to_json`` writes, read
    from JSON: every list and object in it must be one."""
    data = _mapped(data, "model")
    worlds = _worlds(data["worlds"], "worlds")
    valuation = {
        a: _worlds(ws, f"valuation of {a!r}")
        for a, ws in _mapped(data.get("valuation", {}), "valuation").items()
    }
    if "bi" in data:
        nbhd = {
            _world(w): [
                (_worlds(p["plus"], "plus"), _worlds(p["minus"], "minus"))
                for p in _listed(pairs, f"neighbourhoods of {w}")
            ]
            for w, pairs in _mapped(data["bi"], "bi").items()
        }
        return BiModel.make(worlds, valuation, nbhd)
    if "standard" in data:
        nbhd = {
            _world(w): [_worlds(a, "neighbourhood") for a in _listed(sets, f"neighbourhoods of {w}")]
            for w, sets in _mapped(data["standard"], "standard").items()
        }
        return StandardModel.make(worlds, valuation, nbhd)
    if "relational" in data:
        rel = _mapped(data["relational"], "relational")
        return RelationalModel.make(
            worlds,
            _worlds(rel.get("non_normal", []), "non_normal"),
            {
                _world(w): _worlds(v, f"edges of {w}")
                for w, v in _mapped(rel.get("edges", {}), "edges").items()
            },
            valuation,
        )
    raise ValueError("model payload needs one of: bi, standard, relational")
