"""Bi-neighbourhood, standard, and relational models.

Covers forcing in all three semantics, frame-condition checks with
witnesses, countermodel extraction from saturated hypersequents, the
three transformations between the semantics, and (de)serialization.

A bi-neighbourhood pair (alpha, beta) approximates a neighbourhood from
inside and outside: a box holds when some pair sandwiches the truth set,
alpha below and the complement of beta above. Standard neighbourhoods
demand the truth set itself; relational models read boxes as universal
quantification over successors at normal worlds.

A standard model holds each neighbourhood as an int bitmask, since the
rough and supplemented transformations make thousands of them. Bits go
by rank, not by world number: with the n worlds sorted ascending, the
i-th one gets bit ``1 << (n-1-i)``, so the least world is the highest
bit. Then the report order of sets (by size, then members ascending) is
the order of one int, ``StandardModel.key``: the set's size above n bits
that hold the complement of the mask. Truth sets, valuations and the
other two kinds of model keep frozensets of worlds.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_

from .calculus import is_saturated
from .formula import And, Atom, Bottom, Box, Formula, Imp, Or, Top, operands, sort_key
from .hypersequent import Hypersequent, block_sets, left_set, right_set
from .logic import LogicSpec

Pair = tuple[frozenset[int], frozenset[int]]


class UnknownWorldError(ValueError):
    pass


def _world_set(worlds) -> frozenset[int]:
    return frozenset(int(w) for w in worlds)


def _check_valuation(worlds: frozenset[int], valuation: dict) -> dict:
    out = {}
    for atom, ws in valuation.items():
        ws = frozenset(ws)
        if not ws <= worlds:
            raise ValueError(f"valuation of {atom!r} mentions unknown worlds")
        out[str(atom)] = ws
    return out


@dataclass(frozen=True, slots=True)
class BiModel:
    worlds: frozenset[int]
    valuation: dict[str, frozenset[int]]
    nbhd: dict[int, frozenset[Pair]]

    @classmethod
    def make(cls, worlds, valuation, nbhd) -> "BiModel":
        ws = _world_set(worlds)
        val = _check_valuation(ws, valuation)
        out: dict[int, frozenset[Pair]] = {w: frozenset() for w in ws}
        for w, pairs in nbhd.items():
            w = int(w)
            if w not in ws:
                raise ValueError(f"neighbourhood of unknown world {w}")
            norm = []
            for alpha, beta in pairs:
                alpha, beta = frozenset(alpha), frozenset(beta)
                if not (alpha <= ws and beta <= ws):
                    raise ValueError("neighbourhood pair leaves the world set")
                norm.append((alpha, beta))
            out[w] = frozenset(norm)
        return cls(ws, val, out)


@dataclass(frozen=True, slots=True)
class StandardModel:
    """A standard neighbourhood model with its neighbourhoods as bitmasks.

    ``nbhd`` maps each world to the frozenset of its neighbourhoods'
    masks. ``order`` is the worlds ascending, so the world of rank i has
    bit ``1 << (n-1-i)``, and ``bit`` maps each world to its bit; both
    follow from ``worlds``. ``key`` orders masks as their sets are
    reported. ``members`` is the one decoder, from a mask to its worlds
    ascending; ``decode`` gives them as a set and ``neighbourhoods``
    decodes a whole world's.
    """

    worlds: frozenset[int]
    valuation: dict[str, frozenset[int]]
    nbhd: dict[int, frozenset[int]]
    order: tuple[int, ...] = field(compare=False, repr=False)
    bit: dict[int, int] = field(compare=False, repr=False)

    @classmethod
    def make(cls, worlds, valuation, nbhd) -> "StandardModel":
        ws = _world_set(worlds)
        val = _check_valuation(ws, valuation)
        order, bit = _layout(ws)
        masks: dict[int, frozenset[int]] = {}
        for w, sets in nbhd.items():
            w = int(w)
            if w not in ws:
                raise ValueError(f"neighbourhood of unknown world {w}")
            try:
                masks[w] = frozenset(_encode(bit, frozenset(alpha)) for alpha in sets)
            except KeyError:
                raise ValueError("neighbourhood leaves the world set") from None
        return cls.of_masks(ws, val, masks, order, bit)

    @classmethod
    def of_masks(cls, worlds, valuation, masks, order, bit) -> "StandardModel":
        """The model whose worlds without an entry in ``masks`` have no
        neighbourhoods; the masks must already be within the worlds."""
        return cls(worlds, valuation, {w: masks.get(w, frozenset()) for w in order}, order, bit)

    @property
    def full(self) -> int:
        """The mask of the whole world set."""
        return (1 << len(self.order)) - 1

    def key(self, mask: int) -> int:
        """The report order of masks as one int: by size, then by
        members ascending, as ``_set_key`` orders the decoded sets."""
        n = len(self.order)
        return (mask.bit_count() << n) | (((1 << n) - 1) ^ mask)

    @property
    def members(self) -> Callable[[int], list[int]]:
        """A function from a mask to the list of its worlds ascending."""
        return _lister(self.order)

    def decode(self, mask: int) -> frozenset[int]:
        return frozenset(self.members(mask))

    def neighbourhoods(self, w: int) -> frozenset[frozenset[int]]:
        return frozenset(map(self.decode, self.nbhd[w]))


def _layout(worlds) -> tuple[tuple[int, ...], dict[int, int]]:
    """The worlds ascending, and each world's bit by its rank."""
    order = tuple(sorted(worlds))
    top = len(order) - 1
    return order, {w: 1 << (top - i) for i, w in enumerate(order)}


@lru_cache(maxsize=32)
def _lister(order: tuple[int, ...]):
    """A function from a mask to the list of its worlds ascending. It
    reads the mask 8 bits at a time, from the top, through one table per
    8 bits: from their value to their worlds. The top 8 may be fewer.
    Countermodels number their worlds from 1, so most calls share a few
    world orders and the tables are kept for the last 32."""
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

    return members


def _encode(bit: dict[int, int], ws: frozenset[int]) -> int:
    return sum(map(bit.__getitem__, ws))


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


@dataclass(frozen=True, slots=True)
class RelationalModel:
    worlds: frozenset[int]
    non_normal: frozenset[int]
    relation: dict[int, frozenset[int]]
    valuation: dict[str, frozenset[int]]

    @classmethod
    def make(cls, worlds, non_normal, relation, valuation) -> "RelationalModel":
        ws = _world_set(worlds)
        nn = frozenset(int(w) for w in non_normal)
        if not nn <= ws:
            raise ValueError("non-normal worlds outside the world set")
        val = _check_valuation(ws, valuation)
        rel: dict[int, frozenset[int]] = {w: frozenset() for w in ws}
        for w, targets in relation.items():
            w = int(w)
            if w not in ws:
                raise ValueError(f"relation at unknown world {w}")
            targets = frozenset(int(v) for v in targets)
            if not targets <= ws:
                raise ValueError("relation targets outside the world set")
            rel[w] = targets
        return cls(ws, nn, rel, val)


Model = BiModel | StandardModel | RelationalModel


def truth_set(m: Model, f: Formula) -> frozenset[int]:
    """Worlds of m where f holds.

    Subformulas are evaluated bottom-up from an explicit stack, each
    distinct one once (formulas are interned, so the memo is keyed by
    identity), so a deep formula needs no recursion. A compound formula
    whose operands are not yet evaluated goes back on the stack under
    them.
    """
    memo: dict[Formula, frozenset[int]] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if g in memo:
            continue
        kind = type(g)
        if kind is Atom:
            memo[g] = m.valuation.get(g.name, _NO_WORLDS)
        elif kind is Box:
            ts = memo.get(g.body)
            if ts is None:
                stack += (g, g.body)
            else:
                memo[g] = _box_truth_set(m, ts)
        elif kind is Top:
            memo[g] = m.worlds
        elif kind is Bottom:
            memo[g] = _NO_WORLDS
        elif kind in _BINARY:
            a = memo.get(g.left)
            b = memo.get(g.right)
            if a is None or b is None:
                stack.append(g)
                if a is None:
                    stack.append(g.left)
                if b is None:
                    stack.append(g.right)
            elif kind is And:
                memo[g] = a & b
            elif kind is Or:
                memo[g] = a | b
            else:
                memo[g] = (m.worlds - a) | b
        else:
            raise TypeError(f"not a formula: {g!r}")
    return memo[f]


_NO_WORLDS: frozenset[int] = frozenset()
_BINARY = (And, Or, Imp)


def _box_truth_set(m: Model, ts: frozenset[int]) -> frozenset[int]:
    """Worlds of m where a box holds whose body holds at ts."""
    if isinstance(m, BiModel):
        return frozenset(
            w
            for w in m.worlds
            if any(alpha <= ts and ts <= m.worlds - beta for alpha, beta in m.nbhd.get(w, frozenset()))
        )
    if isinstance(m, StandardModel):
        mask = _encode(m.bit, ts)
        return frozenset(w for w, ns in m.nbhd.items() if mask in ns)
    return frozenset(
        w for w in m.worlds if w not in m.non_normal and m.relation.get(w, frozenset()) <= ts
    )


def force(m: Model, w: int, f: Formula) -> bool:
    if w not in m.worlds:
        raise UnknownWorldError(f"world {w} is not in the model")
    return w in truth_set(m, f)


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
        return _set_key(x)
    if isinstance(x, tuple):
        return (len(x), tuple(map(_order, x)))
    return x


def _graded_conditions(l: LogicSpec, nbhd: dict, inner, key, decode=frozenset) -> dict:
    """RDk+ for each k up to the logic's n: no k neighbourhoods of one
    world whose inner sets have an empty intersection. Only the inner sets
    with no other one below them matter: a world fails RDk+ exactly when
    it has at least k neighbourhoods and at most k of those minimal sets
    have an empty intersection, and the witness is the world and those
    sets. ``nbhd`` maps each world to its neighbourhoods, ``inner`` gives
    a neighbourhood's inner set, frozenset or mask alike, ``key`` orders
    those sets as ``_set_key`` does, and ``decode`` turns one into the
    frozenset a witness reports."""
    if not l.dplus:
        return {}
    minimal = {}
    for w, ns in nbhd.items():
        found = []
        for alpha in sorted(map(inner, ns), key=key):
            if not any(low & alpha == low for low in found):
                found.append(alpha)
        minimal[w] = found
    return {
        f"RD{k}+": _verdict(
            (w, tuple(map(decode, chosen)))
            for w, ns in nbhd.items()
            if len(ns) >= k
            for j in range(1, k + 1)
            for chosen in combinations(minimal[w], j)
            if not reduce(and_, chosen)
        )
        for k in range(1, l.dplus + 1)
    }


# Each check reports the first witness of a failure in world order, then
# in neighbourhood order: its least witness under ``_order``.


def _bi_conditions(m: BiModel, l: LogicSpec) -> dict:
    report = {}
    ws = m.worlds
    nbhd = m.nbhd
    if l.monotonic:
        report["M"] = _verdict((w, p) for w, ps in nbhd.items() for p in ps if p[1])
    if l.has_n:
        outer_free = {a for w in ws for a, b in m.nbhd[w] if not b}
        shared = any(all((a, frozenset()) in m.nbhd[w] for w in ws) for a in outer_free)
        report["N"] = ("pass", None) if shared or not ws else ("fail", None)
    if l.has_c:
        report["C"] = _verdict(
            (w, p1, p2)
            for w, ps in nbhd.items()
            for p1 in ps
            for p2 in ps
            if (p1[0] & p2[0], p1[1] | p2[1]) not in ps
        )
    if l.has_t:
        report["T"] = _verdict((w, p) for w, ps in nbhd.items() for p in ps if w not in p[0])
    if l.has_p:
        report["P"] = _verdict((w, p) for w, ps in nbhd.items() for p in ps if not p[0])
    if l.has_d:
        report["D"] = _verdict(
            (w, p1, p2)
            for w, ps in nbhd.items()
            for p1 in ps
            for p2 in ps
            if not (p1[0] & p2[0]) and not (p1[1] & p2[1])
        )
    report.update(_graded_conditions(l, nbhd, lambda p: p[0], _set_key))
    return report


def _standard_conditions(m: StandardModel, l: LogicSpec) -> dict:
    """The clauses test masks; a witness is decoded only when a check
    fails, so that ``_order`` sees the same frozensets as ever."""
    report = {}
    nbhd, full, dec, n = m.nbhd, m.full, m.decode, len(m.order)
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
        report["T"] = _verdict(
            (w, dec(a)) for w, ns in nbhd.items() for a in ns if not a & m.bit[w]
        )
    if l.has_p:
        report["P"] = _verdict(w for w, ns in nbhd.items() if 0 in ns)
    if l.has_d:
        report["D"] = _verdict((w, dec(a)) for w, ns in nbhd.items() for a in ns if full ^ a in ns)
    report.update(_graded_conditions(l, nbhd, lambda a: a, m.key, dec))
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
        report["T"] = _verdict(w for w in normal if w not in m.relation.get(w, frozenset()))
    if l.has_n:
        report["N"] = _verdict(m.non_normal)
    serial = _verdict(w for w in normal if not m.relation.get(w))
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


def _set_key(s: frozenset) -> tuple:
    return (len(s), tuple(sorted(s)))


def _pair_key(p: Pair) -> tuple:
    return (_set_key(p[0]), _set_key(p[1]))


# --- countermodel extraction ------------------------------------------------


def extract_bi_countermodel(leaf: Hypersequent, l: LogicSpec) -> BiModel:
    """Read a bi-neighbourhood countermodel off a saturated hypersequent.

    The n-th component is world n. Each block contributes the pair of its
    positive worlds (antecedents containing the whole block) and negative
    worlds (succedents meeting it); monotone logics drop the negative
    half.
    """
    if not is_saturated(leaf, l):
        raise ValueError("countermodel extraction needs a saturated hypersequent")
    comps = tuple(enumerate(leaf.components, 1))
    valuation: dict[str, set[int]] = {}
    nbhd: dict[int, set[Pair]] = {}
    for w, s in comps:
        for f in left_set(s):
            if isinstance(f, Atom):
                valuation.setdefault(f.name, set()).add(w)
        nbhd[w] = set()
        for sigma in block_sets(s):
            plus = frozenset(v for v, s2 in comps if sigma <= left_set(s2))
            minus = frozenset() if l.monotonic else frozenset(v for v, s2 in comps if sigma & right_set(s2))
            nbhd[w].add((plus, minus))
    return BiModel.make(range(1, len(comps) + 1), valuation, nbhd)


def extract_relational_countermodel(leaf: Hypersequent, l: LogicSpec) -> RelationalModel:
    """Relational countermodel for regular logics (M and C together).

    The n-th component is world n; blockless components are the non-normal
    worlds; each component with blocks has a maximal block (closure
    under block merging guarantees one) whose positive worlds form the
    successor set.
    """
    if not (l.monotonic and l.has_c):
        raise ValueError("relational extraction needs a monotone logic with C")
    if not is_saturated(leaf, l):
        raise ValueError("countermodel extraction needs a saturated hypersequent")
    comps = tuple(enumerate(leaf.components, 1))
    valuation: dict[str, set[int]] = {}
    non_normal = set()
    relation: dict[int, frozenset[int]] = {}
    for w, s in comps:
        for f in left_set(s):
            if isinstance(f, Atom):
                valuation.setdefault(f.name, set()).add(w)
        sets = block_sets(s)
        if not sets:
            non_normal.add(w)
            relation[w] = frozenset()
            continue
        maximal = [b for b in sets if all(other <= b for other in sets)]
        if not maximal:
            raise ValueError(
                "no maximal block; the hypersequent is not closed under merging"
            )
        successor_sets = {frozenset(v for v, s2 in comps if b <= left_set(s2)) for b in maximal}
        if len(successor_sets) != 1:
            raise ValueError("maximal blocks disagree on successors")
        relation[w] = next(iter(successor_sets))
    return RelationalModel.make(range(1, len(comps) + 1), non_normal, relation, valuation)


# --- transformations --------------------------------------------------------


def bi_from_standard(m: StandardModel, supplemented: bool) -> BiModel:
    """Pair every standard neighbourhood with its complement, or with the
    empty outer bound when the source is supplemented (upward closed)."""
    full = m.full
    nbhd = {
        w: frozenset(
            (m.decode(a), frozenset() if supplemented else m.decode(full ^ a))
            for a in masks
        )
        for w, masks in m.nbhd.items()
    }
    return BiModel.make(m.worlds, m.valuation, nbhd)


def standard_from_bi_rough(m: BiModel, cap: int = 20) -> StandardModel:
    """Blow each pair up to every set it sandwiches.

    Exponential in the world count, hence the cap; the fine
    transformation is the practical route for larger models.
    """
    if len(m.worlds) > cap:
        raise ValueError(
            f"rough transformation needs at most {cap} worlds, got {len(m.worlds)}"
        )
    order, bit = _layout(m.worlds)
    full = (1 << len(order)) - 1
    masks = {}
    for w, pairs in m.nbhd.items():
        sets: set[int] = set()
        for alpha, beta in pairs:
            low, high = _encode(bit, alpha), full ^ _encode(bit, beta)
            if low & high == low:
                sets.update(_between(low, high))
        masks[w] = frozenset(sets)
    return StandardModel.of_masks(m.worlds, m.valuation, masks, order, bit)


def standard_from_bi_fine(
    m: BiModel, s, supplement: bool, cap: int = 20
) -> StandardModel:
    """Neighbourhoods are the truth sets of boxed members of s forced
    there; agreement with the source holds on every formula in s.

    With supplement, close the neighbourhoods upward (needed when the
    target is read as a supplemented model); this enumerates supersets
    and so shares the rough transformation's world cap.
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
    order, bit = _layout(m.worlds)
    full = (1 << len(order)) - 1
    masks: dict[int, set[int]] = {w: set() for w in order}
    for f in boxed:
        body = _encode(bit, truth_set(m, f.body))
        for w in truth_set(m, f):
            if supplement:
                masks[w].update(_between(body, full))
            else:
                masks[w].add(body)
    return StandardModel.of_masks(
        m.worlds, m.valuation, {w: frozenset(ns) for w, ns in masks.items()}, order, bit
    )


# --- serialization ----------------------------------------------------------


def model_to_dict(m: Model) -> dict:
    base = {
        "worlds": sorted(m.worlds),
        "valuation": {a: sorted(ws) for a, ws in sorted(m.valuation.items())},
    }
    if isinstance(m, BiModel):
        base["bi"] = {
            str(w): [
                {"plus": sorted(alpha), "minus": sorted(beta)}
                for alpha, beta in sorted(pairs, key=_pair_key)
            ]
            for w, pairs in sorted(m.nbhd.items())
        }
    elif isinstance(m, StandardModel):
        members = m.members
        base["standard"] = {
            str(w): [members(a) for a in sorted(masks, key=m.key)]
            for w, masks in sorted(m.nbhd.items())
        }
    else:
        base["relational"] = {
            "non_normal": sorted(m.non_normal),
            "edges": {
                str(w): sorted(v) for w, v in sorted(m.relation.items())
            },
        }
    return base


def _listed(x, what: str) -> list:
    """x if it is a JSON list. A JSON string where a list of worlds
    belongs is an error, not the list of its characters."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, not {type(x).__name__}")
    return x


def _mapped(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise ValueError(f"{what} must be an object, not {type(x).__name__}")
    return x


def model_from_dict(data: dict) -> Model:
    """The model of a payload in the form ``model_to_dict`` writes, read
    from JSON: every list and object in it must be one."""
    data = _mapped(data, "model")
    worlds = _listed(data["worlds"], "worlds")
    valuation = {
        a: _listed(ws, f"valuation of {a!r}")
        for a, ws in _mapped(data.get("valuation", {}), "valuation").items()
    }
    if "bi" in data:
        nbhd = {
            int(w): [
                (_listed(p["plus"], "plus"), _listed(p["minus"], "minus"))
                for p in _listed(pairs, f"neighbourhoods of {w}")
            ]
            for w, pairs in _mapped(data["bi"], "bi").items()
        }
        return BiModel.make(worlds, valuation, nbhd)
    if "standard" in data:
        nbhd = {
            int(w): [_listed(a, "neighbourhood") for a in _listed(sets, f"neighbourhoods of {w}")]
            for w, sets in _mapped(data["standard"], "standard").items()
        }
        return StandardModel.make(worlds, valuation, nbhd)
    if "relational" in data:
        rel = _mapped(data["relational"], "relational")
        return RelationalModel.make(
            worlds,
            _listed(rel.get("non_normal", []), "non_normal"),
            {
                int(w): _listed(v, f"edges of {w}")
                for w, v in _mapped(rel.get("edges", {}), "edges").items()
            },
            valuation,
        )
    raise ValueError("model payload needs one of: bi, standard, relational")
