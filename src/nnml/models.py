"""Bi-neighbourhood, standard, and relational models.

Covers forcing in all three semantics, frame-condition checks with
witnesses, countermodel extraction from saturated hypersequents, the
three transformations between the semantics, and (de)serialization.

A bi-neighbourhood pair (alpha, beta) approximates a neighbourhood from
inside and outside: a box holds when some pair sandwiches the truth set,
alpha below and the complement of beta above. Standard neighbourhoods
demand the truth set itself; relational models read boxes as universal
quantification over successors at normal worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
    worlds: frozenset[int]
    valuation: dict[str, frozenset[int]]
    nbhd: dict[int, frozenset[frozenset[int]]]

    @classmethod
    def make(cls, worlds, valuation, nbhd) -> "StandardModel":
        ws = _world_set(worlds)
        val = _check_valuation(ws, valuation)
        out: dict[int, frozenset[frozenset[int]]] = {w: frozenset() for w in ws}
        for w, sets in nbhd.items():
            w = int(w)
            if w not in ws:
                raise ValueError(f"neighbourhood of unknown world {w}")
            norm = []
            for alpha in sets:
                alpha = frozenset(alpha)
                if not alpha <= ws:
                    raise ValueError("neighbourhood leaves the world set")
                norm.append(alpha)
            out[w] = frozenset(norm)
        return cls(ws, val, out)


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
    """Worlds of m where f holds."""
    match f:
        case Atom(name):
            return m.valuation.get(name, frozenset())
        case Bottom():
            return frozenset()
        case Top():
            return m.worlds
        case And(a, b):
            return truth_set(m, a) & truth_set(m, b)
        case Or(a, b):
            return truth_set(m, a) | truth_set(m, b)
        case Imp(a, b):
            return (m.worlds - truth_set(m, a)) | truth_set(m, b)
        case Box(a):
            ts = truth_set(m, a)
            if isinstance(m, BiModel):
                return frozenset(
                    w
                    for w in m.worlds
                    if any(
                        alpha <= ts and ts <= m.worlds - beta
                        for alpha, beta in m.nbhd.get(w, frozenset())
                    )
                )
            if isinstance(m, StandardModel):
                return frozenset(
                    w for w in m.worlds if ts in m.nbhd.get(w, frozenset())
                )
            return frozenset(
                w
                for w in m.worlds
                if w not in m.non_normal and m.relation.get(w, frozenset()) <= ts
            )
    raise TypeError(f"not a formula: {f!r}")


def force(m: Model, w: int, f: Formula) -> bool:
    if w not in m.worlds:
        raise UnknownWorldError(f"world {w} is not in the model")
    return w in truth_set(m, f)


def valid(m: Model, f: Formula) -> bool:
    """True in all worlds."""
    return truth_set(m, f) == m.worlds


# --- frame conditions -------------------------------------------------------


def _verdict(witnesses) -> tuple[str, object]:
    """("fail", the first witness) or ("pass", None)."""
    witness = next(iter(witnesses), None)
    return ("pass", None) if witness is None else ("fail", witness)


def _graded_conditions(ws: frozenset[int], l: LogicSpec, nbhd: dict, inner) -> dict:
    """RDk+ for each k up to the logic's n: no k neighbourhoods of one
    world whose inner sets have an empty intersection. ``nbhd`` maps each
    world, in order, to its neighbourhoods in order."""
    return {
        f"RD{k}+": _verdict(
            (w, chosen)
            for w, ns in nbhd.items()
            for chosen in combinations(ns, k)
            if not ws.intersection(*map(inner, chosen))
        )
        for k in range(1, (l.dplus or 0) + 1)
    }


# Each check reports the first witness of a failure in world order, then
# in neighbourhood order.


def _bi_conditions(m: BiModel, l: LogicSpec) -> dict:
    report = {}
    ws = m.worlds
    nbhd = {w: sorted(m.nbhd[w], key=_pair_key) for w in sorted(ws)}
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
            if (p1[0] & p2[0], p1[1] | p2[1]) not in m.nbhd[w]
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
    report.update(_graded_conditions(ws, l, nbhd, lambda p: p[0]))
    return report


def _standard_conditions(m: StandardModel, l: LogicSpec) -> dict:
    report = {}
    ws = m.worlds
    nbhd = {w: sorted(m.nbhd[w], key=_set_key) for w in sorted(ws)}
    if l.monotonic:
        report["M"] = _verdict(
            (w, alpha, x)
            for w, ns in nbhd.items()
            for alpha in ns
            for x in sorted(ws - alpha)
            if alpha | {x} not in m.nbhd[w]
        )
    if l.has_n:
        report["N"] = _verdict(w for w in nbhd if ws not in m.nbhd[w])
    if l.has_c:
        report["C"] = _verdict(
            (w, a1, a2)
            for w, ns in nbhd.items()
            for a1 in ns
            for a2 in ns
            if a1 & a2 not in m.nbhd[w]
        )
    if l.has_t:
        report["T"] = _verdict((w, alpha) for w, ns in nbhd.items() for alpha in ns if w not in alpha)
    if l.has_p:
        report["P"] = _verdict(w for w in nbhd if frozenset() in m.nbhd[w])
    if l.has_d:
        report["D"] = _verdict(
            (w, alpha) for w, ns in nbhd.items() for alpha in ns if ws - alpha in m.nbhd[w]
        )
    report.update(_graded_conditions(ws, l, nbhd, lambda alpha: alpha))
    return report


def _relational_conditions(m: RelationalModel, l: LogicSpec) -> dict:
    """At a normal world a box holds when its body holds at every
    successor; at a non-normal world no box holds. So N holds when no
    world is non-normal, and P, D and every RDk+ hold when every normal
    world has a successor."""
    report = {}
    normal = sorted(m.worlds - m.non_normal)
    if l.has_t:
        report["T"] = _verdict(w for w in normal if w not in m.relation.get(w, frozenset()))
    if l.has_n:
        report["N"] = _verdict(sorted(m.non_normal))
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


def extract_bi_countermodel(
    leaf: Hypersequent, enumeration: dict[int, int], l: LogicSpec
) -> BiModel:
    """Read a bi-neighbourhood countermodel off a saturated hypersequent.

    Worlds are the enumerated component indices. Each block contributes
    the pair of its positive worlds (antecedents containing the whole
    block) and negative worlds (succedents meeting it); monotone logics
    drop the negative half.
    """
    if not is_saturated(leaf, l):
        raise ValueError("countermodel extraction needs a saturated hypersequent")
    ids = {}
    for c in leaf.components:
        if c.cid not in enumeration:
            raise ValueError(f"enumeration misses component {c.cid}")
        ids[c.cid] = int(enumeration[c.cid])
    if len(set(ids.values())) != len(ids):
        raise ValueError("enumeration is not injective")
    worlds = frozenset(ids.values())
    valuation: dict[str, set[int]] = {}
    for c in leaf.components:
        for f in left_set(c.seq):
            if isinstance(f, Atom):
                valuation.setdefault(f.name, set()).add(ids[c.cid])
    nbhd: dict[int, set[Pair]] = {w: set() for w in worlds}
    for c in leaf.components:
        for sigma in block_sets(c.seq):
            plus = frozenset(
                ids[c2.cid]
                for c2 in leaf.components
                if sigma <= left_set(c2.seq)
            )
            minus = frozenset(
                ids[c2.cid]
                for c2 in leaf.components
                if sigma & right_set(c2.seq)
            )
            if l.monotonic:
                nbhd[ids[c.cid]].add((plus, frozenset()))
            else:
                nbhd[ids[c.cid]].add((plus, minus))
    return BiModel.make(worlds, valuation, nbhd)


def extract_relational_countermodel(leaf: Hypersequent, l: LogicSpec) -> RelationalModel:
    """Relational countermodel for regular logics (M and C together).

    Component ids become worlds; blockless components are the non-normal
    worlds; each component with blocks has a maximal block (closure
    under block merging guarantees one) whose positive worlds form the
    successor set.
    """
    if not (l.monotonic and l.has_c):
        raise ValueError("relational extraction needs a monotone logic with C")
    if not is_saturated(leaf, l):
        raise ValueError("countermodel extraction needs a saturated hypersequent")
    worlds = frozenset(c.cid for c in leaf.components)
    valuation: dict[str, set[int]] = {}
    for c in leaf.components:
        for f in left_set(c.seq):
            if isinstance(f, Atom):
                valuation.setdefault(f.name, set()).add(c.cid)
    non_normal = set()
    relation: dict[int, frozenset[int]] = {}
    for c in leaf.components:
        sets = block_sets(c.seq)
        if not sets:
            non_normal.add(c.cid)
            relation[c.cid] = frozenset()
            continue
        maximal = [s for s in sets if all(other <= s for other in sets)]
        if not maximal:
            raise ValueError(
                "no maximal block; the hypersequent is not closed under merging"
            )
        successor_sets = {
            frozenset(
                c2.cid for c2 in leaf.components if s <= left_set(c2.seq)
            )
            for s in maximal
        }
        if len(successor_sets) != 1:
            raise ValueError("maximal blocks disagree on successors")
        relation[c.cid] = next(iter(successor_sets))
    return RelationalModel.make(worlds, non_normal, relation, valuation)


# --- transformations --------------------------------------------------------


def bi_from_standard(m: StandardModel, supplemented: bool) -> BiModel:
    """Pair every standard neighbourhood with its complement, or with the
    empty outer bound when the source is supplemented (upward closed)."""
    nbhd = {
        w: frozenset(
            (alpha, frozenset() if supplemented else m.worlds - alpha)
            for alpha in sets
        )
        for w, sets in m.nbhd.items()
    }
    return BiModel.make(m.worlds, m.valuation, nbhd)


def _subsets_between(low: frozenset[int], high: frozenset[int]):
    free = sorted(high - low)
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            yield low | frozenset(extra)


def standard_from_bi_rough(m: BiModel, cap: int = 20) -> StandardModel:
    """Blow each pair up to every set it sandwiches.

    Exponential in the world count, hence the cap; the fine
    transformation is the practical route for larger models.
    """
    if len(m.worlds) > cap:
        raise ValueError(
            f"rough transformation needs at most {cap} worlds, got {len(m.worlds)}"
        )
    nbhd: dict[int, set[frozenset[int]]] = {w: set() for w in m.worlds}
    for w, pairs in m.nbhd.items():
        for alpha, beta in pairs:
            high = m.worlds - beta
            if alpha <= high:
                nbhd[w].update(_subsets_between(alpha, high))
    return StandardModel.make(m.worlds, m.valuation, nbhd)


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
    nbhd: dict[int, set[frozenset[int]]] = {w: set() for w in m.worlds}
    for f in boxed:
        body_ts = truth_set(m, f.body)
        for w in truth_set(m, f):
            if supplement:
                nbhd[w].update(_subsets_between(body_ts, m.worlds))
            else:
                nbhd[w].add(body_ts)
    return StandardModel.make(m.worlds, m.valuation, nbhd)


def model_size(m: Model) -> int:
    """World count plus total neighbourhood (or successor) count."""
    if isinstance(m, RelationalModel):
        return len(m.worlds) + sum(len(v) for v in m.relation.values())
    return len(m.worlds) + sum(len(v) for v in m.nbhd.values())


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
        base["standard"] = {
            str(w): [sorted(alpha) for alpha in sorted(sets, key=_set_key)]
            for w, sets in sorted(m.nbhd.items())
        }
    else:
        base["relational"] = {
            "non_normal": sorted(m.non_normal),
            "edges": {
                str(w): sorted(v) for w, v in sorted(m.relation.items())
            },
        }
    return base


def model_from_dict(data: dict) -> Model:
    worlds = data["worlds"]
    valuation = data.get("valuation", {})
    if "bi" in data:
        nbhd = {
            int(w): [(p["plus"], p["minus"]) for p in pairs]
            for w, pairs in data["bi"].items()
        }
        return BiModel.make(worlds, valuation, nbhd)
    if "standard" in data:
        nbhd = {
            int(w): [frozenset(a) for a in sets]
            for w, sets in data["standard"].items()
        }
        return StandardModel.make(worlds, valuation, nbhd)
    if "relational" in data:
        rel = data["relational"]
        return RelationalModel.make(
            worlds,
            rel.get("non_normal", []),
            {int(w): v for w, v in rel.get("edges", {}).items()},
            valuation,
        )
    raise ValueError("model payload needs one of: bi, standard, relational")
