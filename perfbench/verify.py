"""Checks of the program's answers, written apart from the program.

Each check returns a list of problems; an empty list means the output
passed. Models are read from the CLI's JSON and evaluated with the
benchmark's own forcing for bi-neighbourhood, neighbourhood and
relational semantics. Standard and relational models are held to the
textbook frame conditions of the logic:

    axiom  standard models                     relational models
    N      W in N(w)                           no non-normal world
    C      N(w) closed under intersection      -
    M      N(w) closed upward                  -
    T      w in every X in N(w)                normal worlds are reflexive
    P      {} not in N(w)                      every normal world has a successor
    D      never both X and W-X in N(w)        every normal world has a successor
    RDn+   no n members with empty meet        every normal world has a successor
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from goalset import Goal, Logic

ROOT_CID = 1  # the component id the CLI gives a bare formula


@dataclass(frozen=True)
class Model:
    kind: str  # "bi", "standard" or "relational"
    worlds: frozenset
    valuation: dict
    nbhd: dict  # world -> set of frozensets, or of (plus, minus) pairs
    non_normal: frozenset = frozenset()


def load_model(data: dict) -> Model:
    worlds = frozenset(data["worlds"])
    valuation = {a: frozenset(ws) for a, ws in data["valuation"].items()}
    if "bi" in data:
        nbhd = {
            int(w): {(frozenset(p["plus"]), frozenset(p["minus"])) for p in pairs}
            for w, pairs in data["bi"].items()
        }
        return Model("bi", worlds, valuation, nbhd)
    if "standard" in data:
        nbhd = {int(w): {frozenset(x) for x in sets} for w, sets in data["standard"].items()}
        return Model("standard", worlds, valuation, nbhd)
    rel = data["relational"]
    edges = {int(w): frozenset(v) for w, v in rel["edges"].items()}
    return Model("relational", worlds, valuation, edges, frozenset(rel["non_normal"]))


def truth_set(m: Model, f: tuple, prefix: str = "") -> frozenset:
    """Worlds of m where f holds; atoms are looked up as prefix + name."""
    kind = f[0]
    if kind == "atom":
        return m.valuation.get(prefix + f[1], frozenset())
    if kind == "top":
        return m.worlds
    if kind == "bot":
        return frozenset()
    if kind == "box":
        ts = truth_set(m, f[1], prefix)
        if m.kind == "bi":
            return frozenset(
                w for w in m.worlds
                if any(plus <= ts and not (ts & minus) for plus, minus in m.nbhd.get(w, ()))
            )
        if m.kind == "standard":
            return frozenset(w for w in m.worlds if ts in m.nbhd.get(w, ()))
        return frozenset(
            w for w in m.worlds
            if w not in m.non_normal and m.nbhd.get(w, frozenset()) <= ts
        )
    a, b = truth_set(m, f[1], prefix), truth_set(m, f[2], prefix)
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    return (m.worlds - a) | b


def _minimal(family) -> list[frozenset]:
    """The members of family with no other member below them."""
    out: list[frozenset] = []
    for x in sorted(family, key=len):
        if not any(m <= x for m in out):
            out.append(x)
    return out


def _closed_under_meets(family, upward_closed: bool) -> bool:
    if upward_closed:
        # An upward-closed family is closed under intersection exactly when
        # it holds the intersection of all its members.
        return not family or frozenset.intersection(*family) in family
    return all(x & y in family for x in family for y in family)


def standard_violations(m: Model, l: Logic) -> list[str]:
    """Axioms of l whose standard frame condition m breaks."""
    bad = []
    ws = m.worlds
    nb = {w: m.nbhd.get(w, set()) for w in ws}
    upward = all(x | {v} in nb[w] for w in ws for x in nb[w] for v in ws - x)
    if l.n and any(ws not in nb[w] for w in ws):
        bad.append("N")
    if l.c and not all(_closed_under_meets(nb[w], upward) for w in ws):
        bad.append("C")
    if l.m and not upward:
        bad.append("M")
    if l.t and any(w not in x for w in ws for x in nb[w]):
        bad.append("T")
    if l.p and any(frozenset() in nb[w] for w in ws):
        bad.append("P")
    if l.d and any(ws - x in nb[w] for w in ws for x in nb[w]):
        bad.append("D")
    # Only minimal members matter: a smaller member only shrinks a meet.
    if l.dplus and any(
        not frozenset.intersection(*chosen)
        for w in ws
        for r in range(1, l.dplus + 1)
        for chosen in combinations(_minimal(nb[w]), r)
    ):
        bad.append(f"RD{l.dplus}+")
    return bad


def relational_violations(m: Model, l: Logic) -> list[str]:
    """Axioms of l whose relational frame condition m breaks."""
    bad = []
    normal = m.worlds - m.non_normal
    if l.n and m.non_normal:
        bad.append("N")
    if l.t and any(w not in m.nbhd.get(w, ()) for w in normal):
        bad.append("T")
    serial = l.p or l.d or l.dplus
    if serial and any(not m.nbhd.get(w) for w in normal):
        bad.append("seriality")
    return bad


def countermodel_problems(data: dict, goal: Goal, prefix: str, root_world: int) -> list[str]:
    """Problems with one countermodel: it must falsify the goal at the
    root world and, unless bi-neighbourhood, meet the frame conditions."""
    m = load_model(data)
    problems = []
    if root_world not in m.worlds:
        return [f"{m.kind} model lacks the root world {root_world}"]
    if root_world in truth_set(m, goal.formula, prefix):
        problems.append(f"{m.kind} model does not falsify the goal at world {root_world}")
    if m.kind == "standard":
        bad = standard_violations(m, goal.logic)
    elif m.kind == "relational":
        bad = relational_violations(m, goal.logic)
    else:
        bad = []
    if bad:
        problems.append(f"{m.kind} model breaks frame conditions: {', '.join(bad)}")
    return problems


def prove_problems(goal: Goal, prefix: str, rc: int, out: str) -> list[str]:
    """Problems with the output of ``nnml prove --output json``."""
    data = json.loads(out)
    outcome = "proved" if rc == 0 else "refuted"
    if data.get("outcome") != outcome:
        return [f"exit {rc} but outcome {data.get('outcome')!r}"]
    if not isinstance(data.get("visited"), int):
        return ["no visited count"]
    if rc == 0:
        return [] if isinstance(data.get("derivation"), dict) else ["proved without a derivation"]
    models = data.get("countermodels", {})
    if sorted(models) != sorted(goal.kinds):
        return [f"countermodel kinds {sorted(models)}, asked for {sorted(goal.kinds)}"]
    enumeration = data["enumeration"]
    problems = []
    for kind, model in models.items():
        world = ROOT_CID if kind == "relational" else enumeration[str(ROOT_CID)]
        problems += [f"{kind}: {p}" for p in countermodel_problems(model, goal, prefix, world)]
    return problems


def lean_problems(goal: Goal, prefix: str, rc: int, out: str) -> list[str]:
    """Problems with the output of ``nnml prove --mode unkleened --output json``."""
    outcome = json.loads(out).get("outcome")
    expected = "proved" if rc == 0 else "refuted"
    return [] if outcome == expected else [f"exit {rc} but outcome {outcome!r}"]


def translate_problems(goal: Goal, prefix: str, rc: int, out: str) -> list[str]:
    """Problems with the output of ``nnml translate --derive --output json``."""
    if rc == 1:
        return [] if out.startswith("refuted") else ["exit 1 without a refutation"]
    data = json.loads(out)
    if data.get("outcome") != "proved" or not isinstance(data.get("derivation"), dict):
        return ["exit 0 without a labelled derivation"]
    return []


def verdict_problems(goal: Goal, verdicts: dict[str, bool]) -> list[str]:
    """The calls of one goal agree, and match the verdict the logic fixes."""
    problems = []
    if len(set(verdicts.values())) > 1:
        problems.append(f"modes disagree: {verdicts}")
    if goal.expect is not None:
        problems += [
            f"{cmd} says {'proved' if v else 'refuted'}, the logic fixes {'proved' if goal.expect else 'refuted'}"
            for cmd, v in verdicts.items()
            if v != goal.expect
        ]
    return problems
