"""Goals of the three workloads, in the benchmark's own formula syntax.

A formula is a nested tuple: ``("atom", name)``, ``("top",)``,
``("bot",)``, ``("box", f)`` or ``(op, f, g)`` with op one of ``and``,
``or``, ``imp``. Negation is ``("imp", f, ("bot",))``, as in the
program's parser. The checks in verify.py evaluate these tuples, so they
share no syntax code with the program under test.

A goal is one (formula, logic) pair. The atoms of goal i in round r are
renamed ``r<r>g<i>_<atom>``. One prefix for all atoms of a goal keeps
their alphabetical order, so the search is the same whatever the prefix,
while no goal finds its formulas in the program's caches from an earlier
goal, as none would in a fresh ``nnml`` process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BOT = ("bot",)
TOP = ("top",)

# The 44 logics of the acceptance corpus.
BASES = ("E", "M", "EC", "MC", "EN", "MN", "ECN", "MCN")
SUFFIXES = ("", "T", "P", "D", "D2+", "D3+")
REDUNDANT = {("MC", "D2+"), ("MC", "D3+"), ("MCN", "D2+"), ("MCN", "D3+")}
CORPUS_LOGICS = tuple(b + s for b in BASES for s in SUFFIXES if (b, s) not in REDUNDANT)

CORPUS_PER_LOGIC = 5
CORPUS_MAX_NODES = 25

# Hansson n=3 in ECD runs under this node budget and exits 4 until the
# invertible search decides it (it needs more than 30k nodes today).
HANSSON_ECD_BUDGET = 400


@dataclass(frozen=True)
class Logic:
    name: str
    m: bool = False
    c: bool = False
    n: bool = False
    t: bool = False
    p: bool = False
    d: bool = False
    dplus: int | None = None

    @property
    def cube(self) -> bool:
        return not (self.t or self.p or self.d or self.dplus)

    @property
    def kinds(self) -> tuple[str, ...]:
        """Every countermodel kind the logic admits."""
        kinds = ("bi", "standard-rough", "standard-fine")
        return kinds + ("relational",) if self.m and self.c else kinds


def logic(name: str) -> Logic:
    """Read a name like ``MCNT`` or ``ED3+``: a base from BASES, then T, P, D, Dn+."""
    base = max((b for b in BASES if name.startswith(b)), key=len)
    flags = {"m": base.startswith("M"), "c": "C" in base, "n": "N" in base}
    rest = name[len(base):]
    while rest:
        if rest[0] == "D" and "+" in rest and rest[1:rest.index("+")].isdigit():
            flags["dplus"] = int(rest[1:rest.index("+")])
            rest = rest[rest.index("+") + 1:]
        elif rest[0] in "TPD":
            flags[rest[0].lower()] = True
            rest = rest[1:]
        else:
            raise ValueError(f"unknown logic {name!r}")
    return Logic(name, **flags)


@dataclass(frozen=True)
class Goal:
    """One (formula, logic) pair and the flags of its CLI calls.

    ``expect`` is the verdict the logic fixes (True proved, False
    refuted), or None where only the modes' agreement is checked.
    ``lean`` says whether the goal also runs ``prove --mode unkleened``.
    """

    formula: tuple
    logic: Logic
    kinds: tuple[str, ...]
    expect: bool | None = None
    budget: int | None = None
    lean: bool = True


def atom_prefix(round_index: int, goal_index: int) -> str:
    return f"r{round_index}g{goal_index}_"


def atom(name: str) -> tuple:
    return ("atom", name)


def neg(f: tuple) -> tuple:
    return ("imp", f, BOT)


def box(f: tuple, k: int = 1) -> tuple:
    for _ in range(k):
        f = ("box", f)
    return f


def conj(fs) -> tuple:
    fs = list(fs)
    out = fs[0]
    for f in fs[1:]:
        out = ("and", out, f)
    return out


def node_count(f: tuple) -> int:
    return 1 + sum(node_count(g) for g in f[1:] if isinstance(g, tuple))


_PREC = {"imp": 1, "or": 2, "and": 3}
_OP = {"imp": " -> ", "or": " | ", "and": " & "}
_UNARY = 4


def render(f: tuple, prefix: str = "", level: int = 0) -> str:
    """Surface syntax with minimal parentheses; atoms get ``prefix``."""
    kind = f[0]
    if kind == "atom":
        return prefix + f[1]
    if kind in ("top", "bot"):
        return "true" if kind == "top" else "false"
    if kind == "box" or (kind == "imp" and f[2] == BOT):
        head, body = ("box ", f[1]) if kind == "box" else ("~", f[1])
        s = head + render(body, prefix, _UNARY)
        return s if level <= _UNARY else f"({s})"
    prec = _PREC[kind]
    # & and | associate to the left, -> to the right.
    left_level, right_level = (prec + 1, prec) if kind == "imp" else (prec, prec + 1)
    s = render(f[1], prefix, left_level) + _OP[kind] + render(f[2], prefix, right_level)
    return s if level <= prec else f"({s})"


def from_program(f) -> tuple:
    """Convert a formula built by ``nnml.gen`` into the tuple syntax."""
    kind = type(f).__name__
    if kind == "Atom":
        return atom(f.name)
    if kind == "Top":
        return TOP
    if kind == "Bottom":
        return BOT
    if kind == "Box":
        return ("box", from_program(f.body))
    return (kind.lower(), from_program(f.left), from_program(f.right))


# --- the paper's separation families -----------------------------------------


def hansson(n: int) -> tuple:
    """~(box p1 & ... & box pn & box ~(p1 & ... & pn))"""
    ps = [atom(f"p{i}") for i in range(1, n + 1)]
    return neg(conj([box(p) for p in ps] + [box(neg(conj(ps)))]))


def agglomeration(n: int) -> tuple:
    """box p1 & ... & box pn -> box (p1 & ... & pn)"""
    ps = [atom(f"p{i}") for i in range(1, n + 1)]
    return ("imp", conj(box(p) for p in ps), box(conj(ps)))


def negations(k: int) -> tuple:
    """~^k p"""
    f = atom("p")
    for _ in range(k):
        f = neg(f)
    return f


def double_negation(k: int) -> tuple:
    """p -> ~^{2k} p"""
    return ("imp", atom("p"), negations(2 * k))


def box_chain(k: int) -> tuple:
    """box^k (p & q) -> box^k p"""
    return ("imp", box(("and", atom("p"), atom("q")), k), box(atom("p"), k))


def _family_goal(f: tuple, name: str, expect: bool, budget=None) -> Goal:
    l = logic(name)
    return Goal(f, l, l.kinds, expect, budget)


# Each hard workload also has one trivial goal of the other verdict, so
# that every layer runs in every round: the models layer on hard-proved,
# the audit and the labelled bridge on hard-refuted. Without it those
# layers' per-layer times read exactly 0 on every run. The refuted one is
# in a logic outside the classical cube, so that it adds no translate
# call to hard-proved's translate_ms_p50.
CONTROL_REFUTED = (atom("p"), "ED", False)
CONTROL_PROVED = (("imp", atom("p"), atom("p")), "E", True)


def hard_proved(tiny: bool = False) -> list[Goal]:
    control = _family_goal(*CONTROL_REFUTED)
    if tiny:
        return [
            _family_goal(hansson(2), "ED3+", True),
            _family_goal(agglomeration(2), "EC", True),
            _family_goal(double_negation(2), "E", True),
            _family_goal(box_chain(2), "M", True),
            _family_goal(hansson(3), "ECD", True, HANSSON_ECD_BUDGET),
            control,
        ]
    goals = [
        control,
        _family_goal(hansson(2), "ECD", True),
        _family_goal(hansson(3), "ECD", True, HANSSON_ECD_BUDGET),
    ]
    goals += [_family_goal(hansson(n), f"ED{n + 1}+", True) for n in (2, 3)]
    goals += [
        _family_goal(agglomeration(n), name, True)
        for name, sizes in (("EC", (2, 4, 6)), ("MC", (2, 4, 5)))
        for n in sizes
    ]
    goals += [_family_goal(double_negation(k), "E", True) for k in (2, 5, 8)]
    goals += [_family_goal(box_chain(k), "M", True) for k in (2, 5, 10)]
    return goals


def hard_refuted(tiny: bool = False) -> list[Goal]:
    sizes = (2,) if tiny else (2, 3, 4)
    goals = [
        _family_goal(hansson(n), name, False)
        for name in ("ED", "MD", "EP")
        for n in sizes
    ]
    goals += [
        _family_goal(agglomeration(n), name, False)
        for name in ("E", "M")
        for n in ((2,) if tiny else (2, 4, 6))
    ]
    goals += [_family_goal(negations(2 * k), "E", False) for k in ((1,) if tiny else (2, 5))]
    return goals + [_family_goal(*CONTROL_PROVED)]


def corpus(rng: random.Random, tiny: bool = False) -> list[Goal]:
    """Random formulas of at most 25 nodes, a fixed count per logic.

    The random goals leave out two countermodel kinds where the program
    fails on some formulas and not others, which would make the failed
    count depend on the seed (see the README):
    - standard-fine in logics with N or C, where it exits 3;
    - standard-rough in logics with RDn+, where checking the rough model
      can take minutes.
    They also leave out lean mode in logics with M and T but not N (MT
    and MCT), where it refutes a few valid formulas, such as
    ``~box ~box true``, that invertible search proves.
    The fixed goal ``p``, proved in every logic with every kind each
    round, keeps the first fault measured: it fails in each logic with N.
    """
    from nnml.gen import random_formula

    goals = []
    for name in CORPUS_LOGICS[:2] if tiny else CORPUS_LOGICS:
        l = logic(name)
        left_out = {"standard-fine": l.n or l.c, "standard-rough": l.dplus is not None}
        kinds = tuple(k for k in l.kinds if not left_out.get(k))
        lean = not (l.m and l.t and not l.n)
        for _ in range(1 if tiny else CORPUS_PER_LOGIC):
            while True:
                f = from_program(random_formula(rng))
                if node_count(f) <= CORPUS_MAX_NODES:
                    break
            goals.append(Goal(f, l, kinds, lean=lean))
        goals.append(Goal(atom("p"), l, l.kinds, expect=False))
    return goals


WORKLOADS = ("corpus", "hard-proved", "hard-refuted")


def round_goals(workload: str, rng: random.Random, tiny: bool = False) -> list[Goal]:
    """The goals of one round. Hard families come in a seeded order."""
    if workload == "corpus":
        return corpus(rng, tiny)
    goals = hard_proved(tiny) if workload == "hard-proved" else hard_refuted(tiny)
    rng.shuffle(goals)
    return goals
