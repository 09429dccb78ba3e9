"""Logic identifiers and rule-set assembly.

A logic is the minimal classical modal logic E extended by any of the
axioms M (monotonicity), C (agglomeration), N (necessitation of truth),
T (reflection), P (consistency of obligations), D (no contradictory
obligations), and the graded family RD_n+ (no n jointly inconsistent
obligations). Short names follow the usual scheme: the base is one of
E, M, EC, EN, ECN, MC, MN, MCN (alias K), optionally followed by suffix
letters T, P, D and/or a graded suffix like ``D3+``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace


@dataclass(frozen=True, slots=True)
class LogicSpec:
    monotonic: bool = False
    has_c: bool = False
    has_n: bool = False
    has_t: bool = False
    has_p: bool = False
    has_d: bool = False
    dplus: int | None = None

    def __post_init__(self):
        if self.dplus is not None and self.dplus < 1:
            raise ValueError("dplus must be at least 1 when present")

    @property
    def cube(self) -> bool:
        """True when the logic lies in the classical cube (no deontic part)."""
        return not (self.has_t or self.has_p or self.has_d or self.dplus)

    @property
    def regular(self) -> bool:
        """Regular logics (M and C) admit relational countermodels."""
        return self.monotonic and self.has_c


@dataclass(frozen=True, slots=True)
class RuleId:
    name: str
    arity: int = 0

    def render(self) -> str:
        if self.name == "DnPlus":
            return f"D{self.arity}+"
        return self.name


INIT = RuleId("Init")
BOT_L = RuleId("BotL")
TOP_R = RuleId("TopR")
AND_L = RuleId("AndL")
AND_R = RuleId("AndR")
OR_L = RuleId("OrL")
OR_R = RuleId("OrR")
IMP_L = RuleId("ImpL")
IMP_R = RuleId("ImpR")
BOX_L = RuleId("BoxL")
BOX_R = RuleId("BoxR")
BOX_RM = RuleId("BoxRm")
RULE_N = RuleId("N")
RULE_C = RuleId("C")
RULE_T = RuleId("T")
RULE_P = RuleId("P")
RULE_D1 = RuleId("D1")
RULE_D2 = RuleId("D2")


def dn_plus(i: int) -> RuleId:
    if i < 1:
        raise ValueError("graded rule arity must be at least 1")
    return RuleId("DnPlus", i)


PROP_RULES = frozenset({AND_L, AND_R, OR_L, OR_R, IMP_L, IMP_R})

_BASES = {
    "ECN": LogicSpec(has_c=True, has_n=True),
    "MCN": LogicSpec(monotonic=True, has_c=True, has_n=True),
    "EC": LogicSpec(has_c=True),
    "EN": LogicSpec(has_n=True),
    "MC": LogicSpec(monotonic=True, has_c=True),
    "MN": LogicSpec(monotonic=True, has_n=True),
    "E": LogicSpec(),
    "M": LogicSpec(monotonic=True),
    "K": LogicSpec(monotonic=True, has_c=True, has_n=True),
}


class LogicNameError(ValueError):
    pass


# A base, longest first, then suffixes; each suffix at most once.
_NAME = re.compile(r"(ECN|MCN|EC|EN|MC|MN|E|M|K)((?:T|P|D\d+\+|D)*)")
_SUFFIX = re.compile(r"T|P|D(\d+)\+|D")


def parse_logic_name(text: str) -> LogicSpec:
    """Resolve a short name like ``MCNT`` or ``ED3+`` to a LogicSpec."""
    m = _NAME.fullmatch(text.strip())
    if m is None:
        raise LogicNameError(f"unrecognized logic name {text!r}")
    suffixes: dict[str, str] = {}  # each suffix, Dn+ for a graded one, and its n
    for s in _SUFFIX.finditer(m[2]):
        name = "Dn+" if s[1] else s[0]
        if name in suffixes:
            raise LogicNameError(f"duplicate suffix {name} in {text!r}")
        suffixes[name] = s[1]
    dplus = int(suffixes["Dn+"]) if "Dn+" in suffixes else None
    if dplus == 0:
        raise LogicNameError(f"graded suffix needs n >= 1 in {text!r}")
    return replace(
        _BASES[m[1]], has_t="T" in suffixes, has_p="P" in suffixes, has_d="D" in suffixes, dplus=dplus
    )


def canonical_name(l: LogicSpec) -> str:
    if l.monotonic and l.has_c and l.has_n:
        base = "K"
    else:
        base = ("M" if l.monotonic else "E") + ("C" if l.has_c else "") + ("N" if l.has_n else "")
    out = base
    if l.has_t:
        out += "T"
    if l.has_p:
        out += "P"
    if l.has_d:
        out += "D"
    if l.dplus is not None:
        out += f"D{l.dplus}+"
    return out


def rule_set(l: LogicSpec) -> frozenset[RuleId]:
    rules = set(PROP_RULES)
    rules.add(BOX_L)
    rules.add(BOX_RM if l.monotonic else BOX_R)
    if l.has_n:
        rules.add(RULE_N)
    if l.has_c:
        rules.add(RULE_C)
    if l.has_t:
        rules.add(RULE_T)
    if l.has_p:
        rules.add(RULE_P)
    if l.has_d:
        if l.monotonic:
            rules.add(dn_plus(1))
            rules.add(dn_plus(2))
        else:
            rules.add(RULE_D1)
            rules.add(RULE_D2)
    if l.dplus is not None:
        for i in range(1, l.dplus + 1):
            rules.add(dn_plus(i))
    return frozenset(rules)
