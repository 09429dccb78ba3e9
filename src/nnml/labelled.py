"""Labelled sequents for the classical cube, and the hypersequent bridge.

Hypersequent components become labelled worlds, blocks become
neighbourhood terms: a block's members each get a neighbourhood label
carrying a universal forcing formula on the left and an existential one
on the right, and the composite of the labels is paired with the
component's world.

Every labelled rule is one entry of ``_RULES``, keyed by its name; the
propositional entries are read off the calculus table
(``calculus.rule_def``) at the principal's world. An entry gives the
shape of the rule's principal and the logic flag that admits the rule,
and, as functions of the principal: the formulas the conclusion must
hold on each side, as a multiset; the world that must occur, or the
world or label that must be fresh; the formula the premisses drop; and
what each premiss adds. An axiom is a rule whose premisses are ``()``.
One applier, ``_rule_premisses``, reads an entry: it gives an instance's
premisses, or a string saying why the instance is not legal. The checker
audits every node with it, so a malformed principal is rejected with a
reason, and the translation builds every step with it.

Derivations translate rule by rule; the auxiliary unfoldings for the box
right rule (one fresh world inside the term, one fresh world outside it)
are generated on the fly, as are the closing steps for leaves whose
shared formula is compound.

Terms, labelled formulas and labelled sequents are interned like
formulas (see ``formula.Syntax``), so equal ones are one object, and the
checker compares a node's children with the premisses it expects by
identity. A labelled formula's sort key and text are set once per
value, when it is built; a labelled sequent's text is made on first
use, from the texts of its formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .calculus import RuleDef, rule_def
from .formula import And, Atom, BOTTOM, Bottom, Box, Formula, Imp, Or, TOP, Top, sort_key, to_text
from .formula import Syntax, derived, syntax
from .hypersequent import Block, Hypersequent, join_sides
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
    RULE_N,
    TOP_R,
)
from .search import CheckReport, Derivation, audit, check_derivation, tree_to_dict

TAU = "tau"


class TranslationError(ValueError):
    pass


@syntax
class NbTerm(Syntax):
    """A neighbourhood term: a composite of labels, possibly overlined."""

    labels: tuple[str, ...]  # sorted, as ``of`` builds them
    negative: bool  # no default: the intern table keys on the arguments as passed

    @classmethod
    def of(cls, labels, negative: bool = False) -> "NbTerm":
        labels = tuple(sorted(labels))
        if not labels:
            raise ValueError("a neighbourhood term needs at least one label")
        return cls(labels, negative)

    def negated(self) -> "NbTerm":
        if self.negative:
            raise ValueError("terms are overlined at most once")
        return NbTerm(self.labels, True)

    def merged(self, other: "NbTerm") -> "NbTerm":
        if self.negative or other.negative:
            raise ValueError("only positive terms compose")
        return NbTerm.of(self.labels + other.labels)

    def render(self) -> str:
        body = "".join(self.labels)
        return "~" + body if self.negative else body


TAU_TERM = NbTerm((TAU,), False)


@syntax
class LabelledFormula(Syntax):
    """Base of the five labelled formulas, with the values kept on each.

    The sort key puts memberships first, then pairings, universal and
    existential forcing, and formulas at a world last; a compound formula
    is parenthesized in the text.
    """

    _sort_key: tuple = derived()
    _text: str = derived()

    def __post_init__(self):
        key, text = _key_and_text(self)
        object.__setattr__(self, "_sort_key", key)
        object.__setattr__(self, "_text", text)


@syntax
class WorldAt(LabelledFormula):
    world: str
    formula: Formula


@syntax
class ForcesAll(LabelledFormula):
    term: NbTerm
    formula: Formula


@syntax
class ForcesEx(LabelledFormula):
    term: NbTerm
    formula: Formula


@syntax
class MemberOf(LabelledFormula):
    world: str
    term: NbTerm


@syntax
class PairOf(LabelledFormula):
    term: NbTerm
    world: str


def _wrap(f: Formula) -> str:
    text = to_text(f)
    if isinstance(f, (And, Or, Imp)):
        return f"({text})"
    return text


def _key_and_text(f: LabelledFormula) -> tuple[tuple, str]:
    """The sort key and text of f; a term of the wrong polarity is a ValueError."""
    match f:
        case MemberOf(world, term):
            return (0, world, term.negative, term.labels), f"{world} in {term.render()}"
        case PairOf(term, world):
            if term.negative:
                raise ValueError("pairing takes a positive term")
            return (1, term.labels, world), f"{term.render()} |> {world}"
        case ForcesAll(term, formula):
            if term.negative:
                raise ValueError("universal forcing takes a positive term")
            return (2, term.labels, sort_key(formula)), f"{term.render()} |=A {_wrap(formula)}"
        case ForcesEx(term, formula):
            if not term.negative:
                raise ValueError("existential forcing takes an overlined term")
            return (3, term.labels, sort_key(formula)), f"{term.render()} |=E {_wrap(formula)}"
        case WorldAt(world, formula):
            return (4, world, sort_key(formula)), f"{world}:{_wrap(formula)}"
    raise TypeError(f"not a labelled formula: {f!r}")


@syntax
class LabelledSequent(Syntax):
    left: tuple[LabelledFormula, ...]
    right: tuple[LabelledFormula, ...]
    _text: str = derived(lambda s: join_sides([f._text for f in s.left], [f._text for f in s.right]))

    @classmethod
    def of(cls, left, right) -> "LabelledSequent":
        return cls(tuple(sorted(left, key=sort_key)), tuple(sorted(right, key=sort_key)))


@dataclass(frozen=True, slots=True)
class LabelledDerivation:
    rule: str
    principal: tuple
    conclusion: LabelledSequent
    children: tuple["LabelledDerivation", ...]


def render_labelled_sequent(s: LabelledSequent) -> str:
    return s._text


def labelled_derivation_to_dict(d: LabelledDerivation) -> dict:
    """The tree of ``search.tree_to_dict``."""
    return tree_to_dict(d, str, render_labelled_sequent)


# --- label supply -----------------------------------------------------------

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _nb_label(i: int) -> str:
    letter = _ALPHABET[i % 26]
    round_ = i // 26
    return letter if round_ == 0 else f"{letter}{round_}"


class _Labels:
    """Deterministic supply of world and neighbourhood labels."""

    __slots__ = ("next_world", "next_nb")

    def __init__(self):
        self.next_world = 1
        self.next_nb = 0

    def world(self) -> str:
        w = f"x{self.next_world}"
        self.next_world += 1
        return w

    def nb(self) -> str:
        a = _nb_label(self.next_nb)
        self.next_nb += 1
        return a


# --- static translation -----------------------------------------------------


def _require_cube(l: LogicSpec) -> None:
    if not l.cube:
        raise TranslationError("the labelled bridge covers the classical cube only")


@dataclass(frozen=True, slots=True)
class _BlockInfo:
    term: NbTerm
    members: tuple[tuple[Formula, str | None], ...]


# binfo maps a component number to the ordered block records of that component:
# pairs of the block value and the bookkeeping for its term and member labels.
_BInfo = dict[int, tuple[tuple[Block, _BlockInfo], ...]]


def _is_tau_block(b: Block) -> bool:
    return set(b.members) == {TOP}


def _translate_block(b: Block, labels: _Labels):
    """Term, member bookkeeping, and the forcing formulas of one block."""
    if _is_tau_block(b):
        info = _BlockInfo(TAU_TERM, tuple((m, TAU) for m in b.members))
        lefts = [ForcesAll(TAU_TERM, m) for m in b.members]
        rights = [ForcesEx(TAU_TERM.negated(), m) for m in b.members]
        return info, lefts, rights
    member_info = []
    lefts = []
    rights = []
    for m in b.members:
        a = labels.nb()
        member_info.append((m, a))
        single = NbTerm.of((a,))
        lefts.append(ForcesAll(single, m))
        rights.append(ForcesEx(single.negated(), m))
    term = NbTerm.of(tuple(a for _, a in member_info))
    return _BlockInfo(term, tuple(member_info)), lefts, rights


def translate_hypersequent(h: Hypersequent, l: LogicSpec) -> LabelledSequent:
    """Static translation of a hypersequent into a labelled sequent.

    Every component becomes a world; every block becomes a term paired
    with that world, with one universal forcing formula on the left and
    one existential forcing formula on the right per member. Components
    after the first get a membership assumption placing their world in
    the first term of the earliest component that has one; with no such
    term the assumption is simply omitted.
    """
    _require_cube(l)
    return _translate_with_context(h)[0]


def _translate_with_context(h: Hypersequent):
    labels = _Labels()
    left: list[LabelledFormula] = []
    right: list[LabelledFormula] = []
    world_of: dict[int, str] = {}
    binfo: _BInfo = {}
    anchor: NbTerm | None = None
    for n, s in enumerate(h.components, 1):
        x = labels.world()
        world_of[n] = x
        records = []
        if anchor is not None:
            left.append(MemberOf(x, anchor))
        for b in s.blocks:
            info, ls, rs = _translate_block(b, labels)
            records.append((b, info))
            left.append(PairOf(info.term, x))
            left.extend(ls)
            right.extend(rs)
        binfo[n] = tuple(records)
        if anchor is None and records:
            anchor = records[0][1].term
        left.extend(WorldAt(x, f) for f in s.left)
        right.extend(WorldAt(x, f) for f in s.right)
    return LabelledSequent.of(left, right), world_of, binfo, labels


# --- labelled rules -------------------------------------------------------------

# The kinds of principal item besides formula classes. A term in a
# principal is always a positive one.
_WORLD, _LABEL, _TERM = "world", "label", "term"
_KIND_TYPES = {_WORLD: str, _LABEL: str, _TERM: NbTerm}


@dataclass
class _Rule:
    """One labelled rule. ``shape`` gives the kind of each principal item.
    The functions take the principal's items: ``needs`` gives the formulas
    the conclusion must hold on each side, named in order by ``left`` and
    ``right``, and ``premisses`` what each premiss adds on each side. The
    premisses drop the first formula needed on the side ``drops``.
    ``gate`` is the ``LogicSpec`` flag that admits the rule, and the rule's
    title; ``occurs`` and ``fresh`` index the principal's items that must
    occur in the conclusion and that must not. Not frozen: a frozen slotted
    dataclass takes about 1 ms more to make, at every import.
    """

    shape: tuple
    needs: Callable
    left: tuple[str, ...] = ()
    right: tuple[str, ...] = ()
    drops: str | None = None
    gate: tuple[str, str] | None = None
    occurs: int | None = None
    fresh: int | None = None
    premisses: Callable = lambda *_: ()
    types: tuple = field(init=False)
    terms: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        self.types = tuple(_KIND_TYPES.get(k, k) for k in self.shape)
        self.terms = tuple(i for i, k in enumerate(self.shape) if k == _TERM)


# The labelled name of each propositional rule. Its side, connective and
# premisses are those of the hypersequent rule in the calculus table,
# read at the principal's world in place of its component.
_PROPOSITIONAL = {
    AND_L: "L-and",
    AND_R: "R-and",
    OR_L: "L-or",
    OR_R: "R-or",
    IMP_L: "L-imp",
    IMP_R: "R-imp",
}
_RULE_FOR = {(rule_def(rule).side, rule_def(rule).connective): name for rule, name in _PROPOSITIONAL.items()}


def _propositional(rd: RuleDef) -> _Rule:
    def needs(x, f):
        principal = (WorldAt(x, f),)
        return (principal, ()) if rd.side == "left" else ((), principal)

    def premisses(x, f):
        return [
            (tuple([WorldAt(x, g) for g in prem.left]), tuple([WorldAt(x, g) for g in prem.right]))
            for prem in rd.schema(f)
        ]

    names = {rd.side: ("the principal formula",)}
    return _Rule((_WORLD, rd.connective), needs, **names, drops=rd.side, premisses=premisses)


def _box_left(x: str, f: Box, a: str):
    t = NbTerm.of((a,))
    return (((PairOf(t, x), ForcesAll(t, f.body)), (ForcesEx(t.negated(), f.body),)),)


_RULES: dict[str, _Rule] = {
    **{name: _propositional(rule_def(rule)) for rule, name in _PROPOSITIONAL.items()},
    "init": _Rule(
        (_WORLD, Atom), lambda x, f: ((WorldAt(x, f),), (WorldAt(x, f),)), ("the atom",), ("the atom",)
    ),
    "L-bot": _Rule((_WORLD,), lambda x: ((WorldAt(x, BOTTOM),), ()), ("falsum",)),
    "R-top": _Rule((_WORLD,), lambda x: ((), (WorldAt(x, TOP),)), right=("verum",)),
    "M": _Rule(
        (_TERM, _WORLD, _WORLD),
        lambda t, x, y: ((PairOf(t, x), MemberOf(y, t.negated())), ()),
        ("the term pairing", "the outside membership"),
        gate=("monotonic", "the monotonicity axiom"),
    ),
    "tau-empty": _Rule((_WORLD,), lambda x: ((MemberOf(x, TAU_TERM.negated()),), ()), ("the membership",)),
    "L-box": _Rule(
        (_WORLD, Box, _LABEL),
        lambda x, f, a: ((WorldAt(x, f),), ()),
        ("the principal formula",),
        drops="left",
        fresh=2,
        premisses=_box_left,
    ),
    "R-box": _Rule(
        (_TERM, _WORLD, Box),
        lambda t, x, f: ((PairOf(t, x),), (WorldAt(x, f),)),
        ("the term pairing",),
        ("the boxed formula",),
        premisses=lambda t, x, f: (((), (ForcesAll(t, f.body),)), ((ForcesEx(t.negated(), f.body),), ())),
    ),
    "N": _Rule(
        (_WORLD,),
        lambda x: ((), ()),
        gate=("has_n", "the verum term rule"),
        occurs=0,
        premisses=lambda x: (((PairOf(TAU_TERM, x),), ()),),
    ),
    "C": _Rule(
        (_TERM, _TERM, _WORLD),
        lambda t, s, x: ((PairOf(t, x), PairOf(s, x)), ()),
        ("the first pairing", "the second pairing"),
        gate=("has_c", "the term merge rule"),
        premisses=lambda t, s, x: (((PairOf(t.merged(s), x),), ()),),
    ),
    "L-forall": _Rule(
        (_WORLD, _TERM, Formula),
        lambda x, t, f: ((MemberOf(x, t), ForcesAll(t, f)), ()),
        ("the membership", "the universal forcing"),
        premisses=lambda x, t, f: (((WorldAt(x, f),), ()),),
    ),
    "R-forall": _Rule(
        (_TERM, Formula, _WORLD),
        lambda t, f, y: ((), (ForcesAll(t, f),)),
        right=("the universal forcing",),
        drops="right",
        fresh=2,
        premisses=lambda t, f, y: (((MemberOf(y, t),), (WorldAt(y, f),)),),
    ),
    "L-exists": _Rule(
        (_TERM, Formula, _WORLD),
        lambda t, f, y: ((ForcesEx(t.negated(), f),), ()),
        ("the existential forcing",),
        drops="left",
        fresh=2,
        premisses=lambda t, f, y: (((MemberOf(y, t.negated()), WorldAt(y, f)), ()),),
    ),
    "R-exists": _Rule(
        (_WORLD, _TERM, Formula),
        lambda x, t, f: ((MemberOf(x, t.negated()),), (ForcesEx(t.negated(), f),)),
        ("the membership",),
        ("the existential forcing",),
        premisses=lambda x, t, f: (((), (WorldAt(x, f),)),),
    ),
    "dec": _Rule(
        (_WORLD, _TERM, _TERM),
        lambda x, t, s: ((MemberOf(x, t.merged(s)),), ()),
        ("the composite membership",),
        premisses=lambda x, t, s: (((MemberOf(x, t), MemberOf(x, s)), ()),),
    ),
    "dec-bar": _Rule(
        (_WORLD, _TERM, _TERM),
        lambda x, t, s: ((MemberOf(x, t.merged(s).negated()),), ()),
        ("the composite membership",),
        premisses=lambda x, t, s: (((MemberOf(x, t.negated()),), ()), ((MemberOf(x, s.negated()),), ())),
    ),
}


def _occurring(seq: LabelledSequent) -> tuple[set[str], set[str]]:
    """The worlds of seq, and its labels with the verum constant, which is
    never fresh."""
    worlds: set[str] = set()
    labels = {TAU}
    for f in seq.left + seq.right:
        match f:
            case WorldAt(world, _):
                worlds.add(world)
            case MemberOf(world, term) | PairOf(term, world):
                worlds.add(world)
                labels.update(term.labels)
            case ForcesAll(term, _) | ForcesEx(term, _):
                labels.update(term.labels)
    return worlds, labels


def _dropping(side: tuple, f: LabelledFormula) -> tuple:
    i = side.index(f)
    return side[:i] + side[i + 1 :]


def _rule_premisses(name: str, p: tuple, seq: LabelledSequent, l: LogicSpec | None = None):
    """Premisses of the labelled rule with principal p applied to seq, or a
    string saying why that is not a legal instance.

    The checker audits every node with it and the translation builds every
    step with it. With a logic, structural rules it lacks are not legal.
    """
    rule = _RULES.get(name)
    if rule is None:
        return f"unknown rule {name}"
    types = rule.types
    if len(p) != len(types) or not all(map(isinstance, p, types)) or any([p[i].negative for i in rule.terms]):
        kinds = ", ".join(k if isinstance(k, str) else k.__name__ for k in rule.shape)
        return f"{name} needs a principal of {kinds}"
    if rule.gate is not None and l is not None and not getattr(l, rule.gate[0]):
        return f"{rule.gate[1]} is not in this logic"
    left, right = rule.needs(*p)
    sides = (("left", seq.left, left, rule.left), ("right", seq.right, right, rule.right))
    for where, side, needs, names in sides:
        for i, f in enumerate(needs):
            # a formula needed again needs one more copy
            if f not in side or (i and f in needs[:i] and side.count(f) <= needs[:i].count(f)):
                return f"{names[i]} missing from the {where} side"
    if rule.occurs is not None or rule.fresh is not None:
        worlds, labels = _occurring(seq)
        if rule.occurs is not None and p[rule.occurs] not in worlds:
            return "the world of this rule must occur in the conclusion"
        if rule.fresh is not None:
            kind, item = rule.shape[rule.fresh], p[rule.fresh]
            if item in (worlds if kind == _WORLD else labels):
                return f"{kind} {item} is not fresh"
    ls, rs = seq.left, seq.right
    if rule.drops == "left":
        ls = _dropping(ls, left[0])
    elif rule.drops == "right":
        rs = _dropping(rs, right[0])
    return tuple([LabelledSequent.of(ls + lefts, rs + rights) for lefts, rights in rule.premisses(*p)])


def _apply_rule(rule: str, p: tuple, seq: LabelledSequent) -> tuple[LabelledSequent, ...]:
    """The premisses of one translation step; a step that is not a legal
    instance is a TranslationError."""
    out = _rule_premisses(rule, p, seq)
    if isinstance(out, str):
        raise TranslationError(f"{rule}: {out}")
    return out


# --- derivation translation ---------------------------------------------------


def _find_blocks(binfo: _BInfo, cid: int, blocks) -> list[_BlockInfo]:
    """The record of each block in turn: its first record in component
    cid not yet taken."""
    records = list(binfo[cid])
    out = []
    for b in blocks:
        i = next((i for i, (block, _) in enumerate(records) if block == b), None)
        if i is None:
            raise TranslationError("block has no recorded neighbourhood term")
        out.append(records.pop(i)[1])
    return out


def _with_record(binfo: _BInfo, cid: int, b: Block, info: _BlockInfo) -> _BInfo:
    return {**binfo, cid: binfo.get(cid, ()) + ((b, info),)}


def translate_derivation(d: Derivation, l: LogicSpec) -> LabelledDerivation:
    """Turn a checked hypersequent derivation into a labelled derivation
    of the static translation of its conclusion."""
    _require_cube(l)
    report = check_derivation(d, l)
    if not report:
        raise TranslationError(f"input derivation does not check: {report.reason}")
    root, world_of, binfo, labels = _translate_with_context(d.conclusion)
    try:
        return _translate_node(d, root, world_of, binfo, labels, l)
    except RecursionError:
        raise TranslationError("derivation nested too deeply to translate") from None


def _translate_node(
    d: Derivation,
    seq: LabelledSequent,
    world_of: dict[int, str],
    binfo: _BInfo,
    labels: _Labels,
    l: LogicSpec,
) -> LabelledDerivation:
    rule = d.rule

    def step(name: str, principal: tuple, b: _BInfo) -> LabelledDerivation:
        """The labelled rule for d; each premiss goes on with the child of d
        in the same place."""
        prems = _apply_rule(name, principal, seq)
        children = [_translate_node(c, s, world_of, b, labels, l) for c, s in zip(d.children, prems)]
        return LabelledDerivation(name, principal, seq, tuple(children))

    x = world_of[d.cid]
    if rule in (BOT_L, TOP_R, INIT):
        return _close(seq, x, BOTTOM if rule == BOT_L else TOP if rule == TOP_R else d.principal[0], labels)
    if rule in _PROPOSITIONAL:
        (f,) = d.principal
        return step(_PROPOSITIONAL[rule], (x, f), binfo)
    if rule == BOX_L:
        (f,) = d.principal
        a = labels.nb()
        info = _BlockInfo(NbTerm.of((a,)), ((f.body, a),))
        return step("L-box", (x, f, a), _with_record(binfo, d.cid, Block.of((f.body,)), info))
    if rule == RULE_N:
        info = _BlockInfo(TAU_TERM, ((TOP, None),))
        return step("N", (x,), _with_record(binfo, d.cid, Block.of((TOP,)), info))
    if rule == RULE_C:
        b1, b2 = d.principal
        info1, info2 = _find_blocks(binfo, d.cid, d.principal)
        merged = _BlockInfo(info1.term.merged(info2.term), info1.members + info2.members)
        return step(
            "C", (info1.term, info2.term, x), _with_record(binfo, d.cid, b1.merged(b2), merged)
        )
    if rule in (BOX_R, BOX_RM):
        return _translate_box_right(d, seq, world_of, binfo, labels, l)
    raise TranslationError(f"rule {rule.render()} has no labelled counterpart")


def _step(rule: str, principal: tuple, seq: LabelledSequent, *then) -> LabelledDerivation:
    """The labelled rule applied to seq, then[i](s) deriving its i-th
    premiss s; an axiom takes no then."""
    prems = _apply_rule(rule, principal, seq)
    return LabelledDerivation(rule, principal, seq, tuple([k(s) for k, s in zip(then, prems, strict=True)]))


def _chain(steps, seq: LabelledSequent, last) -> LabelledDerivation:
    """One-premiss rules, given as (rule, principal) pairs, applied in turn
    from seq, then last(s) for the sequent s they leave."""
    if not steps:
        return last(seq)
    (rule, principal), rest = steps[0], steps[1:]
    (prem,) = _apply_rule(rule, principal, seq)
    return LabelledDerivation(rule, principal, seq, (_chain(rest, prem, last),))


def _box_right(seq: LabelledSequent, t: NbTerm, x: str, box: Box, labels: _Labels, inside, outside):
    """R-box at x on the term t. Its first premiss goes on by R-forall
    with a fresh world y inside t, its second by L-exists with a fresh
    world z outside t; inside(y, s) and outside(z, s) derive the sequents
    s those steps leave."""
    body = box.body
    s1, s2 = _apply_rule("R-box", (t, x, box), seq)
    y = labels.world()
    p1 = _step("R-forall", (t, body, y), s1, lambda s: inside(y, s))
    z = labels.world()
    p2 = _step("L-exists", (t, body, z), s2, lambda s: outside(z, s))
    return LabelledDerivation("R-box", (t, x, box), seq, (p1, p2))


def _translate_box_right(
    d: Derivation,
    seq: LabelledSequent,
    world_of: dict[int, str],
    binfo: _BInfo,
    labels: _Labels,
    l: LogicSpec,
) -> LabelledDerivation:
    """R-box on the block's term t. Inside t, membership is split down to
    single labels and each member's universal formula read at the new
    world, before the last child of d goes on. Outside t, the M axiom
    closes the branch; without monotonicity, membership in the overlined
    term is split down to one label, and the branch closed by the
    empty-term axiom when that label is the verum constant, otherwise
    through the member's existential formula and the child of d that
    tests that member."""
    block, box = d.principal
    x = world_of[d.cid]
    (info,) = _find_blocks(binfo, d.cid, (block,))
    t = info.term
    # The last premiss is the one with the block on the left; without
    # monotonicity, each one before it tests one member on the right.
    *member_premisses, _ = rule_def(d.rule).schema(block, box)
    child_for = {prem.right[0]: child for prem, child in zip(member_premisses, d.children)}
    label_formula = {lab: m for m, lab in info.members if lab is not None}

    def descend(child: Derivation, world: str):
        """Go on with child, whose new component is world."""
        new_cid = len(child.conclusion.components)
        world_of_child, binfo_child = {**world_of, new_cid: world}, {**binfo, new_cid: ()}
        return lambda s: _translate_node(child, s, world_of_child, binfo_child, labels, l)

    def inside(y: str, s: LabelledSequent) -> LabelledDerivation:
        steps = []
        rest = t
        while len(rest.labels) > 1:
            head, rest = NbTerm.of(rest.labels[:1]), NbTerm.of(rest.labels[1:])
            steps.append(("dec", (y, head, rest)))
        steps += [
            ("L-forall", (y, NbTerm.of((label,)), member))
            for member, label in info.members
            if label is not None
        ]
        return _chain(steps, s, descend(d.children[-1], y))

    def outside(z: str, s: LabelledSequent, term: NbTerm = t) -> LabelledDerivation:
        if d.rule == BOX_RM:
            return _step("M", (t, x, z), s)
        if len(term.labels) > 1:
            head, tail = NbTerm.of(term.labels[:1]), NbTerm.of(term.labels[1:])
            branches = (lambda s1: outside(z, s1, head), lambda s2: outside(z, s2, tail))
            return _step("dec-bar", (z, head, tail), s, *branches)
        if term == TAU_TERM:
            return _step("tau-empty", (z,), s)
        member = label_formula[term.labels[0]]
        return _step("R-exists", (z, term, member), s, descend(child_for[member], z))

    return _box_right(seq, t, x, box, labels, inside, outside)


# --- closing leaves ----------------------------------------------------------


def _lsupp(seq: LabelledSequent, x: str, f: Formula) -> bool:
    """Whether the closing steps can still win f on the left at x."""
    if WorldAt(x, f) in seq.left:
        return True
    match f:
        case Bottom():
            return True
        case And(a, b):
            return _lsupp(seq, x, a) and _lsupp(seq, x, b)
        case Or(a, b):
            return _lsupp(seq, x, a) or _lsupp(seq, x, b)
        case Imp(a, b):
            return _rsupp(seq, x, a) or _lsupp(seq, x, b)
        case Box(a):
            return _box_support(seq, x, a) is not None
    return False


def _rsupp(seq: LabelledSequent, x: str, f: Formula) -> bool:
    if WorldAt(x, f) in seq.right:
        return True
    match f:
        case Top():
            return True
        case And(a, b):
            return _rsupp(seq, x, a) or _rsupp(seq, x, b)
        case Or(a, b):
            return _rsupp(seq, x, a) and _rsupp(seq, x, b)
        case Imp(a, b):
            return _lsupp(seq, x, a) and _rsupp(seq, x, b)
    return False


def _box_support(seq: LabelledSequent, x: str, body: Formula) -> NbTerm | None:
    """A single label paired with x whose forcing formulas witness body."""
    for lf in seq.left:
        if (
            isinstance(lf, ForcesAll)
            and len(lf.term.labels) == 1
            and lf.formula == body
            and PairOf(lf.term, x) in seq.left
            and ForcesEx(lf.term.negated(), body) in seq.right
        ):
            return lf.term
    return None


def _close(seq: LabelledSequent, x: str, f: Formula, labels: _Labels) -> LabelledDerivation:
    """Derive a sequent in which f is supported on both sides at x."""
    if isinstance(f, Atom):
        return _step("init", (x, f), seq)
    if isinstance(f, Top):
        return _step("R-top", (x,), seq)
    if isinstance(f, Bottom):
        return _step("L-bot", (x,), seq)
    if isinstance(f, (And, Or, Imp)):
        # Decompose f where it occurs, the side whose rule has one
        # premiss first; that premiss still supports f on both sides,
        # while the two premisses of the other rule each close one
        # immediate subformula.
        for side in ("left", "right") if isinstance(f, And) else ("right", "left"):
            if WorldAt(x, f) in getattr(seq, side):
                rule = _RULE_FOR[side, type(f)]
                prems = _apply_rule(rule, (x, f), seq)
                targets = (f,) if len(prems) == 1 else (f.left, f.right)
                children = tuple(_close(p, x, g, labels) for p, g in zip(prems, targets))
                return LabelledDerivation(rule, (x, f), seq, children)
        supported = _lsupp if isinstance(f, Or) else _rsupp
        return _close(seq, x, f.left if supported(seq, x, f.left) else f.right, labels)
    if isinstance(f, Box):
        if WorldAt(x, f) in seq.left:
            a = labels.nb()
            return _step("L-box", (x, f, a), seq, lambda s: _close(s, x, f, labels))
        t = _box_support(seq, x, f.body)
        if t is None or WorldAt(x, f) not in seq.right:
            raise TranslationError("boxed leaf lost its labelled evidence")
        body = f.body

        def inside(y: str, s: LabelledSequent) -> LabelledDerivation:
            return _step("L-forall", (y, t, body), s, lambda s2: _close(s2, y, body, labels))

        def outside(z: str, s: LabelledSequent) -> LabelledDerivation:
            return _step("R-exists", (z, t, body), s, lambda s2: _close(s2, z, body, labels))

        return _box_right(seq, t, x, f, labels, inside, outside)
    raise TranslationError(f"cannot close a leaf on {f!r}")


# --- checking ---------------------------------------------------------------


def _labelled_premisses(node: LabelledDerivation, logic: LogicSpec | None):
    out = _rule_premisses(node.rule, node.principal, node.conclusion, logic)
    if out == () and node.children:
        return "axioms take no premisses"
    return out


def check_labelled(d: LabelledDerivation, logic: LogicSpec | None = None) -> CheckReport:
    """Audit a labelled derivation node by node.

    When a logic is given, structural rules it does not contain are
    rejected; with none, any rule of any cube calculus is accepted.
    """
    if logic is not None and not logic.cube:
        return CheckReport(False, (), "labelled calculi cover the cube only")
    return audit(d, lambda node: _labelled_premisses(node, logic))
