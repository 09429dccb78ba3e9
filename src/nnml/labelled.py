"""Labelled sequents for the classical cube, and the hypersequent bridge.

Hypersequent components become labelled worlds, blocks become
neighbourhood terms: a block's members each get a neighbourhood label
carrying a universal forcing formula on the left and an existential one
on the right, and the composite of the labels is paired with the
component's world. Derivations translate rule by rule; the auxiliary
unfoldings for the box right rule (one fresh world inside the term, one
fresh world outside it) are generated on the fly, as are the closing
steps for leaves whose shared formula is compound. Each labelled step
takes its premisses from ``_rule_premisses``, the one schema of the
labelled rules, which the checker audits derivations against.

Terms, labelled formulas and labelled sequents are interned like
formulas (see ``formula.Syntax``), so equal ones are one object, and the
checker compares a node's children with the premisses it expects by
identity. A labelled formula's sort key and text are set once per
value, when it is built; a labelled sequent's text is made on first
use, from the texts of its formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import rule_def
from .formula import And, Atom, Bottom, Box, Formula, Imp, Or, TOP, Top, sort_key, to_text
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

    def adding(self, left=(), right=()) -> "LabelledSequent":
        return LabelledSequent.of(self.left + tuple(left), self.right + tuple(right))

    def removing(self, left=(), right=()) -> "LabelledSequent":
        ls, rs = list(self.left), list(self.right)
        for f in left:
            ls.remove(f)
        for f in right:
            rs.remove(f)
        return LabelledSequent(tuple(ls), tuple(rs))


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
    s, _, _, _ = _translate_with_context(h)
    return s


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


def _labels_of_term(t: NbTerm) -> set[str]:
    return set(t.labels) - {TAU}


def _occurring(seq: LabelledSequent):
    worlds: set[str] = set()
    labels: set[str] = set()
    for f in seq.left + seq.right:
        match f:
            case WorldAt(world, _):
                worlds.add(world)
            case MemberOf(world, term):
                worlds.add(world)
                labels |= _labels_of_term(term)
            case PairOf(term, world):
                worlds.add(world)
                labels |= _labels_of_term(term)
            case ForcesAll(term, _) | ForcesEx(term, _):
                labels |= _labels_of_term(term)
    return worlds, labels


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
_PROPOSITIONAL_DEFS = {name: rule_def(rule) for rule, name in _PROPOSITIONAL.items()}
_RULE_FOR = {(rd.side, rd.connective): name for name, rd in _PROPOSITIONAL_DEFS.items()}
_CONNECTIVE_NAMES = {And: "conjunction", Or: "disjunction", Imp: "implication"}


def _rule_premisses(rule: str, p: tuple, seq: LabelledSequent, l: LogicSpec | None = None):
    """Premisses of the labelled rule with principal p applied to seq, or a
    string saying why that is not a legal instance.

    The checker audits every node with it and the translation builds every
    step with it. With a logic, structural rules it lacks are not legal.
    """

    def need_left(f, what):
        return None if f in seq.left else f"{what} missing from the left side"

    def need_right(f, what):
        return None if f in seq.right else f"{what} missing from the right side"

    if rule in _PROPOSITIONAL_DEFS:
        rd = _PROPOSITIONAL_DEFS[rule]
        x, f = p
        if not isinstance(f, rd.connective):
            return f"{_CONNECTIVE_NAMES[rd.connective]} expected"
        principal = WorldAt(x, f)
        err = (need_left if rd.side == "left" else need_right)(principal, "the principal formula")
        if err:
            return err
        base = seq.removing(**{rd.side: (principal,)})
        return tuple(
            base.adding(left=[WorldAt(x, g) for g in prem.left], right=[WorldAt(x, g) for g in prem.right])
            for prem in rd.schema(f)
        )
    if rule == "init":
        x, f = p
        if not isinstance(f, Atom):
            return "the initial axiom needs an atom"
        return (
            need_left(WorldAt(x, f), "the atom")
            or need_right(WorldAt(x, f), "the atom")
            or ()
        )
    if rule == "L-bot":
        (x,) = p
        return need_left(WorldAt(x, Bottom()), "falsum") or ()
    if rule == "R-top":
        (x,) = p
        return need_right(WorldAt(x, TOP), "verum") or ()
    if rule == "M":
        if l is not None and not l.monotonic:
            return "the monotonicity axiom is not in this logic"
        t, x, y = p
        return (
            need_left(PairOf(t, x), "the term pairing")
            or need_left(MemberOf(y, t.negated()), "the outside membership")
            or ()
        )
    if rule == "tau-empty":
        (x,) = p
        return need_left(MemberOf(x, TAU_TERM.negated()), "the membership") or ()
    if rule == "L-box":
        x, f, a = p
        if not isinstance(f, Box):
            return "boxed formula expected"
        err = need_left(WorldAt(x, f), "the principal formula")
        if err:
            return err
        if a == TAU or a in _occurring(seq)[1]:
            return f"label {a} is not fresh"
        single = NbTerm.of((a,))
        return (
            seq.removing(left=(WorldAt(x, f),)).adding(
                left=(PairOf(single, x), ForcesAll(single, f.body)),
                right=(ForcesEx(single.negated(), f.body),),
            ),
        )
    if rule == "R-box":
        t, x, f = p
        if not isinstance(f, Box):
            return "boxed formula expected"
        err = need_left(PairOf(t, x), "the term pairing") or need_right(
            WorldAt(x, f), "the boxed formula"
        )
        if err:
            return err
        return (
            seq.adding(right=(ForcesAll(t, f.body),)),
            seq.adding(left=(ForcesEx(t.negated(), f.body),)),
        )
    if rule == "N":
        if l is not None and not l.has_n:
            return "the verum term rule is not in this logic"
        (x,) = p
        if x not in _occurring(seq)[0]:
            return "the world of this rule must occur in the conclusion"
        return (seq.adding(left=(PairOf(TAU_TERM, x),)),)
    if rule == "C":
        if l is not None and not l.has_c:
            return "the term merge rule is not in this logic"
        t, s, x = p
        if t == s:
            if seq.left.count(PairOf(t, x)) < 2:
                return "merging one term with itself needs two pairings"
        else:
            err = need_left(PairOf(t, x), "the first pairing") or need_left(
                PairOf(s, x), "the second pairing"
            )
            if err:
                return err
        return (seq.adding(left=(PairOf(t.merged(s), x),)),)
    if rule == "L-forall":
        x, t, f = p
        err = need_left(MemberOf(x, t), "the membership") or need_left(
            ForcesAll(t, f), "the universal forcing"
        )
        if err:
            return err
        return (seq.adding(left=(WorldAt(x, f),)),)
    if rule == "R-forall":
        t, f, y = p
        err = need_right(ForcesAll(t, f), "the universal forcing")
        if err:
            return err
        if y in _occurring(seq)[0]:
            return f"world {y} is not fresh"
        return (
            seq.removing(right=(ForcesAll(t, f),)).adding(
                left=(MemberOf(y, t),), right=(WorldAt(y, f),)
            ),
        )
    if rule == "L-exists":
        t, f, y = p
        err = need_left(ForcesEx(t.negated(), f), "the existential forcing")
        if err:
            return err
        if y in _occurring(seq)[0]:
            return f"world {y} is not fresh"
        return (
            seq.removing(left=(ForcesEx(t.negated(), f),)).adding(
                left=(MemberOf(y, t.negated()), WorldAt(y, f))
            ),
        )
    if rule == "R-exists":
        x, t, f = p
        err = need_left(MemberOf(x, t.negated()), "the membership") or need_right(
            ForcesEx(t.negated(), f), "the existential forcing"
        )
        if err:
            return err
        return (seq.adding(right=(WorldAt(x, f),)),)
    if rule == "dec":
        x, t, s = p
        err = need_left(MemberOf(x, t.merged(s)), "the composite membership")
        if err:
            return err
        return (seq.adding(left=(MemberOf(x, t), MemberOf(x, s))),)
    if rule == "dec-bar":
        x, t, s = p
        err = need_left(MemberOf(x, t.merged(s).negated()), "the composite membership")
        if err:
            return err
        return (
            seq.adding(left=(MemberOf(x, t.negated()),)),
            seq.adding(left=(MemberOf(x, s.negated()),)),
        )
    return f"unknown rule {rule}"


def _apply_rule(rule: str, p: tuple, seq: LabelledSequent) -> tuple[LabelledSequent, ...]:
    """The premisses of one translation step; a step that is not a legal
    instance is a TranslationError."""
    out = _rule_premisses(rule, p, seq)
    if isinstance(out, str):
        raise TranslationError(f"{rule}: {out}")
    return out


# --- derivation translation ---------------------------------------------------


def _find_block(binfo: _BInfo, cid: int, b: Block) -> _BlockInfo:
    for block, info in binfo[cid]:
        if block == b:
            return info
    raise TranslationError("block has no recorded neighbourhood term")


def _find_two_blocks(binfo: _BInfo, cid: int, b1: Block, b2: Block):
    entries = binfo[cid]
    idx1 = next((i for i, (block, _) in enumerate(entries) if block == b1), None)
    if idx1 is None:
        raise TranslationError("block has no recorded neighbourhood term")
    for j, (block, info) in enumerate(entries):
        if j != idx1 and block == b2:
            return entries[idx1][1], info
    raise TranslationError("block has no recorded neighbourhood term")


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
        children = tuple(
            _translate_node(child, prem, world_of, b, labels, l)
            for child, prem in zip(d.children, prems)
        )
        return LabelledDerivation(name, principal, seq, children)

    if rule in (BOT_L, TOP_R, INIT):
        return _close_leaf(d, seq, world_of, labels)
    x = world_of[d.cid]
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
        if b1 == b2:
            info1, info2 = _find_two_blocks(binfo, d.cid, b1, b2)
        else:
            info1 = _find_block(binfo, d.cid, b1)
            info2 = _find_block(binfo, d.cid, b2)
        merged = _BlockInfo(info1.term.merged(info2.term), info1.members + info2.members)
        return step(
            "C", (info1.term, info2.term, x), _with_record(binfo, d.cid, b1.merged(b2), merged)
        )
    if rule in (BOX_R, BOX_RM):
        return _translate_box_right(d, seq, world_of, binfo, labels, l)
    raise TranslationError(f"rule {rule.render()} has no labelled counterpart")


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
    p1 = _chain([("R-forall", (t, body, y))], s1, lambda s: inside(y, s))
    z = labels.world()
    p2 = _chain([("L-exists", (t, body, z))], s2, lambda s: outside(z, s))
    return LabelledDerivation("R-box", (t, x, box), seq, (p1, p2))


def _translate_box_right(
    d: Derivation,
    seq: LabelledSequent,
    world_of: dict[int, str],
    binfo: _BInfo,
    labels: _Labels,
    l: LogicSpec,
) -> LabelledDerivation:
    block, box = d.principal
    x = world_of[d.cid]
    info = _find_block(binfo, d.cid, block)
    t = info.term
    # The last premiss is the one with the block on the left; without
    # monotonicity, each one before it tests one member on the right.
    *member_premisses, _ = rule_def(d.rule).schema(block, box)
    child_for = {prem.right[0]: child for prem, child in zip(member_premisses, d.children)}
    sigma_child = d.children[-1]

    def inside(y: str, s: LabelledSequent) -> LabelledDerivation:
        # split membership in the composite term down to single labels,
        # then read each member's universal formula at y
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
        new_cid = len(sigma_child.conclusion.components)
        return _chain(
            steps,
            s,
            lambda s2: _translate_node(
                sigma_child, s2, {**world_of, new_cid: y}, {**binfo, new_cid: ()}, labels, l
            ),
        )

    def outside(z: str, s: LabelledSequent) -> LabelledDerivation:
        if d.rule == BOX_RM:
            return LabelledDerivation("M", (t, x, z), s, ())
        return _negative_branches(t, z, s, info, child_for, world_of, binfo, labels, l)

    return _box_right(seq, t, x, box, labels, inside, outside)


def _negative_branches(
    term: NbTerm,
    z: str,
    seq: LabelledSequent,
    info: _BlockInfo,
    child_for: dict[Formula, Derivation],
    world_of: dict[int, str],
    binfo: _BInfo,
    labels: _Labels,
    l: LogicSpec,
) -> LabelledDerivation:
    """Split membership in the overlined composite down to one label and
    close that branch: by the empty-term axiom when that label is the
    verum constant, otherwise through the member's existential formula
    and the matching subderivation."""
    label_formula = {lab: m for m, lab in info.members if lab is not None}

    def close_single(label: str, s: LabelledSequent) -> LabelledDerivation:
        if label == TAU:
            return LabelledDerivation("tau-empty", (z,), s, ())
        member = label_formula[label]
        child = child_for[member]
        new_cid = len(child.conclusion.components)
        return _chain(
            [("R-exists", (z, NbTerm.of((label,)), member))],
            s,
            lambda s2: _translate_node(
                child, s2, {**world_of, new_cid: z}, {**binfo, new_cid: ()}, labels, l
            ),
        )

    def split(t: NbTerm, s: LabelledSequent) -> LabelledDerivation:
        if len(t.labels) == 1:
            return close_single(t.labels[0], s)
        head, tail = NbTerm.of(t.labels[:1]), NbTerm.of(t.labels[1:])
        s1, s2 = _apply_rule("dec-bar", (z, head, tail), s)
        return LabelledDerivation(
            "dec-bar", (z, head, tail), s, (split(head, s1), split(tail, s2))
        )

    return split(term, seq)


# --- closing leaves ----------------------------------------------------------


def _close_leaf(
    d: Derivation, seq: LabelledSequent, world_of: dict[int, str], labels: _Labels
) -> LabelledDerivation:
    x = world_of[d.cid]
    if d.rule == BOT_L:
        if WorldAt(x, Bottom()) not in seq.left:
            raise TranslationError("falsum leaf lost its labelled evidence")
        return LabelledDerivation("L-bot", (x,), seq, ())
    if d.rule == TOP_R:
        if WorldAt(x, TOP) not in seq.right:
            raise TranslationError("verum leaf lost its labelled evidence")
        return LabelledDerivation("R-top", (x,), seq, ())
    (f,) = d.principal
    return _close(seq, x, f, labels)


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
        if WorldAt(x, f) in seq.left and WorldAt(x, f) in seq.right:
            return LabelledDerivation("init", (x, f), seq, ())
        raise TranslationError("atomic leaf lost its labelled evidence")
    if isinstance(f, Top):
        if WorldAt(x, f) in seq.right:
            return LabelledDerivation("R-top", (x,), seq, ())
        raise TranslationError("verum support vanished")
    if isinstance(f, Bottom):
        if WorldAt(x, f) in seq.left:
            return LabelledDerivation("L-bot", (x,), seq, ())
        raise TranslationError("falsum support vanished")
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
            return _chain([("L-box", (x, f, a))], seq, lambda s: _close(s, x, f, labels))
        t = _box_support(seq, x, f.body)
        if t is None or WorldAt(x, f) not in seq.right:
            raise TranslationError("boxed leaf lost its labelled evidence")
        body = f.body

        def inside(y: str, s: LabelledSequent) -> LabelledDerivation:
            return _chain([("L-forall", (y, t, body))], s, lambda s2: _close(s2, y, body, labels))

        def outside(z: str, s: LabelledSequent) -> LabelledDerivation:
            return _chain([("R-exists", (z, t, body))], s, lambda s2: _close(s2, z, body, labels))

        return _box_right(seq, t, x, f, labels, inside, outside)
    raise TranslationError(f"cannot close a leaf on {f!r}")


# --- checking ---------------------------------------------------------------


_AXIOMS = frozenset({"init", "L-bot", "R-top", "M", "tau-empty"})


def _labelled_premisses(node: LabelledDerivation, logic: LogicSpec | None):
    out = _rule_premisses(node.rule, node.principal, node.conclusion, logic)
    if node.rule in _AXIOMS and node.children and not isinstance(out, str):
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
