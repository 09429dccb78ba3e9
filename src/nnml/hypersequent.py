"""Blocks, sequents, and hypersequents as canonically ordered multisets.

A block ``<A1, ..., An>`` is a multiset of formulas standing for the
boxed conjunction of its members; blocks live only in antecedents. A
sequent pairs an antecedent (formulas and blocks) with a succedent. A
hypersequent is a nonempty tuple of sequents, its components; component
n is the n-th, counting from 1, and countermodels name it world n.

Text syntax: components are separated by ``|``, antecedent items by
commas, blocks written ``<A, B>``, and the two sides split by ``=>``.
Disjunctions rendered inside a sequent are parenthesized so that the
component separator stays unambiguous.

The reader is the formula parser (``formula.Parser``), told which bars
separate components. The tokens are cut at each ``|`` outside
parentheses and blocks, where a ``<`` opens a block only at the start of
an antecedent item: at the start of the text, or after ``,``, ``|`` or
``=>``. A cut separates components exactly when ``=>`` stands both in
the segment after it and in some segment before it; any other ``|`` is
a disjunction, so ``=> p | q | r => p`` has the components ``=> p | q``
and ``r => p``. One function then reads each component: antecedent
formulas and blocks, ``=>``, and the succedent formulas, each formula up
to the next comma, ``=>`` or separating bar.

Blocks, sequents and hypersequents are interned like formulas (see
``formula.Syntax``), so equal ones are one object. What is derived
from a block or sequent is kept on it. A sequent's
antecedent and succedent sets are made when it is built, as every
visited goal reads them. The rest is computed on first use: a block's
sort key, and a sequent's block member sets, its formulas grouped by
side and connective, which give the principals of rule instances, its
sort key, which orders components in lean search, its node count and
number of formula occurrences, which search statistics read, and its
text. So a hypersequent's text joins texts made once per sequent, from
texts made once per formula.
"""

from __future__ import annotations

from operator import attrgetter

from .formula import (
    And,
    Bottom,
    Formula,
    Imp,
    Or,
    ParseError,
    Box,
    Syntax,
    Parser,
    Token,
    TOP,
    derived,
    node_count,
    parse,
    sort_key,
    syntax,
    tokenize,
)


@syntax
class Block(Syntax):
    members: tuple[Formula, ...]
    _key: tuple = derived(lambda b: tuple(map(sort_key, b.members)))

    @staticmethod
    def of(items) -> "Block":
        members = tuple(sorted(items, key=sort_key))
        if not members:
            raise ValueError("blocks are nonempty")
        return Block(members)

    def member_set(self) -> frozenset[Formula]:
        return frozenset(self.members)

    def merged(self, other: "Block") -> "Block":
        return Block.of(self.members + other.members)


block_key = attrgetter("_key")


def _group_by_connective(s: Sequent) -> dict[tuple[str, type], list[tuple[Formula]]]:
    """(side, connective) -> the distinct formulas of s there, in sequent
    order, each as a one-item principal. Callers only read it."""
    out: dict[tuple[str, type], list[tuple[Formula]]] = {}
    for side, formulas in (("left", s.left), ("right", s.right)):
        for f in dict.fromkeys(formulas):
            out.setdefault((side, type(f)), []).append((f,))
    return out


_NO_FORMULAS: frozenset = frozenset()


@syntax
class Sequent(Syntax):
    left: tuple[Formula, ...]
    blocks: tuple[Block, ...]
    right: tuple[Formula, ...]
    _left_set: frozenset[Formula] = derived()
    _right_set: frozenset[Formula] = derived()
    _block_sets: tuple[frozenset[Formula], ...] = derived(lambda s: tuple(map(Block.member_set, s.blocks)))
    _key: tuple = derived(
        lambda s: (tuple(map(sort_key, s.left)), tuple(map(block_key, s.blocks)), tuple(map(sort_key, s.right)))
    )
    _by_connective: dict = derived(_group_by_connective)
    _nodes: int = derived(
        lambda s: sum(map(node_count, s.left)) + sum(map(node_count, s.right))
        + sum(node_count(f) for b in s.blocks for f in b.members)
    )
    _size: int = derived(lambda s: len(s.left) + len(s.right) + sum(len(b.members) for b in s.blocks))
    _text: str = derived(
        lambda s: join_sides([*map(_item_text, s.left), *map(render_block, s.blocks)], map(_item_text, s.right))
    )

    def __post_init__(self):
        # Every visited goal reads both sets of each component, so they are
        # set here rather than on first use; an empty side shares one set.
        object.__setattr__(self, "_left_set", frozenset(self.left) if self.left else _NO_FORMULAS)
        object.__setattr__(self, "_right_set", frozenset(self.right) if self.right else _NO_FORMULAS)

    @staticmethod
    def of(left=(), blocks=(), right=()) -> "Sequent":
        return Sequent(
            tuple(sorted(left, key=sort_key)),
            tuple(sorted(blocks, key=block_key)),
            tuple(sorted(right, key=sort_key)),
        )

    def adding(self, left=(), blocks=(), right=()) -> "Sequent":
        return Sequent.of(self.left + tuple(left), self.blocks + tuple(blocks), self.right + tuple(right))


left_set = attrgetter("_left_set")
right_set = attrgetter("_right_set")
block_sets = attrgetter("_block_sets")
sequent_key = attrgetter("_key")
by_connective = attrgetter("_by_connective")

# Total formula-node count, the size measure for complexity bounds.
sequent_nodes = attrgetter("_nodes")

# The number of formula occurrences, block members included.
sequent_size = attrgetter("_size")


@syntax
class Hypersequent(Syntax):
    components: tuple[Sequent, ...]

    @staticmethod
    def of(sequents) -> "Hypersequent":
        comps = tuple(sequents)
        if not comps:
            raise ValueError("hypersequents are nonempty")
        return Hypersequent(comps)

    def component(self, n: int) -> Sequent:
        """The n-th component, counting from 1; KeyError for any other n."""
        if not 0 < n <= len(self.components):
            raise KeyError(f"no component {n}")
        return self.components[n - 1]

    def replace(self, n: int, seq: Sequent) -> "Hypersequent":
        comps = self.components
        return Hypersequent(comps[: n - 1] + (seq,) + comps[n:])

    def with_new_component(self, seq: Sequent) -> "Hypersequent":
        return Hypersequent(self.components + (seq,))


def conjunction(fs) -> Formula:
    items = list(fs)
    if not items:
        return TOP
    out = items[-1]
    for f in reversed(items[:-1]):
        out = And(f, out)
    return out


def disjunction(fs) -> Formula:
    items = list(fs)
    if not items:
        return Bottom()
    out = items[-1]
    for f in reversed(items[:-1]):
        out = Or(f, out)
    return out


def assumptions(s: Sequent) -> list[Formula]:
    """The formulas a sequent asserts on the left: its left formulas, then
    each block read as the boxed conjunction of its members."""
    return [*s.left, *(Box(conjunction(b.members)) for b in s.blocks)]


def interpret(s: Sequent) -> Formula:
    """The formula a sequent asserts: its conjoined assumptions implying
    the disjoined succedent."""
    return Imp(conjunction(assumptions(s)), disjunction(s.right))


def _item_text(f: Formula) -> str:
    """A formula's text as a sequent item, parenthesized when a ``|`` in it
    would read as the component separator."""
    return f"({f._text})" if f._top_bar else f._text


def render_block(b: Block) -> str:
    return "<" + ", ".join(map(_item_text, b.members)) + ">"


def join_sides(left, right) -> str:
    """The text ``left => right`` of a sequent of either calculus, from
    the texts of the items on each side."""
    left = ", ".join(left)
    right = ", ".join(right)
    if left:
        return f"{left} => {right}" if right else f"{left} =>"
    return f"=> {right}" if right else "=>"


def render_hypersequent(h: Hypersequent) -> str:
    return " | ".join([s._text for s in h.components])


def _separators(tokens: list[Token]) -> set[int]:
    """The indices of the ``|`` tokens that separate components (see the
    module docstring)."""
    depth = blocks = 0
    prev = "comma"  # a block may open at the start
    bars: list[int] = []
    arrows = [False]  # whether each segment between cuts has a =>
    for i, t in enumerate(tokens):
        kind = t.kind
        if kind == "lparen":
            depth += 1
        elif kind == "rparen":
            depth -= 1
        elif kind == "langle" and prev in ("comma", "or", "seq"):
            blocks += 1
        elif kind == "rangle" and blocks:
            blocks -= 1
        elif kind == "or" and not depth and not blocks:
            bars.append(i)
            arrows.append(False)
        elif kind == "seq":
            arrows[-1] = True
        prev = kind
    first = arrows.index(True) if True in arrows else len(bars)
    return {bar for n, bar in enumerate(bars) if n >= first and arrows[n + 1]}


def _items(p: Parser, read) -> list:
    """The comma-separated items of one side, each read by ``read``; none
    when the side is empty."""
    if p.at_stop() or p.peek().kind == "seq":
        return []
    items = [read(p)]
    while p.skip("comma"):
        items.append(read(p))
    return items


def _antecedent_item(p: Parser) -> Formula | Block:
    if not p.skip("langle"):
        return p.formula()
    if p.peek().kind == "rangle":
        raise ParseError("blocks are nonempty", p.peek().pos)
    members = [p.formula()]
    while p.skip("comma"):
        members.append(p.formula())
    if not p.skip("rangle"):
        raise ParseError("malformed block", p.peek().pos)
    return Block.of(members)


def _component(p: Parser) -> Sequent:
    """One component: antecedent formulas and blocks, ``=>``, then the
    succedent formulas, up to the end or a separating ``|``."""
    ante = _items(p, _antecedent_item)
    if not p.skip("seq"):
        if p.at_stop():
            raise ParseError("not a sequent (missing =>)", p.peek().pos)
        p.fail("expected ',' or '=>'")
    right = _items(p, Parser.formula)
    if not p.at_stop():
        if p.peek().kind == "seq":
            raise ParseError("a sequent needs exactly one =>", p.peek().pos)
        p.fail("expected ',' or '|'")
    left = [f for f in ante if not isinstance(f, Block)]
    return Sequent.of(left, [b for b in ante if isinstance(b, Block)], right)


def parse_hypersequent(text: str) -> Hypersequent:
    """Parse hypersequent notation (see the module docstring)."""
    tokens = tokenize(text)
    p = Parser(tokens, _separators(tokens))
    try:
        components = [_component(p)]
        while p.skip("or"):  # a separator: _component stops only there
            components.append(_component(p))
    except RecursionError:
        raise ParseError("nested too deeply", 0) from None
    return Hypersequent.of(components)


def parse_input(text: str) -> Hypersequent:
    """Accept either hypersequent notation or a bare formula ``f``, the
    latter read as the single-component sequent ``=> f``."""
    if "=>" not in text:
        return Hypersequent.of([Sequent.of((), (), (parse(text),))])
    return parse_hypersequent(text)
