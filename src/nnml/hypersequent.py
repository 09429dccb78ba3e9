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
    Token,
    TOP,
    derived,
    node_count,
    parse_formula_tokens,
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


def interpret(s: Sequent) -> Formula:
    """The formula a sequent asserts: conjoined antecedent (blocks read as
    boxed conjunctions) implying the disjoined succedent."""
    ante = list(s.left) + [Box(conjunction(b.members)) for b in s.blocks]
    return Imp(conjunction(ante), disjunction(s.right))


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


def _split_top_level(tokens: list[Token], kind: str) -> list[list[Token]]:
    """Split a token list on a delimiter kind at bracket depth zero.

    Parentheses always nest. An angle bracket opens a block only at the
    start of an antecedent item, which keeps it distinct from the ``<->``
    and ``<>`` operators the lexer already folded into single tokens.
    """
    parts: list[list[Token]] = [[]]
    depth = 0
    block_depth = 0
    prev_kind = None
    for t in tokens:
        if t.kind == "end":
            continue
        if t.kind == "lparen":
            depth += 1
        elif t.kind == "rparen":
            depth -= 1
        elif t.kind == "langle" and prev_kind in (None, "comma", "or", "seq"):
            block_depth += 1
        elif t.kind == "rangle" and block_depth > 0:
            block_depth -= 1
        elif t.kind == kind and depth == 0 and block_depth == 0:
            parts.append([])
            prev_kind = t.kind
            continue
        parts[-1].append(t)
        prev_kind = t.kind
    return parts


def _has_kind(tokens: list[Token], kind: str) -> bool:
    return any(t.kind == kind for t in tokens)


def _parse_block(tokens: list[Token]) -> Block:
    if not tokens or tokens[0].kind != "langle" or tokens[-1].kind != "rangle":
        raise ParseError("malformed block", tokens[0].pos if tokens else 0)
    inner = tokens[1:-1]
    if not inner:
        raise ParseError("blocks are nonempty", tokens[0].pos)
    members = [parse_formula_tokens(part) for part in _split_top_level(inner, "comma")]
    return Block.of(members)


def parse_sequent_tokens(tokens: list[Token]) -> Sequent:
    sides = _split_top_level(tokens, "seq")
    if len(sides) != 2:
        pos = tokens[0].pos if tokens else 0
        raise ParseError("a sequent needs exactly one =>", pos)
    ante_toks, succ_toks = sides
    left: list[Formula] = []
    blocks: list[Block] = []
    if any(t.kind != "end" for t in ante_toks):
        for item in _split_top_level(ante_toks, "comma"):
            if item and item[0].kind == "langle":
                blocks.append(_parse_block(item))
            else:
                left.append(parse_formula_tokens(item))
    right: list[Formula] = []
    if any(t.kind != "end" for t in succ_toks):
        right = [parse_formula_tokens(part) for part in _split_top_level(succ_toks, "comma")]
    return Sequent.of(left, blocks, right)


def parse_hypersequent(text: str) -> Hypersequent:
    """Parse hypersequent notation.

    Segments between top-level ``|`` that contain no ``=>`` belong to a
    neighbouring component (they are disjuncts of a formula), so they are
    rejoined before the per-component parse.
    """
    tokens = tokenize(text)
    segments = _split_top_level(tokens, "or")
    merged: list[list[Token]] = []
    pending: list[Token] | None = None
    for seg in segments:
        if pending is not None:
            seg = pending + [Token("or", "|", seg[0].pos if seg else 0)] + seg
            pending = None
        if _has_kind(seg, "seq"):
            merged.append(seg)
        elif merged:
            merged[-1] = merged[-1] + [Token("or", "|", seg[0].pos if seg else 0)] + seg
        else:
            pending = seg
    if pending is not None or not merged:
        raise ParseError("not a sequent (missing =>)", 0)
    return Hypersequent.of([parse_sequent_tokens(seg) for seg in merged])


def parse_input(text: str) -> Hypersequent:
    """Accept either hypersequent notation or a bare formula ``f``, the
    latter read as the single-component sequent ``=> f``."""
    if "=>" not in text:
        from .formula import parse

        return Hypersequent.of([Sequent.of((), (), (parse(text),))])
    try:
        return parse_hypersequent(text)
    except RecursionError:
        raise ParseError("nested too deeply", 0) from None
