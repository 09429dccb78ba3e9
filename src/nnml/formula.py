"""Propositional modal formulas: syntax trees, parsing, printing, measures.

The surface language has atoms, the constants ``true`` and ``false``, the
binary connectives ``&``, ``|``, ``->``, ``<->``, negation ``~``, and the
modality ``box`` (also spelled ``[]``) with its dual ``dia`` (``<>``).
Negation, biconditional, and the diamond are sugar and are eliminated at
parse time: ``~A`` becomes ``A -> false``, ``A <-> B`` becomes the
conjunction of both implications, and ``dia A`` becomes ``~box ~A``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache


@dataclass(frozen=True, slots=True)
class Atom:
    name: str


@dataclass(frozen=True, slots=True)
class Bottom:
    pass


@dataclass(frozen=True, slots=True)
class Top:
    pass


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Box:
    body: "Formula"


Formula = Atom | Bottom | Top | And | Or | Imp | Box

BOTTOM = Bottom()
TOP = Top()

RESERVED = frozenset({"true", "false", "box", "dia"})


def neg(f: Formula) -> Formula:
    """Negation as implication into falsum."""
    return Imp(f, BOTTOM)


def dia(f: Formula) -> Formula:
    """Possibility as the classical dual of box."""
    return neg(Box(neg(f)))


@cache
def sort_key(f: Formula) -> tuple:
    """Total structural order used to canonicalize every multiset downstream.

    Atoms come first (alphabetically), then the constants, then box, then
    the binary connectives; compound keys recurse on the operands.
    """
    match f:
        case Atom(name):
            return (0, name)
        case Bottom():
            return (1,)
        case Top():
            return (2,)
        case Box(body):
            return (3, sort_key(body))
        case And(left, right):
            return (4, sort_key(left), sort_key(right))
        case Or(left, right):
            return (5, sort_key(left), sort_key(right))
        case Imp(left, right):
            return (6, sort_key(left), sort_key(right))
    raise TypeError(f"not a formula: {f!r}")


@cache
def weight(f: Formula) -> int:
    """Termination measure: connectives count 1, box counts 2, leaves 0."""
    match f:
        case Atom() | Bottom() | Top():
            return 0
        case Box(body):
            return weight(body) + 2
        case And(left, right) | Or(left, right) | Imp(left, right):
            return weight(left) + weight(right) + 1
    raise TypeError(f"not a formula: {f!r}")


@cache
def node_count(f: Formula) -> int:
    """Number of syntax-tree nodes; the size measure for complexity bounds."""
    match f:
        case Atom() | Bottom() | Top():
            return 1
        case Box(body):
            return node_count(body) + 1
        case And(left, right) | Or(left, right) | Imp(left, right):
            return node_count(left) + node_count(right) + 1
    raise TypeError(f"not a formula: {f!r}")


@cache
def modal_depth(f: Formula) -> int:
    match f:
        case Atom() | Bottom() | Top():
            return 0
        case Box(body):
            return modal_depth(body) + 1
        case And(left, right) | Or(left, right) | Imp(left, right):
            return max(modal_depth(left), modal_depth(right))
    raise TypeError(f"not a formula: {f!r}")


@cache
def subformulas(f: Formula) -> frozenset[Formula]:
    """The subformula-closed set generated by ``f``, including ``f``."""
    match f:
        case Atom() | Bottom() | Top():
            return frozenset({f})
        case Box(body):
            return subformulas(body) | {f}
        case And(left, right) | Or(left, right) | Imp(left, right):
            return subformulas(left) | subformulas(right) | {f}
    raise TypeError(f"not a formula: {f!r}")


def subformula_closure(fs) -> frozenset[Formula]:
    out: frozenset[Formula] = frozenset()
    for f in fs:
        out |= subformulas(f)
    return out


class ParseError(ValueError):
    """Raised on malformed input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Token kinds: ident true false box dia lparen rparen and or imp iff neg
# comma langle rangle seq end
_PUNCT = (
    ("<->", "iff"),
    ("<>", "dia"),
    ("=>", "seq"),
    ("->", "imp"),
    ("[]", "box"),
    ("(", "lparen"),
    (")", "rparen"),
    ("&", "and"),
    ("|", "or"),
    ("~", "neg"),
    (",", "comma"),
    ("<", "langle"),
    (">", "rangle"),
)

_KEYWORDS = {"true": "true", "false": "false", "box": "box", "dia": "dia"}


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    """Shared lexer for formulas and for the sequent notation around them."""
    toks: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = _KEYWORDS.get(word)
            if kind is None:
                if not word[0].islower():
                    raise ParseError(f"atom must start lowercase: {word!r}", i)
                kind = "ident"
            toks.append(Token(kind, word, i))
            i = j
            continue
        for lit, kind in _PUNCT:
            if text.startswith(lit, i):
                toks.append(Token(kind, lit, i))
                i += len(lit)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    toks.append(Token("end", "", n))
    return toks


class _FormulaParser:
    """Recursive descent over a token slice, lowest precedence first."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.text or 'end'!r}", t.pos)
        return self.take()

    def formula(self) -> Formula:
        f = self.implication()
        while self.peek().kind == "iff":
            self.take()
            g = self.implication()
            f = And(Imp(f, g), Imp(g, f))
        return f

    def implication(self) -> Formula:
        f = self.disjunction()
        if self.peek().kind == "imp":
            self.take()
            return Imp(f, self.implication())
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().kind == "or":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "and":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        t = self.peek()
        if t.kind == "neg":
            self.take()
            return neg(self.unary())
        if t.kind == "box":
            self.take()
            return Box(self.unary())
        if t.kind == "dia":
            self.take()
            return dia(self.unary())
        if t.kind == "true":
            self.take()
            return TOP
        if t.kind == "false":
            self.take()
            return BOTTOM
        if t.kind == "ident":
            self.take()
            return Atom(t.text)
        if t.kind == "lparen":
            self.take()
            f = self.formula()
            self.expect("rparen")
            return f
        raise ParseError(f"expected a formula, found {t.text or 'end'!r}", t.pos)


def parse_formula_tokens(tokens: list[Token]) -> Formula:
    """Parse a token slice that must hold exactly one formula."""
    if not tokens or tokens[-1].kind != "end":
        tokens = list(tokens) + [Token("end", "", tokens[-1].pos + 1 if tokens else 0)]
    p = _FormulaParser(tokens)
    f = p.formula()
    leftover = p.peek()
    if leftover.kind != "end":
        raise ParseError(f"unexpected {leftover.text!r} after formula", leftover.pos)
    return f


def parse(text: str) -> Formula:
    try:
        return parse_formula_tokens(tokenize(text))
    except RecursionError:
        raise ParseError("nested too deeply", 0) from None


_PREC_IMP = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4


def _render(f: Formula, level: int) -> str:
    match f:
        case Atom(name):
            return name
        case Bottom():
            return "false"
        case Top():
            return "true"
        case Imp(left, Bottom()):
            s = "~" + _render(left, _PREC_UNARY)
            return s if level <= _PREC_UNARY else f"({s})"
        case Box(body):
            s = "box " + _render(body, _PREC_UNARY)
            return s if level <= _PREC_UNARY else f"({s})"
        case And(left, right):
            s = _render(left, _PREC_AND) + " & " + _render(right, _PREC_AND + 1)
            return s if level <= _PREC_AND else f"({s})"
        case Or(left, right):
            s = _render(left, _PREC_OR) + " | " + _render(right, _PREC_OR + 1)
            return s if level <= _PREC_OR else f"({s})"
        case Imp(left, right):
            s = _render(left, _PREC_IMP + 1) + " -> " + _render(right, _PREC_IMP)
            return s if level <= _PREC_IMP else f"({s})"
    raise TypeError(f"not a formula: {f!r}")


def to_text(f: Formula) -> str:
    """Minimal-parentheses rendering; ``parse(to_text(f)) == f``."""
    return _render(f, 0)
