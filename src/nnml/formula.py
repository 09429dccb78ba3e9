"""Propositional modal formulas: syntax trees, parsing, printing, measures.

The surface language has atoms, the constants ``true`` and ``false``, the
binary connectives ``&``, ``|``, ``->``, ``<->``, negation ``~``, and the
modality ``box`` (also spelled ``[]``) with its dual ``dia`` (``<>``).
Negation, biconditional, and the diamond are sugar and are eliminated at
parse time: ``~A`` becomes ``A -> false``, ``A <-> B`` becomes the
conjunction of both implications, and ``dia A`` becomes ``~box ~A``.

Formulas, and the blocks, sequents and hypersequents made of them, are
interned: building one returns the one live value of that structure, so
``==`` and ``hash`` are identity. The intern table holds values weakly,
and what is derived from a value is kept on it (``derived``), so both go
when the value does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from weakref import ref


_LIVE: dict[tuple, ref] = {}


class Interned(type):
    """Metaclass of ``Syntax``: calling a class returns the live value with
    those fields, and builds one only when there is none."""

    def __call__(cls, *args, **kwargs):
        if kwargs:  # fields by keyword, as dataclasses.replace passes them
            args = super().__call__(*args, **kwargs).__reduce__()[1]
        key = (cls, *args)
        r = _LIVE.get(key)
        obj = None if r is None else r()
        if obj is None:
            obj = super().__call__(*args)
            # The entry goes when obj does, unless a new value holds it by then.
            _LIVE[key] = ref(obj, lambda r, key=key: _LIVE.get(key) is r and _LIVE.pop(key))
        return obj


class Syntax(metaclass=Interned):
    """Base of the interned classes, frozen dataclasses made by ``syntax``
    that keep the identity ``==`` and ``hash`` of ``object``."""

    __slots__ = ("__weakref__",)

    def __getattr__(self, name: str):
        # Reached only for a missing attribute, as a derived field is until first use.
        f = type(self).__dataclass_fields__.get(name)
        if f is None or "compute" not in f.metadata:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = f.metadata["compute"](self)
        object.__setattr__(self, name, value)
        return value

    def __reduce__(self):  # copy and pickle rebuild through the class, so find the live value
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


syntax = dataclass(frozen=True, slots=True, eq=False)


def derived(compute=None):
    """A field for a value derived from the others: ``compute(value)`` on
    first use, or else set by ``__post_init__``."""
    return field(init=False, repr=False, metadata={"compute": compute} if compute else {})


# The total structural order used to canonicalize every multiset downstream.
sort_key = attrgetter("_sort_key")

# The number of syntax-tree nodes; the size measure for complexity bounds.
node_count = attrgetter("_node_count")


def operands(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas."""
    return () if isinstance(f, Atom) else tuple(map(f.__getattribute__, f.__match_args__))


@syntax
class Formula(Syntax):
    """Base of the formula classes, with the values kept on each formula.

    The sort key puts atoms first (alphabetically), then the constants,
    then box, then the binary connectives (by ``_rank``); a compound key
    holds the keys of the operands.
    """

    _sort_key: tuple = derived()
    _node_count: int = derived()
    # The formula itself is left out: a value kept on a formula that
    # refers back to it would keep it alive after its last use.
    _proper_subformulas: frozenset[Formula] = derived(
        lambda f: frozenset().union(*map(subformulas, operands(f)))
    )

    def __post_init__(self):
        parts = operands(self)
        key = (0, self.name) if isinstance(self, Atom) else (self._rank, *map(sort_key, parts))
        object.__setattr__(self, "_sort_key", key)
        object.__setattr__(self, "_node_count", 1 + sum(map(node_count, parts)))


@syntax
class Atom(Formula):
    name: str


@syntax
class Bottom(Formula):
    _rank = 1


@syntax
class Top(Formula):
    _rank = 2


@syntax
class And(Formula):
    left: Formula
    right: Formula
    _rank = 4


@syntax
class Or(Formula):
    left: Formula
    right: Formula
    _rank = 5


@syntax
class Imp(Formula):
    left: Formula
    right: Formula
    _rank = 6


@syntax
class Box(Formula):
    body: Formula
    _rank = 3


BOTTOM = Bottom()
TOP = Top()

def neg(f: Formula) -> Formula:
    """Negation as implication into falsum."""
    return Imp(f, BOTTOM)


def dia(f: Formula) -> Formula:
    """Possibility as the classical dual of box."""
    return neg(Box(neg(f)))


def subformulas(f: Formula) -> frozenset[Formula]:
    """The subformula-closed set generated by ``f``, including ``f``."""
    return f._proper_subformulas | {f}


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


def modal_depth(f: Formula) -> int:
    match f:
        case Atom() | Bottom() | Top():
            return 0
        case Box(body):
            return modal_depth(body) + 1
        case And(left, right) | Or(left, right) | Imp(left, right):
            return max(modal_depth(left), modal_depth(right))
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
