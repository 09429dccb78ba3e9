"""Propositional modal formulas: syntax trees, parsing, printing, measures.

The surface language has atoms, the constants ``true`` and ``false``, the
binary connectives ``&``, ``|``, ``->``, ``<->``, negation ``~``, and the
modality ``box`` (also spelled ``[]``) with its dual ``dia`` (``<>``).
Negation, biconditional, and the diamond are sugar and are eliminated at
parse time: ``~A`` becomes ``A -> false``, ``A <-> B`` becomes the
conjunction of both implications, and ``dia A`` becomes ``~box ~A``.

Formulas, and the blocks, sequents and hypersequents made of them, are
interned: building one returns the one live value of that structure, so
``==`` and ``hash`` are identity. So are the neighbourhood terms,
labelled formulas and labelled sequents of the labelled calculi. The
intern table holds values weakly, and what is derived from a value is
kept on it (``derived``), so both go when the value does.

The lexer is one pattern, ``_TOKEN``: after whitespace, a punctuation
mark (longest first), a word, or any other character, which is an error.
``_KINDS`` gives the kind of each mark and keyword; any other word is an
atom, which must start with a lowercase letter. Whitespace and word
characters are those of ``str.isspace`` and ``str.isalnum`` or ``_``.

A formula's text is one of those derived values. It is set when the
formula is built, from its operands' texts, so printing a formula reads
a field, and no formula is rendered twice or by recursion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
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
    _computes: dict = {}  # derived field name -> compute function, set by ``syntax``

    def __getattr__(self, name: str):
        # Reached only for a missing attribute, as a derived field is until first use.
        compute = type(self)._computes.get(name)
        if compute is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = compute(self)
        object.__setattr__(self, name, value)
        return value

    def __reduce__(self):  # copy and pickle rebuild through the class, so find the live value
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def syntax(cls):
    """Make cls an interned frozen dataclass, and give it, once, the map
    from each derived field to its compute function."""
    cls = dataclass(frozen=True, slots=True, eq=False)(cls)
    cls._computes = {f.name: f.metadata["compute"] for f in fields(cls) if "compute" in f.metadata}
    return cls


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


# Binding strengths: an operand that binds more loosely than its place
# asks is parenthesized.
_PREC_IMP = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4
_PREC_ATOM = 5


@syntax
class Formula(Syntax):
    """Base of the formula classes, with the values kept on each formula.

    The sort key puts atoms first (alphabetically), then the constants,
    then box, then the binary connectives (by ``_rank``); a compound key
    is its rank followed by the keys of its operands, one flat tuple: the
    formula in prefix order. A rank fixes its arity and an atom's key is
    ``(0, name)``, so no key is a prefix of another, and flat keys order
    as the nested keys ``(rank, *operand keys)`` would, while comparing
    two of them takes time linear in their length. The text (``to_text``) has the fewest
    parentheses the binding strengths (``_prec``) allow; ``_top_bar``
    says whether a ``|`` stands in it outside parentheses.
    """

    _sort_key: tuple = derived()
    _node_count: int = derived()
    _text: str = derived()
    _top_bar: bool = derived()
    _prec = _PREC_ATOM  # atoms and the constants; each connective sets its own

    def __post_init__(self):
        parts = operands(self)
        key = (0, self.name) if isinstance(self, Atom) else sum(map(sort_key, parts), (self._rank,))
        object.__setattr__(self, "_sort_key", key)
        object.__setattr__(self, "_node_count", 1 + sum(map(node_count, parts)))
        text, top_bar = _show(self, parts)
        object.__setattr__(self, "_text", text)
        object.__setattr__(self, "_top_bar", top_bar)


@syntax
class Atom(Formula):
    name: str


@syntax
class Bottom(Formula):
    _rank = 1
    _word = "false"


@syntax
class Top(Formula):
    _rank = 2
    _word = "true"


@syntax
class And(Formula):
    left: Formula
    right: Formula
    _rank = 4
    _prec = _PREC_AND
    _infix = " & "


@syntax
class Or(Formula):
    left: Formula
    right: Formula
    _rank = 5
    _prec = _PREC_OR
    _infix = " | "


@syntax
class Imp(Formula):
    left: Formula
    right: Formula
    _rank = 6
    _prec = _PREC_IMP  # a negation, ``A -> false``, binds as unary: see _binding
    _infix = " -> "


@syntax
class Box(Formula):
    body: Formula
    _rank = 3
    _prec = _PREC_UNARY


def _binding(f: Formula) -> int:
    return _PREC_UNARY if isinstance(f, Imp) and isinstance(f.right, Bottom) else f._prec


def _operand(f: Formula, level: int) -> tuple[str, bool]:
    """The text of f in a place that asks for binding strength ``level``,
    and whether a ``|`` stands in it outside parentheses."""
    if _binding(f) >= level:
        return f._text, f._top_bar
    return f"({f._text})", False


def _show(f: Formula, parts: tuple[Formula, ...]) -> tuple[str, bool]:
    """The text of f from its operands' texts, and whether a ``|`` stands
    in it outside parentheses. ``&`` and ``|`` group to the left, ``->``
    to the right."""
    if isinstance(f, Atom):
        return f.name, False
    if not parts:
        return f._word, False
    if isinstance(f, Box):
        return "box " + _operand(parts[0], _PREC_UNARY)[0], False
    left, right = parts
    if isinstance(f, Imp):
        if isinstance(right, Bottom):
            return "~" + _operand(left, _PREC_UNARY)[0], False
        (lt, lbar), (rt, rbar) = _operand(left, _PREC_IMP + 1), _operand(right, _PREC_IMP)
    else:
        (lt, lbar), (rt, rbar) = _operand(left, f._prec), _operand(right, f._prec + 1)
    return lt + f._infix + rt, lbar or rbar or isinstance(f, Or)


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
    return subformula_closure((f,))


def subformula_closure(fs) -> frozenset[Formula]:
    """The subformula-closed set generated by the formulas ``fs``, walked
    from an explicit stack, so no depth of nesting overflows it."""
    out: set[Formula] = set()
    stack = list(fs)
    while stack:
        f = stack.pop()
        if f not in out:
            out.add(f)
            stack.extend(operands(f))
    return frozenset(out)


class ParseError(ValueError):
    """Raised on malformed input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(?:(<->|<>|=>|->|\[\]|[()&|~,<>])|(\w+)|(\S))")
_KINDS = {
    "<->": "iff", "<>": "dia", "=>": "seq", "->": "imp", "[]": "box", "(": "lparen", ")": "rparen",
    "&": "and", "|": "or", "~": "neg", ",": "comma", "<": "langle", ">": "rangle",
    "true": "true", "false": "false", "box": "box", "dia": "dia",
}
_PREFIX = {"neg": neg, "box": Box, "dia": dia}
_CONSTANTS = {"true": TOP, "false": BOTTOM}


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    """Shared lexer for formulas and for the sequent notation around them."""
    toks: list[Token] = []
    for m in _TOKEN.finditer(text):
        lexeme, pos = m[m.lastindex], m.start(m.lastindex)
        kind = _KINDS.get(lexeme)
        if kind is None:
            if m.lastindex == 3 or not lexeme[0].isalpha():
                raise ParseError(f"unexpected character {lexeme[0]!r}", pos)
            if not lexeme[0].islower():
                raise ParseError(f"atom must start lowercase: {lexeme!r}", pos)
            kind = "ident"
        toks.append(Token(kind, lexeme, pos))
    toks.append(Token("end", "", len(text)))
    return toks


class Parser:
    """Recursive descent over the tokens of a text, lowest precedence
    first. A ``|`` at a token index in ``stops`` ends the formula before
    it rather than joining a disjunct: the hypersequent reader passes the
    bars that separate components."""

    def __init__(self, tokens: list[Token], stops=frozenset()):
        self.tokens = tokens
        self.stops = stops
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def skip(self, kind: str) -> bool:
        """Take the next token if it is of this kind."""
        if self.tokens[self.i].kind == kind:
            self.i += 1
            return True
        return False

    def at_stop(self) -> bool:
        """Whether the next token ends the part being read: the end of
        the text or a bar in ``stops``."""
        return self.tokens[self.i].kind == "end" or self.i in self.stops

    def fail(self, message: str, t: Token | None = None):
        """Raise a ParseError at t, by default the next token."""
        t = t or self.peek()
        raise ParseError(f"{message}, found {t.text or 'end'!r}", t.pos)

    def formula(self) -> Formula:
        f = self.implication()
        while self.skip("iff"):
            g = self.implication()
            f = And(Imp(f, g), Imp(g, f))
        return f

    def implication(self) -> Formula:
        f = self.disjunction()
        if self.skip("imp"):
            return Imp(f, self.implication())
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().kind == "or" and self.i not in self.stops:
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.skip("and"):
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        t = self.take()
        if t.kind in _PREFIX:
            return _PREFIX[t.kind](self.unary())
        if t.kind in _CONSTANTS:
            return _CONSTANTS[t.kind]
        if t.kind == "ident":
            return Atom(t.text)
        if t.kind == "lparen":
            f = self.formula()
            if not self.skip("rparen"):
                self.fail("expected ')'")
            return f
        self.fail("expected a formula", t)


def parse(text: str) -> Formula:
    p = Parser(tokenize(text))
    try:
        f = p.formula()
    except RecursionError:
        raise ParseError("nested too deeply", 0) from None
    if not p.at_stop():
        t = p.peek()
        raise ParseError(f"unexpected {t.text!r} after formula", t.pos)
    return f


def to_text(f: Formula) -> str:
    """Minimal-parentheses rendering; ``parse(to_text(f)) == f``."""
    return f._text
