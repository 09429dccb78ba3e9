"""Formula syntax: parsing, printing, measures, and the structural order."""

import re

import pytest
from hypothesis import given

from conftest import formulas
from nnml.formula import (
    And,
    Atom,
    BOTTOM,
    Bottom,
    Box,
    Imp,
    Or,
    ParseError,
    TOP,
    Top,
    dia,
    neg,
    node_count,
    operands,
    parse,
    sort_key,
    subformula_closure,
    subformulas,
    to_text,
)
from nnml.hypersequent import Hypersequent, Sequent, render_hypersequent

p, q, r = Atom("p"), Atom("q"), Atom("r")


def _nested_key(f):
    """The reference order: the rank, then each operand's nested key."""
    return (0, f.name) if isinstance(f, Atom) else (f._rank, *map(_nested_key, operands(f)))


class TestParse:
    def test_atoms_and_constants(self):
        assert parse("p") == p
        assert parse("true") == TOP
        assert parse("false") == BOTTOM

    def test_precedence_chain(self):
        # and binds tighter than or, or tighter than ->
        assert parse("p & q | r -> p") == Imp(Or(And(p, q), r), p)

    def test_implication_is_right_associative(self):
        assert parse("p -> q -> r") == Imp(p, Imp(q, r))

    def test_and_or_are_left_associative(self):
        assert parse("p & q & r") == And(And(p, q), r)
        assert parse("p | q | r") == Or(Or(p, q), r)

    def test_box_binds_tighter_than_and(self):
        assert parse("box p & q") == And(Box(p), q)
        assert parse("box (p & q)") == Box(And(p, q))

    def test_box_alternate_spelling(self):
        assert parse("[] p") == Box(p)
        assert parse("box box p") == Box(Box(p))

    def test_negation_is_implication_into_falsum(self):
        assert parse("~p") == Imp(p, BOTTOM)
        assert parse("~~p") == Imp(Imp(p, BOTTOM), BOTTOM)
        assert parse("~p & q") == And(Imp(p, BOTTOM), q)

    def test_diamond_is_negated_box_of_negation(self):
        assert parse("dia p") == Imp(Box(Imp(p, BOTTOM)), BOTTOM)
        assert parse("<> p") == parse("dia p")

    def test_biconditional_expands_to_both_implications(self):
        assert parse("p <-> q") == And(Imp(p, q), Imp(q, p))

    def test_parentheses(self):
        assert parse("(p -> q) -> r") == Imp(Imp(p, q), r)

    @pytest.mark.parametrize(
        "bad",
        ["", "p &", "(p", "p)", "box", "p q", "&", "p -> ", "P", "<p>"],
    )
    def test_malformed_input_raises(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_reserved_words_are_not_atoms(self):
        assert parse("truely") == Atom("truely")
        with pytest.raises(ParseError):
            parse("box & p")

    def test_deep_nesting(self):
        assert parse("(" * 150 + "p" + ")" * 150) == p
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("(" * 200 + "p" + ")" * 200)

    def test_non_ascii_letters_digits_and_whitespace(self):
        assert parse("p\u0661 &\u3000q_\u00e9") == And(Atom("p\u0661"), Atom("q_\u00e9"))
        assert parse("\u2003p\u00a0\n") == p
        for bad, position in (("\u0661p", 0), ("p & \u00b2", 4), ("p &\x00 q", 3), ("_p", 0)):
            with pytest.raises(ParseError, match="unexpected character") as err:
                parse(bad)
            assert err.value.position == position
        with pytest.raises(ParseError, match="lowercase"):
            parse("\u00c9")

    def test_word_and_space_characters_are_those_of_str(self):
        # The lexer's pattern reads words by \w and skips \s; in every
        # script these are the characters str.isalnum (or _) and
        # str.isspace accept.
        chars = "".join(map(chr, range(0x110000)))
        assert re.findall(r"\w", chars) == [c for c in chars if c.isalnum() or c == "_"]
        assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("p & ?")
        assert err.value.position == 4


class TestRender:
    def test_minimal_parentheses(self):
        assert to_text(Imp(Box(And(p, q)), Box(p))) == "box (p & q) -> box p"
        assert to_text(Or(And(p, q), r)) == "p & q | r"
        assert to_text(And(p, Or(q, r))) == "p & (q | r)"

    def test_negation_sugar(self):
        assert to_text(neg(p)) == "~p"
        assert to_text(neg(And(p, q))) == "~(p & q)"
        assert to_text(neg(Box(p))) == "~box p"

    def test_right_nested_implication_needs_no_parens(self):
        assert to_text(Imp(p, Imp(q, r))) == "p -> q -> r"
        assert to_text(Imp(Imp(p, q), r)) == "(p -> q) -> r"

    @given(formulas)
    def test_round_trip(self, f):
        assert parse(to_text(f)) == f

    def test_deep_formulas_render_without_recursion(self):
        f = g = p
        for _ in range(3000):
            f, g = neg(f), Box(g)
        assert to_text(f) == "~" * 3000 + "p"
        assert to_text(g) == "box " * 3000 + "p"
        h = Hypersequent.of([Sequent.of([g], (), [g])])
        assert render_hypersequent(h) == f"{to_text(g)} => {to_text(g)}"


class TestMeasures:
    def test_node_count(self):
        assert node_count(p) == 1
        assert node_count(Imp(Box(And(p, q)), Box(p))) == 7

    @given(formulas)
    def test_subformulas_contains_self_and_is_closed(self, f):
        subs = subformulas(f)
        assert f in subs
        for g in subs:
            assert subformulas(g) <= subs

    @given(formulas)
    def test_subformula_count_bounded_by_nodes(self, f):
        assert len(subformulas(f)) <= node_count(f)

    def test_closure_of_several_roots(self):
        closed = subformula_closure([And(p, q), Box(p)])
        assert closed == {And(p, q), p, q, Box(p)}


class TestOrder:
    def test_atoms_sort_before_compounds(self):
        items = [Imp(p, q), Box(p), q, TOP, BOTTOM, p]
        ordered = sorted(items, key=sort_key)
        assert ordered == [p, q, BOTTOM, TOP, Box(p), Imp(p, q)]

    @given(formulas, formulas)
    def test_key_equality_is_formula_equality(self, f, g):
        assert (sort_key(f) == sort_key(g)) == (f == g)

    @given(formulas, formulas, formulas)
    def test_flat_keys_order_as_nested_keys(self, f, g, h):
        # Pairs that share a prefix, so that comparisons reach deep.
        items = [f, g, And(h, f), And(h, g), Imp(f, h), Imp(g, h), Box(f), Box(g)]
        for a in items:
            for b in items:
                ka, kb, na, nb = sort_key(a), sort_key(b), _nested_key(a), _nested_key(b)
                assert (ka < kb, ka == kb) == (na < nb, na == nb)
                assert (ka == kb) == (a is b)

    @given(formulas, formulas, formulas)
    def test_key_gives_total_order(self, f, g, h):
        keys = sorted([sort_key(f), sort_key(g), sort_key(h)])
        assert keys[0] <= keys[1] <= keys[2]
