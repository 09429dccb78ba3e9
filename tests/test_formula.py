"""Formula syntax: parsing, printing, measures, and the structural order."""

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
    modal_depth,
    neg,
    node_count,
    parse,
    sort_key,
    subformula_closure,
    subformulas,
    to_text,
    weight,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")


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


class TestMeasures:
    def test_weight_counts_box_twice(self):
        assert weight(p) == 0
        assert weight(Box(p)) == 2
        assert weight(And(p, q)) == 1
        assert weight(Imp(Box(And(p, q)), Box(p))) == 6

    def test_node_count(self):
        assert node_count(p) == 1
        assert node_count(Imp(Box(And(p, q)), Box(p))) == 7

    def test_modal_depth(self):
        assert modal_depth(p) == 0
        assert modal_depth(Box(Box(p))) == 2
        assert modal_depth(And(Box(p), Box(Box(q)))) == 2

    @given(formulas)
    def test_weight_decreases_on_decomposition(self, f):
        if isinstance(f, (And, Or, Imp)):
            assert weight(f.left) < weight(f)
            assert weight(f.right) < weight(f)
        elif isinstance(f, Box):
            assert weight(f.body) < weight(f)

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
    def test_key_gives_total_order(self, f, g, h):
        keys = sorted([sort_key(f), sort_key(g), sort_key(h)])
        assert keys[0] <= keys[1] <= keys[2]
