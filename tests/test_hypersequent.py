"""Blocks, sequents, hypersequents: canonical order, notation, and the
interning they share with formulas."""

import gc
import re
import weakref

import pytest
from hypothesis import given

from conftest import rngs, small_formulas
from nnml.formula import And, Atom, BOTTOM, Box, Imp, Or, ParseError, TOP, node_count, parse, sort_key, subformulas, to_text
from nnml.gen import random_hypersequent
from nnml.hypersequent import (
    Block,
    Hypersequent,
    Sequent,
    block_sets,
    interpret,
    left_set,
    parse_hypersequent,
    parse_input,
    render_hypersequent,
    right_set,
    sequent_nodes,
    sequent_size,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestBlocks:
    def test_members_are_canonically_sorted(self):
        assert Block.of([q, p]) == Block.of([p, q])
        assert Block.of([q, p]).members == (p, q)

    def test_duplicates_are_kept(self):
        assert Block.of([p, p]).members == (p, p)
        assert Block.of([p, p]).member_set() == {p}

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            Block.of([])

    def test_merge_concatenates_multisets(self):
        merged = Block.of([p]).merged(Block.of([p, q]))
        assert merged.members == (p, p, q)


class TestSequents:
    def test_of_sorts_every_part(self):
        s = Sequent.of([q, p], [Block.of([r]), Block.of([p])], [TOP, BOTTOM])
        assert s.left == (p, q)
        assert s.blocks == (Block.of([p]), Block.of([r]))
        assert s.right == (BOTTOM, TOP)

    def test_adding_preserves_order(self):
        s = Sequent.of([q], [], [])
        assert s.adding(left=[p]).left == (p, q)

    def test_side_sets(self):
        s = Sequent.of([p, p], [Block.of([q])], [r])
        assert left_set(s) == {p}
        assert right_set(s) == {r}
        assert block_sets(s) == ({q},)

    def test_node_measure(self):
        s = Sequent.of([And(p, q)], [Block.of([p])], [Box(p)])
        assert sequent_nodes(s) == 3 + 1 + 2
        assert sequent_size(Sequent.of([p, p, q], [Block.of([p, q]), Block.of([r])], [r])) == 7

    @given(small_formulas)
    def test_items_with_a_bar_outside_parentheses_are_parenthesized(self, f):
        text, depth, bar = to_text(f), 0, False
        for ch in text:
            depth += (ch == "(") - (ch == ")")
            bar = bar or (ch == "|" and depth == 0)
        item = f"({text})" if bar else text
        h = Hypersequent.of([Sequent.of([f], [Block.of([f])], [f])])
        assert render_hypersequent(h) == f"{item}, <{item}> => {item}"


class TestInterning:
    def test_equal_values_are_one_object(self):
        assert And(p, q) is And(p, q)
        assert And(left=p, right=q) is And(p, q)
        s = Sequent.of([q, p], [Block.of([r])], [Box(p)])
        assert Sequent.of([p, q], [Block.of([r])], [Box(Atom("p"))]) is s

    def test_unused_values_are_freed(self):
        f = parse("fresh1 & box fresh2")
        s = Sequent.of([f], [], [f])
        sort_key(f), node_count(f), subformulas(f), left_set(s)
        ref = weakref.ref(f)
        del f, s
        gc.collect()
        assert ref() is None


class TestHypersequents:
    def test_components_are_numbered_from_one(self):
        h = Hypersequent.of([Sequent.of([p]), Sequent.of([q])])
        assert (h.component(1), h.component(2)) == (Sequent.of([p]), Sequent.of([q]))

    def test_replace_and_new_component(self):
        h = Hypersequent.of([Sequent.of([p])])
        h2 = h.with_new_component(Sequent.of([q]))
        assert h2.components == (Sequent.of([p]), Sequent.of([q]))
        h3 = h2.replace(1, Sequent.of([r]))
        assert h3.component(1) == Sequent.of([r])
        assert h3.component(2) == Sequent.of([q])

    def test_empty_hypersequent_rejected(self):
        with pytest.raises(ValueError):
            Hypersequent.of([])

    def test_unknown_component_raises(self):
        h = Hypersequent.of([Sequent.of([p]), Sequent.of([q])])
        for n in (0, -1, 3, 5):
            with pytest.raises(KeyError):
                h.component(n)


class TestNotation:
    def test_parse_components_blocks_and_sides(self):
        h = parse_hypersequent("<p, q>, box p => r | p =>")
        assert len(h.components) == 2
        s1 = h.component(1)
        assert s1.left == (Box(p),)
        assert s1.blocks == (Block.of([p, q]),)
        assert s1.right == (r,)
        assert h.component(2) == Sequent.of([p])

    def test_empty_sides(self):
        assert parse_hypersequent("=>").component(1) == Sequent.of()
        assert parse_hypersequent("p =>").component(1) == Sequent.of([p])

    def test_top_level_or_belongs_to_a_formula(self):
        # the middle segment has no arrow, so it is a disjunct of component 1
        h = parse_hypersequent("=> p | q | r => p")
        assert len(h.components) == 2
        assert h.component(1) == Sequent.of([], [], [Or(p, q)])
        assert h.component(2) == Sequent.of([r], [], [p])

    def test_bar_with_arrow_starts_a_component(self):
        h = parse_hypersequent("=> p | q => r")
        assert len(h.components) == 2
        assert h.component(1) == Sequent.of([], [], [p])
        assert h.component(2) == Sequent.of([q], [], [r])

    def test_bare_formula_becomes_goal_sequent(self):
        h = parse_input("box p -> box q")
        assert h.component(1) == Sequent.of([], [], [Imp(Box(p), Box(q))])
        assert parse_input("p => q").component(1) == Sequent.of([p], [], [q])

    def test_render_disjunction_is_parenthesized(self):
        s = Sequent.of([], [], [Or(p, q)])
        assert render_hypersequent(Hypersequent.of([s])) == "=> (p | q)"

    def test_render_examples(self):
        h = parse_hypersequent("<p, q>, box p => r | p =>")
        assert render_hypersequent(h) == "box p, <p, q> => r | p =>"

    @pytest.mark.parametrize("bad", ["", "p", "p => q => r", "<> => p", "<p => q"])
    def test_malformed_notation_raises(self, bad):
        with pytest.raises(ParseError):
            parse_hypersequent(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("p", "missing =>"),
            ("p | q", "missing =>"),
            ("p => q => r", "exactly one =>"),
            ("=> p | q => r => s", "exactly one =>"),
            ("< > => p", "blocks are nonempty"),
            ("<p, q => r", "malformed block"),
            ("<p q> =>", "malformed block"),
            ("p ) => q", "expected ',' or '=>'"),
        ],
    )
    def test_malformed_notation_messages(self, bad, message):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_hypersequent(bad)
        assert not re.search(r"\b(seq|langle|rangle|lparen|rparen|comma|ident)\b", str(err.value))

    @given(rngs)
    def test_round_trip(self, rng):
        h = random_hypersequent(rng, max_nodes=8, max_boxes=2)
        assert parse_hypersequent(render_hypersequent(h)) == h


class TestInterpret:
    def test_blocks_read_as_boxed_conjunctions(self):
        s = Sequent.of([p], [Block.of([q, r])], [Box(q)])
        assert interpret(s) == Imp(And(p, Box(And(q, r))), Box(q))

    def test_empty_sides_use_the_units(self):
        assert interpret(Sequent.of()) == Imp(TOP, BOTTOM)
        assert interpret(Sequent.of([p])) == Imp(p, BOTTOM)
        assert interpret(Sequent.of([], [], [p])) == Imp(TOP, p)

