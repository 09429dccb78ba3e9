"""Rule schemas, the applicability strategy, and the local loop check."""

import pytest
from hypothesis import given, settings

from conftest import rngs
from nnml import calculus
from nnml.calculus import (
    InvalidInstance,
    Moves,
    _adds_nothing,
    _apply,
    _candidates,
    _without_principal,
    build_premisses,
    initial_evidence,
    is_saturated,
    iter_instances,
    lean_premiss,
    lean_premisses,
    next_instance,
    normalize,
    rule_def,
    rule_groups,
)
from nnml.formula import And, Atom, BOTTOM, Box, Imp, TOP
from nnml.gen import random_hypersequent
from nnml.hypersequent import (
    Block,
    Hypersequent,
    Sequent,
    parse_hypersequent,
    render_hypersequent,
)
from nnml.logic import (
    AND_L,
    AND_R,
    BOX_L,
    BOX_R,
    BOX_RM,
    IMP_L,
    IMP_R,
    INIT,
    BOT_L,
    OR_L,
    OR_R,
    RULE_C,
    RULE_D1,
    RULE_D2,
    RULE_N,
    RULE_P,
    RULE_T,
    TOP_R,
    dn_plus,
    parse_logic_name,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")

E = parse_logic_name("E")
M = parse_logic_name("M")
EC = parse_logic_name("EC")
EN = parse_logic_name("EN")
ET = parse_logic_name("ET")
EP = parse_logic_name("EP")
ED = parse_logic_name("ED")
ED2 = parse_logic_name("ED2+")
ED3 = parse_logic_name("ED3+")
MDP = parse_logic_name("MDP")
ECD = parse_logic_name("ECD")
MCT = parse_logic_name("MCT")


def hs(text):
    return parse_hypersequent(text)


def rendered(premisses):
    return [render_hypersequent(x) for x in premisses]


class TestPremisses:
    def test_and_left_keeps_principal(self):
        out = build_premisses(hs("p & q => r"), AND_L, 1, (And(p, q),))
        assert rendered(out) == ["p, q, p & q => r"]

    def test_imp_left_branches(self):
        out = build_premisses(hs("p -> q => r"), IMP_L, 1, (Imp(p, q),))
        assert rendered(out) == ["p -> q => p, r", "q, p -> q => r"]

    def test_box_left_creates_a_block(self):
        out = build_premisses(hs("box p => q"), BOX_L, 1, (Box(p),))
        assert rendered(out) == ["box p, <p> => q"]

    def test_box_right_tests_each_member_then_the_set(self):
        h = hs("<p, q> => box r")
        out = build_premisses(h, BOX_R, 1, (Block.of([p, q]), Box(r)))
        assert rendered(out) == [
            "<p, q> => box r | r => p",
            "<p, q> => box r | r => q",
            "<p, q> => box r | p, q => r",
        ]

    def test_box_right_new_components_share_one_id(self):
        h = hs("<p, q> => box r")
        out = build_premisses(h, BOX_R, 1, (Block.of([p, q]), Box(r)))
        assert all(len(x.components) == 2 for x in out)

    def test_monotone_box_right_has_one_premiss(self):
        out = build_premisses(hs("<p, q> => box r"), BOX_RM, 1, (Block.of([p, q]), Box(r)))
        assert rendered(out) == ["<p, q> => box r | p, q => r"]

    def test_n_adds_the_verum_block(self):
        out = build_premisses(hs("=> box true"), RULE_N, 1, ())
        assert rendered(out) == ["<true> => box true"]

    def test_c_merges_and_keeps_parents(self):
        h = hs("<p>, <q> =>")
        out = build_premisses(h, RULE_C, 1, (Block.of([p]), Block.of([q])))
        assert rendered(out) == ["<p>, <p, q>, <q> =>"]

    def test_t_reflects_members_into_the_antecedent(self):
        out = build_premisses(hs("<p, q> => r"), RULE_T, 1, (Block.of([p, q]),))
        assert rendered(out) == ["p, q, <p, q> => r"]

    def test_p_opens_a_component(self):
        out = build_premisses(hs("<p, q> =>"), RULE_P, 1, (Block.of([p, q]),))
        assert rendered(out) == ["<p, q> => | p, q =>"]

    def test_d1_tests_emptiness_and_each_member(self):
        out = build_premisses(hs("<p, q> =>"), RULE_D1, 1, (Block.of([p, q]),))
        assert rendered(out) == [
            "<p, q> => | p, q =>",
            "<p, q> => | => p",
            "<p, q> => | => q",
        ]

    def test_d2_pairs_two_blocks(self):
        h = hs("<p>, <q, r> =>")
        out = build_premisses(h, RULE_D2, 1, (Block.of([p]), Block.of([q, r])))
        assert rendered(out) == [
            "<p>, <q, r> => | p, q, r =>",
            "<p>, <q, r> => | => p, q",
            "<p>, <q, r> => | => p, r",
        ]

    def test_graded_rule_joins_blocks_without_side_premisses(self):
        h = hs("<p>, <q> =>")
        out = build_premisses(h, dn_plus(2), 1, (Block.of([p]), Block.of([q])))
        assert rendered(out) == ["<p>, <q> => | p, q =>"]

    def test_graded_rule_arity_must_match(self):
        h = hs("<p> =>")
        with pytest.raises(InvalidInstance):
            build_premisses(h, dn_plus(2), 1, (Block.of([p]),))

    def test_missing_principal_raises(self):
        with pytest.raises(InvalidInstance):
            build_premisses(hs("p => q"), AND_L, 1, (And(p, q),))
        with pytest.raises(InvalidInstance):
            build_premisses(hs("p => q"), BOX_L, 1, (p,))
        with pytest.raises(InvalidInstance):
            build_premisses(hs("<p> =>"), RULE_C, 1, (Block.of([p]), Block.of([p])))

    def test_two_equal_blocks_support_a_pair_rule(self):
        h = hs("<p>, <p> =>")
        out = build_premisses(h, RULE_D2, 1, (Block.of([p]), Block.of([p])))
        assert rendered(out) == ["<p>, <p> => | p, p =>", "<p>, <p> => | => p, p"]


class TestStrategyOrder:
    def test_decomposition_before_branching_before_blocks(self):
        h = hs("p & q, box r => p -> q, r & p")
        names = [inst.rule.render() for inst in iter_instances(h, E)]
        assert names == ["AndL", "ImpR", "AndR", "BoxL"]

    def test_component_order_then_principal_order(self):
        h = hs("q & r => | p & q =>")
        insts = list(iter_instances(h, E))
        assert [(i.cid, i.principal[0]) for i in insts] == [
            (1, And(q, r)),
            (2, And(p, q)),
        ]

    def test_first_instance_on_the_monotonicity_goal_is_box_left(self):
        h = hs("=> box (p & q) -> box p")
        inst = next_instance(h, rule_groups(E))[0]
        assert inst.rule.render() == "ImpR"
        after = inst.premisses[0]
        inst2 = next_instance(after, rule_groups(E))[0]
        assert inst2.rule.render() == "BoxL"
        assert rendered(inst2.premisses) == [
            "box (p & q), <p & q> => box p, box (p & q) -> box p"
        ]

    def test_modal_rule_comes_after_bookkeeping(self):
        h = hs("<p>, <q> => box r")
        names = [inst.rule.render() for inst in iter_instances(h, EC)]
        assert names[0] == "C"
        assert "BoxR" in names


class TestLoopCheck:
    def test_and_left_blocked_once_both_conjuncts_present(self):
        h = hs("p, q, p & q => r")
        assert all(i.rule != AND_L for i in iter_instances(h, E))

    def test_box_left_blocked_by_existing_singleton_block(self):
        h = hs("box p, <p> => q")
        assert all(i.rule != BOX_L for i in iter_instances(h, E))

    def test_c_blocked_when_merge_already_present(self):
        h = hs("<p>, <p> =>")
        assert all(i.rule != RULE_C for i in iter_instances(h, EC))
        h2 = hs("<p>, <q>, <p, q> =>")
        assert all(i.rule != RULE_C for i in iter_instances(h2, EC))

    def test_n_blocked_by_verum_block(self):
        h = hs("<true> => p")
        assert all(i.rule != RULE_N for i in iter_instances(h, EN))

    def test_t_blocked_once_members_are_formulas(self):
        h = hs("p, q, <p, q> => r")
        assert all(i.rule != RULE_T for i in iter_instances(h, ET))

    def test_box_right_blocked_by_matching_component(self):
        h = hs("<p> => box q | p => q")
        assert all(i.rule != BOX_R for i in iter_instances(h, E))

    def test_box_right_reverse_test_only_without_monotonicity(self):
        h = hs("<p> => box q | q => p")
        assert all(i.rule != BOX_R for i in iter_instances(h, E))
        again = [i for i in iter_instances(h, M) if i.rule == BOX_RM]
        assert len(again) == 1

    def test_p_blocked_by_superset_antecedent_anywhere(self):
        h = hs("<p, q> => | p, q, r =>")
        assert all(i.rule != RULE_P for i in iter_instances(h, EP))

    def test_d_rules_blocked_by_right_hits(self):
        h = hs("<p> => | => p")
        assert all(i.rule != RULE_D1 for i in iter_instances(h, ED))

    def test_graded_rule_counts_block_occurrences_not_values(self):
        h = hs("<p>, <p> =>")
        pairs = [i for i in iter_instances(h, ED2) if i.rule == dn_plus(2)]
        assert len(pairs) == 1
        assert all(i.rule != dn_plus(2) for i in iter_instances(hs("<p> =>"), ED2))


class TestInitial:
    def test_falsum_wins_then_verum_then_shared(self):
        assert initial_evidence(hs("false, p => p"))[0] == BOT_L
        assert initial_evidence(hs("p => p, true"))[0] == TOP_R
        rule, cid, f = initial_evidence(hs("p, q => q, r"))
        assert (rule, cid, f) == (INIT, 1, q)

    def test_shared_formula_may_be_compound(self):
        rule, cid, f = initial_evidence(hs("box p => box p"))
        assert (rule, f) == (INIT, Box(p))

    def test_component_order(self):
        rule, cid, f = initial_evidence(hs("p => q | r => r"))
        assert (rule, cid, f) == (INIT, 2, r)

    def test_no_evidence(self):
        assert initial_evidence(hs("p => q")) is None
        assert initial_evidence(hs("=> true")) is not None


class TestSaturation:
    def test_saturated_leaf_of_the_monotonicity_search(self):
        leaf = hs("box (p & q), <p & q> => box p | p => p & q, q")
        assert is_saturated(leaf, E)

    def test_initial_hypersequents_are_not_saturated(self):
        assert not is_saturated(hs("p => p"), E)
        assert not is_saturated(hs("false =>"), E)

    @given(rngs)
    @settings(max_examples=150)
    def test_matches_the_instance_enumeration(self, rng):
        logic = rng.choice([E, M, EC, EN, ET, EP, ED, ED2, parse_logic_name("K")])
        h = random_hypersequent(rng, max_nodes=6, max_boxes=2)
        expected = initial_evidence(h) is None and list(iter_instances(h, logic)) == []
        assert is_saturated(h, logic) == expected

    @given(rngs)
    @settings(max_examples=60)
    def test_premisses_of_instances_are_valid_constructions(self, rng):
        logic = rng.choice([E, EC, EN, ED])
        h = random_hypersequent(rng, max_nodes=6, max_boxes=2)
        for inst in iter_instances(h, logic):
            again = build_premisses(h, inst.rule, inst.cid, inst.principal)
            assert again == inst.premisses
            assert all(len(x.components) >= len(h.components) for x in inst.premisses)


def check_resumed_scan(h, logic, choose):
    """Walk one branch of invertible search from h, ``choose`` picking
    the premiss to go on with. At each goal, the scan of each premiss of
    the goal's instance, resumed after that instance, gives what the full
    scan gives; every candidate of the goal up to and including the
    instance fails the loop check in the premiss; and reading only the
    component the premiss changed or created finds its initial pattern.
    Returns the rules of the instances met."""
    groups = rule_groups(logic)
    inst, place, _ = next_instance(h, groups)
    after = None
    rules = []
    while inst is not None and initial_evidence(h, after) is None:
        rules.append(inst.rule)
        known = []
        for gi, j, rd, _, principal in _candidates(h, groups):
            known.append((rd, j + 1, principal))
            if (h, gi, j, principal) == place:
                break
        assert known[-1] == (rule_def(inst.rule), inst.cid, inst.principal)
        for premiss in inst.premisses:
            resumed, resumed_place, _ = next_instance(premiss, groups, place)
            full, full_place, _ = next_instance(premiss, groups)
            assert resumed == full
            assert resumed_place == full_place
            for rd, cid, principal in known:
                assert _adds_nothing(premiss, rd, premiss.component(cid), rd.schema(*principal))
            assert initial_evidence(premiss, place) == initial_evidence(premiss)
        h, after = choose(inst.premisses), place
        inst, place, _ = next_instance(h, groups, after)
    return rules


class TestResumedScan:
    @given(rngs)
    @settings(max_examples=120)
    def test_matches_the_full_scan_along_a_branch(self, rng):
        logic = rng.choice([E, M, EC, ECD, EN, ET, ED2, MCT])
        h = random_hypersequent(rng, max_nodes=6, max_boxes=2)
        check_resumed_scan(h, logic, lambda premisses: rng.choice(premisses))

    @pytest.mark.parametrize(
        "text,logic,rules",
        [
            # BoxR's second premiss adds p & q =>, whose AndL must come
            # before the BoxR instance on box s, a later candidate.
            ("<p & q> => box r, box s", E, [BOX_R, AND_L, BOX_R, AND_L]),
            # C on <p, r> and <q> adds <p, q, r>, which sorts first, so
            # its pair with <s> sits before the resume point.
            ("<p, r>, <q>, <s> =>", EC, [RULE_C] * 4),
            # Equal input blocks make one pair, which C may not merge;
            # next to <q> they make one pair with it.
            ("<p>, <p> =>", EC, []),
            ("<p>, <p>, <q> =>", EC, [RULE_C]),
        ],
    )
    def test_matches_the_full_scan_on_fixed_goals(self, text, logic, rules):
        assert check_resumed_scan(hs(text), logic, lambda premisses: premisses[-1]) == rules


def check_lean_premisses(seqs, logic):
    """The premisses lean search builds, normal and one at a time, equal
    the normalized premisses of each deleting instance built in full, up
    to and including the first instance of a rule that commits, and the
    instances' keys are equal exactly when those full premiss sets are.
    Returns the keys."""
    h = Hypersequent.of(seqs)
    fresh = (Block.of((TOP,)),) if logic.has_n else ()
    built, expected = [], []
    for _, j, rd, s, principal in _candidates(h, rule_groups(logic, lean=True)):
        base = _without_principal(rd, s, principal)
        built.append(_apply(h, j + 1, rd, base, rd.schema(*principal), fresh))
        expected.append(tuple(normalize(prem.components) for prem in built[-1]))
        if rd.commits:
            break
    # Two readers interleave on an empty move table, so each reads
    # entries the other made as well as its own; a third read finds every
    # entry it reads finished. Entries after a committed instance are
    # never asked for.
    moves = Moves(logic)
    steps = zip(lean_premisses(seqs, moves), lean_premisses(seqs, moves))
    passes = [*map(list, zip(*steps)), list(lean_premisses(seqs, moves))]
    assert all(entry is None or type(entry) is tuple for row in moves.values() for entry in row)
    for instances in passes:
        assert [tuple(lean_premiss(seqs, j, base, s) for s in new) for j, base, new, _ in instances] == expected
    keys = [key for _, _, _, key in passes[0]]
    full = [tuple(sorted(prems, key=id)) for prems in built]
    assert len(set(keys)) == len(set(full)) == len(set(zip(keys, full)))
    return keys


class TestLeanPremisses:
    @given(rngs)
    @settings(max_examples=100)
    def test_match_the_normalized_instances(self, rng):
        logic = rng.choice([E, M, EC, EN, ED, EP, ED3, MDP])
        check_lean_premisses(normalize(random_hypersequent(rng, max_nodes=6, max_boxes=2).components), logic)

    @pytest.mark.parametrize(
        "text,logic,repeats",
        [
            # D2+ on <p>, <q, r> and on <p, q>, <r> adds one component,
            # p, q, r =>, to different bases.
            ("<p>, <q, r>, <p, q>, <r> =>", ED2, False),
            # AndL turns the first component into a copy of the second.
            ("p & q => | p, q =>", E, False),
            # P and D1+ on <p> both leave the base => q and add the
            # component p =>, so their keys and premiss sets are equal.
            ("<p> => q", MDP, True),
        ],
    )
    def test_match_on_instances_that_share_new_sequents(self, text, logic, repeats):
        keys = check_lean_premisses(normalize(hs(text).components), logic)
        assert (len(set(keys)) < len(keys)) == repeats

    def test_commit_to_the_first_instance_of_an_invertible_rule(self):
        # The first component has no principal of the first group; AndL
        # on p & q in the second is the first instance, so the group's
        # other principals and every later group are never asked for.
        seqs = normalize(hs("p & q, r | s => p -> q | box p => q & r").components)
        moves = Moves(E)
        ((j, base, new, _),) = lean_premisses(seqs, moves)
        assert render_hypersequent(Hypersequent(lean_premiss(seqs, j, base, *new))) == (
            "p, q, (r | s) => p -> q | box p => q & r"
        )
        rest = [None] * (len(moves.groups) - 1)
        assert moves[seqs[0]] == [(), *rest]
        assert len(moves[seqs[1]][0]) == 1 and moves[seqs[1]][1:] == rest

    def test_only_rules_invertible_in_the_deleting_reading_commit(self):
        committing = {AND_L, OR_L, IMP_R, AND_R, OR_R, IMP_L, BOX_L}
        assert {rule for rule, rd in calculus._TABLE.items() if rd.commits} == committing
        for group in calculus._ORDER:
            assert len({rule_def(rule).commits for rule in group}) == 1

    def test_second_read_makes_no_moves(self, monkeypatch):
        seqs = normalize(hs("<p>, <q> => box r, p & q | box p => q").components)
        calls = []
        principals = calculus._principals
        monkeypatch.setattr(calculus, "_principals", lambda *args: calls.append(args) or principals(*args))
        moves = Moves(ED)
        first = list(lean_premisses(seqs, moves))
        assert first and calls
        calls.clear()
        assert list(lean_premisses(seqs, moves)) == first
        assert calls == []
