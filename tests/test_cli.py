"""Command-line behaviour: exit codes, output schemas, verification."""

import argparse
import contextlib
import inspect
import io
import json
import os
import runpy
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nnml.cli import InternalError, _Fragment, _dumps, _parse_argv, _verify_countermodel, build_parser, main
from nnml.hypersequent import parse_input
from nnml.logic import parse_logic_name
from nnml.models import BiModel, extract_bi_countermodel, model_from_dict, model_to_dict
from nnml.search import SearchStats, prove

AXIOM_M = "box (p & q) -> box p"
AXIOM_K = "box (p -> q) -> (box p -> box q)"
AXIOM_4 = "box p -> box box p"

PAPER_MODEL = {
    "worlds": [1, 2],
    "valuation": {"p": [2]},
    "bi": {"1": [{"plus": [], "minus": [2]}], "2": []},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProve:
    def test_proved(self, capsys):
        code, out, _ = run(capsys, "prove", AXIOM_K, "--logic", "K")
        assert code == 0
        assert out.startswith("proved (K")

    def test_refuted_with_countermodel(self, capsys):
        code, out, _ = run(
            capsys, "prove", AXIOM_M, "--logic", "E", "--output", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["logic"] == "E"
        assert payload["outcome"] == "refuted"
        assert payload["enumeration"] == {"1": 1, "2": 2}
        assert payload["saturated_leaf"] == (
            "box (p & q), <p & q> => box p, box (p & q) -> box p | p => q, p & q"
        )
        assert payload["countermodels"]["bi"] == PAPER_MODEL

    @pytest.mark.parametrize(
        "argv",
        [
            ("prove", "p &&", "--logic", "E"),
            ("prove", "p", "--logic", "QX"),
            ("prove", "p"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    def test_budget_flag(self, capsys):
        code, out, _ = run(
            capsys, "prove", AXIOM_M, "--logic", "E", "--budget", "1",
            "--output", "json",
        )
        assert code == 4
        assert json.loads(out)["outcome"] == "budget-exceeded"

    @pytest.mark.parametrize("mode, budget", [("invertible", 20), ("unkleened", 5)])
    def test_budget_stop_reports_its_stats(self, capsys, mode, budget):
        goal = "box p1 & box p2 & box p3 -> box (p1 & p2 & p3)"
        argv = ["prove", goal, "--logic", "EC", "--mode", mode, "--budget", str(budget), "--stats"]
        code, out, _ = run(capsys, *argv, "--output", "json")
        assert code == 4
        payload = json.loads(out)
        assert (payload["outcome"], payload["visited"], payload["budget"]) == ("budget-exceeded", budget + 1, budget)
        stats = payload["stats"]
        assert list(stats) == list(asdict(SearchStats())) and stats["visited"] == payload["visited"]
        code, out, _ = run(capsys, *argv)
        assert code == 4
        assert out.splitlines() == [
            f"budget exceeded after {budget + 1} nodes (budget {budget})",
            "stats: " + " ".join(f"{k}={v}" for k, v in stats.items()),
        ]
        assert "stats" not in run(capsys, *argv[:-1], "--output", "json")[1]

    def test_unkleened_mode(self, capsys):
        code, out, _ = run(
            capsys, "prove", AXIOM_M, "--logic", "M", "--mode", "unkleened"
        )
        assert code == 0
        assert "unkleened mode" in out
        code, _, _ = run(
            capsys, "prove", AXIOM_M, "--logic", "E", "--mode", "unkleened"
        )
        assert code == 1

    def test_unkleened_mode_has_no_countermodels(self, capsys):
        code, _, _ = run(
            capsys, "prove", AXIOM_M, "--logic", "E", "--mode", "unkleened",
            "--model", "bi",
        )
        assert code == 2

    def test_relational_needs_a_regular_logic(self, capsys):
        for goal in (AXIOM_M, "p -> p"):  # refuted and proved alike
            code, _, err = run(
                capsys, "prove", goal, "--logic", "E", "--model", "relational"
            )
            assert code == 2
            assert "relational countermodels need a regular logic (M and C)" in err

    def test_relational_countermodel(self, capsys):
        code, out, _ = run(
            capsys, "prove", AXIOM_4, "--logic", "MC", "--model", "relational",
            "--output", "json",
        )
        assert code == 1
        payload = json.loads(out)
        rel = payload["countermodels"]["relational"]
        assert rel["relational"] == {"non_normal": [2], "edges": {"1": [2], "2": []}}

    def test_standard_countermodels(self, capsys):
        code, out, _ = run(
            capsys, "prove", AXIOM_M, "--logic", "E",
            "--model", "standard-rough", "--model", "standard-fine",
            "--output", "json",
        )
        assert code == 1
        payload = json.loads(out)
        rough = model_from_dict(payload["countermodels"]["standard-rough"])
        assert rough.neighbourhoods(1) == {frozenset(), frozenset({1})}
        fine = model_from_dict(payload["countermodels"]["standard-fine"])
        assert fine.neighbourhoods(1) == {frozenset()}

    def test_verification_failures_are_internal_errors(self, capsys, monkeypatch):
        monkeypatch.setattr("nnml.cli.conditions_ok", lambda report: False)
        code, _, err = run(capsys, "prove", AXIOM_M, "--logic", "E")
        assert code == 3
        assert err.startswith("internal error:")

    @pytest.mark.parametrize("logic", ["EN", "MN", "ECND2+", "MCNP"])
    def test_standard_fine_keeps_n(self, capsys, logic):
        code, out, _ = run(
            capsys, "prove", "p", "--logic", logic, "--model", "standard-fine",
            "--output", "json",
        )
        assert code == 1
        fine = model_from_dict(json.loads(out)["countermodels"]["standard-fine"])
        assert all(fine.worlds in fine.neighbourhoods(w) for w in fine.worlds)

    @pytest.mark.parametrize("goal, logic", [
        ("box box box true & box box q -> false & (p & false)", "MCP"),
        ("box p -> box ((box box p | (q | ((r & q & true | p) & true & true & p -> r)) & q) & true & r) & r & q", "ECN"),
    ])
    def test_standard_fine_keeps_c(self, capsys, goal, logic):
        # Both exited 3: two fine neighbourhoods of one world whose
        # intersection was none.
        code, out, _ = run(
            capsys, "prove", goal, "--logic", logic, "--model", "standard-fine", "--output", "json"
        )
        assert code == 1
        fine = model_from_dict(json.loads(out)["countermodels"]["standard-fine"])
        for w in fine.worlds:
            sets = fine.neighbourhoods(w)
            assert {a & b for a in sets for b in sets} <= sets

    @pytest.mark.parametrize("goal, logic", [
        ("<p> =>", "E"), ("<p, q> =>", "E"), ("<p, q> =>", "M"), ("<p, q> =>", "EN"), ("<p, q> =>", "K"),
    ])
    def test_standard_fine_agrees_on_blocks(self, capsys, goal, logic):
        # Each exited 3: the fine model agreed on a block's members, but
        # the check reads the block as the box of their conjunction.
        code, out, err = run(
            capsys, "prove", goal, "--logic", logic, "--model", "standard-fine", "--output", "json"
        )
        assert (code, err) == (1, "")
        assert "standard-fine" in json.loads(out)["countermodels"]

    def test_standard_fine_of_a_deep_formula(self, capsys):
        # This exited 2: the subformula closure recursed once a level.
        goal = "box " + "~" * 400 + "p"
        code, _, err = run(capsys, "prove", goal, "--logic", "E", "--model", "standard-fine")
        assert (code, err) == (1, "")

    def test_world_cap_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "prove", AXIOM_M, "--logic", "E", "--model", "standard-rough",
            "--rough-cap", "1",
        )
        assert code == 2
        assert err.startswith("error:")
        assert "--rough-cap" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize("mode", ["invertible", "unkleened"])
    def test_world_cap_below_one_is_a_usage_error(self, capsys, cap, mode):
        code, out, err = run(
            capsys, "prove", AXIOM_M, "--logic", "E", "--mode", mode, "--rough-cap", cap,
        )
        assert (code, out, err) == (2, "", "error: --rough-cap must be positive\n")

    @pytest.mark.parametrize("depth, code", [(150, 1), (200, 2)])
    def test_deep_nesting(self, capsys, depth, code):
        text = "(" * depth + "p" + ")" * depth
        assert run(capsys, "prove", text, "--logic", "E")[0] == code
        assert run(capsys, "prove", f"{text} => q", "--logic", "E")[0] == code

    @pytest.mark.parametrize(
        "argv",
        [["prove"], ["prove", "--output", "json"], ["translate", "--derive"]],
        ids=["prove", "prove-json", "translate-derive"],
    )
    def test_long_conjunction_gets_its_verdict(self, capsys, argv):
        # The conjunction nests 1,199 deep, and sorting compares the flat
        # sort keys of such formulas.
        text = " & ".join(f"p{i}" for i in range(1200)) + " -> p"
        code, out, err = run(capsys, argv[0], text, "--logic", "E", *argv[1:])
        assert (code, err) == (1, "")
        if argv[0] == "translate":
            assert out == "refuted: no derivation to translate\n"
        elif "json" in argv:
            assert json.loads(out)["outcome"] == "refuted"
        else:
            assert out.startswith("refuted (E, ")

    def test_wide_sequent_countermodel_is_verified(self, capsys):
        # The one formula this sequent asserts nests 600 conjunctions deep.
        wide = ", ".join(f"a{i} & b{i}" for i in range(600)) + " => c"
        code, out, err = run(capsys, "prove", wide, "--logic", "E", "--output", "json")
        assert (code, err) == (1, "")
        bi = json.loads(out)["countermodels"]["bi"]
        assert bi["valuation"]["a599"] == [1] and "c" not in bi["valuation"]

    def test_deep_derivation_prints_as_json(self, capsys):
        # The proof is 601 rules deep, so its JSON nests 1,202 containers,
        # more than a recursive encoder gets through under the default limit.
        wide = ", ".join(f"a{i} & b{i}" for i in range(600)) + ", b599 -> z => z"
        code, out, err = run(capsys, "prove", wide, "--logic", "E", "--output", "json")
        assert (code, err) == (0, "")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)  # json.loads recurses once per level too
        try:
            payload = json.loads(out)
        finally:
            sys.setrecursionlimit(limit)
        assert payload["outcome"] == "proved"
        assert payload["derivation"]["conclusion"] == payload["input"]

    def test_graded_rough_model_is_checked_on_minimal_sets(self, capsys):
        # Its rough model has up to 528 neighbourhoods at a world, so RD3+
        # over every 3 of them would take tens of seconds.
        t0 = time.perf_counter()
        code, out, _ = run(
            capsys, "prove", "box ((box p -> q | p) | box q) -> box box r",
            "--logic", "ECND3+", "--model", "standard-rough", "--output", "json",
        )
        assert code == 1
        assert "standard-rough" in json.loads(out)["countermodels"]
        assert time.perf_counter() - t0 < 20

    def test_proved_json_carries_the_derivation(self, capsys):
        code, out, _ = run(
            capsys, "prove", "p -> p", "--logic", "E", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "proved"
        assert payload["derivation"]["rule"] == "ImpR"

    @pytest.mark.parametrize(
        "mode,stats",
        [
            ("invertible", dict(visited=272, max_components=3, max_nodes=456, max_component_size=277, loop_checks=2106)),
            ("unkleened", dict(visited=53, max_components=2, max_nodes=30, max_component_size=7, memo_hits=2)),
        ],
    )
    def test_stats_of_agglomeration_in_ec(self, capsys, mode, stats):
        stats = asdict(SearchStats(**stats))  # every counter, in field order
        goal = "box p1 & box p2 & box p3 & box p4 & box p5 & box p6 -> box (p1 & p2 & p3 & p4 & p5 & p6)"
        argv = ["prove", goal, "--logic", "EC", "--mode", mode, "--stats"]
        code, out, _ = run(capsys, *argv, "--output", "json")
        assert code == 0
        assert json.loads(out)["stats"] == stats
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == "stats: " + " ".join(f"{k}={v}" for k, v in stats.items())
        assert "stats" not in run(capsys, *argv[:-1], "--output", "json")[1]


json_strings = st.text(st.characters(), max_size=8) | st.sampled_from(
    ['"', "\\", "\n", "\x00", "\u00e9", "\U0001f600"]
)
json_scalars = st.integers() | st.booleans() | st.none() | json_strings
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(json_strings, inner, max_size=5),
    max_leaves=30,
)

# Model files for check-model: payloads of the shape model_to_dict
# writes, where any part may be an arbitrary JSON value instead, and any
# world a float, a bool, null, a string or a huge int. Worlds are mostly
# small ints, so that some files load.
model_scalars = (
    st.integers()
    | st.sampled_from([10**400, -(10**30)])
    | st.floats()
    | st.booleans()
    | st.none()
    | json_strings
)
model_values = st.recursive(
    model_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=20,
)


def _or_junk(part):
    """Mostly ``part``; one draw in ten is any JSON value."""
    return st.integers(0, 9).flatmap(lambda i: part if i else model_values)


world_lists = _or_junk(st.lists(_or_junk(st.integers(-1, 3)), max_size=4))
world_keys = st.sampled_from(["-1", "0", "1", "2", "3"]) | json_strings
model_files = _or_junk(
    st.fixed_dictionaries(
        {"worlds": _or_junk(st.just([-1, 0, 1, 2, 3]) | world_lists)},
        optional={
            "valuation": _or_junk(st.dictionaries(st.sampled_from(["p", "q"]), world_lists)),
            "bi": _or_junk(
                st.dictionaries(
                    world_keys,
                    _or_junk(st.lists(_or_junk(st.fixed_dictionaries({"plus": world_lists, "minus": world_lists})))),
                )
            ),
            "standard": _or_junk(st.dictionaries(world_keys, _or_junk(st.lists(world_lists)))),
            "relational": _or_junk(
                st.fixed_dictionaries(
                    {}, optional={"non_normal": world_lists, "edges": _or_junk(st.dictionaries(world_keys, world_lists))}
                )
            ),
        },
    )
)


class TestJsonWriter:
    """``_dumps`` prints what ``json.dumps(value, indent=2)`` prints."""

    @given(json_values)
    def test_same_text_as_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    @given(st.lists(st.integers(-3, 3) | st.booleans(), min_size=1))
    def test_bools_among_ints_stay_json_literals(self, value):
        # bool is a subclass of int, yet prints as a JSON literal.
        assert _dumps(value) == json.dumps(value, indent=2)

    @given(json_values, json_values)
    def test_fragments_are_spliced_in_place(self, value, other):
        # A fragment is the top-level text of its value; nested at any
        # depth it prints as the value would, an escaped newline included.
        for v in (value, {"line": "a\nb", "more": [other, "\n"]}):
            fragment = _Fragment(json.dumps(v, indent=2))
            spliced = {"a": fragment, "b": [fragment, [other, {"c": fragment}]], "d": {"e": [[fragment]]}}
            plain = {"a": v, "b": [v, [other, {"c": v}]], "d": {"e": [[v]]}}
            assert _dumps(spliced) == json.dumps(plain, indent=2)
            assert _dumps([fragment]) == json.dumps([v], indent=2)
            assert _dumps(fragment) == fragment

    def test_nesting_deeper_than_the_recursion_limit(self):
        value = []
        for _ in range(3 * sys.getrecursionlimit()):
            value = {"premisses": [value, 1]}
        text = _dumps(value)
        assert text.count("{") == 3 * sys.getrecursionlimit()
        assert text.endswith("\n}")


class TestVerifyCountermodel:
    """Each world must force its component's antecedent and blocks and
    none of its succedent; the first component that fails is reported."""

    # The leaf <p>, t => q | r => s and its countermodel: t holds at
    # world 1 and r at world 2, and world 1's one pair (∅, ∅) makes every
    # box hold there.
    GOAL = "<p>, t => q | r => s"
    GOOD = ({"r": [2], "t": [1]}, {1: [((), ())]})

    def check(self, valuation, nbhd):
        e = parse_logic_name("E")
        leaf = prove(parse_input(self.GOAL), e).leaf
        assert extract_bi_countermodel(leaf, e) == BiModel.make([1, 2], *self.GOOD)
        _verify_countermodel(BiModel.make([1, 2], valuation, nbhd), leaf, e)

    def test_the_extracted_model_passes(self):
        self.check(*self.GOOD)

    @pytest.mark.parametrize(
        "valuation, nbhd, world",
        [
            ({"r": [2], "t": [1]}, {1: []}, 1),  # the block <p> fails at world 1
            ({"r": [2]}, GOOD[1], 1),  # t, on the left, fails at world 1
            ({"r": [2], "t": [1], "q": [1]}, GOOD[1], 1),  # q, on the right, holds at world 1
            ({"t": [1]}, GOOD[1], 2),  # r, on the left, fails at world 2
            ({"r": [2], "t": [1], "s": [2]}, GOOD[1], 2),  # s, on the right, holds at world 2
        ],
    )
    def test_a_model_that_does_not_falsify_fails(self, valuation, nbhd, world):
        with pytest.raises(InternalError, match=f"falsify component {world} at world {world}$"):
            self.check(valuation, nbhd)


class TestCheckModel:
    def write_model(self, tmp_path, data) -> str:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_truth_per_world(self, capsys, tmp_path):
        path = self.write_model(tmp_path, PAPER_MODEL)
        code, out, _ = run(capsys, "check-model", path, "box p", "--logic", "E")
        assert code == 0
        assert "world 1: false" in out
        assert "world 2: false" in out
        code, out, _ = run(capsys, "check-model", path, "true", "--logic", "E")
        assert "world 1: true" in out and "world 2: true" in out

    def test_condition_report(self, capsys, tmp_path):
        path = self.write_model(tmp_path, PAPER_MODEL)
        code, out, _ = run(capsys, "check-model", path, "box p", "--logic", "M")
        assert code == 0
        assert "M: fail" in out

    def test_seriality_failure(self, capsys, tmp_path):
        bad = BiModel.make([1], {}, {1: [((), ())]})
        path = self.write_model(tmp_path, model_to_dict(bad))
        code, out, _ = run(
            capsys, "check-model", path, "box p", "--logic", "ED",
            "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["conditions"] == {"D": "fail"}
        assert payload["true_at"] == [1]

    def test_json_schema(self, capsys, tmp_path):
        path = self.write_model(tmp_path, PAPER_MODEL)
        code, out, _ = run(
            capsys, "check-model", path, "~p", "--logic", "E", "--output", "json"
        )
        payload = json.loads(out)
        assert payload["formula"] == "~p"
        assert payload["true_at"] == [1]
        assert payload["false_at"] == [2]
        assert payload["conditions"] == {}

    def test_formula_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        path = self.write_model(tmp_path, PAPER_MODEL)
        wide = " & ".join(["p"] * 3000)
        code, out, err = run(capsys, "check-model", path, wide, "--logic", "E", "--output", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["true_at"], payload["false_at"]) == ([2], [1])

    def test_takes_no_budget(self, capsys, tmp_path, monkeypatch):
        path = self.write_model(tmp_path, PAPER_MODEL)
        monkeypatch.setenv("NNML_BUDGET", "lots")
        assert run(capsys, "check-model", path, "p", "--logic", "E")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["check-model", path, "p", "--logic", "E", "--budget", "0"])
        assert exc.value.code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "check-model", str(tmp_path / "nope.json"), "p", "--logic", "E"
        )
        assert code == 2

    def test_malformed_model(self, capsys, tmp_path):
        path = self.write_model(tmp_path, {"worlds": [1]})
        code, _, _ = run(capsys, "check-model", path, "p", "--logic", "E")
        assert code == 2

    @pytest.mark.parametrize("data", [
        {"worlds": "12", "standard": {}},
        {"worlds": [1, 2], "relational": {"edges": {"1": "2"}}},
        {"worlds": [1, 2, 5], "relational": {"non_normal": "5"}},
        {"worlds": [1, 2], "valuation": {"p": "2"}, "standard": {}},
        {"worlds": [1, 2], "standard": {"1": "12"}},
        {"worlds": [1, 2], "standard": {"1": ["12"]}},
        {"worlds": [1, 2], "bi": {"1": [{"plus": "1", "minus": []}]}},
        {"worlds": [1], "valuation": [1], "standard": {}},
        {"worlds": [1], "standard": []},
        [1],
        {"worlds": [1e400], "standard": {}},
        {"worlds": [1, 2], "relational": {"edges": {"1": [1e400]}}},
        {"worlds": [1, 2], "relational": {"non_normal": [1e400]}},
        {"worlds": [1.5], "standard": {}},
        {"worlds": [True], "standard": {}},
        {"worlds": [1], "valuation": {"p": [1.0]}, "standard": {}},
        {"worlds": [1, 2], "standard": {"1": [[True]]}},
        {"worlds": [1, 2], "bi": {"1": [{"plus": [], "minus": [2.0]}]}},
        {"worlds": [1, 10], "standard": {" 1_0 ": [[1]], "\u0661": [[10]]}},
        {"worlds": [1], "standard": {"01": [[1]]}},
        {"worlds": [1], "bi": {"\u0661": []}},
        {"worlds": [1, 2], "relational": {"edges": {" 1": [2]}}},
    ])
    def test_anything_but_a_list_of_worlds_is_rejected(self, capsys, tmp_path, data):
        # A string of digits used to load as the worlds it spells, 1.5 and
        # true as world 1, and 1e400 (infinity) raised OverflowError. A
        # world key read with int() took " 1_0 " as 10, an Arabic-Indic
        # one as 1, and "01" as 1 too.
        path = self.write_model(tmp_path, data)
        code, out, err = run(capsys, "check-model", path, "p", "--logic", "MCNP")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot load model: ")

    @given(model_files, st.sampled_from(["p", "box (p -> q) | ~box true"]))
    @settings(max_examples=300)
    def test_any_json_loads_or_is_rejected(self, tmp_path_factory, data, formula):
        path = self.write_model(tmp_path_factory.mktemp("fuzz"), data)
        for output in ("text", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["check-model", path, formula, "--logic", "MCND2+", "--output", output])
            assert code in (0, 2), err.getvalue()
            if code == 2:
                assert err.getvalue().startswith("error: cannot load model: ")
            elif output == "json":
                json.loads(out.getvalue())

    def test_bad_formula(self, capsys, tmp_path):
        path = self.write_model(tmp_path, PAPER_MODEL)
        code, _, _ = run(capsys, "check-model", path, "p &", "--logic", "E")
        assert code == 2
        deep = "(" * 200 + "p" + ")" * 200
        code, _, err = run(capsys, "check-model", path, deep, "--logic", "E")
        assert code == 2
        assert "nested too deeply" in err


class TestTranslate:
    @pytest.mark.parametrize("goal", ["p & q -> p & q", "(p -> q) -> (p -> q)", "p | q -> p | q"])
    def test_derivation_with_a_compound_leaf(self, capsys, goal):
        # Search closes p & q => p & q and its kind by Init on the
        # compound; the labelled derivation must take it apart to close.
        code, out, err = run(capsys, "translate", goal, "--logic", "E", "--derive", "--output", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["outcome"] == "proved"

    def test_static_translation(self, capsys):
        code, out, _ = run(capsys, "translate", "p => q", "--logic", "E")
        assert code == 0
        assert out.strip() == "x1:p => x1:q"

    def test_derived_translation(self, capsys):
        code, out, _ = run(
            capsys, "translate", AXIOM_M, "--logic", "M", "--derive"
        )
        assert code == 0
        assert "[R-box]" in out
        assert "[M]" in out

    def test_derived_translation_json(self, capsys):
        code, out, _ = run(
            capsys, "translate", AXIOM_M, "--logic", "M", "--derive",
            "--output", "json",
        )
        payload = json.loads(out)
        assert payload["outcome"] == "proved"
        assert payload["derivation"]["rule"] == "R-imp"

    def test_refuted_inputs_have_no_derivation(self, capsys):
        code, out, _ = run(
            capsys, "translate", AXIOM_M, "--logic", "E", "--derive"
        )
        assert code == 1
        assert "no derivation" in out

    def test_non_cube_logics_are_rejected(self, capsys):
        code, _, _ = run(capsys, "translate", "p => q", "--logic", "ET")
        assert code == 2

    @pytest.mark.parametrize("pairs, lowered", [(150, 0), (400, 0), (800, 0), (400, 1)])
    def test_deep_derivations(self, capsys, pairs, lowered):
        # The proof nests one rule per conjunction. The translation works
        # from an explicit stack, so it also translates under a recursion
        # limit that a recursion of one frame per rule would exceed, on any
        # CPython version.
        wide = ", ".join(f"a{i} & b{i}" for i in range(pairs)) + f", b{pairs - 1} -> z => z"
        limit = sys.getrecursionlimit()
        inner = len(inspect.stack(0)) + 150 if lowered else limit
        sys.setrecursionlimit(inner)
        try:
            got, out, err = run(capsys, "translate", wide, "--logic", "E", "--derive")
            assert sys.getrecursionlimit() == inner
        finally:
            sys.setrecursionlimit(limit)
        assert (got, err) == (0, "") and out.startswith("[L-and]")

    def test_deep_formula(self, capsys):
        text = "p -> " + "~" * 400 + "p"
        code, out, err = run(capsys, "translate", text, "--logic", "E", "--derive")
        assert (code, err) == (0, "") and out.startswith("[R-imp] => x1:(p -> ~~")

    def test_translation_stops_at_its_budget(self, capsys):
        # Closing the boxed leaf doubles the labelled steps at each box:
        # the proof is a few nodes, its translation thousands of steps.
        boxed = "box " * 10 + "p"
        argv = ["translate", f"{boxed} -> {boxed}", "--logic", "E", "--derive"]
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, "--budget", "1000")
        assert (code, out, err) == (4, "budget exceeded after 1001 nodes (budget 1000)\n", "")


# Goal texts of at most 10 tokens: the notation's marks and words, a
# non-ASCII letter and digit, an uppercase word, NUL and a newline; or,
# half the time, well-formed goals of one or two components with blocks.
_PIECES = ["p", "q", "box", "dia", "true", "false", "~", "&", "|", "->", "<->", "<>", "=>", "[]",
           "(", ")", ",", "<", ">", "\u00e9", "\u0661", "P", "\x00", "\n"]
_ITEMS = st.sampled_from(["p", "q", "true", "box p", "p & q", "(p | q)", "p -> q", "~box q"])
_components = st.builds(
    lambda left, blocks, right: f"{', '.join(left + blocks)} => {', '.join(right)}",
    st.lists(_ITEMS, max_size=2),
    st.lists(st.lists(_ITEMS, min_size=1, max_size=2).map(lambda b: f"<{', '.join(b)}>"), max_size=2),
    st.lists(_ITEMS, max_size=2),
)
fuzz_texts = st.lists(st.sampled_from(_PIECES), max_size=10).flatmap(
    lambda pieces: st.sampled_from([" ", ""]).map(lambda sep: sep.join(pieces))
) | st.lists(_components, min_size=1, max_size=2).map(" | ".join)
fuzz_logics = st.sampled_from(["E", "M", "EC", "EN", "ECN", "K", "MT", "EP", "ED", "MD", "ED2+", "MCNTPD2+"]) | st.text(
    "EMCNKTPD0123+ \u0661\u00b2", max_size=6
)


@st.composite
def fuzz_argvs(draw, model_file: str) -> list[str]:
    command = draw(st.sampled_from(["prove", "translate", "check-model"]))
    text = draw(fuzz_texts)
    argv = [command, model_file, text] if command == "check-model" else [command, text]
    argv += ["--logic", draw(fuzz_logics), "--output", draw(st.sampled_from(["text", "json"]))]
    if command != "check-model" and draw(st.booleans()):
        argv += ["--budget", str(draw(st.integers(-1, 2000)))]
    if command == "prove":
        argv += ["--mode", draw(st.sampled_from(["invertible", "unkleened"]))]
        for kind in draw(st.lists(st.sampled_from(["bi", "standard-fine", "standard-rough", "relational"]), max_size=2)):
            argv += ["--model", kind]
        argv += ["--rough-cap", str(draw(st.integers(0, 8)))]
        if draw(st.booleans()):
            argv.append("--stats")
    if command == "translate" and draw(st.booleans()):
        argv.append("--derive")
    return argv


# Tokens argparse reads in ways the table does not: a flag with its value
# after "=", an abbreviation, help, "--", a negative number, an int with an
# underscore, a repeated flag, an empty or extra positional.
_ODD_TOKENS = ["--logic=E", "--log", "-h", "--", "--budget", "-1", "--rough-cap", "1_0", "--model", "bi",
               "--stats", "--derive", "--output", "", "extra", "-", "-p", "--frob"]


@st.composite
def odd_argvs(draw, model_file: str) -> list[str]:
    """An argv of ``fuzz_argvs`` with up to three edits: a token put in or
    replaced by one of ``_ODD_TOKENS``, a flag's value replaced by one, a
    token taken out (a flag's value, say), or the positionals moved after
    the flags."""
    argv = draw(fuzz_argvs(model_file))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["insert", "replace", "value", "delete", "flags-first"]))
        at = draw(st.integers(0, len(argv)))
        values = [i for i in range(1, len(argv)) if argv[i - 1][:2] == "--"]
        if edit == "value" and values:
            at, edit = draw(st.sampled_from(values)), "replace"
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(_ODD_TOKENS)))
        elif edit == "replace" and at < len(argv):
            argv[at] = draw(st.sampled_from(_ODD_TOKENS))
        elif edit == "delete" and at < len(argv):
            del argv[at]
        elif edit == "flags-first" and argv[:1] != ["check-model"]:
            argv = argv[:1] + argv[2:] + argv[1:2]
    return argv


def _parsed(parse, argv):
    """What parse(argv) gives, or the exit code it raises, with what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


class TestParseArgv:
    """``_parse_argv`` gives what argparse gives, or argparse's own exit."""

    @given(fuzz_argvs("model.json") | odd_argvs("model.json"))
    @settings(max_examples=600)
    def test_same_namespace_or_exit_as_argparse(self, argv):
        assert _parsed(_parse_argv, argv) == _parsed(build_parser().parse_args, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["prove", AXIOM_M, "--logic", "E", "--output", "json", "--model", "bi", "--model", "standard-fine"],
            ["prove", "--stats", AXIOM_M, "--mode", "unkleened", "--logic", "E", "--budget", "7"],
            ["translate", "p -> p", "--logic", "K", "--derive", "--output", "json"],
            ["check-model", "model.json", "box p", "--logic", "E"],
            ["prove", "", "--logic", ""],
        ],
    )
    def test_the_common_argv_skips_argparse(self, argv, monkeypatch):
        expected = vars(build_parser().parse_args(argv))

        def refuse(*_):
            raise AssertionError("argparse was asked")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        assert vars(_parse_argv(argv)) == expected


class TestFuzz:
    @given(st.data())
    @settings(max_examples=400)
    def test_any_call_exits_with_a_documented_code(self, tmp_path_factory, data):
        # Exit 3 would be a countermodel or proof that failed its own
        # check; a traceback, input the CLI does not handle.
        model_file = tmp_path_factory.getbasetemp() / "fuzz-model.json"
        if not model_file.exists():
            model_file.write_text(json.dumps(PAPER_MODEL))
        argv = data.draw(fuzz_argvs(str(model_file)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse's usage errors, such as a text read as a flag
                code = e.code
        assert code in (0, 1, 2, 4), err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
        elif argv[0] == "translate" and "--derive" in argv and code == 1:
            # Left as it is: perfbench/verify.py reads this line.
            assert out.getvalue() == "refuted: no derivation to translate\n"
        elif "json" in argv:
            json.loads(out.getvalue())


class TestRepeatedCalls:
    """One process, many calls: no call may see another's flags."""

    def test_countermodel_kinds_do_not_carry_over(self, capsys):
        code, out, _ = run(
            capsys, "prove", AXIOM_M, "--logic", "E", "--model", "standard-rough",
            "--output", "json",
        )
        assert code == 1
        assert set(json.loads(out)["countermodels"]) == {"bi", "standard-rough"}
        code, out, _ = run(capsys, "prove", AXIOM_M, "--logic", "E", "--output", "json")
        assert code == 1
        assert set(json.loads(out)["countermodels"]) == {"bi"}

    def test_a_usage_error_leaves_the_next_call_alone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prove", "p", "--logic", "E", "--mode", "sideways"])
        assert exc.value.code == 2
        assert run(capsys, "prove", "p", "--logic", "QX")[0] == 2
        code, out, _ = run(capsys, "prove", "p -> p", "--logic", "E")
        assert code == 0
        assert out.startswith("proved (E")

    def test_lean_mode_leaves_the_recursion_limit_alone(self, capsys):
        deep = "(" * 200 + "p" + ")" * 200
        assert run(capsys, "prove", deep, "--logic", "E")[0] == 2
        assert run(capsys, "prove", "p -> p", "--logic", "E", "--mode", "unkleened")[0] == 0
        assert run(capsys, "prove", deep, "--logic", "E")[0] == 2


class TestClosedStdout:
    """A reader that closes its end of the pipe early, as ``| head`` does:
    the call keeps its exit code and writes nothing to stderr, or, when
    stderr is the closed pipe, nothing to stdout."""

    BIG = "box (p & q) & box (q & r) & box (r & s) & box (s & t) -> box (p & q & r & s & t)"

    @staticmethod
    def start(argv, stdout, stderr=subprocess.PIPE):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        return subprocess.Popen([sys.executable, "-m", "nnml.cli", *argv], stdout=stdout, stderr=stderr, env=env)

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["prove", "~box ~box true", "--logic", "MT"], 0),
            (["prove", "~box ~box true", "--logic", "MT", "--output", "json"], 0),
            (["prove", AXIOM_M, "--logic", "E", "--model", "standard-rough"], 1),
            (["translate", "p", "--logic", "E", "--derive"], 1),
            (["prove", "p & q -> q & p", "--logic", "E", "--budget", "1"], 4),
        ],
        ids=["proved", "proved-json", "refuted", "translate-refuted", "budget"],
    )
    def test_closed_before_the_first_write(self, argv, code):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.start(argv, write)
        finally:
            os.close(write)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (code, b"")

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_closed_after_the_first_line(self, output):
        # The output is larger than a pipe holds, so the writer is still
        # writing when the reader goes.
        proc = self.start(["prove", self.BIG, "--logic", "EC", "--output", output], subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.parametrize(
        "argv", [["prove", "p", "--logic", "QX"], ["prove", "p", "--logic"]], ids=["bad-logic", "no-logic-name"]
    )
    def test_closed_stderr_keeps_the_usage_exit(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.start(argv, subprocess.PIPE, write)
        finally:
            os.close(write)
        out, _ = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (2, b"")


def test_importing_the_cli_leaves_the_generators_unloaded():
    # The generators serve tests and scripts only; the CLI's start-up
    # time does not include them.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    code = "import sys, nnml.cli; print('nnml.gen' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "False\n")


class TestShowcase:
    def test_every_case_runs_through_the_cli(self, capsys, monkeypatch):
        script = Path(__file__).parent.parent / "scripts" / "showcase.py"
        monkeypatch.setattr(sys, "argv", [str(script)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(script), run_name="__main__")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.count("$ nnml prove ") == 9
        assert "[R-box]" in out and "countermodel [relational]:" in out
