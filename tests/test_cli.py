"""Command-line behaviour: exit codes, output schemas, verification."""

import json

import pytest

from nnml.cli import main
from nnml.models import BiModel, model_from_dict, model_to_dict

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

    def test_axioms_flag(self, capsys):
        code, _, _ = run(capsys, "prove", AXIOM_K, "--axioms", "M,C,N")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("prove", "p &&", "--logic", "E"),
            ("prove", "p", "--logic", "QX"),
            ("prove", "p"),
            ("prove", "p", "--logic", "ED3+", "--dplus", "2"),
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

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NNML_BUDGET", "1")
        code, _, _ = run(capsys, "prove", AXIOM_M, "--logic", "E")
        assert code == 4

    def test_budget_env_must_be_numeric(self, capsys, monkeypatch):
        monkeypatch.setenv("NNML_BUDGET", "lots")
        code, _, _ = run(capsys, "prove", AXIOM_M, "--logic", "E")
        assert code == 2

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
        code, _, _ = run(
            capsys, "prove", AXIOM_M, "--logic", "E", "--model", "relational"
        )
        assert code == 2

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
        assert rough.nbhd[1] == {frozenset(), frozenset({1})}
        fine = model_from_dict(payload["countermodels"]["standard-fine"])
        assert fine.nbhd[1] == {frozenset()}

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
        assert all(fine.worlds in fine.nbhd[w] for w in fine.worlds)

    def test_world_cap_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "prove", AXIOM_M, "--logic", "E", "--model", "standard-rough",
            "--rough-cap", "1",
        )
        assert code == 2
        assert err.startswith("error:")
        assert "--rough-cap" in err

    @pytest.mark.parametrize("depth, code", [(150, 1), (200, 2)])
    def test_deep_nesting(self, capsys, depth, code):
        text = "(" * depth + "p" + ")" * depth
        assert run(capsys, "prove", text, "--logic", "E")[0] == code
        assert run(capsys, "prove", f"{text} => q", "--logic", "E")[0] == code

    def test_proved_json_carries_the_derivation(self, capsys):
        code, out, _ = run(
            capsys, "prove", "p -> p", "--logic", "E", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "proved"
        assert payload["derivation"]["rule"] == "ImpR"


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

    def test_bad_formula(self, capsys, tmp_path):
        path = self.write_model(tmp_path, PAPER_MODEL)
        code, _, _ = run(capsys, "check-model", path, "p &", "--logic", "E")
        assert code == 2
        deep = "(" * 200 + "p" + ")" * 200
        code, _, err = run(capsys, "check-model", path, deep, "--logic", "E")
        assert code == 2
        assert "nested too deeply" in err


class TestTranslate:
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
