"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

import goalset
import speed
import verify

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_report_names_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def _model(kind: str, worlds, valuation, nbhd) -> dict:
    return {"worlds": worlds, "valuation": valuation, kind: nbhd}


def test_rejects_a_countermodel_that_does_not_falsify_the_goal():
    goal = goalset.Goal(goalset.atom("p"), goalset.logic("E"), ("bi",))
    falsifies = _model("bi", [1], {}, {"1": []})
    verifies = _model("bi", [1], {"p": [1]}, {"1": []})
    assert verify.countermodel_problems(falsifies, goal, "", 1) == []
    assert verify.countermodel_problems(verifies, goal, "", 1) == [
        "bi model does not falsify the goal at world 1"
    ]


def test_rejects_a_standard_model_that_breaks_n():
    goal = goalset.Goal(goalset.atom("p"), goalset.logic("EN"), ("standard-fine",))
    normal = _model("standard", [1, 2], {"p": [2]}, {"1": [[1, 2]], "2": [[1, 2]]})
    broken = _model("standard", [1, 2], {"p": [2]}, {"1": [[1, 2]], "2": [[2]]})
    assert verify.countermodel_problems(normal, goal, "", 1) == []
    assert verify.countermodel_problems(broken, goal, "", 1) == [
        "standard model breaks frame conditions: N"
    ]


def test_rounds_rename_atoms_without_changing_the_formula():
    f = goalset.hansson(2)
    assert goalset.render(f) == "~(box p1 & box p2 & box ~(p1 & p2))"
    assert goalset.render(f, "r3_") == "~(box r3_p1 & box r3_p2 & box ~(r3_p1 & r3_p2))"
    assert goalset.render(goalset.agglomeration(2)) == "box p1 & box p2 -> box (p1 & p2)"


def test_frame_checks_cover_intersection_and_graded_d():
    mc = goalset.logic("MC")
    # Upward closed over {1, 2, 3}, yet {1, 2} & {2, 3} = {2} is missing.
    up = [[1, 2], [2, 3], [1, 2, 3]]
    model = verify.load_model(_model("standard", [1, 2, 3], {}, {"1": up, "2": up, "3": up}))
    assert verify.standard_violations(model, mc) == ["C"]
    ed2 = goalset.logic("ED2+")
    # {1} and {2} meet in nothing, so two obligations clash.
    sets = [[1], [2], [1, 2]]
    model = verify.load_model(_model("standard", [1, 2], {}, {"1": sets, "2": sets}))
    assert verify.standard_violations(model, ed2) == ["RD2+"]


def test_reference_speed_scales_by_the_loop_around_the_work():
    ref = speed.REFERENCE_S
    assert speed.scale(ref, ref) == 1
    assert speed.scale(2 * ref, 2 * ref) == 0.5
    assert gc.isenabled()
    assert speed.probe() > 0
    assert gc.isenabled()
