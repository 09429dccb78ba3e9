"""Byte-for-byte CLI output on a dozen small goals, in JSON and in text.

``cli_golden.json`` holds, per call, the arguments, the model file's
contents for ``check-model`` (written to ``MODEL``), the exit code and
the exact stdout. A change that is meant to keep the output must keep
this file as it is.

``cli_usage_golden.json`` holds, the same way, the help texts and a few
usage errors: the exit code, stdout and stderr of each, written by
argparse at 80 columns.
"""

import json
from pathlib import Path

import pytest

from nnml.cli import main

CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
USAGE = json.loads((Path(__file__).parent / "cli_usage_golden.json").read_text())


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c['case']} ({c['argv'][-1]})" for c in CASES]
)
def test_output_is_unchanged(case, capsys, tmp_path):
    argv = list(case["argv"])
    if case["model"] is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(case["model"]))
        argv[argv.index("MODEL")] = str(path)
    code = main(argv)
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("case", USAGE, ids=[c["case"] for c in USAGE])
def test_help_and_usage_errors_are_unchanged(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == (case["exit"], case["stdout"], case["stderr"])
