"""Byte-for-byte CLI output on a dozen small goals, in JSON and in text.

``cli_golden.json`` holds, per call, the arguments, the model file's
contents for ``check-model`` (written to ``MODEL``), the exit code and
the exact stdout. A change that is meant to keep the output must keep
this file as it is.
"""

import json
from pathlib import Path

import pytest

from nnml.cli import main

CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


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
