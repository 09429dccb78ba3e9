"""Walk the classic separation examples end to end through ``nnml``.

Each gallery entry is decided by ``nnml prove``, with the countermodel
the logic supports best (relational for regular logics, standard
otherwise); a proved entry in the classical cube is also shown as a
labelled derivation by ``nnml translate --derive``. Every call goes
through ``nnml.cli.main``, so each derivation and countermodel shown has
passed the CLI's audit. The same formula under two logics makes the
separation visible, e.g. the two-obligation dilemma is consistent in ED
but inconsistent once joint obligations or a three-way bound enter.

Usage:
    python3 scripts/showcase.py
    python3 scripts/showcase.py --case hansson-ecd --output json

Exits 0 when every call proved or refuted its goal, and otherwise with
the first other exit code of ``nnml``.
"""

from __future__ import annotations

import argparse
import shlex
import sys

from nnml.cli import EXIT_PROVED, EXIT_REFUTED, main as nnml
from nnml.logic import parse_logic_name

HANSSON = "~(box a1 & box a2 & box ~(a1 & a2))"

GALLERY = [
    ("monotonicity-e", "box (p & q) -> box p", "E"),
    ("monotonicity-m", "box (p & q) -> box p", "M"),
    ("distribution-ec", "box (p -> q) -> box p -> box q", "EC"),
    ("transitivity-mc", "box p -> box box p", "MC"),
    ("transitivity-mcnt", "box p -> box box p", "MCNT"),
    ("necessary-truth-ed", "~box true", "ED"),
    ("hansson-ed", HANSSON, "ED"),
    ("hansson-ed3+", HANSSON, "ED3+"),
    ("hansson-ecd", HANSSON, "ECD"),
]


def run(argv: list[str]) -> int:
    print(f"$ nnml {shlex.join(argv)}")
    code = nnml(argv)
    print()
    return code


def run_case(name: str, text: str, logic_name: str, output: str) -> int:
    logic = parse_logic_name(logic_name)
    kind = "relational" if logic.regular else "standard-fine"
    print(f"=== {name}: {text} in {logic_name}")
    flags = ["--logic", logic_name, "--output", output]
    code = run(["prove", text, *flags, "--model", kind])
    if code == EXIT_PROVED and logic.cube:
        code = run(["translate", text, *flags, "--derive"])
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", help="run a single named case", choices=[c[0] for c in GALLERY])
    ap.add_argument("--output", choices=("text", "json"), default="text")
    args = ap.parse_args(argv)

    for case in GALLERY:
        if args.case in (None, case[0]):
            code = run_case(*case, args.output)
            if code not in (EXIT_PROVED, EXIT_REFUTED):
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
