"""Command-line front end: the one path from a goal to printed output.

``prove`` decides a formula or hypersequent. A proof is printed only
after ``check_derivation`` accepts it; a refutation prints the saturated
leaf and countermodels, each re-verified first: its frame conditions
hold, and at each component's world every antecedent formula and every
block's boxed conjunction holds while no succedent formula does.
``translate`` gives the labelled sequent of a goal in the classical
cube, or with ``--derive`` the labelled derivation of its proof, printed
only after ``check_labelled`` accepts it. ``check-model`` evaluates a
formula in a JSON model and reports the logic's frame conditions.

``--logic`` names the logic, ``--budget`` bounds the hypersequents a
search may visit. Each command builds one payload, which ``--output
json`` prints as JSON and ``--output text`` as lines read off it.

Exit codes are a stable contract: 0 proved, 1 refuted, 2 usage or parse
error, 3 internal verification failure, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .formula import Box, TOP, parse, subformula_closure, to_text
from .hypersequent import Hypersequent, conjunction, parse_input, render_hypersequent
from .labelled import (
    TranslationError,
    check_labelled,
    labelled_derivation_to_dict,
    render_labelled_sequent,
    translate_derivation,
    translate_hypersequent,
)
from .logic import LogicNameError, LogicSpec, canonical_name, parse_logic_name
from .models import (
    check_conditions,
    conditions_ok,
    extract_bi_countermodel,
    extract_relational_countermodel,
    force,
    model_from_dict,
    model_to_dict,
    standard_from_bi_fine,
    standard_from_bi_rough,
    truth_set,
)
from .search import (
    BudgetExceeded,
    Proved,
    Refuted,
    check_derivation,
    derivation_to_dict,
    prove,
    prove_unkleened,
)

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BUDGET = 4

DEFAULT_BUDGET = 10**6


class CliError(Exception):
    """Bad flags or unparsable input: exit status 2."""


class InternalError(Exception):
    """A result failed its in-process verification: exit status 3."""


def _budget(args) -> int:
    if args.budget <= 0:
        raise CliError("budget must be positive")
    return args.budget


def _logic(args) -> LogicSpec:
    if args.logic is None:
        raise CliError("--logic is required")
    try:
        return parse_logic_name(args.logic)
    except LogicNameError as e:
        raise CliError(str(e))


def _parse_goal(text: str) -> Hypersequent:
    try:
        return parse_input(text)
    except ValueError as e:
        raise CliError(f"cannot parse input: {e}")


def _emit(args, payload: dict, text) -> None:
    """Print the payload as JSON, or as the text that text(payload) gives."""
    if args.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text(payload))


def _tree_text(tree: dict) -> str:
    """A tree from ``derivation_to_dict`` or ``labelled_derivation_to_dict``,
    one ``[rule] conclusion`` line per node, indented two spaces a level."""
    lines = []
    stack = [(tree, 0)]
    while stack:
        t, depth = stack.pop()
        lines.append(f"{'  ' * depth}[{t['rule']}] {t['conclusion']}")
        stack.extend((c, depth + 1) for c in reversed(t["premisses"]))
    return "\n".join(lines)


def _verify_countermodel(m, leaf: Hypersequent, world_for, l: LogicSpec) -> None:
    report = check_conditions(m, l)
    if not conditions_ok(report):
        bad = [k for k, (status, _) in report.items() if status == "fail"]
        raise InternalError(f"extracted model fails frame conditions: {', '.join(bad)}")
    # Formula by formula: the one formula a wide sequent asserts nests as
    # deep as the sequent is wide.
    for c in leaf.components:
        w = world_for(c.cid)
        s = c.seq
        holds = [*s.left, *(Box(conjunction(b.members)) for b in s.blocks)]
        if not all(force(m, w, f) for f in holds) or any(force(m, w, f) for f in s.right):
            raise InternalError(
                f"extracted model does not falsify component {c.cid} at world {w}"
            )


def _fine_formulas(root: Hypersequent, l: LogicSpec):
    """The formulas the fine standard model must agree on: the subformulas
    of the goal."""
    pool = []
    for c in root.components:
        pool.extend(c.seq.left)
        pool.extend(c.seq.right)
        for b in c.seq.blocks:
            pool.extend(b.members)
    if l.has_n:
        # box true holds everywhere in the bi model, which has N,
        # so every world's neighbourhoods then hold the world set.
        pool.append(Box(TOP))
    return subformula_closure(pool)


def _countermodels(outcome: Refuted, root: Hypersequent, l: LogicSpec, kinds, rough_cap: int) -> dict:
    """Build and verify the bi countermodel and every other requested kind;
    each goes out as its dict."""
    leaf, enumeration = outcome.leaf, outcome.enumeration
    by_enum = lambda cid: enumeration[cid]
    bi = extract_bi_countermodel(leaf, enumeration, l)
    _verify_countermodel(bi, leaf, by_enum, l)
    out = {}
    for kind in dict.fromkeys(kinds if "bi" in kinds else ["bi", *kinds]):
        if kind == "bi":
            out[kind] = model_to_dict(bi)
            continue
        if kind == "relational":
            if not l.regular:
                raise CliError("relational countermodels need a regular logic (M and C)")
            m = extract_relational_countermodel(leaf, l)
            _verify_countermodel(m, leaf, lambda cid: cid, l)
            out[kind] = model_to_dict(m)
            continue
        try:
            if kind == "standard-rough":
                m = standard_from_bi_rough(bi, cap=rough_cap)
            else:
                m = standard_from_bi_fine(
                    bi, _fine_formulas(root, l), supplement=l.monotonic, cap=rough_cap
                )
        except ValueError as e:
            raise CliError(f"{kind} countermodel: {e}; --rough-cap sets the cap") from None
        _verify_countermodel(m, leaf, by_enum, l)
        out[kind] = model_to_dict(m)
    return out


def _refuted_text(p: dict) -> str:
    lines = [
        f"refuted ({p['logic']}, {p['visited']} nodes visited)",
        f"saturated leaf: {p['saturated_leaf']}",
    ]
    for kind, m in p["countermodels"].items():
        lines += [f"countermodel [{kind}]:", json.dumps(m, indent=2)]
    return "\n".join(lines)


def cmd_prove(args) -> int:
    budget, l = _budget(args), _logic(args)
    h = _parse_goal(args.input)
    if args.mode == "unkleened":
        if args.model:
            raise CliError("countermodels are only available in invertible mode")
        ok = prove_unkleened(h, l, budget=budget)
        payload = {
            "logic": canonical_name(l),
            "mode": args.mode,
            "input": render_hypersequent(h),
            "outcome": "proved" if ok else "refuted",
        }
        _emit(args, payload, lambda p: f"{p['outcome']} ({p['logic']}, unkleened mode)")
        return EXIT_PROVED if ok else EXIT_REFUTED

    outcome = prove(h, l, budget=budget)
    payload = {"logic": canonical_name(l), "input": render_hypersequent(h)}
    if isinstance(outcome, Proved):
        report = check_derivation(outcome.derivation, l)
        if not report:
            raise InternalError(f"derivation failed its audit: {report.reason}")
        payload.update(
            outcome="proved", visited=outcome.visited, derivation=derivation_to_dict(outcome.derivation)
        )
        _emit(
            args,
            payload,
            lambda p: f"proved ({p['logic']}, {p['visited']} nodes visited)\n{_tree_text(p['derivation'])}",
        )
        return EXIT_PROVED

    payload.update(
        outcome="refuted",
        visited=outcome.visited,
        saturated_leaf=render_hypersequent(outcome.leaf),
        enumeration={str(cid): n for cid, n in sorted(outcome.enumeration.items())},
        countermodels=_countermodels(outcome, h, l, args.model or [], args.rough_cap),
    )
    _emit(args, payload, _refuted_text)
    return EXIT_REFUTED


def _witness_text(w):
    if isinstance(w, frozenset):
        return sorted(_witness_text(v) for v in w)
    if isinstance(w, tuple):
        return [_witness_text(v) for v in w]
    return w


def cmd_check_model(args) -> int:
    l = _logic(args)
    try:
        with open(args.model_file) as fh:
            data = json.load(fh)
        m = model_from_dict(data)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise CliError(f"cannot load model: {e}")
    try:
        f = parse(args.formula)
    except ValueError as e:
        raise CliError(f"cannot parse formula: {e}")
    ts = truth_set(m, f)
    report = check_conditions(m, l)
    payload = {
        "logic": canonical_name(l),
        "formula": to_text(f),
        "true_at": sorted(ts),
        "false_at": sorted(m.worlds - ts),
        "conditions": {k: status for k, (status, _) in sorted(report.items())},
    }

    def text(p: dict) -> str:
        lines = [f"formula: {p['formula']}"]
        lines += [f"  world {w}: {'true' if w in ts else 'false'}" for w in sorted(m.worlds)]
        lines.append("frame conditions:")
        for k, (status, witness) in sorted(report.items()):
            extra = f"  (witness: {_witness_text(witness)})" if witness is not None else ""
            lines.append(f"  {k}: {status}{extra}")
        return "\n".join(lines)

    _emit(args, payload, text)
    return EXIT_PROVED


def cmd_translate(args) -> int:
    budget, l = _budget(args), _logic(args)
    if not l.cube:
        raise CliError("translation covers the classical cube only")
    h = _parse_goal(args.input)
    payload = {"logic": canonical_name(l), "input": render_hypersequent(h)}
    if not args.derive:
        payload["labelled"] = render_labelled_sequent(translate_hypersequent(h, l))
        _emit(args, payload, lambda p: p["labelled"])
        return EXIT_PROVED
    outcome = prove(h, l, budget=budget)
    if isinstance(outcome, Refuted):
        print("refuted: no derivation to translate")
        return EXIT_REFUTED
    ld = translate_derivation(outcome.derivation, l)
    report = check_labelled(ld, l)
    if not report:
        raise InternalError(f"translated derivation failed its audit: {report.reason}")
    payload.update(outcome="proved", derivation=labelled_derivation_to_dict(ld))
    _emit(args, payload, lambda p: _tree_text(p["derivation"]))
    return EXIT_PROVED


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and building it costs more than most calls."""
    parser = argparse.ArgumentParser(
        prog="nnml",
        description="Decision procedures, countermodels, and labelled translations "
        "for non-normal modal logics. Exit codes: 0 proved, 1 refuted, "
        "2 usage or parse error, 3 internal verification failure, 4 budget exceeded.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    prove_p = sub.add_parser("prove", help="decide a formula or hypersequent")
    prove_p.add_argument("input", help="formula or hypersequent text")
    check_p = sub.add_parser("check-model", help="evaluate a formula in a JSON model")
    check_p.add_argument("model_file", help="path to a serialized model")
    check_p.add_argument("formula", help="formula text")
    translate_p = sub.add_parser("translate", help="translate into a labelled sequent or derivation")
    translate_p.add_argument("input", help="formula or hypersequent text")

    for p, func in ((prove_p, cmd_prove), (check_p, cmd_check_model), (translate_p, cmd_translate)):
        p.add_argument(
            "--logic",
            help="the logic: a base E, M, EC, MC, EN, MN, ECN, MCN or K, then any of "
            "the suffixes T, P, D and Dn+ (e.g. MCNT, ED3+)",
        )
        p.add_argument(
            "--output", choices=["text", "json"], default="text",
            help="print the result as JSON, or as text read off the same payload",
        )
        if p is not check_p:
            p.add_argument(
                "--budget",
                type=int,
                default=DEFAULT_BUDGET,
                help="most hypersequents a search may visit before exit 4 (default: %(default)s)",
            )
        p.set_defaults(func=func)
    prove_p.add_argument(
        "--mode", choices=["invertible", "unkleened"], default="invertible",
        help="invertible: a derivation or countermodels; unkleened: the "
        "principal-deleting search, verdict only",
    )
    prove_p.add_argument(
        "--model",
        action="append",
        choices=["bi", "standard-fine", "standard-rough", "relational"],
        help="countermodel kinds to emit on refutation (bi is always included)",
    )
    prove_p.add_argument(
        "--rough-cap", dest="rough_cap", type=int, default=20,
        help="most worlds a standard model may be built from (default: %(default)s)",
    )
    translate_p.add_argument("--derive", action="store_true", help="prove first, then translate the derivation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        _emit(
            args,
            {"outcome": "budget-exceeded", "visited": e.visited, "budget": e.budget},
            lambda p: f"budget exceeded after {p['visited']} nodes (budget {p['budget']})",
        )
        return EXIT_BUDGET
    except (CliError, TranslationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
