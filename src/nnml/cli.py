"""Command-line front-end for proving, model checking and translation.

Exit codes are a stable contract: 0 proved, 1 refuted, 2 usage or parse
error, 3 internal verification failure, 4 budget exceeded. Every
countermodel is re-verified in process (frame conditions plus
falsification of each component at its world) before it is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import cache

from .formula import Box, Formula, TOP, parse, subformula_closure, to_text
from .hypersequent import Hypersequent, interpret, parse_input, render_hypersequent
from .labelled import (
    TranslationError,
    check_labelled,
    labelled_derivation_to_dict,
    render_labelled_sequent,
    translate_derivation,
    translate_hypersequent,
)
from .logic import LogicNameError, LogicSpec, canonical_name, logic_from_axioms, parse_logic_name
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
    Derivation,
    Proved,
    Refuted,
    SearchStats,
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


@dataclass(frozen=True, slots=True)
class Config:
    logic: LogicSpec
    mode: str = "invertible"
    output: str = "text"
    budget: int = DEFAULT_BUDGET
    rough_cap: int = 20


def _resolve_logic(args) -> LogicSpec:
    if getattr(args, "axioms", None):
        names = [a.strip() for a in args.axioms.split(",") if a.strip()]
        try:
            return logic_from_axioms(names, getattr(args, "dplus", None))
        except LogicNameError as e:
            raise CliError(str(e))
    if getattr(args, "logic", None):
        if getattr(args, "dplus", None) is not None:
            raise CliError("--dplus only combines with --axioms; name the graded logic instead (e.g. ED3+)")
        try:
            return parse_logic_name(args.logic)
        except LogicNameError as e:
            raise CliError(str(e))
    raise CliError("one of --logic or --axioms is required")


def _build_config(args) -> Config:
    budget = getattr(args, "budget", DEFAULT_BUDGET)  # check-model never searches
    if budget is None:
        env = os.environ.get("NNML_BUDGET")
        if env is not None:
            try:
                budget = int(env)
            except ValueError:
                raise CliError(f"NNML_BUDGET is not a number: {env!r}")
        else:
            budget = DEFAULT_BUDGET
    if budget <= 0:
        raise CliError("budget must be positive")
    return Config(
        logic=_resolve_logic(args),
        mode=getattr(args, "mode", "invertible"),
        output=args.output,
        budget=budget,
        rough_cap=getattr(args, "rough_cap", 20),
    )


def _parse_goal(text: str) -> Hypersequent:
    try:
        return parse_input(text)
    except ValueError as e:
        raise CliError(f"cannot parse input: {e}")


def _render_derivation_text(d: Derivation, depth: int = 0) -> list[str]:
    lines = [f"{'  ' * depth}[{d.rule.render()}] {render_hypersequent(d.conclusion)}"]
    for c in d.children:
        lines.extend(_render_derivation_text(c, depth + 1))
    return lines


def _verify_countermodel(m, leaf: Hypersequent, world_for, l: LogicSpec) -> None:
    report = check_conditions(m, l)
    if not conditions_ok(report):
        bad = [k for k, (status, _) in report.items() if status == "fail"]
        raise InternalError(f"extracted model fails frame conditions: {', '.join(bad)}")
    for c in leaf.components:
        w = world_for(c.cid)
        if force(m, w, interpret(c.seq)):
            raise InternalError(
                f"extracted model does not falsify component {c.cid} at world {w}"
            )


def _countermodels(leaf: Hypersequent, enumeration: dict[int, int], root: Hypersequent, cfg: Config, kinds: list[str]):
    """Build, verify, and serialize every requested countermodel kind."""
    out = []
    bi = extract_bi_countermodel(leaf, enumeration, cfg.logic)
    by_enum = lambda cid: enumeration[cid]
    _verify_countermodel(bi, leaf, by_enum, cfg.logic)
    for kind in kinds:
        if kind == "bi":
            out.append((kind, bi))
            continue
        if kind == "standard-rough":
            try:
                m = standard_from_bi_rough(bi, cap=cfg.rough_cap)
            except ValueError as e:
                raise CliError(f"{kind} countermodel: {e}; --rough-cap sets the cap") from None
            _verify_countermodel(m, leaf, by_enum, cfg.logic)
            out.append((kind, m))
            continue
        if kind == "standard-fine":
            pool = []
            for c in root.components:
                pool.extend(c.seq.left)
                pool.extend(c.seq.right)
                for b in c.seq.blocks:
                    pool.extend(b.members)
            if cfg.logic.has_n:
                # box true holds everywhere in the bi model, which has N,
                # so every world's neighbourhoods then hold the world set.
                pool.append(Box(TOP))
            try:
                m = standard_from_bi_fine(
                    bi, subformula_closure(pool), supplement=cfg.logic.monotonic, cap=cfg.rough_cap
                )
            except ValueError as e:
                raise CliError(f"{kind} countermodel: {e}; --rough-cap sets the cap") from None
            _verify_countermodel(m, leaf, by_enum, cfg.logic)
            out.append((kind, m))
            continue
        if kind == "relational":
            if not cfg.logic.regular:
                raise CliError("relational countermodels need a regular logic (M and C)")
            m = extract_relational_countermodel(leaf, cfg.logic)
            _verify_countermodel(m, leaf, lambda cid: cid, cfg.logic)
            out.append((kind, m))
            continue
        raise CliError(f"unknown countermodel kind: {kind}")
    return out


def cmd_prove(args) -> int:
    cfg = _build_config(args)
    h = _parse_goal(args.input)
    kinds = list(dict.fromkeys(args.model or []))
    if cfg.mode == "unkleened":
        if kinds:
            raise CliError("countermodels are only available in invertible mode")
        try:
            ok = prove_unkleened(h, cfg.logic, budget=cfg.budget)
        except BudgetExceeded as e:
            _emit_budget(cfg, e)
            return EXIT_BUDGET
        payload = {
            "logic": canonical_name(cfg.logic),
            "mode": cfg.mode,
            "input": render_hypersequent(h),
            "outcome": "proved" if ok else "refuted",
        }
        if cfg.output == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(f"{payload['outcome']} ({canonical_name(cfg.logic)}, unkleened mode)")
        return EXIT_PROVED if ok else EXIT_REFUTED

    if "bi" not in kinds:
        kinds.insert(0, "bi")
    stats = SearchStats()
    try:
        outcome = prove(h, cfg.logic, budget=cfg.budget, stats=stats)
    except BudgetExceeded as e:
        _emit_budget(cfg, e)
        return EXIT_BUDGET

    if isinstance(outcome, Proved):
        report = check_derivation(outcome.derivation, cfg.logic)
        if not report:
            raise InternalError(f"derivation failed its audit: {report.reason}")
        if cfg.output == "json":
            print(
                json.dumps(
                    {
                        "logic": canonical_name(cfg.logic),
                        "input": render_hypersequent(h),
                        "outcome": "proved",
                        "visited": stats.visited,
                        "derivation": derivation_to_dict(outcome.derivation),
                    },
                    indent=2,
                )
            )
        else:
            print(f"proved ({canonical_name(cfg.logic)}, {stats.visited} nodes visited)")
            print("\n".join(_render_derivation_text(outcome.derivation)))
        return EXIT_PROVED

    leaf, enumeration = outcome.leaf, outcome.enumeration
    models = _countermodels(leaf, enumeration, h, cfg, kinds)
    if cfg.output == "json":
        print(
            json.dumps(
                {
                    "logic": canonical_name(cfg.logic),
                    "input": render_hypersequent(h),
                    "outcome": "refuted",
                    "visited": stats.visited,
                    "saturated_leaf": render_hypersequent(leaf),
                    "enumeration": {str(cid): n for cid, n in sorted(enumeration.items())},
                    "countermodels": {kind: model_to_dict(m) for kind, m in models},
                },
                indent=2,
            )
        )
    else:
        print(f"refuted ({canonical_name(cfg.logic)}, {stats.visited} nodes visited)")
        print(f"saturated leaf: {render_hypersequent(leaf)}")
        for kind, m in models:
            print(f"countermodel [{kind}]:")
            print(json.dumps(model_to_dict(m), indent=2))
    return EXIT_REFUTED


def _emit_budget(cfg: Config, e: BudgetExceeded) -> None:
    msg = {"outcome": "budget-exceeded", "visited": e.visited, "budget": e.budget}
    if cfg.output == "json":
        print(json.dumps(msg, indent=2))
    else:
        print(f"budget exceeded after {e.visited} nodes (budget {e.budget})")


def _witness_text(w):
    if isinstance(w, frozenset):
        return sorted(_witness_text(v) for v in w)
    if isinstance(w, tuple):
        return [_witness_text(v) for v in w]
    return w


def cmd_check_model(args) -> int:
    cfg = _build_config(args)
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
    report = check_conditions(m, cfg.logic)
    if cfg.output == "json":
        print(
            json.dumps(
                {
                    "logic": canonical_name(cfg.logic),
                    "formula": to_text(f),
                    "true_at": sorted(ts),
                    "false_at": sorted(m.worlds - ts),
                    "conditions": {k: status for k, (status, _) in sorted(report.items())},
                },
                indent=2,
            )
        )
    else:
        print(f"formula: {to_text(f)}")
        for w in sorted(m.worlds):
            print(f"  world {w}: {'true' if w in ts else 'false'}")
        print("frame conditions:")
        for k, (status, witness) in sorted(report.items()):
            extra = f"  (witness: {_witness_text(witness)})" if witness is not None else ""
            print(f"  {k}: {status}{extra}")
    return EXIT_PROVED


def cmd_translate(args) -> int:
    cfg = _build_config(args)
    if not cfg.logic.cube:
        raise CliError("translation covers the classical cube only")
    h = _parse_goal(args.input)
    if not args.derive:
        s = translate_hypersequent(h, cfg.logic)
        if cfg.output == "json":
            print(
                json.dumps(
                    {
                        "logic": canonical_name(cfg.logic),
                        "input": render_hypersequent(h),
                        "labelled": render_labelled_sequent(s),
                    },
                    indent=2,
                )
            )
        else:
            print(render_labelled_sequent(s))
        return EXIT_PROVED
    try:
        outcome = prove(h, cfg.logic, budget=cfg.budget)
    except BudgetExceeded as e:
        _emit_budget(cfg, e)
        return EXIT_BUDGET
    if isinstance(outcome, Refuted):
        print("refuted: no derivation to translate")
        return EXIT_REFUTED
    ld = translate_derivation(outcome.derivation, cfg.logic)
    report = check_labelled(ld, cfg.logic)
    if not report:
        raise InternalError(f"translated derivation failed its audit: {report.reason}")
    if cfg.output == "json":
        print(
            json.dumps(
                {
                    "logic": canonical_name(cfg.logic),
                    "input": render_hypersequent(h),
                    "outcome": "proved",
                    "derivation": labelled_derivation_to_dict(ld),
                },
                indent=2,
            )
        )
    else:
        def walk(node, depth):
            lines = [f"{'  ' * depth}[{node.rule}] {render_labelled_sequent(node.conclusion)}"]
            for c in node.children:
                lines.extend(walk(c, depth + 1))
            return lines

        print("\n".join(walk(ld, 0)))
    return EXIT_PROVED


def _add_logic_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--logic", help="logic by name, e.g. E, MC, MCN, K, ET, ED3+")
    p.add_argument("--axioms", help="comma-separated axioms, e.g. M,C,N or C,D")
    p.add_argument("--dplus", type=int, help="grade for the iterated D axiom (with --axioms)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and building it costs more than most calls."""
    parser = argparse.ArgumentParser(
        prog="nnml",
        description="Decision procedures, countermodels, and labelled translations "
        "for non-normal modal logics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="decide a formula or hypersequent")
    p.add_argument("input", help="formula or hypersequent text")
    _add_logic_flags(p)
    p.add_argument("--mode", choices=["invertible", "unkleened"], default="invertible")
    p.add_argument(
        "--model",
        action="append",
        choices=["bi", "standard-fine", "standard-rough", "relational"],
        help="countermodel kinds to emit on refutation (bi is always included)",
    )
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--rough-cap", dest="rough_cap", type=int, default=20)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("check-model", help="evaluate a formula in a JSON model")
    p.add_argument("model_file", help="path to a serialized model")
    p.add_argument("formula", help="formula text")
    _add_logic_flags(p)
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("translate", help="translate into a labelled sequent or derivation")
    p.add_argument("input", help="formula or hypersequent text")
    _add_logic_flags(p)
    p.add_argument("--derive", action="store_true", help="prove first, then translate the derivation")
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_translate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TranslationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
