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
json`` prints as JSON and ``--output text`` as lines read off it. The
JSON is indented two spaces a level, as ``json.dumps(payload, indent=2)``
would print it, but written without recursion, so a proof tree of any
depth prints; every formula and sequent text in it was made once. Each
countermodel goes into the payload already written, as the text of
``model_to_json``, which the writer splices in at its indent and text
output prints as it is.

Exit codes are a stable contract: 0 proved, 1 refuted, 2 usage or parse
error, 3 internal verification failure, 4 budget exceeded. Input nested
too deeply for the interpreter's stack is a usage error. A reader that
closes stdout or stderr early does not change them: the rest of the
output is dropped, with no traceback.

A refutation numbers its worlds by position: the n-th component of the
saturated leaf is world n of every countermodel, and the JSON payload
maps each component number to its world.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .formula import Box, TOP, parse, subformula_closure, to_text
from .hypersequent import Hypersequent, assumptions, parse_input, render_hypersequent
from .labelled import (
    TranslationError,
    check_labelled,
    labelled_derivation_to_dict,
    render_labelled_sequent,
    translate_derivation,
    translate_hypersequent,
)
from .logic import LogicNameError, LogicSpec, canonical_name, parse_logic_name
# ``force`` and ``model_to_dict`` are not called here, but stay names of
# this module: the benchmark's tracer (perfbench/spans.py) times each
# layer by wrapping the functions this module names, these among them.
from .models import (
    check_conditions,
    conditions_ok,
    extract_bi_countermodel,
    extract_relational_countermodel,
    force,
    model_from_dict,
    model_to_dict,
    model_to_json,
    standard_from_bi_fine,
    standard_from_bi_rough,
    truth_masks,
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


_ESCAPE = json.encoder.encode_basestring_ascii
_SCALARS = {
    str: _ESCAPE,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


class _Fragment(str):
    """JSON text that ``_dumps`` writes where it sits: text printed as
    ``json.dumps(value, indent=2)`` prints a value at the top level."""


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2)`` for dicts with str keys, lists, str,
    int, bool, None and fragments, written without recursion.

    A stack holds the open containers. The scalar items of a container are
    written in one inner loop. A ``_Fragment``, such as a countermodel's
    text, is written as the value it prints: indented to its place by
    putting that place's indent after each of its newlines. That is
    exact, since ASCII-escaped JSON holds no newline inside a string.
    """
    out: list[str] = []
    # Each open container: its items not yet written, whether it is a dict,
    # the text before each later item, and its closing text.
    stack: list[tuple] = []
    value, pad = obj, "\n"
    while True:
        t = type(value)
        if t is dict and value:
            items = iter(value.items())
            key, value = next(items)
            out.append("{" + pad + "  " + _ESCAPE(key) + ": ")
            stack.append((items, True, "," + pad + "  ", pad + "}"))
            pad += "  "
            continue
        if t is list and value:
            items = iter(value)
            value = next(items)
            out.append("[" + pad + "  ")
            stack.append((items, False, "," + pad + "  ", pad + "]"))
            pad += "  "
            continue
        if t is dict:
            out.append("{}")
        elif t is list:
            out.append("[]")
        elif t is _Fragment:
            out.append(value.replace("\n", pad))
        elif t in _SCALARS:
            out.append(_SCALARS[t](value))
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
        # The value is written: write the scalars that follow it, up to the
        # next container to open.
        while stack:
            items, is_dict, sep, close = stack[-1]
            for value in items:
                if is_dict:
                    key, value = value
                    text = sep + _ESCAPE(key) + ": "
                else:
                    text = sep
                write = _SCALARS.get(type(value))
                if write is None:
                    out.append(text)
                    pad = sep[1:]
                    break
                out.append(text + write(value))
            else:
                stack.pop()
                out.append(close)
                continue
            break
        else:
            return "".join(out)


def _emit(args, payload: dict, text) -> None:
    """Print the payload as JSON, or as the text that text(payload) gives."""
    _write(_dumps(payload) if args.output == "json" else text(payload))


def _write(line: str, stream=None) -> None:
    """Print a line to stdout, or to ``stream``, and flush it. When the
    reader has closed the pipe, the stream goes to the null device
    instead, so that neither this write nor the flush at exit raises."""
    stream = stream or sys.stdout
    try:
        print(line, file=stream, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


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


def _verify_countermodel(m, leaf: Hypersequent, l: LogicSpec) -> None:
    report = check_conditions(m, l)
    if not conditions_ok(report):
        bad = [k for k, (status, _) in report.items() if status == "fail"]
        raise InternalError(f"extracted model fails frame conditions: {', '.join(bad)}")
    # Formula by formula: the one formula a wide sequent asserts nests as
    # deep as the sequent is wide. All of them are evaluated together, so
    # that subformulas the components share are evaluated once.
    tests = [(w, assumptions(s), s.right) for w, s in enumerate(leaf.components, 1)]
    masks = truth_masks(m, [f for _, holds, fails in tests for f in (*holds, *fails)])
    for w, holds, fails in tests:
        here = m.bit[w]
        if not all(masks[f] & here for f in holds) or any(masks[f] & here for f in fails):
            raise InternalError(f"extracted model does not falsify component {w} at world {w}")


def _fine_formulas(root: Hypersequent, l: LogicSpec):
    """The formulas the fine standard model must agree on: the subformulas
    of what the goal asserts, each block read as its boxed conjunction,
    as ``_verify_countermodel`` reads it."""
    pool = []
    for s in root.components:
        pool.extend(assumptions(s))
        pool.extend(s.right)
    if l.has_n:
        # box true holds everywhere in the bi model, which has N,
        # so every world's neighbourhoods then hold the world set.
        pool.append(Box(TOP))
    return subformula_closure(pool)


def _countermodels(outcome: Refuted, root: Hypersequent, l: LogicSpec, kinds, rough_cap: int) -> dict:
    """Build and verify the bi countermodel and every other requested kind;
    each goes out as its JSON text, a fragment of the payload."""
    leaf = outcome.leaf
    bi = extract_bi_countermodel(leaf, l)
    _verify_countermodel(bi, leaf, l)
    out = {}
    for kind in dict.fromkeys(kinds if "bi" in kinds else ["bi", *kinds]):
        if kind == "bi":
            out[kind] = _Fragment(model_to_json(bi))
            continue
        if kind == "relational":
            if not l.regular:
                raise CliError("relational countermodels need a regular logic (M and C)")
            m = extract_relational_countermodel(leaf, l)
            _verify_countermodel(m, leaf, l)
            out[kind] = _Fragment(model_to_json(m))
            continue
        try:
            if kind == "standard-rough":
                m = standard_from_bi_rough(bi, cap=rough_cap)
            else:
                m = standard_from_bi_fine(
                    bi, _fine_formulas(root, l), supplement=l.monotonic, cap=rough_cap,
                    intersect=l.has_c,
                )
        except ValueError as e:
            raise CliError(f"{kind} countermodel: {e}; --rough-cap sets the cap") from None
        _verify_countermodel(m, leaf, l)
        out[kind] = _Fragment(model_to_json(m))
    return out


def _refuted_text(p: dict) -> str:
    lines = [
        f"refuted ({p['logic']}, {p['visited']} nodes visited)",
        f"saturated leaf: {p['saturated_leaf']}",
    ]
    for kind, m in p["countermodels"].items():
        lines += [f"countermodel [{kind}]:", m]
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
        enumeration={str(n): n for n in range(1, len(outcome.leaf.components) + 1)},
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
        _write("refuted: no derivation to translate")
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
        _write(f"error: {e}", sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        _write("error: input nested too deeply", sys.stderr)
        return EXIT_USAGE
    except InternalError as e:
        _write(f"internal error: {e}", sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
