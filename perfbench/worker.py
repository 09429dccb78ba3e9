"""One workload in one process: a single closed-loop caller of ``nnml.cli.main``.

Usage (run.py starts it in a fresh interpreter with ``src`` on the path):

    python3 perfbench/worker.py --workload corpus --seed 1 --seconds 30 --trace 0

Every goal runs ``prove`` with the countermodel kinds goalset.py gives it,
``prove --mode unkleened`` unless goalset.py leaves it out, and, in the
classical cube, ``translate
--derive``, each as one in-process CLI call with ``--output json``. A
call fails when it exits with a code other than 0 or 1, raises, or gives
output that the checks in verify.py reject; a rejected output also makes
the run incorrect. Rounds of goals repeat until ``--seconds`` have
passed, and only whole rounds run, so the failed share of a run is fixed.
Every time is reported at the reference speed of speed.py, from the
reference loop timed before and after each goal.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 1`` even rounds
are traced (spans.py) and give the per-layer metrics; odd rounds are not,
and give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import goalset
import speed
import verify
from spans import Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"

# peak_rss_mb is read after this many rounds, which every run completes, so
# that it measures the same work whatever the machine's speed. The program
# caches every formula it sees, so its memory grows with the goals it has run.
RSS_ROUNDS = {"corpus": 12, "hard-proved": 4, "hard-refuted": 4}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _count_proof_nodes(d: dict) -> int:
    count, stack = 0, [d]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node["premisses"])
    return count


class Run:
    def __init__(self, cli):
        self.cli = cli
        self.tracer: Tracer | None = None  # set while a traced round runs
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # outputs the checks rejected
        self.problems: list[str] = []  # the first few failures, for stderr
        # Milliseconds of each goal and each call at the reference speed,
        # one list per round.
        self.goal_ms: list[list[float]] = []
        self.call_ms: dict[str, list[list[float]]] = {"prove": [], "lean": [], "translate": []}
        self.rounds: list[tuple[bool, int, float]] = []  # (traced, goals, CLI seconds at the reference speed)
        self.probes: list[float] = []  # seconds of each run of the reference loop
        self.peak_rss_mb = 0.0
        # Counts from the JSON of traced rounds.
        self.counts = {"goals": 0, "calls": 0, "output_bytes": 0, "prove_nodes": 0, "proof_nodes": 0, "worlds": 0}

    def call(self, cmd: str, argv: list[str]) -> tuple[int | None, str, float]:
        """One CLI call; returns its exit code (None if it raised), stdout, measured seconds."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer:
            self.tracer.begin_call(argv[0])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as e:  # argparse exits 2 on a usage error
                rc = e.code
            except Exception as e:  # a traceback is a failed operation, not the end of the run
                rc = None
                print(f"{type(e).__name__}: {e}", file=err)
            t1 = time.perf_counter()
        if self.tracer:
            self.tracer.end_call(t0, t1)
        self.attempted += 1
        if rc not in (0, 1):
            self.failed += 1
            self._note(f"{cmd} {argv[1]!r} --logic {argv[3]}: exit {rc}: {err.getvalue().strip()[-200:]}")
        return rc, out.getvalue(), t1 - t0

    def _note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    def reject(self, cmd: str, goal: goalset.Goal, text: str, problems: list[str]) -> None:
        """A wrong answer: the call (if one is to blame) fails and the run is incorrect."""
        self.failed += cmd != "goal"
        self.wrong += 1
        for p in problems:
            self._note(f"wrong output of {cmd} {text!r} --logic {goal.logic.name}: {p}")

    def goal(self, goal: goalset.Goal, prefix: str) -> list[tuple[str, float]]:
        """Run and check every call of one goal; returns each call's measured seconds."""
        text = goalset.render(goal.formula, prefix)
        flags = ["--logic", goal.logic.name, "--output", "json"]
        if goal.budget is not None:
            flags += ["--budget", str(goal.budget)]
        models = [arg for kind in goal.kinds for arg in ("--model", kind)]
        calls = [("prove", ["prove", text, *flags, *models], verify.prove_problems)]
        if goal.lean:
            calls.append(("lean", ["prove", text, *flags, "--mode", "unkleened"], verify.lean_problems))
        if goal.logic.cube:
            calls.append(("translate", ["translate", text, *flags, "--derive"], verify.translate_problems))
        verdicts: dict[str, bool] = {}
        times = []
        for cmd, argv, check in calls:
            rc, out, seconds = self.call(cmd, argv)
            times.append((cmd, seconds))
            if self.tracer:
                self._count(cmd, out)
            if rc not in (0, 1):
                continue
            try:
                problems = check(goal, prefix, rc, out)
            except (ValueError, KeyError, TypeError) as e:
                problems = [f"unreadable output: {type(e).__name__}: {e}"]
            if problems:
                self.reject(cmd, goal, text, problems)
                continue
            verdicts[cmd] = rc == 0
        problems = verify.verdict_problems(goal, verdicts)
        if problems:
            self.reject("goal", goal, text, problems)
        if self.tracer:
            self.counts["goals"] += 1
        return times

    def _count(self, cmd: str, out: str) -> None:
        """Counts read off a call's output; a budget stop reports its nodes too."""
        self.counts["calls"] += 1
        self.counts["output_bytes"] += len(out.encode())
        if cmd != "prove" or not out:
            return
        try:
            data = json.loads(out)
        except ValueError:
            return  # the checks report it
        self.counts["prove_nodes"] += data.get("visited", 0)
        if "derivation" in data:
            self.counts["proof_nodes"] += _count_proof_nodes(data["derivation"])
        for model in data.get("countermodels", {}).values():
            self.counts["worlds"] += len(model["worlds"])

    def round(self, goals: list[goalset.Goal], index: int, tracer: Tracer | None) -> None:
        self.goal_ms.append([])
        for times in self.call_ms.values():
            times.append([])
        self.tracer = tracer
        if tracer:
            tracer.install()
        seconds = 0.0
        try:
            before = speed.probe()
            for i, goal in enumerate(goals):
                times = self.goal(goal, goalset.atom_prefix(index, i))
                after = speed.probe()
                scale = speed.scale(before, after)
                self.probes.append(after)
                for cmd, measured in times:
                    self.call_ms[cmd][-1].append(measured * scale * 1000)
                goal_s = sum(measured for _, measured in times) * scale
                self.goal_ms[-1].append(goal_s * 1000)
                seconds += goal_s
                before = after
        finally:
            if tracer:
                tracer.uninstall()
            self.tracer = None
        self.rounds.append((tracer is not None, len(goals), seconds))

    def end_to_end(self) -> dict:
        """Figures at the reference speed.

        Every round runs its goals in the same slots: on the hard workloads
        the same instance, on corpus a new formula in the same logic. A
        median takes each slot's median over rounds, then the median over
        slots. The rate and the 90th percentile are taken within each round,
        then as the median over rounds.
        """

        def p50(per_round):
            slots = zip(*per_round)
            return statistics.median(statistics.median(times) for times in slots)

        return {
            "goals_per_s": (statistics.median(goals / seconds for _, goals, seconds in self.rounds), "1/s"),
            "goal_ms_p50": (p50(self.goal_ms), "ms"),
            "goal_ms_p90": (statistics.median(percentile(times, 0.90) for times in self.goal_ms), "ms"),
            "prove_ms_p50": (p50(self.call_ms["prove"]), "ms"),
            "lean_ms_p50": (p50(self.call_ms["lean"]), "ms"),
            "translate_ms_p50": (p50(self.call_ms["translate"]), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self, tracer: Tracer) -> dict:
        """Per-goal means over the traced rounds. Span times are scaled to
        the reference speed by the run's median probe."""
        totals = tracer.layer_totals()
        scale = speed.REFERENCE_S / statistics.median(self.probes)
        self_s = {name: seconds * scale for name, seconds in totals["self_s"].items()}
        c = self.counts
        goals = c["goals"]
        metrics = {name: (seconds / goals, "s") for name, seconds in self_s.items()}
        metrics["cli.output_kb"] = (c["output_bytes"] / 1024 / c["calls"], "KB")
        metrics["search.prove_nodes"] = (c["prove_nodes"] / goals, "count")
        metrics["search.prove_nodes_per_s"] = (c["prove_nodes"] / (totals["prove_cmd_s"] * scale), "1/s")
        metrics["search.lean_nodes"] = (totals["lean_nodes"] / goals, "count")
        metrics["search.lean_nodes_per_s"] = (totals["lean_nodes"] / self_s["search.lean_s"], "1/s")
        metrics["search.proof_nodes"] = (c["proof_nodes"] / goals, "count")
        metrics["models.worlds"] = (c["worlds"] / goals, "count")
        traced = [g / s for t, g, s in self.rounds if t]
        plain = [g / s for t, g, s in self.rounds if not t]
        overhead = 1 - statistics.median(traced) / statistics.median(plain)
        metrics["trace.overhead_pct"] = (overhead * 100, "%")
        return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one workload in this process.")
    ap.add_argument("--workload", choices=goalset.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest goals, for the benchmark's own test")
    args = ap.parse_args(argv)

    from nnml import cli

    rng = random.Random(args.seed)
    run = Run(cli)
    tracer = Tracer(cli) if args.trace else None
    fixed = None if args.workload == "corpus" else goalset.round_goals(args.workload, rng, args.tiny)
    rss_rounds = RSS_ROUNDS[args.workload]
    start = time.perf_counter()
    index = 0
    # With tracing, runs end after an even number of rounds so that traced
    # and untraced rounds alternate in equal numbers.
    while index < rss_rounds or time.perf_counter() - start < args.seconds or (args.trace and index % 2):
        goals = fixed or goalset.round_goals(args.workload, rng, args.tiny)
        run.round(goals, index, tracer if index % 2 == 0 else None)
        index += 1
        if index == rss_rounds:
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for problem in run.problems:
        print(problem, file=sys.stderr)
    rates = sorted(goals / seconds for _, goals, seconds in run.rounds)
    probes = sorted(run.probes)
    print(f"{args.workload}: {index} rounds in {time.perf_counter() - start:.1f} s,"
          f" goals/s per round {rates[0]:.4g} to {rates[-1]:.4g},"
          f" reference loop {percentile(probes, 0.1) * 1000:.3g} to {percentile(probes, 0.9) * 1000:.3g} ms"
          f" (10th to 90th percentile)", file=sys.stderr)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
    metrics = run.per_layer(tracer) if tracer else run.end_to_end()
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
