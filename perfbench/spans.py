"""Spans around the functions that ``nnml.cli`` calls, kept in memory.

Installing a Tracer replaces, in the ``nnml.cli`` namespace only, each
function named in LAYERS by a wrapper that records one span: the CLI
call it belongs to, the function, start, end, and the time of the spans
opened inside it. A span's self time is its duration minus that child
time; the CLI call's own self time is what no wrapped function covers.
"""

from __future__ import annotations

import json
import time

# Function called by nnml.cli -> per-layer metric its self time adds to.
LAYERS = {
    "parse_input": "hypersequent.parse_s",
    "prove": "search.prove_s",
    "prove_unkleened": "search.lean_s",
    "check_derivation": "search.audit_s",
    "derivation_to_dict": "search.render_s",
    "extract_bi_countermodel": "models.extract_s",
    "extract_relational_countermodel": "models.extract_s",
    "check_conditions": "models.verify_s",
    "force": "models.verify_s",
    "standard_from_bi_rough": "models.transform_s",
    "standard_from_bi_fine": "models.transform_s",
    "model_to_dict": "models.render_s",
    "translate_derivation": "labelled.translate_s",
    "check_labelled": "labelled.check_s",
    "labelled_derivation_to_dict": "labelled.render_s",
}


class Tracer:
    def __init__(self, cli):
        from nnml.search import SearchStats

        self._cli = cli
        self._stats_type = SearchStats
        self._originals = {name: getattr(cli, name) for name in LAYERS}
        self._open: list[float] = []  # child time of each open span
        self.call = -1
        self.command = ""
        # (call, command, function, start, end, child time, lean nodes)
        self.spans: list[tuple] = []

    def install(self) -> None:
        for name, fn in self._originals.items():
            setattr(self._cli, name, self._wrap(name, fn))

    def uninstall(self) -> None:
        for name, fn in self._originals.items():
            setattr(self._cli, name, fn)

    def _wrap(self, name, fn):
        lean = name == "prove_unkleened"

        def wrapper(*args, **kwargs):
            stats = None
            if lean and kwargs.get("stats") is None:
                stats = kwargs["stats"] = self._stats_type()
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = self._open.pop()
                self._open[-1] += t1 - t0
                nodes = stats.visited if stats is not None else 0
                self.spans.append((self.call, self.command, name, t0, t1, child, nodes))

        return wrapper

    def begin_call(self, command: str) -> None:
        self.call += 1
        self.command = command
        self._open = [0.0]

    def end_call(self, t0: float, t1: float) -> None:
        self.spans.append((self.call, self.command, "cli", t0, t1, self._open.pop(), 0))

    def layer_totals(self) -> dict:
        """Self seconds per metric, prove time inside `prove` commands,
        and lean nodes."""
        totals = {metric: 0.0 for metric in LAYERS.values()}
        totals["cli.self_s"] = 0.0
        prove_cmd_s = 0.0
        lean_nodes = 0
        for _, command, name, t0, t1, child, nodes in self.spans:
            self_s = t1 - t0 - child
            totals[LAYERS.get(name, "cli.self_s")] += self_s
            if name == "prove" and command == "prove":
                prove_cmd_s += self_s
            lean_nodes += nodes
        return {"self_s": totals, "prove_cmd_s": prove_cmd_s, "lean_nodes": lean_nodes}

    def write(self, path) -> None:
        fields = ("call", "command", "function", "start", "end", "child_s", "lean_nodes")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
