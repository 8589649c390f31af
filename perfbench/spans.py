"""In-memory span recorder for the benchmark's traced run.

The benchmark wraps the public ttkm functions the pipeline calls.  Each
call becomes a span with a name, start, end, parent span and request id,
plus the sizes needed to count work (pairs, iterations, bytes).  Spans
stay in memory and are written as JSON lines once the run ends; layer
self times are derived from them afterwards.  Nothing here runs while
end-to-end metrics are measured.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

import numpy as np
import ttkm.pipeline


class Tracer:
    """Collects spans; ``request`` sets the id stamped on new spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block, which may add counts to the
        yielded ``sizes`` dict."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "start": time.perf_counter(),
            "end": None,
            "sizes": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["sizes"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, sizes=None):
        """``fn`` recording one span per call; ``sizes(args, result)`` counts work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as recorded:
                result = fn(*args, **kwargs)
            if sizes is not None:
                recorded.update(sizes(args, result))
            return result

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _file_bytes(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _gram_sizes(args, _result) -> dict:
    n = len(args[0])
    return {"pairs": n * (n + 1) // 2}  # build_gram evaluates i <= j only


def _cross_sizes(_args, result) -> dict:
    return {"pairs": int(np.size(result))}


def _solve_sizes(_args, sol) -> dict:
    return {"iterations": int(sol.iterations), "converged": bool(sol.converged)}


@contextlib.contextmanager
def traced_api(tracer: Tracer, api: dict):
    """Swap traced wrappers into ``ttkm.pipeline`` and into ``api``.

    ``api`` maps the names the benchmark calls to functions; the pipeline
    module looks its collaborators up as module globals, so replacing those
    globals reaches the calls made inside ``train_binary`` and ``predict``.
    Everything is restored on exit.
    """
    pipeline_wrapped = {
        "stack_and_decompose": tracer.wrap(
            "tensor.stack_and_decompose", ttkm.pipeline.stack_and_decompose),
        "build_gram": tracer.wrap("kernels.build_gram", ttkm.pipeline.build_gram, _gram_sizes),
        "cross_gram": tracer.wrap("kernels.cross_gram", ttkm.pipeline.cross_gram, _cross_sizes),
        "solve_dual": tracer.wrap("solver.solve_dual", ttkm.pipeline.solve_dual, _solve_sizes),
        "decision_function": tracer.wrap(
            "pipeline.decision_function", ttkm.pipeline.decision_function),
    }
    api_wrapped = {
        "train_binary": tracer.wrap("pipeline.train_binary", api["train_binary"]),
        "evaluate": tracer.wrap("pipeline.evaluate", api["evaluate"]),
        "save_model": tracer.wrap(
            "model_store.save_model", api["save_model"], _file_bytes),
        "load_model": tracer.wrap(
            "model_store.load_model", api["load_model"], _file_bytes),
        "read_dataset": tracer.wrap("ttn.read_dataset", api["read_dataset"], _file_bytes),
    }
    saved_pipeline = {name: getattr(ttkm.pipeline, name) for name in pipeline_wrapped}
    saved_api = {name: api[name] for name in api_wrapped}
    try:
        for name, fn in pipeline_wrapped.items():
            setattr(ttkm.pipeline, name, fn)
        api.update(api_wrapped)
        yield
    finally:
        for name, fn in saved_pipeline.items():
            setattr(ttkm.pipeline, name, fn)
        api.update(saved_api)


def _duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Calls are sequential in one thread, so children never overlap and the
    covered time is the sum of their durations.
    """
    out = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= _duration(s)
    return out


def layer_metrics(spans, rank_settings: int, grid_points: int,
                  overhead_frac: float) -> dict:
    """Per-layer metrics of one traced training and its requests, as
    (value, unit) pairs.  ``rank_settings`` and ``grid_points`` describe
    the training's search grid."""
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return float(sum(_duration(s) for s in named(name)))

    def self_total(name):
        return float(sum(own[s["id"]] for s in named(name)))

    def size_sum(name, key):
        return int(sum(s["sizes"][key] for s in named(name)))

    def ratio(a, b):
        return a / b if b else 0.0

    decompose_calls = len(named("tensor.stack_and_decompose"))
    gram_s, cross_s = total("kernels.build_gram"), total("kernels.cross_gram")
    gram_pairs = size_sum("kernels.build_gram", "pairs")
    cross_pairs = size_sum("kernels.cross_gram", "pairs")
    solves = named("solver.solve_dual")
    solve_s = total("solver.solve_dual")
    iterations = size_sum("solver.solve_dual", "iterations")
    return {
        "tensor.decompose_s": (total("tensor.stack_and_decompose"), "s"),
        "tensor.decompose_calls": (decompose_calls, "count"),
        "tensor.decompose_per_rank": (
            ratio(decompose_calls, rank_settings), "ratio"),
        "kernels.gram_s": (gram_s, "s"),
        "kernels.gram_pairs": (gram_pairs, "count"),
        "kernels.cross_gram_s": (cross_s, "s"),
        "kernels.cross_pairs": (cross_pairs, "count"),
        "kernels.us_per_pair": (
            1e6 * ratio(gram_s + cross_s, gram_pairs + cross_pairs), "us"),
        "solver.solve_s": (solve_s, "s"),
        "solver.solves": (len(solves), "count"),
        "solver.iterations": (iterations, "count"),
        "solver.us_per_iter": (1e6 * ratio(solve_s, iterations), "us"),
        "solver.unconverged": (sum(not s["sizes"]["converged"] for s in solves), "count"),
        "solver.solves_per_grid_point": (ratio(len(solves), grid_points), "ratio"),
        "pipeline.train_self_s": (self_total("pipeline.train_binary"), "s"),
        "pipeline.grid_points": (grid_points, "count"),
        "pipeline.project_s": (self_total("pipeline.decision_function"), "s"),
        "model_store.save_s": (total("model_store.save_model"), "s"),
        "model_store.load_s": (total("model_store.load_model"), "s"),
        "model_store.bytes": (
            size_sum("model_store.save_model", "bytes")
            + size_sum("model_store.load_model", "bytes"), "B"),
        "ttn.read_s": (total("ttn.read_dataset"), "s"),
        "ttn.read_bytes": (size_sum("ttn.read_dataset", "bytes"), "B"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
