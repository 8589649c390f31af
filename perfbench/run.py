"""Seeded train/predict benchmark of ttkm, end to end and per layer.

Run from the root of a ttkm checkout::

    python3 perfbench/run.py --workload pair-rbf-prod --seed 1 --seconds 25 --trace 0

The package is imported from ``./src`` of the working directory, never
from an installed copy; without it the run exits with code 2.  Set-up
writes the inputs as ``.ttn`` files under ``.perfbench/`` and the program
reads only those: a fixed training corpus and a test split drawn from
``--seed``, from which the requests are cut.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, each metric a ``{"value", "unit"}`` pair.  Earlier lines
starting with ``#`` record the environment, the sample count of each
metric and the work counts, which must repeat exactly for one seed and
one version of the code.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` runs one unit of work (one training, then MIN_REQUESTS
requests) to warm up, then untraced, traced, and untraced again.  It
reports the per-layer metrics of the traced unit and the tracing overhead,
and writes its spans as JSON lines to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.

``--scale smoke`` shrinks every split to a few samples; the benchmark's
own test uses it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

# Pinned before numpy loads.  Unpinned, OpenBLAS made stack_and_decompose
# of 200 samples 1.5x slower on a 2-core machine and changed the bits of
# its result, so work counts (solver iterations, support vectors) would
# differ between machines with different thread defaults.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ".perfbench"
NAIVE_ENTRIES = 3  # Gram and cross-Gram entries each checked against the oracle
NAIVE_RTOL = 1e-10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


def import_package(root: str):
    """Import ttkm from ``root/src`` only; None when it is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ttkm", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import ttkm

    if os.path.dirname(os.path.dirname(os.path.abspath(ttkm.__file__))) != src:
        return None
    return ttkm


class Bench:
    """One benchmark process: a workload, its inputs and its outcome."""

    def __init__(self, ttkm, workload, seed: int, work: str, min_requests: int):
        self.ttkm = ttkm
        self.w = workload
        self.seed = seed
        self.work = work
        self.min_requests = min_requests
        self.grid = ttkm.GridConfig(**workload.grid)
        # what the benchmark calls; the traced run swaps wrappers in
        self.api = {
            "train_binary": ttkm.train_binary,
            "evaluate": ttkm.evaluate,
            "predict": ttkm.predict,
            "save_model": ttkm.save_model,
            "load_model": ttkm.load_model,
            "read_dataset": ttkm.read_dataset,
        }
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    # -- set-up and operations -------------------------------------------

    def setup(self, tag: str) -> dict:
        """Write the inputs as .ttn files and return their paths.

        Training and validation samples are the fixed corpus
        (``workloads.CORPUS_SEED``); the test split, and with it every
        request, is drawn from the run's seed.
        """
        w = self.w
        d = os.path.join(self.work, tag)
        os.makedirs(d)
        corpus = np.random.default_rng(workloads.CORPUS_SEED)
        parts = {
            "train": synth.split(corpus, w.train_per_class),
            "validation": synth.split(corpus, w.val_per_class),
            "test": synth.split(np.random.default_rng(self.seed), w.test_per_class),
        }
        x = np.concatenate([p[0] for p in parts.values()])
        labels = np.concatenate([p[1] for p in parts.values()])
        split = [name for name, p in parts.items() for _ in p[1]]
        tensors = [self.ttkm.DenseTensor(v) for v in x]
        paths = {
            "samples": os.path.join(d, "samples.ttn"),
            "meta": os.path.join(d, "meta.json"),
            "model": os.path.join(d, "model.ttkm"),
            "requests": [],
        }
        self.ttkm.write_dataset(paths["samples"], tensors)
        with open(paths["meta"], "w") as fh:
            json.dump({"labels": labels.tolist(), "split": split}, fh)
        test = [t for t, s in zip(tensors, split) if s == "test"]
        for k in range(w.request_files):
            path = os.path.join(d, f"request-{k}.ttn")
            self.ttkm.write_dataset(path, test[k * w.request_size:(k + 1) * w.request_size])
            paths["requests"].append(path)
        return paths

    def train_op(self, paths) -> dict:
        """Read the inputs, grid-search, evaluate on test, save the model."""
        api = self.api
        samples = api["read_dataset"](paths["samples"])
        with open(paths["meta"]) as fh:
            meta = json.load(fh)
        ds = self.ttkm.Dataset(samples=samples, labels=meta["labels"], split=meta["split"])
        model = api["train_binary"](ds, self.grid)
        accuracy = api["evaluate"](model, ds, "test").accuracy
        api["save_model"](paths["model"], model)
        grid = model.info["grid"]
        counts = {
            "grid_points": len(grid),
            "grid_iterations": sum(g["iterations"] for g in grid),
            "refit_iterations": model.info["solver"]["iterations"],
            "support": len(model.support),
            "model_bytes": os.path.getsize(paths["model"]),
        }
        return {"ds": ds, "model": model, "accuracy": accuracy, "counts": counts}

    def request(self, paths, k: int):
        """One ``ttkm predict`` call: load the model, read a batch, predict."""
        api = self.api
        model = api["load_model"](paths["model"])
        samples = api["read_dataset"](paths["requests"][k % len(paths["requests"])])
        return api["predict"](model, samples)

    def timed(self, fn, *args):
        """Run one operation, counting it: (result or None if it raised, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failed operation is a result, not a crash
            self.fail(f"{fn.__name__} raised:\n{traceback.format_exc()}")
            result = None
        return result, time.perf_counter() - t0

    def fail(self, message: str) -> None:
        """Count one failed operation."""
        self.failed += 1
        self.messages.append(message)

    def train(self, paths, trains, tracer=None) -> float:
        """One training; its outcome (None if it raised) goes to ``trains``."""
        if tracer:
            tracer.request = "train"
        with tracer.span("op.train") if tracer else contextlib.nullcontext():
            out, dt = self.timed(self.train_op, paths)
        trains.append(out)
        return dt

    def serve(self, paths, answers, count: int, deadline: float = 0.0,
              tracer=None) -> list[float]:
        """Closed loop, one client: at least ``count`` requests, and more
        until ``deadline``.  Appends (request file, labels) to ``answers``
        and returns the latencies of the requests that succeeded."""
        latencies = []
        k = 0
        while k < count or time.perf_counter() < deadline:
            if tracer:
                tracer.request = f"request-{k}"
            with tracer.span("op.request") if tracer else contextlib.nullcontext():
                labels, dt = self.timed(self.request, paths, k)
            answers.append((k % len(paths["requests"]), labels))
            if labels is not None:
                latencies.append(dt)
            k += 1
        return latencies

    # -- correctness ------------------------------------------------------

    def check_training(self, out) -> None:
        """Oracle Gram entries, KKT conditions and the accuracy floor."""
        problems = self.training_problems(out)
        if problems:
            self.fail("training check: " + "; ".join(problems))

    def training_problems(self, out) -> list[str]:
        ttkm = self.ttkm
        ds, model = out["ds"], out["model"]
        problems = []
        if out["accuracy"] < self.w.accuracy_floor:
            problems.append(f"test accuracy {out['accuracy']:.4f} below floor "
                            f"{self.w.accuracy_floor}")
        # rebuild the winner's Gram matrices as train_binary does
        train_s, train_y = ds.subset("train")
        val_s, _ = ds.subset("validation")
        ranks = tuple(model.grid_point["ranks"])
        tts = ttkm.stack_and_decompose(train_s + val_s, ttkm.TtSvdConfig(max_ranks=ranks))
        n = len(train_s)
        tr, va = tts[:n], tts[n:]
        gram = ttkm.build_gram(tr, model.spec)
        cross = ttkm.cross_gram(tr, va, model.spec)
        rng = np.random.default_rng([self.seed, 1])
        for what, values, rows, cols in (("gram", gram.values, tr, tr),
                                         ("cross", cross, va, tr)):
            for _ in range(NAIVE_ENTRIES):
                i, j = int(rng.integers(len(rows))), int(rng.integers(len(cols)))
                naive = ttkm.tt_kernel_naive(rows[i], cols[j], model.spec)
                err = abs(values[i, j] - naive) / max(abs(naive), 1e-300)
                if err > NAIVE_RTOL:
                    problems.append(f"{what}[{i},{j}] = {values[i, j]!r}, naive {naive!r}")
        # the winning solution, recovered from the support set
        y = np.where(train_y == model.pos_class, 1.0, -1.0)
        index = {tt.cores[0].tobytes(): i for i, tt in enumerate(tr)}
        alphas = np.zeros(n)
        for sv, coef in zip(model.support, model.coef):
            i = index.get(sv.cores[0].tobytes())
            if i is None:
                return problems + ["a support vector is no training sample's train"]
            alphas[i] = coef * y[i]
        tol = model.info["solver"]["tol"]
        problem = ttkm.DualProblem(gram=gram, labels=y, C=model.grid_point["C"])
        sol = ttkm.DualSolution(alphas=alphas, bias=model.bias, objective=float("nan"),
                                iterations=0, converged=True)
        violation = ttkm.kkt_report(problem, sol, tol).max_violation
        if violation > tol:
            problems.append(f"KKT violation {violation:.3g} above solver tol {tol}")
        return problems

    def check_requests(self, paths, trained, answers) -> None:
        """Each request's labels equal the in-memory model's prediction."""
        ttkm = self.ttkm
        expected = [ttkm.predict(trained["model"], ttkm.read_dataset(p))
                    for p in paths["requests"]]
        for k, (f, got) in enumerate(answers):
            if got is not None and not np.array_equal(got, expected[f]):
                self.fail(f"request {k}: labels {got.tolist()} != {expected[f].tolist()}")
        if self.w.request_files * self.w.request_size == 2 * self.w.test_per_class:
            # the requests cover the test split: they must reproduce evaluate
            _, test_y = trained["ds"].subset("test")
            acc = float(np.mean(np.concatenate(expected) == test_y))
            if acc != trained["accuracy"]:
                self.fail(f"request accuracy {acc} != evaluate accuracy "
                          f"{trained['accuracy']}")

    def check_counts(self, outs) -> None:
        """Work counts of repeated trainings on one input must be identical."""
        for out in outs[1:]:
            if out["counts"] != outs[0]["counts"]:
                self.fail(f"work counts differ between repetitions: "
                          f"{outs[0]['counts']} != {out['counts']}")

    def check(self, paths, trains, answers) -> dict:
        """Run every correctness check; return the last training's counts."""
        trains = [t for t in trains if t is not None]
        if not trains:
            return {}
        self.check_counts(trains)
        self.check_training(trains[-1])
        self.check_requests(paths, trains[-1], answers)
        return trains[-1]["counts"]

    # -- runs -------------------------------------------------------------

    def run_untraced(self, seconds: float, rounds: int):
        """End-to-end metrics; nothing is traced.

        The run is ``rounds`` rounds of about ``seconds / rounds`` each: a
        set-up, a training (inside set-up when the workload serves a model),
        then requests until the round's time is up.  Spreading trainings and
        requests over the whole run keeps their figures steady when the
        machine slows down for part of it.
        """
        setup_times, trains, train_times, answers, latencies = [], [], [], [], []
        per_round = math.ceil(self.min_requests / rounds)
        for r in range(rounds):
            t0 = time.perf_counter()
            paths = self.setup(f"round-{r}")
            if self.w.train_in_setup:
                train_times.append(self.train(paths, trains))
            setup_times.append(time.perf_counter() - t0)
            if not self.w.train_in_setup:
                train_times.append(self.train(paths, trains))
            latencies += self.serve(paths, answers, per_round, t0 + seconds / rounds)
        train_times = [t for t, out in zip(train_times, trains) if out is not None]
        counts = self.check(paths, trains, answers)
        last = next((t for t in reversed(trains) if t is not None), None)
        # Means, not medians, for training time and latency: the machine this
        # was tuned on switched between a fast and a ~40% slower state for
        # tens of seconds at a time.  A median jumped to whichever state held
        # the larger share of a run; the mean moves in proportion to it.
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "train_s": (statistics.fmean(train_times) if train_times else 0.0, "s"),
            "predict_mean_ms": (1e3 * statistics.fmean(latencies) if latencies else 0.0, "ms"),
            "predict_p90_ms": (
                1e3 * float(np.percentile(latencies, 90)) if latencies else 0.0, "ms"),
            "test_accuracy": (last["accuracy"] if last else 0.0, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_frac": (1.0 - min(self.failed, self.attempted) / self.attempted, "ratio"),
        }
        samples = {"setup_s": len(setup_times), "train_s": len(train_times),
                   "predict_ms": len(latencies)}
        return metrics, {"samples": samples, "counts": counts}

    def run_traced(self, trace_path: str):
        """Per-layer metrics of one traced unit of work.

        A unit is one training and then ``min_requests`` requests.  After
        one warm-up unit it runs untraced, traced, and untraced again; the
        tracing overhead compares the traced unit with the mean of the two
        untraced ones.
        """
        import spans

        paths = self.setup("setup-0")
        trains, answers, untraced = [], [], []

        def unit(tracer=None):
            t0 = time.perf_counter()
            self.train(paths, trains, tracer)
            self.serve(paths, answers, self.min_requests, tracer=tracer)
            return time.perf_counter() - t0

        unit()  # the first training in a process ran ~20% slower
        untraced.append(unit())
        tracer = spans.Tracer()
        with spans.traced_api(tracer, self.api):
            traced_s = unit(tracer)
        untraced.append(unit())
        tracer.write_jsonl(trace_path)

        counts = self.check(paths, trains, answers)
        traced_counts = trains[2]["counts"] if trains[2] is not None else {}
        metrics = spans.layer_metrics(
            tracer.spans,
            rank_settings=len(self.grid.rank_settings(len(self.w.grid["mode_kinds"]))),
            grid_points=traced_counts.get("grid_points", 0),
            overhead_frac=traced_s / statistics.mean(untraced) - 1.0,
        )
        self.check_span_counts(metrics, traced_counts)
        return metrics, {"counts": counts, "untraced_s": untraced, "traced_s": traced_s}

    def check_span_counts(self, metrics, counts) -> None:
        """Counts read from spans must equal those the model reports."""
        if not counts:
            return
        want = counts["grid_iterations"] + counts["refit_iterations"]
        got = metrics["solver.iterations"][0]
        if got != want:
            self.fail(f"traced solver iterations {got} != model's {want}")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(ttkm, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "numpy": np.__version__, "blas": blas,
        "python": platform.python_version(), "ttkm": ttkm.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    ttkm = import_package(root)
    if ttkm is None:
        print(f"error: no ttkm package under {os.path.join(root, 'src')}; "
              "run from the root of a ttkm checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(ttkm, args), sort_keys=True), flush=True)

    workload = workloads.WORKLOADS[args.workload]
    smoke = args.scale == "smoke"
    if smoke:
        workload = workloads.smoke(workload)
    out_dir = os.path.join(root, WORK_DIR)
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    bench = Bench(ttkm, workload, args.seed, work,
                  min_requests=5 if smoke else workloads.MIN_REQUESTS)
    try:
        if args.trace:
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics, info = bench.run_traced(trace_path)
        else:
            metrics, info = bench.run_untraced(
                args.seconds, 2 if smoke else workloads.ROUNDS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in bench.messages:
        print(f"# FAILED {message}", file=sys.stderr)
    for key, value in info.items():
        print(f"# {key} " + json.dumps(value, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": min(bench.failed, bench.attempted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
