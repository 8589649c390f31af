"""Timing harness for the kernel evaluators.

Measures the CPU time of this process (``time.process_time``) spent in
the fast (polynomial-cost) and naive (all rank tuples) evaluators over
random TT pairs, with automatic repetition so each measurement
comfortably exceeds timer resolution.  CPU time, not wall time, so that
other processes on the machine do not inflate the ratios the acceptance
tests bound.  Used by the ``bench`` CLI subcommand and the performance
acceptance tests: fast product evaluation should scale polynomially in
the rank, while the naive reference blows up with the tensor order.  The
train/predict path and its layers are timed by ``perfbench/run.py``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .kernels import KernelSpec, RbfKernel, tt_kernel_naive, tt_kernel_prod_fast, tt_kernel_sum_fast
from .tensor import random_tensor_train


def _seconds_per_pair(evaluate, order, dim_size, rank, pairs, seed, combine="prod",
                      min_seconds=0.05) -> float:
    """CPU seconds of this process per call of ``evaluate(a, b, spec)`` over
    ``pairs`` random TT pairs drawn from ``seed``, with all-RBF modes of
    sigma 1; the sweep over the pairs is repeated until it takes at least
    ``min_seconds``."""
    rng = np.random.default_rng(seed)
    dims, chain = (dim_size,) * order, (rank,) * (order - 1)
    pair_list = [
        (random_tensor_train(dims, chain, rng), random_tensor_train(dims, chain, rng))
        for _ in range(pairs)
    ]
    spec = KernelSpec(per_mode=(RbfKernel(1.0),) * order, combine=combine)

    def sweep():
        for a, b in pair_list:
            evaluate(a, b, spec)

    sweep()  # warmup
    reps = 1
    while True:
        start = time.process_time()
        for _ in range(reps):
            sweep()
        elapsed = time.process_time() - start
        if elapsed >= min_seconds or reps >= (1 << 20):
            return elapsed / reps / pairs
        if elapsed <= 0:
            reps *= 4
        else:
            reps = min(reps * max(2, math.ceil(min_seconds / elapsed)), 1 << 20)


def bench_fast_prod_ranks(
    ranks=(2, 4, 8, 16), order=3, dim_size=8, pairs=20, seed=0, min_seconds=0.05
) -> list[dict]:
    """Per-pair time of the fast product evaluator at each rank."""
    return [
        {
            "rank": int(rank),
            "order": int(order),
            "dim_size": int(dim_size),
            "pairs": int(pairs),
            "seconds_per_pair": _seconds_per_pair(
                tt_kernel_prod_fast, order, dim_size, rank, pairs, seed,
                min_seconds=min_seconds),
        }
        for rank in ranks
    ]


def bench_naive_orders(
    orders=(2, 3, 4, 5, 6), rank=2, dim_size=8, pairs=5, seed=0, min_seconds=0.05
) -> list[dict]:
    """Per-pair time of the naive evaluator at each tensor order."""
    return [
        {
            "order": int(order),
            "rank": int(rank),
            "dim_size": int(dim_size),
            "pairs": int(pairs),
            "seconds_per_pair": _seconds_per_pair(
                tt_kernel_naive, order, dim_size, rank, pairs, seed,
                min_seconds=min_seconds),
        }
        for order in orders
    ]


def bench_compare(order=3, dim_size=8, rank=4, pairs=100, seed=0, combine="prod") -> dict:
    """Naive vs fast CPU time of one sweep over the same random pairs."""
    fast_fn = tt_kernel_prod_fast if combine == "prod" else tt_kernel_sum_fast
    naive_seconds, fast_seconds = (
        pairs * _seconds_per_pair(fn, order, dim_size, rank, pairs, seed, combine)
        for fn in (tt_kernel_naive, fast_fn)
    )
    return {
        "order": int(order),
        "dim_size": int(dim_size),
        "rank": int(rank),
        "pairs": int(pairs),
        "combine": combine,
        "naive_seconds": naive_seconds,
        "fast_seconds": fast_seconds,
        "speedup": naive_seconds / fast_seconds if fast_seconds > 0 else float("inf"),
    }
