"""Timing harness for the kernel evaluators.

Measures the CPU time of this process (``time.process_time``) spent in
the fast (polynomial-cost) and naive (all rank tuples) evaluators over
random TT pairs, with automatic repetition so each measurement
comfortably exceeds timer resolution.  CPU time, not wall time, so that
other processes on the machine do not inflate the ratios the acceptance
tests bound.  Used by the
``bench`` CLI subcommand and the performance acceptance tests: fast
product evaluation should scale polynomially in the rank, while the
naive reference blows up with the tensor order.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .kernels import KernelSpec, RbfKernel, tt_kernel_naive, tt_kernel_prod_fast, tt_kernel_sum_fast
from .tensor import random_tensor_train


def _random_pairs(order, dim_size, rank, pairs, rng):
    dims = (dim_size,) * order
    chain = (rank,) * (order - 1)
    return [
        (random_tensor_train(dims, chain, rng), random_tensor_train(dims, chain, rng))
        for _ in range(pairs)
    ]


def _spec(order, sigma=1.0, combine="prod") -> KernelSpec:
    return KernelSpec(per_mode=(RbfKernel(sigma),) * order, combine=combine)


def _time_sweep(task, min_seconds=0.05) -> float:
    """CPU seconds of this process per execution of ``task``, repeated
    until stable."""
    task()  # warmup
    reps = 1
    while True:
        start = time.process_time()
        for _ in range(reps):
            task()
        elapsed = time.process_time() - start
        if elapsed >= min_seconds or reps >= (1 << 20):
            return elapsed / reps
        if elapsed <= 0:
            reps *= 4
        else:
            reps = min(reps * max(2, math.ceil(min_seconds / elapsed)), 1 << 20)


def bench_fast_prod_ranks(
    ranks=(2, 4, 8, 16), order=3, dim_size=8, pairs=20, seed=0, min_seconds=0.05
) -> list[dict]:
    """Per-pair time of the fast product evaluator at each rank."""
    rows = []
    for rank in ranks:
        rng = np.random.default_rng(seed)
        pair_list = _random_pairs(order, dim_size, rank, pairs, rng)
        spec = _spec(order)

        def task():
            for a, b in pair_list:
                tt_kernel_prod_fast(a, b, spec)

        seconds = _time_sweep(task, min_seconds)
        rows.append(
            {
                "rank": int(rank),
                "order": int(order),
                "dim_size": int(dim_size),
                "pairs": int(pairs),
                "seconds_per_pair": seconds / pairs,
            }
        )
    return rows


def bench_naive_orders(
    orders=(2, 3, 4, 5, 6), rank=2, dim_size=8, pairs=5, seed=0, min_seconds=0.05
) -> list[dict]:
    """Per-pair time of the naive evaluator at each tensor order."""
    rows = []
    for order in orders:
        rng = np.random.default_rng(seed)
        pair_list = _random_pairs(order, dim_size, rank, pairs, rng)
        spec = _spec(order)

        def task():
            for a, b in pair_list:
                tt_kernel_naive(a, b, spec)

        seconds = _time_sweep(task, min_seconds)
        rows.append(
            {
                "order": int(order),
                "rank": int(rank),
                "dim_size": int(dim_size),
                "pairs": int(pairs),
                "seconds_per_pair": seconds / pairs,
            }
        )
    return rows


def bench_compare(
    order=3, dim_size=8, rank=4, pairs=100, seed=0, combine="prod", min_seconds=0.05
) -> dict:
    """Naive vs fast CPU time over one shared set of random pairs."""
    rng = np.random.default_rng(seed)
    pair_list = _random_pairs(order, dim_size, rank, pairs, rng)
    spec = _spec(order, combine=combine)
    fast_fn = tt_kernel_prod_fast if combine == "prod" else tt_kernel_sum_fast

    def naive_task():
        for a, b in pair_list:
            tt_kernel_naive(a, b, spec)

    def fast_task():
        for a, b in pair_list:
            fast_fn(a, b, spec)

    naive_seconds = _time_sweep(naive_task, min_seconds)
    fast_seconds = _time_sweep(fast_task, min_seconds)
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
