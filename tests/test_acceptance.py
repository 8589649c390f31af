"""Acceptance gate: one test per shipping criterion, tolerances stated inline.

Each criterion is a single test function, so a verbose pytest run emits
exactly one pass/fail line per criterion.  Criteria that need the MNIST
IDX files skip with an explanation when the files are absent; point
TTKM_MNIST_DIR (or ./data/mnist) at a directory holding the standard
train/t10k image and label files (gzipped or raw) to enable them.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from ttkm.bench import bench_compare, bench_fast_prod_ranks, bench_naive_orders
from ttkm.idx import load_idx_pair
from ttkm.kernels import (
    GramMatrix,
    KernelSpec,
    LinearKernel,
    PolynomialKernel,
    RbfKernel,
    build_gram,
    tt_kernel,
    tt_kernel_naive,
    tt_kernel_prod_fast,
    tt_kernel_sum_fast,
)
from ttkm.pipeline import (
    Dataset,
    GridConfig,
    evaluate,
    make_pair_dataset,
    train_binary,
)
from ttkm.solver import DualProblem, brute_force_dual, kkt_report, solve_dual
from ttkm.tensor import (
    DenseTensor,
    TtSvdConfig,
    random_tensor_train,
    reconstruct,
    stack_and_decompose,
    tt_svd,
)

# Tolerances and budgets, one row per criterion.
PSD_EIG_TOL = 1e-8          # min eigenvalue >= -tol * max eigenvalue
PSD_BUDGET_S = 30.0
INNER_REL_TOL = 1e-8        # all-linear product kernel vs dense inner product
INNER_BUDGET_S = 10.0
FAST_REL_TOL = 1e-10        # fast evaluators vs naive sum over rank paths
FAST_BUDGET_S = 60.0
TTSVD_BUDGET_S = 30.0
SOLVER_OBJ_TOL = 1e-5       # |SMO objective - brute-force objective|
SOLVER_TOL = 1e-6           # SMO stopping tolerance; also the KKT bound
SOLVER_BUDGET_S = 120.0
MNIST_ACCURACY = 0.97
MNIST_BUDGET_S = 900.0
PLATEAU_GAP = 0.02          # |accuracy(R=5) - accuracy(R=15)|
PLATEAU_BUDGET_S = 1200.0
MIXING_MARGIN = 0.01        # mixed spec >= all-RBF accuracy - margin
CUBIC_RATIO = 8.0           # time ratio bound for doubling the rank
TIMING_NOISE = 1.5          # machine-relative allowance on wall-clock ratios
GROWTH_FLOOR = 2.0          # naive time ratio per added mode must exceed this


def report(name, detail):
    print(f"criterion {name}: PASS ({detail})")


def relative_gap(value, reference):
    return abs(value - reference) / max(1.0, abs(reference))


# ---------------------------------------------------------------------------
# 1. every Gram matrix the package builds must be positive semi-definite


def test_criterion_1_gram_matrices_are_psd():
    """50 random datasets (M=20, d=3, I=4, shared ranks <= 3): min eigenvalue
    of the prod and sum Gram matrices >= -1e-8 * max eigenvalue."""
    rng = np.random.default_rng(101)
    mixes = (
        (RbfKernel(1.5), PolynomialKernel(c=1.0, degree=2), LinearKernel()),
        (PolynomialKernel(c=0.5, degree=3), RbfKernel(0.8), RbfKernel(2.5)),
        (LinearKernel(), RbfKernel(1.0), PolynomialKernel(c=2.0, degree=2)),
    )
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        samples = [DenseTensor(rng.standard_normal((4, 4, 4))) for _ in range(20)]
        ranks = tuple(int(r) for r in rng.integers(1, 4, size=2))
        tts = stack_and_decompose(samples, TtSvdConfig(max_ranks=ranks))
        per_mode = mixes[i % len(mixes)]
        for combine in ("prod", "sum"):
            gram = build_gram(tts, KernelSpec(per_mode=per_mode, combine=combine))
            eig = np.linalg.eigvalsh(gram.values)
            scale = float(eig[-1])
            assert scale > 0, f"dataset {i} ({combine}): degenerate Gram matrix"
            ratio = float(eig[0]) / scale
            worst = min(worst, ratio) if i else ratio
            assert eig[0] >= -PSD_EIG_TOL * scale, (
                f"dataset {i} ({combine}): min eig {eig[0]:.3e} below "
                f"-{PSD_EIG_TOL} * {scale:.3e}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < PSD_BUDGET_S, f"took {elapsed:.1f}s, budget {PSD_BUDGET_S}s"
    report("1 gram-psd", f"worst min/max eig ratio {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. the all-linear product kernel is the plain tensor inner product


def test_criterion_2_linear_prod_equals_dense_inner_product():
    """200 random exact-TT pairs: all-linear prod kernel matches the dense
    inner product of the reconstructions within 1e-8 relative."""
    rng = np.random.default_rng(202)
    shapes = (((3, 4), (2,)), ((4, 3, 5), (2, 3)), ((3, 3, 3, 3), (2, 2, 2)))
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        dims, ranks = shapes[i % len(shapes)]
        a = random_tensor_train(dims, ranks, rng)
        b = random_tensor_train(dims, ranks, rng)
        spec = KernelSpec.uniform(LinearKernel(), len(dims))
        value = tt_kernel(a, b, spec)
        dense = float(
            np.sum(reconstruct(a).values * reconstruct(b).values)
        )
        gap = abs(value - dense) / max(abs(dense), abs(value), 1e-30)
        worst = max(worst, gap)
        assert gap <= INNER_REL_TOL, f"pair {i}: relative gap {gap:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < INNER_BUDGET_S, f"took {elapsed:.1f}s, budget {INNER_BUDGET_S}s"
    report("2 linear-prod-inner", f"worst relative gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. polynomial-cost evaluators agree with the rank-path enumeration


def test_criterion_3_fast_evaluators_match_naive():
    """500 random pairs (d <= 4, ranks <= 3): prod and sum fast evaluators
    match the naive evaluator within 1e-10 relative (floored at 1)."""
    rng = np.random.default_rng(303)
    kernel_pool = (
        RbfKernel(1.2),
        PolynomialKernel(c=1.0, degree=2),
        LinearKernel(),
        RbfKernel(3.0),
    )
    start = time.perf_counter()
    worst = 0.0
    for i in range(500):
        d = int(rng.integers(2, 5))
        dims = tuple(int(n) for n in rng.integers(3, 6, size=d))
        ranks = tuple(int(r) for r in rng.integers(1, 4, size=d - 1))
        a = random_tensor_train(dims, ranks, rng)
        b = random_tensor_train(dims, ranks, rng)
        per_mode = tuple(kernel_pool[(i + k) % len(kernel_pool)] for k in range(d))
        for combine, fast in (("prod", tt_kernel_prod_fast), ("sum", tt_kernel_sum_fast)):
            spec = KernelSpec(per_mode=per_mode, combine=combine)
            reference = tt_kernel_naive(a, b, spec)
            gap = relative_gap(fast(a, b, spec), reference)
            worst = max(worst, gap)
            assert gap <= FAST_REL_TOL, (
                f"pair {i} ({combine}, d={d}, ranks={ranks}): gap {gap:.3e}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < FAST_BUDGET_S, f"took {elapsed:.1f}s, budget {FAST_BUDGET_S}s"
    report("3 fast-vs-naive", f"worst relative gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. decomposition honors the error budget and recovers planted ranks


def test_criterion_4_tt_svd_guarantee():
    """100 random tensors: tolerance mode keeps the relative error within
    eps for eps in {1e-4, 1e-8}; fixed-rank mode recovers planted chains."""
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    for i in range(100):
        d = int(rng.integers(3, 5))
        dims = tuple(int(n) for n in rng.integers(3, 7, size=d))
        if i % 2 == 0:
            x = DenseTensor(rng.standard_normal(dims))
        else:
            ranks = tuple(int(r) for r in rng.integers(1, 3, size=d - 1))
            low = reconstruct(random_tensor_train(dims, ranks, rng))
            x = DenseTensor(low.values + 1e-3 * rng.standard_normal(dims))
        nrm = x.norm()
        for eps in (1e-4, 1e-8):
            tt = tt_svd(x, TtSvdConfig(rel_tol=eps))
            err = float(np.linalg.norm(x.values - reconstruct(tt).values))
            assert err <= eps * nrm * (1 + 1e-9), (
                f"tensor {i}, eps {eps}: error {err:.3e} over budget {eps * nrm:.3e}"
            )
    planted_checked = 0
    for i in range(40):
        dims = (4, 5, 4, 3)
        planted = tuple(int(r) for r in rng.integers(1, 4, size=3))
        exact = reconstruct(random_tensor_train(dims, planted, rng))
        tt = tt_svd(exact, TtSvdConfig(max_ranks=planted))
        assert tt.interior_ranks == planted, (
            f"planted {planted}, recovered {tt.interior_ranks}"
        )
        err = float(np.linalg.norm(exact.values - reconstruct(tt).values))
        assert err <= 1e-10 * exact.norm(), f"planted-rank residual {err:.3e}"
        planted_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < TTSVD_BUDGET_S, f"took {elapsed:.1f}s, budget {TTSVD_BUDGET_S}s"
    report("4 tt-svd-guarantee",
           f"100 tolerance checks, {planted_checked} planted chains, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. the working-set solver matches a brute-force dual oracle


def test_criterion_5_solver_matches_brute_force():
    """100 random dual problems (M <= 10): SMO objective within 1e-5 of the
    projected-gradient oracle; KKT max violation <= 1e-6 when converged."""
    lin1 = KernelSpec.uniform(LinearKernel(), 1)
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    worst_obj = 0.0
    worst_kkt = 0.0
    for i in range(100):
        m = int(rng.integers(3, 11))
        b = rng.standard_normal((m, m))
        gram = GramMatrix(values=b @ b.T / m, spec=lin1, sample_ids=tuple(range(m)))
        y = rng.choice([-1.0, 1.0], size=m)
        if np.all(y == y[0]):
            y[0] = -y[0]
        c = float(rng.choice([0.5, 1.0, 10.0]))
        problem = DualProblem(gram=gram, labels=y, C=c)
        solution = solve_dual(problem, tol=SOLVER_TOL)
        oracle = brute_force_dual(problem)
        gap = abs(solution.objective - oracle.objective)
        worst_obj = max(worst_obj, gap)
        assert gap <= SOLVER_OBJ_TOL, (
            f"problem {i} (M={m}, C={c}): objective gap {gap:.3e}"
        )
        assert solution.converged, f"problem {i} did not converge"
        violation = kkt_report(problem, solution, SOLVER_TOL).max_violation
        worst_kkt = max(worst_kkt, violation)
        assert violation <= SOLVER_TOL, (
            f"problem {i}: KKT violation {violation:.3e} above {SOLVER_TOL}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < SOLVER_BUDGET_S, f"took {elapsed:.1f}s, budget {SOLVER_BUDGET_S}s"
    report("5 solver-oracle",
           f"worst objective gap {worst_obj:.2e}, worst KKT {worst_kkt:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6 & 7. MNIST digits {1, 2}: accuracy band and rank plateau


def mnist_paths():
    """Locate the standard IDX files; returns None when unavailable."""
    candidates = []
    env = os.environ.get("TTKM_MNIST_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path("data") / "mnist")
    names = {
        "train_images": "train-images-idx3-ubyte",
        "train_labels": "train-labels-idx1-ubyte",
        "test_images": "t10k-images-idx3-ubyte",
        "test_labels": "t10k-labels-idx1-ubyte",
    }
    for root in candidates:
        found = {}
        for key, stem in names.items():
            for suffix in ("", ".gz"):
                path = root / (stem + suffix)
                if path.exists():
                    found[key] = path
                    break
        if len(found) == len(names):
            return found
    return None


MNIST_SKIP = (
    "MNIST IDX files not found; this environment has no network access to "
    "fetch them. Place the four standard files under $TTKM_MNIST_DIR or "
    "./data/mnist (gzipped or raw) and rerun."
)


def mnist_pair_dataset(paths, seed=0, train_per_class=50, val_per_class=50):
    train_s, train_y = load_idx_pair(paths["train_images"], paths["train_labels"])
    test_s, test_y = load_idx_pair(paths["test_images"], paths["test_labels"])
    return make_pair_dataset(
        train_s, train_y, test_s, test_y, (1, 2),
        train_per_class, val_per_class, seed,
    )


def mnist_grid(rank_values, combine="prod"):
    return GridConfig(
        c_values=(1.0, 10.0, 100.0, 1000.0),
        sigma_values=(1.0, 10.0, 100.0, 1000.0),
        rank_values=rank_values,
        mode_kinds=("rbf", "rbf"),
        combine=combine,
    )


def test_criterion_6_mnist_pair_accuracy():
    """Digits {1,2}, 50 train + 50 validation per class: both the product
    and the sum combine rule reach >= 97% accuracy on the full test pair."""
    paths = mnist_paths()
    if paths is None:
        pytest.skip(MNIST_SKIP)
    start = time.perf_counter()
    ds = mnist_pair_dataset(paths, seed=0)
    accuracies = {}
    for combine in ("prod", "sum"):
        model = train_binary(ds, mnist_grid(tuple(range(2, 9)), combine))
        accuracies[combine] = evaluate(model, ds, split="test").accuracy
        assert accuracies[combine] >= MNIST_ACCURACY, (
            f"{combine}: test accuracy {accuracies[combine]:.4f} < {MNIST_ACCURACY}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < MNIST_BUDGET_S, f"took {elapsed:.0f}s, budget {MNIST_BUDGET_S}s"
    report("6 mnist-pair", f"prod {accuracies['prod']:.4f}, "
           f"sum {accuracies['sum']:.4f}, {elapsed:.0f}s")


def test_criterion_7_mnist_rank_plateau():
    """Digits {1,2}: accuracy at interior rank 5 stays within 2 percentage
    points of accuracy at rank 15."""
    paths = mnist_paths()
    if paths is None:
        pytest.skip(MNIST_SKIP)
    start = time.perf_counter()
    ds = mnist_pair_dataset(paths, seed=0)
    acc = {}
    for rank in (5, 15):
        model = train_binary(ds, mnist_grid((rank,)))
        acc[rank] = evaluate(model, ds, split="test").accuracy
    gap = abs(acc[5] - acc[15])
    assert gap <= PLATEAU_GAP, (
        f"rank 5 accuracy {acc[5]:.4f} vs rank 15 {acc[15]:.4f}: gap {gap:.4f}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < PLATEAU_BUDGET_S, f"took {elapsed:.0f}s, budget {PLATEAU_BUDGET_S}s"
    report("7 rank-plateau", f"R=5 {acc[5]:.4f}, R=15 {acc[15]:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. heterogeneous per-mode kernels are accepted and pull their weight


def mixed_signal_dataset(seed, n_train=25, n_val=15, n_test=50, dims=(6, 6, 4)):
    """Synthetic 3-way data whose third mode carries the class in its sign
    along a fixed direction, under heavy amplitude jitter.  A linear kernel
    on mode 3 reads the sign directly; a distance-based kernel must cope
    with same-class pairs that sit farther apart than cross-class pairs."""
    rng = np.random.default_rng(seed)
    i1, i2, i3 = dims
    t = rng.standard_normal(i3)
    t /= np.linalg.norm(t)
    base_u = rng.standard_normal(i1)
    base_v = rng.standard_normal(i2)
    samples, labels, split = [], [], []
    for y in (-1, 1):
        cls = 0 if y < 0 else 1
        for name, count in (("train", n_train), ("validation", n_val), ("test", n_test)):
            for _ in range(count):
                u = base_u + 0.2 * rng.standard_normal(i1)
                v = base_v + 0.2 * rng.standard_normal(i2)
                g = rng.uniform(0.2, 4.0)
                w = y * g * t + 0.12 * g * rng.standard_normal(i3)
                x = np.einsum("i,j,k->ijk", u, v, w)
                x += 0.05 * rng.standard_normal(dims)
                samples.append(DenseTensor(x))
                labels.append(cls)
                split.append(name)
    return Dataset(samples=samples, labels=np.array(labels),
                   split=np.array(split, dtype=object))


def test_criterion_8_per_mode_kernel_mixing():
    """On data with a linear third-mode class signal, the RBF-RBF-Linear
    spec scores within 1 percentage point of (or above) all-RBF, and the
    heterogeneous spec runs through training and prediction end to end."""
    ds = mixed_signal_dataset(seed=0)
    start = time.perf_counter()

    def grid_for(kinds):
        return GridConfig(
            c_values=(1.0, 10.0, 100.0),
            sigma_values=(0.5, 1.0, 2.0, 5.0),
            rank_values=(2,),
            mode_kinds=kinds,
            combine="prod",
        )

    rbf_model = train_binary(ds, grid_for(("rbf", "rbf", "rbf")))
    mixed_model = train_binary(ds, grid_for(("rbf", "rbf", "linear")))
    acc_rbf = evaluate(rbf_model, ds, split="test").accuracy
    acc_mixed = evaluate(mixed_model, ds, split="test").accuracy
    kinds = tuple(type(k).__name__ for k in mixed_model.spec.per_mode)
    assert kinds == ("RbfKernel", "RbfKernel", "LinearKernel")
    assert acc_mixed >= acc_rbf - MIXING_MARGIN, (
        f"mixed spec {acc_mixed:.4f} trails all-RBF {acc_rbf:.4f} by more "
        f"than {MIXING_MARGIN}"
    )
    elapsed = time.perf_counter() - start
    report("8 kernel-mixing",
           f"all-RBF {acc_rbf:.4f}, RBF-RBF-Linear {acc_mixed:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. fast evaluation is polynomial in rank, naive is exponential in order


@pytest.mark.timing
def test_criterion_9_performance_scaling():
    """Fast prod timing grows at most cubically when the rank doubles over
    {2,4,8,16} (d=3, I=8, with a 1.5x machine-noise allowance), while naive
    timing grows at least geometrically in the order over d in {2..6}."""
    start = time.perf_counter()
    fast_rows = bench_fast_prod_ranks(
        ranks=(2, 4, 8, 16), order=3, dim_size=8, pairs=20, seed=0,
        min_seconds=0.2,
    )
    fast_times = [row["seconds_per_pair"] for row in fast_rows]
    fast_ratios = [b / a for a, b in zip(fast_times, fast_times[1:])]
    for i, ratio in enumerate(fast_ratios):
        assert ratio <= CUBIC_RATIO * TIMING_NOISE, (
            f"fast time ratio {ratio:.2f} from rank {fast_rows[i]['rank']} to "
            f"{fast_rows[i + 1]['rank']} exceeds the cubic bound "
            f"{CUBIC_RATIO} x {TIMING_NOISE}"
        )

    naive_rows = bench_naive_orders(
        orders=(2, 3, 4, 5, 6), rank=2, dim_size=8, pairs=3, seed=0,
        min_seconds=0.1,
    )
    naive_times = [row["seconds_per_pair"] for row in naive_rows]
    naive_ratios = [b / a for a, b in zip(naive_times, naive_times[1:])]
    for i, ratio in enumerate(naive_ratios):
        assert ratio >= GROWTH_FLOOR, (
            f"naive time ratio {ratio:.2f} from order {naive_rows[i]['order']} "
            f"to {naive_rows[i + 1]['order']} is below the geometric floor "
            f"{GROWTH_FLOOR}"
        )

    comparison = bench_compare(order=3, dim_size=8, rank=4, pairs=50, seed=0)
    assert comparison["speedup"] > 1.0, (
        f"fast evaluation is not faster than naive: speedup {comparison['speedup']:.2f}"
    )
    elapsed = time.perf_counter() - start
    report("9 performance",
           "fast ratios " + ", ".join(f"{r:.2f}" for r in fast_ratios)
           + "; naive ratios " + ", ".join(f"{r:.2f}" for r in naive_ratios)
           + f"; compare speedup {comparison['speedup']:.1f}x; {elapsed:.1f}s")
