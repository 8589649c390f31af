"""Dual QP solvers: SMO, the projected-gradient oracle, and KKT checks."""

import importlib.util
import math
import tracemalloc
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ttkm import solver
from ttkm.errors import CapacityError
from ttkm.kernels import GramMatrix, KernelSpec, LinearKernel, build_gram
from ttkm.solver import (
    BRUTE_FORCE_MAX_SIZE,
    FACE_EVERY,
    DualProblem,
    DualSolution,
    _bias,
    _objective,
    _project_feasible,
    brute_force_dual,
    decision_values,
    kkt_report,
    predict_labels,
    solve_dual,
)
from ttkm.tensor import DenseTensor, TtSvdConfig, stack_and_decompose

LIN1 = KernelSpec.uniform(LinearKernel(), 1)


def gram_of(values):
    values = np.asarray(values, dtype=np.float64)
    return GramMatrix(values=values, spec=LIN1, sample_ids=tuple(range(len(values))))


def random_problem(rng, n, c):
    """Random PSD kernel matrix with both classes present."""
    f = rng.standard_normal((n, max(1, n // 2)))
    k = f @ f.T + 1e-6 * np.eye(n)
    k = 0.5 * (k + k.T)
    while True:
        y = rng.choice([-1.0, 1.0], size=n)
        if np.any(y > 0) and np.any(y < 0):
            break
    return DualProblem(gram=gram_of(k), labels=y, C=c)


def two_point_problem(c=1e6):
    """Scalar samples +1 and -1 with a linear kernel; optimum is known.

    The dual reduces to max 2t - 2t^2 over t = a_1 = a_2, so a = (1/2, 1/2)
    and the separating function x -> x gives bias 0.
    """
    k = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return DualProblem(gram=gram_of(k), labels=np.array([1.0, -1.0]), C=c)


def labelled_problem(gram, y, c):
    return DualProblem(gram=gram_of(gram), labels=y, C=c)


def rbf_problem(seed, n, c, pos_frac):
    """RBF Gram of two shifted Gaussian clouds; ``pos_frac`` of labels +1."""
    rng = np.random.default_rng(seed)
    y = -np.ones(n)
    y[rng.permutation(n)[: max(1, round(pos_frac * n))]] = 1.0
    x = rng.standard_normal((n, 3))
    x[y > 0] += 0.7
    d2 = np.sum((x[:, None] - x[None]) ** 2, axis=-1)
    return labelled_problem(np.exp(-d2 / 2.0), y, c)


def integer_problem(seed):
    """Linear Gram of small integer points: exact ties and exact zeros."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    x = rng.integers(-2, 3, size=(n, 2)).astype(float)
    y = np.where(x[:, 0] + 0.5 * rng.standard_normal(n) > 0, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    return labelled_problem(x @ x.T, y, float(rng.choice([0.5, 1.0, 4.0])))


def memory_guard_problem():
    """Linear Gram of rank 8 on 400 samples: the n x n tables dominate
    memory, and faces of up to 92 free samples form."""
    n = 400
    rng = np.random.default_rng(7)
    f = rng.standard_normal((n, 8))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return labelled_problem(f @ f.T, y, 1.0)


def reference_pair_curvatures(k):
    """The row loop that built the pair table, frozen as its oracle."""
    kd = np.diag(k)
    quad = np.empty_like(k)
    for i, row in enumerate(k):
        np.maximum(kd[i] + kd - 2.0 * row, 1e-12, out=quad[i])
    return quad


def reference_label_products(k, y):
    """The row loop that built Q = K * y y^T, frozen as its oracle."""
    q = np.empty_like(k)
    for i, row in enumerate(k):
        np.multiply(row, y[i] * y, out=q[i])
    return q


def reference_face_products(k, y, free, out):
    """The row loop that filled Q_FF, frozen as its oracle."""
    yf = y[free]
    for r, i in enumerate(free):
        np.multiply(k[i, free], y[i] * yf, out=out[r])


def reference_solve_dual(p, tol=1e-3, max_iter=None, debug=False):
    """SMO in its textbook gradient form, frozen as the trajectory oracle.

    Every iteration rebuilds the masks, the pair denominators and the
    gradient update on Q = K * y y^T with whole-array numpy calls.
    ``solve_dual`` must take the same (i, j) and step at every iteration.
    """
    n = p.size
    if max_iter is None:
        max_iter = 2000 * n
    k = p.gram.values
    y = p.labels
    c = p.C
    q = k * np.outer(y, y)

    alphas = np.zeros(n)
    grad = -np.ones(n)
    kd = np.diag(k)
    last_obj = _objective(alphas, q)

    iterations = 0
    converged = False
    while iterations < max_iter:
        values = -y * grad
        up = ((y > 0) & (alphas < c)) | ((y < 0) & (alphas > 0))
        low = ((y > 0) & (alphas > 0)) | ((y < 0) & (alphas < c))
        up_vals = np.where(up, values, -np.inf)
        i = int(np.argmax(up_vals))
        gap_hi = up_vals[i]
        gap_lo = np.min(np.where(low, values, np.inf))
        if gap_hi - gap_lo <= tol:
            converged = True
            break

        diff = gap_hi - values
        eligible = low & (diff > 0)
        quad = np.maximum(kd[i] + kd - 2.0 * k[i], 1e-12)
        gain = np.where(eligible, diff * diff / quad, -np.inf)
        j = int(np.argmax(gain))

        a = quad[j]
        step = (gap_hi - values[j]) / a
        bound_i = (c - alphas[i]) if y[i] > 0 else alphas[i]
        bound_j = alphas[j] if y[j] > 0 else (c - alphas[j])
        step = min(step, bound_i, bound_j)

        if step >= bound_i:
            alphas[i] = c if y[i] > 0 else 0.0
        else:
            alphas[i] += y[i] * step
        if step >= bound_j:
            alphas[j] = 0.0 if y[j] > 0 else c
        else:
            alphas[j] -= y[j] * step
        grad += (y[i] * step) * q[:, i] - (y[j] * step) * q[:, j]
        iterations += 1

        if debug:
            obj = _objective(alphas, q)
            assert obj >= last_obj - 1e-9 * max(1.0, abs(last_obj))
            last_obj = obj

    values = -y * grad
    return DualSolution(
        alphas=alphas,
        bias=_bias(values, y, alphas, c),
        objective=_objective(alphas, q),
        iterations=iterations,
        converged=converged,
    )


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_same_trajectory(p, face_every=None, **kwargs):
    """solve_dual with FACE_EVERY = ``face_every`` (None: no face step)
    against the reference loop."""
    want = reference_solve_dual(p, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "FACE_EVERY", face_every)
        got = solve_dual(p, **kwargs)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert np.array_equal(got.alphas, want.alphas)
    assert np.array_equal(got.bias, want.bias)
    # the same to the bit, signs of zeros included
    assert bits(got.alphas) == bits(want.alphas)
    assert bits(got.bias) == bits(want.bias)
    assert bits(got.objective) == bits(want.objective)
    return got


def check_feasible(p, s, tol=1e-8):
    assert np.all(s.alphas >= -1e-12)
    assert np.all(s.alphas <= p.C + 1e-12)
    balance = abs(float(p.labels @ s.alphas))
    assert balance <= tol * max(1.0, float(np.sum(s.alphas)))


class TestDualProblem:
    def test_validation(self):
        k = gram_of(np.eye(2))
        with pytest.raises(ValueError):
            DualProblem(gram=k, labels=np.array([1.0, 2.0]), C=1.0)
        with pytest.raises(ValueError, match="both classes"):
            DualProblem(gram=k, labels=np.array([1.0, 1.0]), C=1.0)
        with pytest.raises(ValueError):
            DualProblem(gram=k, labels=np.array([1.0, -1.0]), C=0.0)
        with pytest.raises(ValueError):
            DualProblem(gram=k, labels=np.array([1.0, -1.0, 1.0]), C=1.0)

    @pytest.mark.parametrize("bad", [0.0, -2.0, 0.5, np.nan, np.inf])
    def test_labels_other_than_plus_minus_one_rejected(self, bad):
        k = gram_of(np.eye(3))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            DualProblem(gram=k, labels=np.array([1.0, -1.0, bad]), C=1.0)


class TestSolveDual:
    def test_two_point_analytic_solution(self):
        p = two_point_problem()
        s = solve_dual(p, tol=1e-8)
        assert s.converged
        np.testing.assert_allclose(s.alphas, [0.5, 0.5], atol=1e-10)
        assert s.bias == pytest.approx(0.0, abs=1e-10)
        assert s.objective == pytest.approx(0.5, abs=1e-10)
        check_feasible(p, s)

    def test_box_constraint_binds(self):
        p = two_point_problem(c=0.25)
        s = solve_dual(p, tol=1e-8)
        np.testing.assert_allclose(s.alphas, [0.25, 0.25], atol=1e-12)
        # no free support vectors; bias falls back to the interval midpoint
        assert s.bias == pytest.approx(0.0, abs=1e-10)

    def test_matches_oracle_on_random_problems(self):
        rng = np.random.default_rng(101)
        for trial in range(20):
            p = random_problem(rng, n=6, c=float(rng.choice([0.1, 1.0, 10.0])))
            s = solve_dual(p, tol=1e-8)
            o = brute_force_dual(p)
            scale = max(1.0, abs(o.objective))
            assert abs(s.objective - o.objective) <= 1e-6 * scale, f"trial {trial}"
            check_feasible(p, s)

    def test_objective_monotone_in_debug_mode(self):
        rng = np.random.default_rng(102)
        p = random_problem(rng, n=10, c=1.0)
        s = solve_dual(p, tol=1e-8, debug=True)
        assert s.converged

    def test_max_iter_reached_reports_unconverged(self):
        rng = np.random.default_rng(103)
        p = random_problem(rng, n=10, c=10.0)
        s = solve_dual(p, tol=1e-12, max_iter=2)
        assert not s.converged
        assert s.iterations == 2
        check_feasible(p, s)

    def test_scaling_invariance(self):
        # scaling K by g and C by 1/g scales alphas by 1/g and leaves
        # decision values unchanged
        rng = np.random.default_rng(104)
        base = random_problem(rng, n=8, c=2.0)
        g = 3.7
        scaled = DualProblem(
            gram=gram_of(g * base.gram.values), labels=base.labels, C=base.C / g
        )
        s0 = solve_dual(base, tol=1e-10)
        s1 = solve_dual(scaled, tol=1e-10)
        np.testing.assert_allclose(s1.alphas, s0.alphas / g, atol=1e-8)
        v0 = base.gram.values @ (s0.alphas * base.labels) + s0.bias
        v1 = scaled.gram.values @ (s1.alphas * scaled.labels) + s1.bias
        np.testing.assert_allclose(v1, v0, atol=1e-7)

    def test_support_indices(self):
        p = two_point_problem()
        s = solve_dual(p, tol=1e-8)
        np.testing.assert_array_equal(s.support_indices, [0, 1])

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            solve_dual(two_point_problem(), tol=0.0)


def assert_same_solution(got, want):
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert bits(got.alphas) == bits(want.alphas)
    assert bits(got.bias) == bits(want.bias)
    assert bits(got.objective) == bits(want.objective)


class TestSolveDualStart:
    """A feasible ``start`` is where the solve begins; alpha = 0 is the
    cold start itself."""

    @pytest.mark.parametrize("face_every", [None, FACE_EVERY])
    @pytest.mark.parametrize("problem", [
        rbf_problem(161, 60, 1000.0, 0.5),
        rbf_problem(162, 20, 1.0, 0.2),
        integer_problem(3),
        random_problem(np.random.default_rng(163), 30, 10.0),
    ], ids=["rbf-hard", "rbf-skewed", "integer", "random"])
    def test_zero_start_is_the_cold_solve(self, problem, face_every, monkeypatch):
        monkeypatch.setattr(solver, "FACE_EVERY", face_every)
        for debug in (False, True):
            assert_same_solution(
                solve_dual(problem, debug=debug, start=np.zeros(problem.size)),
                solve_dual(problem, debug=debug),
            )

    def test_optimal_start_returns_at_once(self):
        p = rbf_problem(164, 40, 100.0, 0.5)
        optimum = solve_dual(p, tol=1e-9)
        s = solve_dual(p, tol=1e-6, start=optimum.alphas)
        assert s.converged and s.iterations == 0
        assert bits(s.alphas) == bits(optimum.alphas)
        assert s.bias == pytest.approx(optimum.bias, abs=1e-8)

    def test_seeded_solve_matches_the_cold_optimum(self):
        # the solution at C = 10, scaled to C = 100: fewer iterations, and
        # the same optimum within the tolerance
        p10 = rbf_problem(165, 60, 10.0, 0.5)
        p100 = labelled_problem(p10.gram.values, p10.labels, 100.0)
        start = solve_dual(p10, tol=1e-8).alphas * 10.0
        cold = solve_dual(p100, tol=1e-8)
        seeded = solve_dual(p100, tol=1e-8, start=start)
        assert seeded.converged and seeded.iterations < cold.iterations
        check_feasible(p100, seeded)
        assert seeded.objective == pytest.approx(cold.objective, rel=1e-8)

    @pytest.mark.parametrize("bad, match", [
        (lambda a: a[:-1], "shape"),
        (lambda a: a.reshape(2, -1), "shape"),
        (lambda a: np.where(np.arange(a.size) == 0, np.nan, a), "non-finite"),
        (lambda a: np.where(np.arange(a.size) == 0, np.inf, a), "non-finite"),
        (lambda a: a - 0.6, r"\[0, C\]"),
        (lambda a: a + 2.0, r"\[0, C\]"),
        (lambda a: np.where(np.arange(a.size) == 0, a + 1e-3, a), "balanced"),
    ], ids=["short", "2-d", "nan", "inf", "below-0", "above-C", "unbalanced"])
    def test_infeasible_start_rejected(self, bad, match):
        # the feasible start: alpha = 1/2 on every sample of a balanced problem
        p = rbf_problem(166, 8, 2.0, 0.5)
        good = np.full(8, 0.5)
        assert abs(float(p.labels @ good)) == 0.0
        solve_dual(p, start=good)
        with pytest.raises(ValueError, match=match):
            solve_dual(p, start=bad(good))


class TestSolveDualTrajectory:
    """With the face step off, solve_dual walks the reference loop's path
    exactly, iteration by iteration."""

    @pytest.mark.parametrize("pos_frac", [0.5, 0.2], ids=["balanced", "skewed"])
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0, 1000.0])
    @pytest.mark.parametrize("n", [2, 3, 7, 20, 60, 200])
    def test_rbf_problems(self, n, c, pos_frac):
        s = assert_same_trajectory(rbf_problem(7 * n + int(c), n, c, pos_frac))
        assert s.converged

    def test_random_psd_problems(self):
        rng = np.random.default_rng(141)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            assert_same_trajectory(random_problem(rng, n, float(rng.choice([0.1, 1.0, 10.0]))))

    def test_integer_problems_with_ties_and_exact_zeros(self):
        negative_zero_bias = 0
        for seed in range(300):
            s = assert_same_trajectory(integer_problem(seed))
            negative_zero_bias += s.bias == 0.0 and np.signbit(s.bias)
        assert negative_zero_bias > 0  # the sign of a zero bias is exercised

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 50])
    def test_truncated_solve(self, max_iter):
        s = assert_same_trajectory(rbf_problem(151, 60, 1000.0, 0.5), max_iter=max_iter)
        assert not s.converged and s.iterations == max_iter

    @pytest.mark.parametrize("max_iter", [0, 1, 2, FACE_EVERY])
    def test_truncated_solve_with_face_step(self, max_iter):
        # no face phase starts before FACE_EVERY SMO iterations
        s = assert_same_trajectory(
            rbf_problem(151, 60, 1000.0, 0.5), face_every=FACE_EVERY, max_iter=max_iter
        )
        assert not s.converged and s.iterations == max_iter

    def test_debug_mode(self):
        assert_same_trajectory(rbf_problem(152, 40, 10.0, 0.5), tol=1e-8, debug=True)

    def test_asymmetric_gram_within_tolerance(self):
        # GramMatrix accepts asymmetry up to 1e-10; the update reads columns
        p = rbf_problem(153, 30, 10.0, 0.5)
        skew = np.triu(np.full((30, 30), 3e-11), 1)
        assert_same_trajectory(labelled_problem(p.gram.values + skew, p.labels, p.C))

    def test_peak_memory_not_above_the_gradient_form(self):
        # The gradient form peaked at 1,409,544 traced bytes on this problem
        # (numpy 2.4): Q = K * y y^T plus a ufunc buffer.  solve_dual holds
        # one n x n table at a time and builds it in blocks of rows.
        p = memory_guard_problem()
        tracemalloc.start()
        try:
            s = solve_dual(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.converged
        assert peak <= 1_409_544


def table_gram(n, seed):
    """RBF Gram scaled off 1, with repeated samples (pair curvature 0, so
    the 1e-12 floor binds) and a 1e-10-bounded asymmetry; labels +-1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    x[rng.random(n) < 0.2] = x[0]
    k = 3.7 * np.exp(-np.sum((x[:, None] - x[None]) ** 2, axis=-1) / 2.0)
    k += np.triu(rng.uniform(0.0, 3e-11, (n, n)), 1)
    return k, np.where(rng.random(n) < 0.4, 1.0, -1.0)


TABLE_EDGE = math.isqrt(solver.TABLE_BLOCK_VALUES)  # n x n fits one block up to here
FACE_EDGE = math.isqrt(solver.FACE_BLOCK_VALUES)


@pytest.fixture(params=[None, 7], ids=["default-blocks", "7-value-blocks"])
def block_values(request, monkeypatch):
    """The block sizes as shipped, or 7 values: blocks of 1 to 7 rows with a
    ragged last one."""
    if request.param:
        monkeypatch.setattr(solver, "TABLE_BLOCK_VALUES", request.param)
        monkeypatch.setattr(solver, "FACE_BLOCK_VALUES", request.param)


class TestBlockedTables:
    """The tables and face systems, filled in blocks of rows, hold the bits
    of the row loops they replaced, and so does every solve."""

    SIZES = [1, 2, 3, TABLE_EDGE - 1, TABLE_EDGE, TABLE_EDGE + 1, 60, 61, 400]

    @pytest.mark.parametrize("n", SIZES)
    def test_pair_curvatures(self, n, block_values):
        k, _ = table_gram(n, n)
        assert bits(solver._pair_curvatures(k)) == bits(reference_pair_curvatures(k))

    @pytest.mark.parametrize("n", SIZES)
    def test_label_products(self, n, block_values):
        k, y = table_gram(n, n)
        assert bits(solver._label_products(k, y)) == bits(reference_label_products(k, y))

    def test_pair_curvature_floor_binds(self):
        k, _ = table_gram(60, 60)
        assert np.count_nonzero(solver._pair_curvatures(k) == 1e-12) > 60

    @pytest.mark.parametrize(
        "m", [1, 2, 3, FACE_EDGE - 1, FACE_EDGE, FACE_EDGE + 1, 40, 61]
    )
    def test_face_products(self, m, block_values):
        # Q_FF goes into the top-left of a KKT buffer sized for a larger
        # face, as in _face_phase; m = 61 is the whole set
        n = 61
        k, y = table_gram(n, m)
        free = np.sort(np.random.default_rng(m).permutation(n)[:m])
        got, want = (np.full((n + 1) ** 2, np.nan) for _ in range(2))
        solver._face_products(k, y, free, got[: (m + 1) ** 2].reshape(m + 1, m + 1)[:m, :m])
        reference_face_products(k, y, free, want[: (m + 1) ** 2].reshape(m + 1, m + 1)[:m, :m])
        assert bits(got) == bits(want)

    @pytest.mark.parametrize(
        "problem",
        [(0, 60, 1000.0, 0.5), (1, 200, 1000.0, 0.5), (151, 60, 1000.0, 0.5)],
        ids=["n60", "n200", "n60-seed151"],
    )
    @pytest.mark.parametrize("debug", [False, True])
    def test_solve_dual_same_bits_as_with_the_row_loops(self, problem, debug, monkeypatch):
        p = rbf_problem(*problem)
        pivots = []
        face_phase = solver._face_phase

        def counting(*args):
            pivots.append(face_phase(*args))
            return pivots[-1]

        monkeypatch.setattr(solver, "_face_phase", counting)
        got = solve_dual(p, debug=debug)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_pair_curvatures", reference_pair_curvatures)
            mp.setattr(solver, "_label_products", reference_label_products)
            mp.setattr(solver, "_face_products", reference_face_products)
            # a fresh Gram: p's holds the pair table its first solve built
            want = solve_dual(rbf_problem(*problem), debug=debug)
        assert got.converged and sum(pivots) > 0  # the face step ran
        assert got.iterations == want.iterations
        assert bits(got.alphas) == bits(want.alphas)
        assert bits(got.bias) == bits(want.bias)
        assert bits(got.objective) == bits(want.objective)

    def test_partner_choice_when_every_gain_underflows(self):
        # With K near 1e305 and C near 1e-305, diff^2 / quad underflows to 0
        # for every partner once the gaps are small; the partner then comes
        # from the masked gains, as in the reference loop
        p = rbf_problem(0, 20, 1.0, 0.5)
        huge = labelled_problem(1e305 * p.gram.values, p.labels, 10.0 / 1e305)
        s = assert_same_trajectory(huge, tol=1e-10, max_iter=500)
        assert not s.converged

    def test_face_phase_peak_memory_not_above_the_row_loop(self, monkeypatch):
        # Every face phase of the memory guard problem, run alone.  With the
        # row loop the largest, on 92 free samples, peaked at 80,576 traced
        # bytes (numpy 2.4).  A block of rows takes a few blocks of
        # temporaries, up to ~7 KB more than a row on the smaller faces, so
        # the phase frees the previous pivot's vectors before the next fill.
        p = memory_guard_problem()
        k, y, c = p.gram.values, p.labels, p.C
        face_phase = solver._face_phase
        calls = []

        def recording(k, y, c, alphas, values, budget):
            calls.append((alphas.copy(), values.copy(), budget))
            return face_phase(k, y, c, alphas, values, budget)

        monkeypatch.setattr(solver, "_face_phase", recording)
        solve_dual(p)
        peaks = []
        for alphas, values, budget in calls:
            tracemalloc.start()
            try:
                face_phase(k, y, c, alphas, values, budget)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(peaks) >= 5
        assert max(peaks) <= 80_576


@st.composite
def small_problems(draw):
    """Random PSD Grams of n <= 12 (a ridge keeps the oracle quick), both
    classes present, C from 0.1 to 1000."""
    n = draw(st.integers(2, BRUTE_FORCE_MAX_SIZE))
    rank = draw(st.integers(1, n))
    f = draw(arrays(np.float64, (n, rank), elements=st.floats(-1.0, 1.0)))
    ridge = draw(st.floats(0.01, 1.0))
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    if not (np.any(y > 0) and np.any(y < 0)):
        y[:2] = (1.0, -1.0)
    c = draw(st.floats(0.1, 1000.0))
    return labelled_problem(f @ f.T / rank + ridge * np.eye(n), y, c)


class TestSolveDualProperties:
    @settings(max_examples=60, derandomize=True, database=None,
              deadline=timedelta(seconds=10))
    @given(small_problems(), st.sampled_from([1, 2, 5, FACE_EVERY]))
    def test_converges_to_the_oracle_optimum(self, p, face_every):
        # small FACE_EVERY runs the face step on problems this small
        tol = 1e-6
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "FACE_EVERY", face_every)
            s = solve_dual(p, tol=tol, debug=True)
        assert s.converged
        check_feasible(p, s)
        assert kkt_report(p, s, tol).max_violation <= tol
        o = brute_force_dual(p)
        assert abs(s.objective - o.objective) <= 1e-5 * max(1.0, abs(o.objective))

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=timedelta(seconds=10))
    @given(small_problems(), st.sampled_from([1, 2, 5, FACE_EVERY]), st.data())
    def test_seeded_starts_converge_to_the_oracle_optimum(self, p, face_every, data):
        # any feasible start: the projection of a random vector around the box
        v = data.draw(arrays(np.float64, p.size, elements=st.floats(-0.5, 1.5)))
        start = _project_feasible(p.C * v, p.labels, p.C)
        tol = 1e-6
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "FACE_EVERY", face_every)
            s = solve_dual(p, tol=tol, debug=True, start=start)
        assert s.converged
        check_feasible(p, s)
        assert kkt_report(p, s, tol).max_violation <= tol
        o = brute_force_dual(p)
        assert abs(s.objective - o.objective) <= 1e-5 * max(1.0, abs(o.objective))


def benchmark_corpus_gram(spec, rank):
    """Gram of the benchmark's fixed training corpus (30 + 30 samples of
    4x7x4x7), decomposed jointly with its validation split at ``rank`` and
    normalised, as ``train_binary`` does; and the +-1 labels."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"
    loader = importlib.util.spec_from_file_location("perfbench_synth", path)
    synth = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(synth)
    corpus = np.random.default_rng(0)
    train, labels = synth.split(corpus, 30)
    validation, _ = synth.split(corpus, 20)
    samples = [DenseTensor(x / np.linalg.norm(x)) for x in np.concatenate([train, validation])]
    tts = stack_and_decompose(samples, TtSvdConfig(max_ranks=(rank,) * 3))
    gram = build_gram(tts[: len(train)], spec).values
    return gram, np.where(labels == synth.CLASSES[1], 1.0, -1.0)


class TestFaceStep:
    """The face step on the problems where two-coordinate SMO crawls."""

    @pytest.mark.parametrize("seed", range(4))
    def test_near_hard_margin_rbf_takes_a_fifth_of_the_iterations(self, seed):
        p = rbf_problem(seed, 60, 1000.0, 0.5)
        smo_only = reference_solve_dual(p)
        s = solve_dual(p)
        assert smo_only.converged and s.converged
        assert 5 * s.iterations <= smo_only.iterations
        assert kkt_report(p, s, 1e-3).max_violation <= 1e-3
        assert s.objective >= smo_only.objective - 1e-3

    def test_rank_deficient_linear_sum_still_converges(self):
        # rank 5 all-linear sum: a Gram of numerical rank 5 on 60 samples,
        # so faces of more than six free samples are singular.  The face
        # step has no null-space step for them yet; on some random draws of
        # such Grams it costs iterations instead of saving them.
        gram, y = benchmark_corpus_gram(KernelSpec.uniform(LinearKernel(), 4, "sum"), 5)
        p = labelled_problem(gram, y, 100.0)
        smo_only = reference_solve_dual(p)
        s = solve_dual(p)
        assert smo_only.converged and s.converged
        assert s.iterations <= smo_only.iterations
        assert kkt_report(p, s, 1e-3).max_violation <= 1e-3

    def test_face_pivots_count_as_iterations(self, monkeypatch):
        # each phase's budget is max_iter less the SMO steps and pivots so far
        calls = []
        face_phase = solver._face_phase

        def spy(k, y, c, alphas, values, budget):
            pivots = face_phase(k, y, c, alphas, values, budget)
            calls.append((budget, pivots))
            return pivots

        monkeypatch.setattr(solver, "_face_phase", spy)
        s = solve_dual(rbf_problem(0, 60, 1000.0, 0.5), max_iter=10_000)
        assert s.converged and len(calls) >= 2
        assert calls[0][0] == 10_000 - FACE_EVERY
        for (budget, pivots), (next_budget, _) in zip(calls, calls[1:]):
            assert 1 <= pivots <= budget
            assert next_budget == budget - pivots - FACE_EVERY

    def test_debug_checks_the_face_phases(self, monkeypatch):
        def lowering_phase(k, y, c, alphas, values, budget):
            alphas[:] = 0.0  # feasible, and the objective drops to 0
            return 1

        monkeypatch.setattr(solver, "_face_phase", lowering_phase)
        p = rbf_problem(3, 60, 1000.0, 0.5)
        assert not solve_dual(p, max_iter=3 * FACE_EVERY).converged  # unchecked
        with pytest.raises(AssertionError, match="objective decreased"):
            solve_dual(p, debug=True)


class TestBruteForce:
    def test_two_point_analytic_solution(self):
        s = brute_force_dual(two_point_problem(c=10.0))
        np.testing.assert_allclose(s.alphas, [0.5, 0.5], atol=1e-6)
        assert s.bias == pytest.approx(0.0, abs=1e-6)

    def test_tiny_c_pins_alphas_to_zero(self):
        p = two_point_problem(c=1e-9)
        s = brute_force_dual(p)
        assert np.all(s.alphas <= 1e-9 + 1e-15)
        assert s.objective == pytest.approx(0.0, abs=1e-8)

    def test_size_cap(self):
        rng = np.random.default_rng(111)
        p = random_problem(rng, n=BRUTE_FORCE_MAX_SIZE + 1, c=1.0)
        with pytest.raises(CapacityError):
            brute_force_dual(p)

    def test_feasibility_of_output(self):
        rng = np.random.default_rng(112)
        for _ in range(5):
            p = random_problem(rng, n=8, c=0.5)
            s = brute_force_dual(p)
            check_feasible(p, s)
            assert abs(float(p.labels @ s.alphas)) <= 1e-11

    def test_objective_at_least_smo(self):
        rng = np.random.default_rng(113)
        for _ in range(5):
            p = random_problem(rng, n=8, c=1.0)
            o = brute_force_dual(p)
            s = solve_dual(p, tol=1e-8)
            assert o.objective >= s.objective - 1e-6 * max(1.0, abs(s.objective))


class TestDecisionValues:
    def test_empty_support_returns_bias(self):
        vals = decision_values(np.zeros(0), bias=-0.3, kernel_rows=np.zeros((4, 0)))
        np.testing.assert_allclose(vals, -0.3)

    def test_linear_combination(self):
        rows = np.array([[1.0, 2.0], [0.0, 1.0]])
        coeffs = np.array([0.5, -1.0])
        np.testing.assert_allclose(
            decision_values(coeffs, 0.25, rows), [0.5 - 2.0 + 0.25, -1.0 + 0.25]
        )

    def test_interior_support_vector_value_near_label(self):
        rng = np.random.default_rng(121)
        p = random_problem(rng, n=8, c=5.0)
        tol = 1e-8
        s = solve_dual(p, tol=tol)
        vals = decision_values(s.alphas * p.labels, s.bias, p.gram.values)
        lo = 1e-8 * p.C
        free = (s.alphas > lo) & (s.alphas < p.C - lo)
        for i in np.nonzero(free)[0]:
            assert abs(vals[i] - p.labels[i]) <= 10 * tol

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decision_values(np.zeros(3), 0.0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            decision_values(np.zeros(3), 0.0, np.zeros(3))

    def test_sign_rule_tie_goes_positive(self):
        np.testing.assert_array_equal(
            predict_labels([0.0, -0.1, 0.1]), [1.0, -1.0, 1.0]
        )


class TestKktReport:
    def test_converged_solution_within_tol(self):
        rng = np.random.default_rng(131)
        for _ in range(10):
            p = random_problem(rng, n=9, c=float(rng.choice([0.1, 1.0, 10.0])))
            tol = 1e-6
            s = solve_dual(p, tol=tol)
            assert s.converged
            rep = kkt_report(p, s, tol)
            assert rep.max_violation <= tol
            assert sum(rep.counts.values()) == p.size

    def test_zeroed_alphas_on_separable_data_violate(self):
        p = two_point_problem()
        zero = DualSolution(
            alphas=np.zeros(2), bias=0.0, objective=0.0, iterations=0, converged=False
        )
        rep = kkt_report(p, zero, tol=1e-3)
        assert rep.max_violation > 0.5

    def test_brute_force_output_near_optimal(self):
        rng = np.random.default_rng(132)
        p = random_problem(rng, n=8, c=1.0)
        s = brute_force_dual(p)
        rep = kkt_report(p, s, tol=1e-4)
        assert rep.max_violation <= 1e-4

    def test_bins_cover_all_samples(self):
        p = two_point_problem(c=0.25)
        s = solve_dual(p, tol=1e-8)
        rep = kkt_report(p, s, tol=1e-8)
        assert rep.counts["at_C"] == 2
        assert rep.counts["zero"] == 0
        assert rep.counts["interior"] == 0


class TestTablesPerGram:
    """The pair-curvature table is built once per Gram and kept in
    ``gram.tables`` for every later solve on it; the objective is read from
    K with no label-product table.  Neither changes a bit of a solution."""

    @staticmethod
    def fresh(p, c=None):
        """``p`` on a new Gram of the same values, so no table is cached."""
        values = np.array(p.gram.values)
        return labelled_problem(values, p.labels, p.C if c is None else c)

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        real = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *a: calls.append(1) or real(*a))
        return calls

    def test_one_curvature_table_for_every_c(self, monkeypatch):
        tables = self.spy(monkeypatch, "_pair_curvatures")
        label_tables = self.spy(monkeypatch, "_label_products")
        p = rbf_problem(0, 60, 1.0, 0.5)
        sols = [solve_dual(DualProblem(gram=p.gram, labels=p.labels, C=c))
                for c in (1.0, 10.0, 100.0, 1000.0)]
        assert len(tables) == 1 and not label_tables
        assert "pair_curvatures" in p.gram.tables
        for c, got in zip((1.0, 10.0, 100.0, 1000.0), sols):
            want = solve_dual(self.fresh(p, c))
            assert got.iterations == want.iterations and got.converged == want.converged
            assert bits(got.alphas) == bits(want.alphas)
            assert bits(got.bias) == bits(want.bias)
            assert bits(got.objective) == bits(want.objective)
        assert len(tables) == 5

    def test_gram_values_are_read_only(self):
        p = rbf_problem(0, 10, 1.0, 0.5)
        with pytest.raises(ValueError):
            p.gram.values[0, 0] = 2.0

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 60, 61, 200, 400])
    def test_objective_from_the_gram_has_the_bits_of_the_q_form(self, n, order):
        k, y = table_gram(n, n + 7)
        k = np.asarray(k, order=order)
        rng = np.random.default_rng(n)
        for alphas in (np.zeros(n), rng.uniform(0.0, 10.0, n),
                       rng.uniform(0.0, 1e3, n) * (rng.random(n) < 0.3)):
            want = _objective(alphas, reference_label_products(k, y))
            assert bits(solver._gram_objective(alphas, k, y)) == bits(want)
