"""Soft-margin kernel SVM trained through its dual quadratic program.

The dual for labels y in {-1, +1}, kernel matrix K, and box parameter C is

    maximize    sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij
    subject to  0 <= a_i <= C,   sum_i a_i y_i = 0.

``solve_dual`` is a sequential minimal optimization (SMO) solver operating
on one violating pair at a time with second-order pair selection, finished
by periodic active-set steps on the face of the free samples: near hard
margin (large C, a Gram with tiny eigenvalues) two-coordinate steps crawl
along flat directions that one linear solve crosses.  ``brute_force_dual``
is a deliberately simple projected-gradient reference for small problems,
used to cross-check the SMO implementation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .kernels import GramMatrix

logger = logging.getLogger(__name__)

BRUTE_FORCE_MAX_SIZE = 12
SUPPORT_EPS = 1e-12
FACE_EVERY = 50  # SMO iterations between two face phases
# Values per block of rows when a table is filled.  An n x n table takes
# 4096 (32 KB; one block up to n = 64).  Q_FF is filled while the pair
# table and the KKT buffer are held, so its temporaries add to the solve's
# peak memory: 256 values a block.
TABLE_BLOCK_VALUES = 4096
FACE_BLOCK_VALUES = 256


@dataclass(frozen=True)
class DualProblem:
    """Inputs of the dual QP: kernel matrix, labels in {-1,+1}, and C."""

    gram: GramMatrix
    labels: np.ndarray
    C: float

    def __post_init__(self):
        y = np.asarray(self.labels, dtype=np.float64)
        if y.ndim != 1 or y.size != self.gram.size:
            raise ValueError(
                f"labels shape {y.shape} does not match Gram size {self.gram.size}"
            )
        if not (np.abs(y) == 1.0).all():
            raise ValueError("labels must be -1 or +1")
        if not (np.any(y > 0) and np.any(y < 0)):
            raise ValueError("both classes must be present")
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C}")
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "C", float(self.C))

    @property
    def size(self) -> int:
        return self.gram.size


@dataclass(frozen=True)
class DualSolution:
    alphas: np.ndarray
    bias: float
    objective: float
    iterations: int
    converged: bool

    @property
    def support_indices(self) -> np.ndarray:
        return np.nonzero(self.alphas > SUPPORT_EPS)[0]


def _objective(alphas, q) -> float:
    return float(np.sum(alphas) - 0.5 * alphas @ q @ alphas)


def _gram_objective(alphas, k, y) -> float:
    """``_objective(alphas, _label_products(k, y))`` to the bit, without
    the n x n table: column j of ``alphas @ Q`` sums the terms
    alpha_i K_ij y_i y_j, which are y_j times those of ``(alphas * y) @ K``,
    and negation commutes with rounding, so a product of the same shape
    and layout (``_label_products`` lays Q out as K) adds them to y_j
    times the same sum."""
    w = (0.5 * alphas * y) @ k
    w *= y
    return float(np.sum(alphas) - w @ alphas)


def _bias(values, y, alphas, c) -> float:
    """Offset from the optimality conditions on the box sets.

    ``values`` holds y_i - G_i where G_i are the margin sums.  The mean over
    free support vectors is used when any exist; otherwise the midpoint of
    the interval allowed by the bound sets.
    """
    lo = 1e-8 * c
    free = (alphas > lo) & (alphas < c - lo)
    if np.any(free):
        return float(np.mean(values[free]))
    up = ((y > 0) & (alphas < c)) | ((y < 0) & (alphas > 0))
    low = ((y > 0) & (alphas > 0)) | ((y < 0) & (alphas < c))
    hi_part = np.max(values[up]) if np.any(up) else None
    lo_part = np.min(values[low]) if np.any(low) else None
    if hi_part is None:
        return float(lo_part)
    if lo_part is None:
        return float(hi_part)
    return float(0.5 * (hi_part + lo_part))


def _row_blocks(rows, width, values):
    """Slices of ``rows`` rows of ``width`` values each, with at most
    ``values`` values (and at least one row) in a slice."""
    step = max(1, values // max(1, width))
    for r in range(0, rows, step):
        yield slice(r, r + step)


def _pair_curvatures(k) -> np.ndarray:
    """Table of max(K_ii + K_jj - 2 K_ij, 1e-12): row i for every partner j.

    Built in blocks of ``TABLE_BLOCK_VALUES`` values, so temporaries are a
    few blocks; each entry is computed as in a row loop, (K_ii + K_jj) -
    2.0 * K_ij, and then clipped.
    """
    kd = np.diag(k)
    quad = np.empty_like(k)
    for b in _row_blocks(len(k), len(k), TABLE_BLOCK_VALUES):
        np.maximum((kd[b, None] + kd) - 2.0 * k[b], 1e-12, out=quad[b])
    return quad


def _label_products(k, y) -> np.ndarray:
    """Q = K * y y^T in blocks of rows like ``_pair_curvatures``: each entry
    is K_ij * (y_i y_j), with y_i y_j written into Q first."""
    q = np.empty_like(k)
    for b in _row_blocks(len(k), len(k), TABLE_BLOCK_VALUES):
        np.multiply(y[b, None], y, out=q[b])
        np.multiply(k[b], q[b], out=q[b])
    return q


def _face_products(k, y, free, out) -> None:
    """Q_FF = K_FF * y_F y_F^T into ``out``, each entry computed as
    ``_label_products`` computes it, in blocks of ``FACE_BLOCK_VALUES``
    values with one gather of K per block."""
    yf = y[free]
    for b in _row_blocks(free.size, free.size, FACE_BLOCK_VALUES):
        np.multiply(yf[b, None], yf, out=out[b])
        np.multiply(k[free[b, None], free], out[b], out=out[b])


def _check_ascent(alphas, q, last_obj, iterations) -> float:
    """The objective at ``alphas``, asserted not to have decreased."""
    obj = _objective(alphas, q)
    if obj < last_obj - 1e-9 * max(1.0, abs(last_obj)):
        raise AssertionError(
            f"dual objective decreased: {last_obj} -> {obj} at iteration {iterations}"
        )
    return obj


def _masks(alphas, y, c):
    """0 where alpha may still move up (resp. down) in the +y direction,
    -inf (resp. +inf) elsewhere."""
    up = ((y > 0) & (alphas < c)) | ((y < 0) & (alphas > 0))
    low = ((y > 0) & (alphas > 0)) | ((y < 0) & (alphas < c))
    return np.where(up, 0.0, -np.inf), np.where(low, 0.0, np.inf)


def _face_phase(k, y, c, alphas, values, budget) -> int:
    """Active-set ascent on the face of the free samples, in place on alphas.

    F = {0 < alpha_i < C} moves by the step d that maximizes the objective
    with every other alpha fixed: the KKT system
    [Q_FF y_F; y_F^T 0][d; b] = [y_F * values_F; -y.alpha], whose right-hand
    side is the gradient on F (and the balance residual), so no |F| x |B|
    block of K is read.  alpha_F goes along d until the first coordinate
    reaches its bound; that coordinate is pinned there and the smaller face
    solved again (an active-set method; Scheinberg, JMLR 2006).  The phase
    ends once the face optimum lies inside the box, or before a step that
    would not raise the objective.  A face larger than the Gram's rank + 1
    is singular; its solve gives a long step along a near-null direction,
    kept only if it ascends.  Each solve counts as one pivot, at most
    ``budget``; returns the pivots taken.  The KKT system lives in one
    buffer of the first face's size; Q_FF is filled into it in blocks of
    rows (``_face_products``), so the other temporaries are a few blocks
    and a few |F|-vectors.
    """
    free = np.flatnonzero((alphas > 0.0) & (alphas < c))
    grad = y[free] * values[free]
    buf = np.empty((free.size + 1) ** 2)  # every face's system fits; F shrinks
    pivots = 0
    while free.size and pivots < budget:
        m = free.size
        yf = y[free]
        kkt = buf[: (m + 1) ** 2].reshape(m + 1, m + 1)
        q = kkt[:m, :m]
        _face_products(k, y, free, q)
        kkt[m, :m] = kkt[:m, m] = yf
        kkt[m, m] = 0.0
        pivots += 1
        try:
            d = np.linalg.solve(kkt, np.append(grad, -float(y @ alphas)))[:m]
        except np.linalg.LinAlgError:
            break
        qd = q @ d
        af = alphas[free]
        with np.errstate(divide="ignore"):
            room = np.where(d > 0, c - af, -af) / d  # step to the bound d heads for
        room[d == 0.0] = np.inf
        t = min(1.0, float(room.min()))
        if not t * float(grad @ d) - 0.5 * t * t * float(d @ qd) > 0.0:
            break  # rejected: it would not raise the objective
        af += t * d
        np.clip(af, 0.0, c, out=af)
        hit = room <= t
        af[hit] = np.where(d[hit] > 0, c, 0.0)
        alphas[free] = af
        if t >= 1.0:
            break
        grad -= t * qd
        keep = (af > 0.0) & (af < c)
        free, grad = free[keep], grad[keep]
        del d, qd, af, room, hit, keep  # not held while the next face is filled
    return pivots


def _feasible_start(start, y, c) -> np.ndarray:
    """``start`` as a float array, checked to be a feasible alpha: one
    finite value per label, each in [0, C], and |y.alpha| at most 1e-8 of
    the alphas' sum (or of 1), which solutions meet by orders of magnitude."""
    a = np.asarray(start, dtype=np.float64)
    if a.shape != y.shape:
        raise ValueError(f"start shape {a.shape} does not match {y.size} labels")
    if not np.all(np.isfinite(a)):
        raise ValueError("start contains non-finite values")
    if not (np.all(a >= 0.0) and np.all(a <= c)):
        raise ValueError(f"start values must lie in [0, C] = [0, {c}]")
    balance = abs(float(y @ a))
    if balance > 1e-8 * max(1.0, float(np.sum(a))):
        raise ValueError(f"start is not balanced: |y.alpha| = {balance:.3g}")
    return a


def solve_dual(
    p: DualProblem,
    tol: float = 1e-3,
    max_iter: int | None = None,
    debug: bool = False,
    start=None,
) -> DualSolution:
    """SMO solver: repeatedly optimize the worst violating pair exactly.

    Each iteration picks i as the maximal-violation index among samples
    whose alpha can still grow in the +y direction, picks j by the largest
    second-order gain among those that can shrink, and solves the
    two-variable subproblem in closed form (Fan, Chen & Lin, JMLR 2005).
    Every ``FACE_EVERY`` such iterations a face phase (``_face_phase``)
    solves for the optimum over all free alphas at once, pinning the ones
    that reach a bound, and the loop resumes from there; each of its linear
    solves counts as one iteration.  Stops only when the violation gap
    drops to ``tol``; the dual objective never decreases.  ``max_iter``
    defaults to 2000 times the problem size and bounds SMO iterations and
    face pivots together; hitting it returns the current iterate with
    ``converged=False``.

    The loop's state is ``values`` = y - G (G_i the margin sums), moved by
    ``step * K[:, j] - step * K[:, i]``.  Since y is +-1 and negation
    commutes with rounding, this is bit for bit the gradient update on
    Q = K * y y^T, so Q is built only for debug's objective checks; the
    final objective is read from K (``_gram_objective``), to the same
    bits.  Which samples may move up or down is kept as 0/inf masks,
    updated at the two indices that changed; the second-order denominators
    max(K_ii + K_jj - 2 K_ij, 1e-12) come from a table built in blocks of
    rows once per Gram, kept in ``p.gram.tables`` for every later solve
    on that Gram, such as the other C values of a grid scan; the box
    bookkeeping runs on Python floats.  The partner's gain is taken as
    |diff| * diff / quad: diff^2 / quad where diff > 0 and at most 0
    elsewhere, so while some diff^2 / quad is positive its argmax is that of
    the masked gains.  (Some diff exceeds tol > 0; only when every diff^2 /
    quad underflows to 0 does the masked form decide.)  A face phase
    rebuilds ``values`` and the masks from alpha.

    ``start`` is a feasible alpha to begin from (default zero), such as the
    solution at a smaller C scaled up (alpha seeding; DeCoste & Wagstaff,
    KDD 2000).  ``values`` and the masks are built from it as a face phase
    rebuilds them; at alpha = 0 that gives y itself, so a zero start walks
    the default path bit for bit.  A start of the wrong shape, with a
    non-finite value, a value outside [0, C] or y.alpha beyond roundoff
    raises ``ValueError``.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = p.size
    if max_iter is None:
        max_iter = 2000 * n
    k = p.gram.values
    y = p.labels
    c = p.C
    a = np.zeros(n) if start is None else _feasible_start(start, y, c)
    cols = k.T  # the update reads columns; a Gram may be asymmetric by 1e-10
    quad = p.gram.tables.get("pair_curvatures")
    if quad is None:
        quad = p.gram.tables["pair_curvatures"] = _pair_curvatures(k)

    signs = [1.0 if v > 0 else -1.0 for v in y]  # two float objects, not n
    alphas = a.tolist()
    values = y - k @ (a * y)  # y_i - G_i
    up, low = _masks(a, y, c)
    if debug:
        q = _label_products(k, y)
        last_obj = _objective(np.array(alphas), q)

    iterations = 0
    smo_steps = 0  # since the last face phase
    converged = False
    while iterations < max_iter:
        up_vals = values + up
        i = int(up_vals.argmax())
        gap_hi = float(up_vals[i])
        low_vals = values + low
        if gap_hi - float(low_vals[low_vals.argmin()]) <= tol:
            converged = True
            break

        if smo_steps == FACE_EVERY:
            smo_steps = 0
            # hold no loop vectors next to the face system, which may be large
            del up_vals, low_vals, diff, gain
            a = np.array(alphas)
            pivots = _face_phase(k, y, c, a, values, max_iter - iterations)
            if pivots:
                iterations += pivots
                alphas = a.tolist()
                values = y - k @ (a * y)
                up, low = _masks(a, y, c)
                if debug:
                    last_obj = _check_ascent(a, q, last_obj, iterations)
            continue

        # second-order selection of the partner index
        diff = gap_hi - low_vals
        gain = np.abs(diff)
        gain *= diff
        gain /= quad[i]  # diff^2 / quad where diff > 0, and <= 0 elsewhere
        j = int(gain.argmax())
        if not gain[j] > 0.0:  # every diff^2 underflowed: the masked form
            gain = np.where(diff > 0, diff * diff / quad[i], -np.inf)
            j = int(gain.argmax())

        # exact minimizer of the pair subproblem along the feasible segment
        step = float(diff[j]) / float(quad[i, j])
        yi, yj = signs[i], signs[j]
        ai, aj = alphas[i], alphas[j]
        bound_i = (c - ai) if yi > 0 else ai
        bound_j = aj if yj > 0 else (c - aj)
        step = min(step, bound_i, bound_j)

        if step >= bound_i:
            ai = c if yi > 0 else 0.0
        else:
            ai += yi * step
        if step >= bound_j:
            aj = 0.0 if yj > 0 else c
        else:
            aj -= yj * step
        alphas[i], alphas[j] = ai, aj
        for t, yt, at in ((i, yi, ai), (j, yj, aj)):
            up[t] = 0.0 if (at < c if yt > 0 else at > 0) else -np.inf
            low[t] = 0.0 if (at > 0 if yt > 0 else at < c) else np.inf
        values += step * cols[j] - step * cols[i]
        iterations += 1
        smo_steps += 1

        if debug:
            last_obj = _check_ascent(np.array(alphas), q, last_obj, iterations)

    if not converged:
        logger.warning("SMO stopped at max_iter=%d without converging", max_iter)
    alphas = np.array(alphas)
    # The update leaves exact zeros as +0.0; y - G taken as -y * gradient
    # has -0.0 where y = +1.  Keep that sign, so a zero bias keeps its bits.
    values = np.where(values == 0.0, -0.0 * y, values)
    return DualSolution(
        alphas=alphas,
        bias=_bias(values, y, alphas, c),
        objective=_gram_objective(alphas, k, y),
        iterations=iterations,
        converged=converged,
    )


def _project_feasible(v, y, c):
    """Exact projection onto the feasible set {0 <= a <= C, y.a = 0}.

    For labels in {-1, +1} the projection is clip(v - lam*y, 0, C) for the
    shift lam that restores feasibility.  The balance residual
    phi(lam) = y.clip(v - lam*y, 0, C) is continuous, non-increasing, and
    piecewise linear with kinks where coordinates hit a bound, so the root
    is located exactly from the breakpoint grid.  (A fixed-shrink
    alternating shift/clip loop finds feasible but not nearest points and
    stalls the outer ascent at suboptimal iterates.)
    """
    bps = np.unique(
        np.concatenate([np.where(y > 0, v, -v), np.where(y > 0, v - c, c - v)])
    )

    def phi(lam):
        return float(y @ np.clip(v - lam * y, 0.0, c))

    vals = np.array([phi(b) for b in bps])
    if vals[0] <= 0.0:
        lam = bps[0]
    elif vals[-1] >= 0.0:
        lam = bps[-1]
    else:
        i = int(np.nonzero(vals <= 0.0)[0][0])
        if vals[i] == 0.0:
            lam = bps[i]
        else:
            a, b = bps[i - 1], bps[i]
            fa, fb = vals[i - 1], vals[i]
            lam = a + fa * (b - a) / (fa - fb)
    return np.clip(v - lam * y, 0.0, c)


def brute_force_dual(p: DualProblem, max_iter: int = 1_000_000) -> DualSolution:
    """Projected gradient ascent reference solver for problems of size <= 12.

    Fixed step 1/(L+1) with L the largest Gram eigenvalue, projecting each
    iterate back onto the feasible set.  Stops early once iterates stop
    moving at floating-point resolution for a sustained stretch, or at
    ``max_iter``.  Slow by construction; exists to validate solve_dual.
    """
    n = p.size
    if n > BRUTE_FORCE_MAX_SIZE:
        raise CapacityError(
            f"brute-force solver accepts at most {BRUTE_FORCE_MAX_SIZE} samples, got {n}"
        )
    k = p.gram.values
    y = p.labels
    c = p.C
    q = k * np.outer(y, y)
    lips = float(np.max(np.linalg.eigvalsh(q)))
    step = 1.0 / (max(lips, 0.0) + 1.0)

    alphas = np.zeros(n)
    stable = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = 1.0 - q @ alphas
        nxt = _project_feasible(alphas + step * grad, y, c)
        move = float(np.max(np.abs(nxt - alphas)))
        alphas = nxt
        if move <= 1e-15 * max(1.0, float(np.max(np.abs(alphas)))):
            stable += 1
            if stable >= 50:
                break
        else:
            stable = 0

    g = q @ alphas
    values = y - y * g  # y_i - G_i, since G_i = y_i (Q a)_i
    return DualSolution(
        alphas=alphas,
        bias=_bias(values, y, alphas, c),
        objective=_objective(alphas, q),
        iterations=iterations,
        converged=stable >= 50,
    )


def decision_values(coeffs, bias: float, kernel_rows) -> np.ndarray:
    """f(x) = sum_i coeff_i K(x, x_i) + bias for each row of kernel values.

    ``coeffs`` are the alpha_i * y_i products of the support samples and
    ``kernel_rows`` has one row per evaluation point, one column per
    support sample.  With no support samples every value equals the bias.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    kernel_rows = np.asarray(kernel_rows, dtype=np.float64)
    if kernel_rows.ndim != 2:
        raise ValueError(f"kernel_rows must be 2-d, got shape {kernel_rows.shape}")
    if kernel_rows.shape[1] != coeffs.size:
        raise ValueError(
            f"{kernel_rows.shape[1]} kernel columns for {coeffs.size} coefficients"
        )
    return kernel_rows @ coeffs + bias


def predict_labels(values) -> np.ndarray:
    """Sign rule with the tie convention sign(0) = +1."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(values >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class KktReport:
    """Margin-condition violations of a dual solution, grouped by alpha bin."""

    max_violation: float
    counts: dict = field(default_factory=dict)
    worst_by_bin: dict = field(default_factory=dict)
    tol: float = 0.0


def kkt_report(p: DualProblem, s: DualSolution, tol: float) -> KktReport:
    """Check the complementary-slackness conditions of a solution.

    Samples are binned by alpha (zero, interior, at C) and the margin
    y_i f(x_i) is compared against the exact conditions >= 1, == 1, <= 1
    respectively.  A solution converged to gap ``tol`` satisfies all three
    up to ``tol``.
    """
    k = p.gram.values
    y = p.labels
    c = p.C
    f = k @ (s.alphas * y) + s.bias
    margin = y * f
    edge = 1e-9 * c
    bins = np.where(s.alphas <= edge, 0, np.where(s.alphas >= c - edge, 2, 1))
    violation = np.empty(p.size)
    violation[bins == 0] = np.maximum(0.0, 1.0 - margin[bins == 0])
    violation[bins == 1] = np.abs(1.0 - margin[bins == 1])
    violation[bins == 2] = np.maximum(0.0, margin[bins == 2] - 1.0)
    names = {0: "zero", 1: "interior", 2: "at_C"}
    counts = {names[b]: int(np.sum(bins == b)) for b in (0, 1, 2)}
    worst = {
        names[b]: float(np.max(violation[bins == b])) if np.any(bins == b) else 0.0
        for b in (0, 1, 2)
    }
    return KktReport(
        max_violation=float(np.max(violation)) if p.size else 0.0,
        counts=counts,
        worst_by_bin=worst,
        tol=float(tol),
    )
