"""Dense tensors, tensor trains, and the TT-SVD decomposition.

Conventions used throughout the package:

* A dense tensor of order ``d`` has dims ``(I_1, ..., I_d)`` and is
  linearized first-index-fastest (Fortran order) whenever a flat view is
  needed, e.g. for file I/O.
* A tensor train (TT) is a list of order-3 cores ``A_k`` of shape
  ``(R_k, I_k, R_{k+1})`` with boundary ranks ``R_1 = R_{d+1} = 1``.  The
  tensor entry at ``(i_1, ..., i_d)`` is the product of the matrices
  ``A_1[:, i_1, :] @ ... @ A_d[:, i_d, :]``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DenseTensor:
    """A dense real tensor of order >= 1, stored as a float64 ndarray.

    Every value must be finite; NaN or inf raises ValueError here, so no
    decomposition or kernel ever sees one.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim < 1:
            arr = arr.reshape(1)
        if any(n <= 0 for n in arr.shape):
            raise ValueError(f"tensor dims must all be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite, found NaN or inf")
        object.__setattr__(self, "values", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def order(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.values.ravel()))

    def to_flat(self) -> np.ndarray:
        """Flatten first-index-fastest."""
        return self.values.ravel(order="F")

    @classmethod
    def from_flat(cls, dims, flat) -> "DenseTensor":
        """Build a tensor from a first-index-fastest flat array."""
        dims = tuple(int(n) for n in dims)
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 1 or flat.size != math.prod(dims):
            raise ValueError(
                f"flat data of length {flat.size} does not match dims {dims}"
            )
        return cls(flat.reshape(dims, order="F"))


@dataclass(frozen=True)
class TensorTrain:
    """A tensor in TT format: order-3 cores with matching rank chain."""

    cores: tuple[np.ndarray, ...]

    def __post_init__(self):
        cores = tuple(np.asarray(c, dtype=np.float64) for c in self.cores)
        if len(cores) == 0:
            raise ValueError("a tensor train needs at least one core")
        for k, c in enumerate(cores):
            if c.ndim != 3:
                raise ValueError(f"core {k} must be 3-way, got shape {c.shape}")
            if min(c.shape) <= 0:
                raise ValueError(f"core {k} has a zero dimension: {c.shape}")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise ValueError("boundary ranks R_1 and R_{d+1} must equal 1")
        for k in range(len(cores) - 1):
            if cores[k].shape[2] != cores[k + 1].shape[0]:
                raise ValueError(
                    f"rank mismatch between cores {k} and {k + 1}: "
                    f"{cores[k].shape[2]} vs {cores[k + 1].shape[0]}"
                )
        object.__setattr__(self, "cores", cores)

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        """The full rank chain (R_1, ..., R_{d+1}), boundaries included."""
        return tuple(c.shape[0] for c in self.cores) + (self.cores[-1].shape[2],)

    @property
    def interior_ranks(self) -> tuple[int, ...]:
        return self.ranks[1:-1]

    def entry(self, index) -> float:
        """Evaluate one tensor entry as a product of core slices."""
        if len(index) != self.order:
            raise ValueError(f"index of length {len(index)} for order {self.order}")
        v = self.cores[0][:, index[0], :]
        for k in range(1, self.order):
            v = v @ self.cores[k][:, index[k], :]
        return float(v[0, 0])


@dataclass(frozen=True)
class TtSvdConfig:
    """Truncation policy for tt_svd.

    At least one of ``max_ranks`` (d-1 interior rank caps) and ``rel_tol``
    (relative Frobenius error budget) must be given.  With both, ranks are
    chosen by the tolerance rule first and then clamped to the caps.
    """

    max_ranks: tuple[int, ...] | None = None
    rel_tol: float | None = None

    def __post_init__(self):
        if self.max_ranks is None and self.rel_tol is None:
            raise ValueError("TtSvdConfig needs max_ranks, rel_tol, or both")
        if self.max_ranks is not None:
            ranks = tuple(int(r) for r in self.max_ranks)
            if any(r < 1 for r in ranks):
                raise ValueError(f"max_ranks must be >= 1, got {ranks}")
            object.__setattr__(self, "max_ranks", ranks)
        if self.rel_tol is not None:
            if not self.rel_tol > 0:
                raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")

    @classmethod
    def fixed(cls, ranks) -> "TtSvdConfig":
        if isinstance(ranks, (int, np.integer)):
            ranks = (int(ranks),)
        return cls(max_ranks=tuple(int(r) for r in ranks))

    @classmethod
    def tolerance(cls, eps: float) -> "TtSvdConfig":
        return cls(rel_tol=float(eps))


def unfold(t: DenseTensor, k: int) -> np.ndarray:
    """Mode-split unfolding: rows indexed by (i_1..i_k), columns by the rest.

    Both row and column indices are linearized first-index-fastest, so
    ``unfold(t, k)[i_1 + I_1*i_2 + ..., i_{k+1} + ...] == t[i_1, ..., i_d]``.
    """
    if not 1 <= k <= t.order - 1:
        raise ValueError(f"split position k={k} out of range for order {t.order}")
    rows = math.prod(t.dims[:k])
    return t.values.reshape(rows, -1, order="F")


def fold(mat: np.ndarray, dims, k: int) -> DenseTensor:
    """Inverse of :func:`unfold` for the same dims and split position."""
    dims = tuple(int(n) for n in dims)
    mat = np.asarray(mat, dtype=np.float64)
    if not 1 <= k <= len(dims) - 1:
        raise ValueError(f"split position k={k} out of range for dims {dims}")
    rows = math.prod(dims[:k])
    cols = math.prod(dims[k:])
    if mat.shape != (rows, cols):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims} at k={k}")
    return DenseTensor(mat.reshape(dims, order="F"))


def _pick_rank(s: np.ndarray, delta: float | None, cap: int | None) -> int:
    """Smallest rank meeting the truncation budget, clamped to cap."""
    r_full = len(s)
    if delta is not None:
        sq = s * s
        # tail[r] = energy discarded when keeping the leading r values
        tail = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
        keep = np.nonzero(tail <= delta * delta)[0]
        r = int(keep[0]) if keep.size else r_full
    else:
        r = r_full
    if cap is not None:
        r = min(r, cap)
    return max(1, min(r, r_full))


def _zero_tt(dims) -> TensorTrain:
    return TensorTrain(tuple(np.zeros((1, n, 1)) for n in dims))


def tt_svd(t: DenseTensor, cfg: TtSvdConfig) -> TensorTrain:
    """Decompose a dense tensor into TT format by sequential truncated SVD.

    In tolerance mode each of the d-1 splits is truncated with budget
    ``delta = rel_tol * ||t||_F / sqrt(d-1)``, which guarantees
    ``||t - reconstruct(tt_svd(t))||_F <= rel_tol * ||t||_F``.  In fixed-rank
    mode each interior rank is ``min(requested, achievable)`` where the
    achievable rank is the smaller dimension of the unfolding being split;
    clamping is logged.  A zero tensor returns an all-zero rank-1 train.
    """
    dims = t.dims
    d = len(dims)
    if cfg.max_ranks is not None and len(cfg.max_ranks) != d - 1:
        raise ValueError(
            f"max_ranks has {len(cfg.max_ranks)} entries; order-{d} tensor needs {d - 1}"
        )
    nrm = t.norm()
    if nrm == 0.0:
        return _zero_tt(dims)
    if d == 1:
        return TensorTrain((t.values.reshape(1, dims[0], 1),))

    delta = None
    if cfg.rel_tol is not None:
        delta = cfg.rel_tol * nrm / math.sqrt(d - 1)

    cores = []
    c = t.values
    r_prev = 1
    for k in range(d - 1):
        mat = c.reshape(r_prev * dims[k], -1, order="F")
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        cap = cfg.max_ranks[k] if cfg.max_ranks is not None else None
        r = _pick_rank(s, delta, cap)
        if cap is not None and cap > len(s):
            logger.debug(
                "tt_svd: requested rank %d at split %d clamped to achievable %d",
                cap, k + 1, len(s),
            )
        cores.append(u[:, :r].reshape(r_prev, dims[k], r, order="F"))
        c = s[:r, None] * vt[:r, :]
        r_prev = r
    cores.append(c.reshape(r_prev, dims[-1], 1, order="F"))
    return TensorTrain(tuple(cores))


def reconstruct(tt: TensorTrain) -> DenseTensor:
    """Contract a tensor train back to a dense tensor."""
    dims = tt.dims
    acc = tt.cores[0].reshape(dims[0], -1, order="F")
    for core in tt.cores[1:]:
        rk, ik, rk1 = core.shape
        acc = acc @ core.reshape(rk, ik * rk1, order="F")
        acc = acc.reshape(-1, rk1, order="F")
    return DenseTensor(acc.reshape(dims, order="F"))


def tt_inner_product(a: TensorTrain, b: TensorTrain) -> float:
    """<A, B> computed by sequential core contraction, never densifying.

    Equals ``sum(reconstruct(a).values * reconstruct(b).values)``.
    """
    if a.dims != b.dims:
        raise ValueError(f"dims mismatch: {a.dims} vs {b.dims}")
    v = np.einsum("aib,aic->bc", a.cores[0], b.cores[0])
    for ca, cb in zip(a.cores[1:], b.cores[1:]):
        # v[r_a, r_b] carries the partial contraction of all earlier modes
        tmp = np.tensordot(v, ca, axes=(0, 0))  # (R_b, I, R_a')
        v = np.einsum("bic,bid->cd", tmp, cb)
    return float(v[0, 0])


def stack_and_decompose(samples, cfg: TtSvdConfig) -> list[TensorTrain]:
    """Jointly decompose same-shape samples so they share a rank chain.

    The samples are stacked along a new leading mode, decomposed once, and
    split back into one TT per sample by absorbing that sample's row of the
    leading core into the next core.  All returned trains therefore share
    identical interior ranks, and their cores for modes 2..d are the same
    arrays (only the first core is sample-specific).  The stacking rank
    itself is never truncated by a fixed-rank config.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    dims = samples[0].dims
    for i, s in enumerate(samples):
        if s.dims != dims:
            raise ValueError(f"sample {i} has dims {s.dims}, expected {dims}")
    m = len(samples)
    stacked = DenseTensor(np.stack([s.values for s in samples], axis=0))
    if cfg.max_ranks is not None:
        inner = TtSvdConfig(max_ranks=(stacked.size,) + cfg.max_ranks,
                            rel_tol=cfg.rel_tol)
    else:
        inner = cfg
    joint = tt_svd(stacked, inner)
    lead = joint.cores[0]  # (1, M, R)
    head = joint.cores[1]
    tail = joint.cores[2:]
    out = []
    for i in range(m):
        first = np.einsum("r,ris->is", lead[0, i, :], head)[None, :, :]
        out.append(TensorTrain((first,) + tail))
    return out


def conform_interior_ranks(tt: TensorTrain, interior) -> TensorTrain:
    """Zero-pad cores so the train's interior ranks match a target chain.

    Padding slices are zero, so the represented tensor is unchanged.  Used
    when a single sample's achievable ranks fall short of a chain fixed at
    training time.  Shrinking is not supported.
    """
    target = tuple(int(r) for r in interior)
    if len(target) != tt.order - 1:
        raise ValueError(
            f"target has {len(target)} interior ranks; order-{tt.order} train needs {tt.order - 1}"
        )
    current = tt.interior_ranks
    if current == target:
        return tt
    if any(c > t for c, t in zip(current, target)):
        raise ValueError(f"cannot shrink ranks {current} to {target}")
    full = (1,) + target + (1,)
    cores = []
    for k, core in enumerate(tt.cores):
        rk, ik, rk1 = core.shape
        padded = np.zeros((full[k], ik, full[k + 1]))
        padded[:rk, :, :rk1] = core
        cores.append(padded)
    return TensorTrain(tuple(cores))


def random_tensor_train(dims, interior_ranks, rng) -> TensorTrain:
    """Random TT with the given dims and interior ranks, entries O(1)."""
    dims = tuple(int(n) for n in dims)
    full = (1,) + tuple(int(r) for r in interior_ranks) + (1,)
    if len(full) != len(dims) + 1:
        raise ValueError(
            f"{len(interior_ranks)} interior ranks do not fit order {len(dims)}"
        )
    cores = []
    for k, n in enumerate(dims):
        scale = 1.0 / math.sqrt(full[k])
        cores.append(scale * rng.standard_normal((full[k], n, full[k + 1])))
    return TensorTrain(tuple(cores))
