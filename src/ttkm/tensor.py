"""Dense tensors, tensor trains, and the TT-SVD decomposition.

TT-SVD is Oseledets's sequential truncated SVD (SIAM J. Sci. Comput.
2011).  ``tt_svd`` decomposes one tensor; ``stack_and_decompose``
decomposes many same-shape samples jointly, with their first modes
merged, so that they share one rank chain and one set of trailing cores.
Both run one sweep, ``_sweep``, and fix the sign of every singular
vector it takes, so cores depend only on the data.

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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def interior_rank_chain(entry, d: int, what: str) -> tuple[int, ...]:
    """The d-1 interior ranks of order-d data that ``entry`` names.

    One int is used at every interior position; a sequence must list
    exactly d-1 ranks.  ``what`` names the entry in the error message.
    """
    if isinstance(entry, (int, np.integer)):
        return (int(entry),) * (d - 1)
    ranks = tuple(int(r) for r in entry)
    if len(ranks) != d - 1:
        raise ValueError(f"{what} has {len(ranks)} entries; order-{d} data needs {d - 1}")
    return ranks


def unfold(t: DenseTensor, k: int) -> np.ndarray:
    """Mode-split unfolding: rows indexed by (i_1..i_k), columns by the rest.

    Both row and column indices are linearized first-index-fastest, so
    ``unfold(t, k)[i_1 + I_1*i_2 + ..., i_{k+1} + ...] == t[i_1, ..., i_d]``.
    """
    if not 1 <= k <= t.order - 1:
        raise ValueError(f"split position k={k} out of range for order {t.order}")
    rows = math.prod(t.dims[:k])
    return t.values.reshape(rows, -1, order="F")


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


class _Splits:
    """The SVDs of one tensor's TT-SVD splits, each computed at most once.

    TT-SVD sweeps left to right, so the SVD at split k depends only on the
    ranks kept at splits 1..k-1.  That rank prefix is the key of its
    ``(u, s, vt)`` here, and every sweep that reaches split k with the same
    prefix reads the same SVD.  The tensor itself is read by the first
    split only, so it is dropped once a split has been taken.  A
    ``shared`` cache is read by many sweeps, so its arrays are read-only:
    the cores a sweep returns are views of ``u``.  A private one is read by
    one sweep, which scales each split's ``vt`` in place into the next
    split's matrix and then drops that split's SVD.

    Every SVD stored here has passed ``_fix_signs``, so its singular
    vectors, and the cores cut from them, depend only on the data, not on
    the LAPACK build or the route that formed the matrix.
    """

    def __init__(self, t: DenseTensor, shared: bool):
        self.dims = t.dims
        self.norm = t.norm()
        self.values = t.values
        self.shared = shared
        self.svds: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}


def _fix_signs(u: np.ndarray, vt: np.ndarray) -> None:
    """The sign rule of every split's SVD, applied in place: in each left
    singular vector the entry of largest magnitude is made positive (on a
    tie, the first such row decides), negating that ``u`` column and its
    ``vt`` row together (Bro, Acar & Kolda, J. Chemometrics 2008).

    A column's largest and smallest entries decide it, both reduced along
    the rows, so no ``u``-sized temporary is made.
    """
    hi = u.max(axis=0)
    lo = u.min(axis=0)
    flip = -lo > hi
    for j in np.nonzero(-lo == hi)[0]:
        flip[j] = np.argmin(u[:, j]) < np.argmax(u[:, j])
    if flip.any():
        signs = np.where(flip, -1.0, 1.0)
        u *= signs
        vt *= signs[:, None]


def _sweep(splits: _Splits, cfg: TtSvdConfig) -> TensorTrain:
    """TT-SVD of the tensor behind ``splits``, reading each split's SVD
    from its cache and adding the ones it lacks.  Each new SVD is
    sign-fixed (``_fix_signs``) before it is cached."""
    dims = splits.dims
    d = len(dims)
    if cfg.max_ranks is not None and len(cfg.max_ranks) != d - 1:
        raise ValueError(
            f"max_ranks has {len(cfg.max_ranks)} entries; order-{d} tensor needs {d - 1}"
        )
    if splits.norm == 0.0:
        return _zero_tt(dims)
    if d == 1:
        return TensorTrain((splits.values.reshape(1, dims[0], 1),))

    delta = None
    if cfg.rel_tol is not None:
        delta = cfg.rel_tol * splits.norm / math.sqrt(d - 1)

    cores = []
    kept = ()  # the ranks kept so far: the key of the next split
    r_prev = 1
    for k in range(d - 1):
        svd = splits.svds.get(kept)
        if svd is None:
            if k == 0:
                # a view, not a copy, of a Fortran-ordered tensor, as
                # StackedSamples lays out its stack
                mat = splits.values.reshape(dims[0], -1, order="F")
            elif splits.shared:
                mat = (vt[:r_prev] * s[:r_prev, None]).reshape(
                    r_prev * dims[k], -1, order="F")
            else:
                # no later sweep reads the previous split: scale its vt in
                # place, and free it once the next matrix is formed
                mat = vt[:r_prev]
                mat *= s[:r_prev, None]
                del splits.svds[kept[:-1]], s, vt
                mat = mat.reshape(r_prev * dims[k], -1, order="F")
            svd = np.linalg.svd(mat, full_matrices=False)
            del mat
            _fix_signs(svd[0], svd[2])
            if splits.shared:
                for a in svd:
                    a.flags.writeable = False
            splits.svds[kept] = svd
            splits.values = None
        u, s, vt = svd
        cap = cfg.max_ranks[k] if cfg.max_ranks is not None else None
        r = _pick_rank(s, delta, cap)
        if cap is not None and cap > len(s):
            logger.debug(
                "tt_svd: requested rank %d at split %d clamped to achievable %d",
                cap, k + 1, len(s),
            )
        cores.append(u[:, :r].reshape(r_prev, dims[k], r, order="F"))
        kept += (r,)
        r_prev = r
    cores.append((vt[:r_prev] * s[:r_prev, None]).reshape(r_prev, dims[-1], 1, order="F"))
    return TensorTrain(tuple(cores))


def tt_svd(t: DenseTensor, cfg: TtSvdConfig) -> TensorTrain:
    """Decompose a dense tensor into TT format by sequential truncated SVD.

    In tolerance mode each of the d-1 splits is truncated with budget
    ``delta = rel_tol * ||t||_F / sqrt(d-1)``, which guarantees
    ``||t - reconstruct(tt_svd(t))||_F <= rel_tol * ||t||_F``.  In fixed-rank
    mode each interior rank is ``min(requested, achievable)`` where the
    achievable rank is the smaller dimension of the unfolding being split;
    clamping is logged.  A zero tensor returns an all-zero rank-1 train.

    This is the one TT-SVD sweep, run with a fresh cache of split SVDs, so
    nothing is shared with other calls, and each split's SVD is freed once
    the next split is formed.  Every split's SVD is sign-fixed: in each
    left singular vector the entry of largest magnitude is positive (the
    first such row on a tie), so the cores depend only on ``t``, not on
    the signs LAPACK happens to pick.  ``stack_and_decompose`` runs the
    same sweep on a cache that a ``StackedSamples`` keeps between calls.
    """
    return _sweep(_Splits(t, shared=False), cfg)


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


class StackedSamples:
    """Same-shape samples stacked along their first mode, for decomposing
    them jointly at several rank settings.

    M samples of dims ``(I_1, ..., I_d)`` are laid out as one order-d
    tensor of dims ``(M*I_1, I_2, ..., I_d)``, sample index fastest: the
    Fortran-order view of the ``(M, I_1, ..., I_d)`` stack, so nothing is
    copied and the first split's unfolding is a view too.  The holder owns
    that stack and the cache of its TT-SVD split SVDs, keyed by the ranks
    kept at the earlier splits.  Every ``stack_and_decompose`` of one
    holder shares that cache, so a split is decomposed once however many
    rank settings reach it with the same earlier ranks.  The stack is
    freed after the first split, and the cache lives as long as the
    holder: drop it to free the SVDs.
    """

    def __init__(self, samples):
        samples = list(samples)
        if not samples:
            raise ValueError("need at least one sample")
        dims = samples[0].dims
        for i, s in enumerate(samples):
            if s.dims != dims:
                raise ValueError(f"sample {i} has dims {s.dims}, expected {dims}")
        self.count = len(samples)
        stacked = np.empty((self.count,) + dims, order="F")
        for i, s in enumerate(samples):
            stacked[i] = s.values
        merged = (self.count * dims[0],) + dims[1:]
        self.splits = _Splits(DenseTensor(stacked.reshape(merged, order="F")), shared=True)


def stack_and_decompose(samples, cfg: TtSvdConfig) -> list[TensorTrain]:
    """Jointly decompose same-shape samples so they share a rank chain.

    The samples' first modes are merged into one of size ``M*I_1`` (see
    ``StackedSamples``), and that order-d tensor is decomposed once, at
    the d-1 interior ranks or the tolerance ``cfg`` names.  Its first core
    ``(1, M*I_1, R_2)`` holds every sample's first core: reshaped in
    Fortran order to ``(M, I_1, R_2)`` and copied out of the cached SVD,
    so that no returned train keeps the cache alive, it gives one first
    core per sample.  All returned trains therefore share identical
    interior ranks, and their cores for modes 2..d are the same arrays
    (only the first core is sample-specific).  The sample index is never
    truncated, under fixed ranks or a tolerance.  In tolerance mode the
    budget is ``rel_tol * ||stack||_F / sqrt(d-1)`` per split, so the
    whole stack is reproduced within ``rel_tol * ||stack||_F``.  The cores
    carry ``tt_svd``'s sign rule.

    ``samples`` is a ``StackedSamples`` or an iterable of ``DenseTensor``,
    which gets a fresh holder.  Calls on one holder share its split SVDs:
    under fixed ranks the first split is the same SVD for every rank
    setting, and a repeated setting takes no SVD at all.  The result is
    the same, bit for bit, either way.
    """
    stack = samples if isinstance(samples, StackedSamples) else StackedSamples(samples)
    joint = _sweep(stack.splits, cfg)
    lead = joint.cores[0]
    first = lead.reshape(stack.count, -1, lead.shape[2], order="F").copy()
    tail = joint.cores[1:]
    return [TensorTrain((first[i:i + 1],) + tail) for i in range(stack.count)]


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
