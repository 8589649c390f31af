"""Dense tensors, tensor trains, and the TT-SVD decomposition.

TT-SVD is Oseledets's sequential truncated SVD (SIAM J. Sci. Comput.
2011).  ``tt_svd`` decomposes one tensor; ``stack_and_decompose``
decomposes many same-shape samples jointly, with their first modes
merged, so that they share one rank chain and one set of trailing cores.
Both run one sweep, ``_sweep``, and fix the sign of every singular
vector it takes, so cores depend only on the data.  Under fixed ranks a
tall first split of at least ``_GRAM_MIN_COLS`` columns, as a joint
decomposition's first split of many samples is, is factored from the
eigenproblem of its small Gram matrix (the method of snapshots,
Sirovich 1987) instead of by a tall SVD, whenever the Gram has as many
well-conditioned eigenpairs as the first rank keeps; every other split,
and tolerance mode throughout, keeps the SVD.  A ``StackedSamples``
holder keeps its stack and its first split, factored once per route, for
every decomposition of it; each sweep factors its later splits itself.

Conventions used throughout the package:

* A dense tensor of order ``d`` has dims ``(I_1, ..., I_d)`` and is
  linearized first-index-fastest (Fortran order) whenever a flat view is
  needed, e.g. for file I/O.
* A tensor train (TT) is a list of order-3 cores ``A_k`` of shape
  ``(R_k, I_k, R_{k+1})`` with boundary ranks ``R_1 = R_{d+1} = 1``.  The
  tensor entry at ``(i_1, ..., i_d)`` is the product of the matrices
  ``A_1[:, i_1, :] @ ... @ A_d[:, i_d, :]``.
* Many trains of one rank chain are held as a ``TrainStack``: their
  leading cores stacked, one array per mode, and the cores they share
  kept once.  ``stack_and_decompose`` returns one, and the kernel engine
  reads only this form.
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

    @classmethod
    def _trusted(cls, values: np.ndarray) -> "DenseTensor":
        """A tensor over ``values`` without checking them again: a float64
        array of positive dims whose every value is already known to be
        finite, as a reader that checked its whole payload at once, or a
        stack of checked samples, holds."""
        t = object.__new__(cls)
        object.__setattr__(t, "values", values)
        return t

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
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 1:
            raise ValueError(f"flat data must be one-dimensional, got shape {flat.shape}")
        return cls(flat.reshape(check_reshape(dims, flat.size), order="F"))


def check_reshape(reshape, size: int) -> tuple[int, ...]:
    """``reshape`` as positive dims whose product is ``size``, or ValueError."""
    dims = tuple(int(n) for n in reshape)
    if not dims or min(dims) < 1 or math.prod(dims) != size:
        raise ValueError(f"reshape {dims} needs positive dims with product {size}")
    return dims


def _check_chain(shapes) -> None:
    """Core shapes ``(R_k, I_k, R_{k+1})`` of one train: at least one,
    each 3-way with no zero dimension, boundary ranks 1, and matching ranks
    between neighbours."""
    if len(shapes) == 0:
        raise ValueError("a tensor train needs at least one core")
    for k, shape in enumerate(shapes):
        if len(shape) != 3:
            raise ValueError(f"core {k} must be 3-way, got shape {shape}")
        if min(shape) <= 0:
            raise ValueError(f"core {k} has a zero dimension: {shape}")
    if shapes[0][0] != 1 or shapes[-1][2] != 1:
        raise ValueError("boundary ranks R_1 and R_{d+1} must equal 1")
    for k in range(len(shapes) - 1):
        if shapes[k][2] != shapes[k + 1][0]:
            raise ValueError(
                f"rank mismatch between cores {k} and {k + 1}: "
                f"{shapes[k][2]} vs {shapes[k + 1][0]}"
            )


@dataclass(frozen=True, slots=True)
class TensorTrain:
    """A tensor in TT format: order-3 cores with matching rank chain."""

    cores: tuple[np.ndarray, ...]

    def __post_init__(self):
        cores = tuple(np.asarray(c, dtype=np.float64) for c in self.cores)
        _check_chain([c.shape for c in cores])
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


@dataclass(frozen=True, slots=True, eq=False)
class TrainStack:
    """n tensor trains of one rank chain: their leading cores stacked, and
    one tail of cores that every train shares.

    ``lead[k]``, for each of the first ``len(lead) >= 1`` modes, has shape
    ``(n, R_k, I_k, R_{k+1})``, and its row i is train i's core k.  ``tail``
    holds the cores of the remaining modes, the same arrays for every
    train.  A joint decomposition (``stack_and_decompose``) and a predict
    request's projection give one leading core and a tail of d-1.  The
    shapes are checked once, when a stack is built, so every train of it
    has one dims and one rank chain.

    A stack reads as a sequence of trains: ``len`` and iteration work, an
    integer index gives a ``TensorTrain`` of views into the stack, and a
    slice gives a ``TrainStack`` whose leading cores are views of these,
    over the same tail.  Indices out of range raise ``IndexError``, and an
    empty slice is an empty stack, as with a list.
    """

    lead: tuple[np.ndarray, ...]
    tail: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        lead = tuple(np.asarray(c, dtype=np.float64) for c in self.lead)
        tail = tuple(np.asarray(c, dtype=np.float64) for c in self.tail)
        if not lead:
            raise ValueError("a train stack needs at least one leading core")
        n = lead[0].shape[0]
        for k, c in enumerate(lead):
            if c.ndim != 4 or c.shape[0] != n:
                raise ValueError(
                    f"leading core {k} must have shape ({n}, R, I, R'), got {c.shape}"
                )
        _check_chain([c.shape[1:] for c in lead] + [c.shape for c in tail])
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "tail", tail)

    def __len__(self) -> int:
        return self.lead[0].shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TrainStack(tuple(c[index] for c in self.lead), self.tail)
        i = range(len(self))[index]  # a list's IndexError and TypeError
        return TensorTrain(tuple(c[i] for c in self.lead) + self.tail)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def order(self) -> int:
        return len(self.lead) + len(self.tail)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[2] for c in self.lead) + tuple(c.shape[1] for c in self.tail)

    @property
    def ranks(self) -> tuple[int, ...]:
        """The full rank chain (R_1, ..., R_{d+1}) of every train."""
        return (tuple(c.shape[1] for c in self.lead) + tuple(c.shape[0] for c in self.tail)
                + (1,))

    @property
    def interior_ranks(self) -> tuple[int, ...]:
        return self.ranks[1:-1]

    def split(self, s: int):
        """The stacked cores of modes ``0..s-1`` and the shared cores of
        the rest, for ``s`` at least ``len(lead)``: a tail core below ``s``
        is broadcast over the trains, as a view."""
        m = len(self.lead)
        lead = self.lead + tuple(
            np.broadcast_to(c, (len(self),) + c.shape) for c in self.tail[:s - m]
        )
        return lead, self.tail[s - m:]


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
            if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
                raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")

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


# A fixed-rank sweep takes its first split, the one that reads the data,
# from the eigenproblem of its Gram A^T A when A is tall and at least this
# wide (the method of snapshots, Sirovich, Q. Appl. Math. 1987)
_GRAM_MIN_COLS = 32
# Of that Gram's eigenpairs only those above TAU**2 times the largest are
# kept, i.e. the singular values above TAU times the largest: each is
# formed to a relative error of about cols * eps / TAU**2, and so is each
# column of u = A V / s.  A first rank that asks for more takes the SVD
_GRAM_TAU = 1e-3


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


def _route(fixed: bool, dims) -> str:
    """How the first split of a tensor of ``dims`` is tried: ``"gram"`` in
    a fixed-rank sweep when its unfolding is tall and has at least
    ``_GRAM_MIN_COLS`` columns, ``"svd"`` otherwise.  A tolerance sweep
    reads the small singular values, whose digits below ~sqrt(eps) * s_max
    the Gram route loses."""
    rows, cols = dims[0], math.prod(dims[1:])
    return "gram" if fixed and rows >= cols >= _GRAM_MIN_COLS else "svd"


def _gram_split(mat: np.ndarray):
    """The leading terms ``(u, s, vt)`` of the thin SVD of a tall ``mat``
    from the eigenproblem of its Gram: every singular value above
    ``_GRAM_TAU`` times the largest, with its singular vectors.

    With ``G = mat^T mat = V diag(lambda) V^T``, the singular values are
    ``s = sqrt(lambda)`` in descending order, ``vt = V^T`` and
    ``u = mat V / s``.  How many terms are kept depends on ``mat`` alone,
    and their columns of ``u`` are formed in one product, so a column's
    bits do not depend on how many of them a caller keeps.  The Gram and
    the unordered ``V`` are freed before ``u`` is formed, so at most
    ``mat``, ``u`` and one ``V``-sized array are held at once, as the SVD
    holds ``mat``, ``u`` and ``vt``.
    """
    gram = mat.T @ mat
    w, v = np.linalg.eigh(gram)
    del gram
    w = w[::-1]
    m = int(np.count_nonzero(w > _GRAM_TAU * _GRAM_TAU * w[0]))
    s = np.sqrt(w[:m])
    v = np.ascontiguousarray(v[:, ::-1][:, :m])
    u = mat @ v
    u /= s
    return u, s, v.T


def _factor_first(t: DenseTensor, route: str):
    """The sign-fixed factorization ``(u, s, vt)`` of the first split of
    ``t`` by ``route``: ``_gram_split`` for ``"gram"``, the thin SVD for
    ``"svd"``."""
    # a view, not a copy, of a Fortran-ordered tensor, as StackedSamples
    # lays out its stack
    mat = unfold(t, 1)
    split = _gram_split(mat) if route == "gram" else np.linalg.svd(mat, full_matrices=False)
    # a copied matrix is freed before the sign fix's temporaries are made
    del mat
    _fix_signs(split[0], split[2])
    return split


def _sweep(t: DenseTensor, norm: float, cfg: TtSvdConfig, first) -> TensorTrain:
    """TT-SVD of ``t``, whose Frobenius norm is ``norm``.

    ``first(route)`` gives the sign-fixed factorization ``(u, s, vt)`` of
    the first split by ``"gram"`` or ``"svd"``, which the sweep only
    reads.  Under fixed ranks a tall first split of at least
    ``_GRAM_MIN_COLS`` columns takes the Gram route when that keeps at
    least the first rank's count of terms, and the SVD otherwise, as every
    split in tolerance mode does.  Each later split is the sweep's own: an
    SVD of a new matrix formed from the previous split, sign-fixed
    (``_fix_signs``), and freed once the next matrix is formed."""
    dims = t.dims
    d = len(dims)
    if cfg.max_ranks is not None and len(cfg.max_ranks) != d - 1:
        raise ValueError(
            f"max_ranks has {len(cfg.max_ranks)} entries; order-{d} tensor needs {d - 1}"
        )
    if norm == 0.0:
        return _zero_tt(dims)
    if d == 1:
        return TensorTrain((t.values.reshape(1, dims[0], 1),))

    fixed = cfg.rel_tol is None
    delta = None
    if not fixed:
        delta = cfg.rel_tol * norm / math.sqrt(d - 1)

    route = _route(fixed, dims)
    u, s, vt = first(route)
    if route == "gram" and cfg.max_ranks[0] > len(s):
        # the Gram has fewer well-conditioned terms than the first rank asks for
        u, s, vt = first("svd")
    cores = []
    r_prev = 1
    for k in range(d - 1):
        if k:
            # the kept rows of s * vt as one new array, laid out so that
            # the next split's matrix is a view of it: the first split,
            # which a holder keeps, is never written
            mat = np.multiply(vt[:r_prev].reshape(r_prev, dims[k], -1, order="F"),
                              s[:r_prev, None, None], order="F")
            del u, s, vt
            u, s, vt = np.linalg.svd(mat.reshape(r_prev * dims[k], -1, order="F"),
                                     full_matrices=False)
            # freed before the sign fix's temporaries are made
            del mat
            _fix_signs(u, vt)
        cap = cfg.max_ranks[k] if cfg.max_ranks is not None else None
        r = _pick_rank(s, delta, cap)
        if cap is not None and cap > len(s):
            logger.debug(
                "tt_svd: requested rank %d at split %d clamped to achievable %d",
                cap, k + 1, len(s),
            )
        cores.append(u[:, :r].reshape(r_prev, dims[k], r, order="F"))
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

    This is the one TT-SVD sweep, with the first split factored afresh, so
    nothing is kept between calls, and each split's factorization is freed
    once the next split is formed.  In fixed-rank mode a first split that
    is tall and at least ``_GRAM_MIN_COLS`` columns wide is factored from
    its Gram's eigenproblem when every singular value the first rank keeps
    is above ``_GRAM_TAU`` times the largest; those singular values and
    vectors agree with the SVD's to roundoff.  Every other split, and
    every split in tolerance mode, is an SVD.  Every split is sign-fixed:
    in each left singular vector the entry of largest magnitude is
    positive (the first such row on a tie), so the cores depend only on
    ``t``, not on the signs LAPACK happens to pick.  ``stack_and_decompose``
    runs the same sweep on the first split a ``StackedSamples`` keeps.
    """
    return _sweep(t, t.norm(), cfg, lambda route: _factor_first(t, route))


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


def common_dims(samples, dims=None):
    """The dims that every one of ``samples`` (tensors or trains) has:
    ``dims``, or the first sample's when None; None for no samples and no
    ``dims``.  The first sample that differs is a ValueError, "sample i
    has dims ..., expected ...", the one check of every sample list."""
    for i, s in enumerate(samples):
        if dims is None:
            dims = s.dims
        elif s.dims != dims:
            raise ValueError(f"sample {i} has dims {s.dims}, expected {dims}")
    return dims


def stack_samples(samples) -> DenseTensor:
    """Same-shape samples merged into their first mode, the one layout of
    every first-core fit: M samples of dims ``(I_1, ..., I_d)`` become the
    order-d tensor of dims ``(M*I_1, I_2, ..., I_d)``, sample index
    fastest (the Fortran-order view of their ``(M, I_1, ..., I_d)``
    stack), so the first split's unfolding is a view of it."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    dims = common_dims(samples)
    stacked = np.empty((len(samples),) + dims, order="F")
    for i, s in enumerate(samples):
        stacked[i] = s.values
    merged = (len(samples) * dims[0],) + dims[1:]
    # the samples are DenseTensors, so every value is already checked
    return DenseTensor._trusted(stacked.reshape(merged, order="F"))


class StackedSamples:
    """Same-shape samples stacked along their first mode, for decomposing
    them jointly at several rank settings.

    The holder keeps the stack ``stack_samples`` lays out, its norm, and
    the first split's factorization by each route (the Gram's or the
    SVD), made read-only on first use: at most two, shared by every
    ``stack_and_decompose`` of the holder.  Each call factors the later
    splits itself.  All of it lives as long as the holder: drop it to free
    the stack and the factorizations.
    """

    def __init__(self, samples):
        samples = list(samples)
        self.count = len(samples)
        self._stack = stack_samples(samples)
        self._norm = self._stack.norm()
        self._firsts = {}

    def _first(self, route: str):
        """The first split's factorization by ``route``, made read-only
        on first use and kept."""
        split = self._firsts.get(route)
        if split is None:
            split = _factor_first(self._stack, route)
            for a in split:
                a.flags.writeable = False
            self._firsts[route] = split
        return split


def stack_and_decompose(samples, cfg: TtSvdConfig) -> TrainStack:
    """Jointly decompose same-shape samples so they share a rank chain.

    The samples' first modes are merged into one of size ``M*I_1`` (see
    ``StackedSamples``), and that order-d tensor is decomposed once, at
    the d-1 interior ranks or the tolerance ``cfg`` names.  Its first core
    ``(1, M*I_1, R_2)`` holds every sample's first core: reshaped in
    Fortran order to ``(M, 1, I_1, R_2)`` and copied out of the holder's
    first split, so that the result does not keep the holder's arrays
    alive, it is the returned ``TrainStack``'s one leading core, with one
    row per sample.  The cores for modes 2..d are its tail, the same arrays
    for every sample, so all samples share identical interior ranks.
    Indexing the stack gives sample i's ``TensorTrain``, a slice a stack
    of views.  The sample index is never truncated, under fixed ranks or a
    tolerance.  In tolerance mode the budget is ``rel_tol * ||stack||_F /
    sqrt(d-1)`` per split, so the whole stack is reproduced within
    ``rel_tol * ||stack||_F``.  The cores carry ``tt_svd``'s sign rule.

    Under fixed ranks the first split, ``M*I_1`` rows by ``I_2...I_d``
    columns, is factored from its Gram's eigenproblem when it is tall and
    at least ``_GRAM_MIN_COLS`` columns wide (both benchmark corpora's
    are: 400 x 196 and 800 x 196), and the Gram has at least the first
    rank's count of singular values above ``_GRAM_TAU`` times the largest
    (zero or near-zero pixels only lower that count); otherwise, and in
    tolerance mode, by the SVD, as every later split is.

    ``samples`` is a ``StackedSamples`` or an iterable of ``DenseTensor``,
    which gets a fresh holder.  Calls on one holder share its first split,
    factored once per route, and each call factors its later splits
    afresh.  Every column a split keeps is formed at once, and the route
    depends only on the data, the mode and the requested ranks, so the
    result is the same, bit for bit, either way, whatever settings or
    modes the holder served before.
    """
    stack = samples if isinstance(samples, StackedSamples) else StackedSamples(samples)
    joint = _sweep(stack._stack, stack._norm, cfg, stack._first)
    lead = joint.cores[0]
    first = lead.reshape(stack.count, 1, -1, lead.shape[2], order="F").copy()
    return TrainStack((first,), joint.cores[1:])


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
