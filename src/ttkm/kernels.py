"""Kernels between tensor trains and Gram matrix assembly.

A TT kernel compares two tensor trains fiber by fiber.  For mode ``i`` with
rank indices ``r_i, r_{i+1}`` the fiber ``A_i[r_i, :, r_{i+1}]`` is a vector
of length ``I_i``; a standard base kernel (linear, polynomial, or RBF) is
applied to each pair of fibers and the per-mode values are combined either
multiplicatively ("prod") or additively ("sum") across modes, summing over
every combination of rank indices on both sides:

    prod:  K(A, B) = sum over (r, s) tuples of  prod_i k_i(a_fiber, b_fiber)
    sum:   K(A, B) = sum over (r, s) tuples of  sum_i  k_i(a_fiber, b_fiber)

``tt_kernel_naive`` evaluates these definitions literally and exists as a
reference.  Everything else goes through one engine, ``_kernel_matrix``,
which reorganizes the same sums so the cost is polynomial in the ranks: the
single-pair evaluators are 1x1 calls into it, and ``build_gram`` and
``cross_gram`` call it directly.  The engine reads trains only as a
``TrainStack``: the public entry points take a stack as it is and turn a
sequence of ``TensorTrain``s into one at the door, which is the one place
their dims, rank chains and shared tails are checked.  Cores shared by
every row and every column (the tails of a stacked decomposition) are
reduced once.  The leading modes, which differ per sample, are evaluated
for all pairs at once: the fibers of every row and column are stacked, one
matrix product compares them all, the base kernel is applied elementwise,
and the result is contracted with the shared tail ("prod") or summed with
closed-form multipliers ("sum").  Rows are processed in chunks of a fixed size
(``CHUNK_VALUES``), so temporaries stay around 0.5 MB whatever the sample
count.  Gram matrices built from samples that share one rank chain are
positive semidefinite for both combine rules, and ``build_gram`` returns
them exactly symmetric.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import CapacityError
from .tensor import TensorTrain, TrainStack

NAIVE_TERM_CAP = 10_000_000

# The kernel engine evaluates rows in chunks sized so that one mode's block
# of fiber kernel values holds about this many float64 values (0.5 MB):
# every temporary is O(chunk * M * S) for M columns of rank S.
CHUNK_VALUES = 1 << 16

# The base-kernel kinds, one per class below, and the rules that combine
# per-mode values across modes.  Every other module reads these two.
KERNEL_KINDS = ("linear", "poly", "rbf")
COMBINE_RULES = ("prod", "sum")


@dataclass(frozen=True)
class LinearKernel:
    """k(x, y) = <x, y>"""


@dataclass(frozen=True)
class PolynomialKernel:
    """k(x, y) = (<x, y> + c) ** degree"""

    c: float = 1.0
    degree: int = 2

    def __post_init__(self):
        degree = self.degree
        # a float is a whole number only if finite: int(inf) would overflow
        whole = degree.is_integer() if isinstance(degree, float) else int(degree) == degree
        if not whole or degree < 1:
            raise ValueError(f"degree must be a positive integer, got {degree}")
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "c", float(self.c))
        if not math.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c}")


@dataclass(frozen=True)
class RbfKernel:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2))"""

    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        object.__setattr__(self, "sigma", float(self.sigma))


BaseKernel = LinearKernel | PolynomialKernel | RbfKernel
_KERNEL_TYPES = dict(zip(KERNEL_KINDS, (LinearKernel, PolynomialKernel, RbfKernel)))


def kernel_to_dict(k: BaseKernel) -> dict:
    for kind, cls in _KERNEL_TYPES.items():
        if isinstance(k, cls):
            return {"kind": kind, **asdict(k)}
    raise TypeError(f"not a base kernel: {k!r}")


def kernel_from_dict(d: dict) -> BaseKernel:
    """The base kernel named by ``{"kind": ..., **parameters}``.

    This is the one place a kind becomes a class.  Parameters the kind
    does not take are ignored; missing optional ones take their defaults.
    """
    kind = d.get("kind")
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind: {kind!r}")
    cls = _KERNEL_TYPES[kind]
    return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def parse_kernel(text: str) -> BaseKernel:
    """Parse 'linear', 'poly[:c=..,degree=..]', or 'rbf[:sigma=..]'; unlike
    ``kernel_from_dict``, refuse a parameter the kind does not take or one given twice."""
    name, _, argstr = text.strip().partition(":")
    name = name.strip().lower()
    args = {}
    if argstr:
        for piece in argstr.split(","):
            key, _, val = piece.partition("=")
            if not val:
                # bare value shorthand, e.g. "rbf:2.5"
                key, val = ("sigma" if name == "rbf" else "c"), key
            key = key.strip()
            if key in args:
                raise ValueError(f"{name} kernel parameter {key!r} is given twice, got {text!r}")
            args[key] = float(val)
    if name == "polynomial":
        name = "poly"
    if name not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel {text!r}")
    unknown = set(args) - {f.name for f in fields(_KERNEL_TYPES[name])}
    if unknown:
        raise ValueError(f"{name} kernel takes no parameter {min(unknown)!r}, got {text!r}")
    if name == "rbf" and "sigma" not in args:
        raise ValueError(f"rbf kernel needs a sigma, got {text!r}")
    return kernel_from_dict({**args, "kind": name})


@dataclass(frozen=True)
class KernelSpec:
    """One base kernel per tensor mode plus the combine rule across modes."""

    per_mode: tuple[BaseKernel, ...]
    combine: str = "prod"

    def __post_init__(self):
        per_mode = tuple(self.per_mode)
        if not per_mode:
            raise ValueError("per_mode must list at least one kernel")
        for k in per_mode:
            if not isinstance(k, BaseKernel):
                raise TypeError(f"not a base kernel: {k!r}")
        if self.combine not in COMBINE_RULES:
            raise ValueError(f"combine must be one of {COMBINE_RULES}, got {self.combine!r}")
        object.__setattr__(self, "per_mode", per_mode)

    @property
    def order(self) -> int:
        return len(self.per_mode)

    @classmethod
    def uniform(cls, kernel: BaseKernel, d: int, combine: str = "prod") -> "KernelSpec":
        return cls(per_mode=(kernel,) * d, combine=combine)

    def to_dict(self) -> dict:
        return {
            "per_mode": [kernel_to_dict(k) for k in self.per_mode],
            "combine": self.combine,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        return cls(
            per_mode=tuple(kernel_from_dict(x) for x in d["per_mode"]),
            combine=d["combine"],
        )


def base_kernel_eval(k: BaseKernel, x, y) -> float:
    """Evaluate a base kernel on two equal-length vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape or x.size == 0:
        raise ValueError(f"need equal-length nonempty vectors, got {x.shape} and {y.shape}")
    if isinstance(k, LinearKernel):
        return float(np.dot(x, y))
    if isinstance(k, PolynomialKernel):
        return float((np.dot(x, y) + k.c) ** k.degree)
    if isinstance(k, RbfKernel):
        d2 = float(np.dot(x - y, x - y))
        return float(np.exp(-d2 / (2.0 * k.sigma**2)))
    raise TypeError(f"not a base kernel: {k!r}")


def _check_pair(a, b, spec: KernelSpec):
    """Trains or stacks ``a`` and ``b`` of one dims, of the spec's order."""
    if a.dims != b.dims:
        raise ValueError(f"dims mismatch: {a.dims} vs {b.dims}")
    if spec.order != a.order:
        raise ValueError(
            f"spec has {spec.order} per-mode kernels but tensors have order {a.order}"
        )


def tt_kernel_naive(
    a: TensorTrain, b: TensorTrain, spec: KernelSpec, term_cap: int = NAIVE_TERM_CAP
) -> float:
    """Reference evaluator: literal sum over all rank-index tuples.

    The work is (number of tuples) * d base-kernel evaluations; anything
    above ``term_cap`` such terms raises CapacityError.
    """
    _check_pair(a, b, spec)
    d = a.order
    ranks_a, ranks_b = a.ranks, b.ranks
    tuples = math.prod(ranks_a) * math.prod(ranks_b)
    if tuples * d > term_cap:
        raise CapacityError(
            f"naive evaluation needs {tuples * d} terms, cap is {term_cap}"
        )
    total = 0.0
    for ia in itertools.product(*(range(r) for r in ranks_a)):
        for ib in itertools.product(*(range(r) for r in ranks_b)):
            vals = [
                base_kernel_eval(
                    spec.per_mode[i],
                    a.cores[i][ia[i], :, ia[i + 1]],
                    b.cores[i][ib[i], :, ib[i + 1]],
                )
                for i in range(d)
            ]
            total += math.prod(vals) if spec.combine == "prod" else math.fsum(vals)
    return total


def _fibers(cores: np.ndarray) -> np.ndarray:
    """Fibers of stacked cores as rows: (n, R, I, S) -> (n*R*S, I).

    Rows are ordered by (core, r, s), so a kernel matrix between two fiber
    stacks reshapes to (n, R, S, m, U, T) without copying.  The result is
    a C-contiguous copy whatever the cores' strides: the matrix products
    and sums that read it add in an order set by its layout, so equal
    cores give bitwise-equal kernel values, whether a model was trained or
    loaded back from a file.  It is a copy even when the transposed cores
    are contiguous already (S = 1): two views of one buffer would make
    ``x @ y.T`` a symmetric rank-k update, whose sums are not a product's.
    """
    return np.array(cores.transpose(0, 1, 3, 2), order="C").reshape(-1, cores.shape[2])


def _base_kernel_matrix(k: BaseKernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Base-kernel values between every row of x (P, I) and of y (Q, I)."""
    g = x @ y.T
    if isinstance(k, LinearKernel):
        return g
    if isinstance(k, PolynomialKernel):
        g += k.c
        g **= k.degree
        return g
    if isinstance(k, RbfKernel):
        nx = np.einsum("pi,pi->p", x, x)
        ny = np.einsum("qi,qi->q", y, y)
        g *= -2.0
        g += nx[:, None]
        g += ny
        np.maximum(g, 0.0, out=g)
        g /= -2.0 * k.sigma**2
        return np.exp(g, out=g)
    raise TypeError(f"not a base kernel: {k!r}")


def _fiber_block(k: BaseKernel, ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """All-pairs base-kernel values between the fibers of two cores.

    Returns G with G[r, s, u, t] = k(ca[r, :, s], cb[u, :, t]).
    """
    g = _base_kernel_matrix(k, _fibers(ca[None]), _fibers(cb[None]))
    return g.reshape(ca.shape[0], ca.shape[2], cb.shape[0], cb.shape[2])


def tt_kernel(a: TensorTrain, b: TensorTrain, spec: KernelSpec) -> float:
    """Fast evaluator for the spec's combine rule: a 1x1 kernel matrix."""
    _check_pair(a, b, spec)
    return float(_kernel_matrix(_stack([a], "row"), _stack([b], "column"), spec)[0, 0])


def tt_kernel_prod_fast(a: TensorTrain, b: TensorTrain, spec: KernelSpec) -> float:
    """Product-combined TT kernel via per-mode blocks and chain contraction.

    Grouping the fiber kernel values of mode i into a block indexed by
    (r_i, r_{i+1}, s_i, s_{i+1}) turns the sum over rank tuples into a
    product of matrices of size (R_i S_i) x (R_{i+1} S_{i+1}); the chain is
    contracted from both ends and closed at the first rank bond.  Equal to
    ``tt_kernel_naive`` with combine "prod" up to floating-point roundoff.
    """
    return tt_kernel(a, b, replace(spec, combine="prod"))


def tt_kernel_sum_fast(a: TensorTrain, b: TensorTrain, spec: KernelSpec) -> float:
    """Sum-combined TT kernel in closed form.

    With combine "sum" the sum over rank tuples distributes: mode i
    contributes (sum of its block entries) times the number of free rank
    choices at the other positions, i.e. prod over j not in {i, i+1} of
    R_j S_j.  Equal to ``tt_kernel_naive`` with combine "sum" up to
    floating-point roundoff.
    """
    return tt_kernel(a, b, replace(spec, combine="sum"))


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix over a sample list, with its spec snapshot.

    ``values`` is a read-only view, so what ``tables`` holds cannot go
    stale through it: the tables the solver derives from the values (its
    pair curvatures), each built once per Gram however many solves read it.
    """

    values: np.ndarray
    spec: KernelSpec
    sample_ids: tuple[int, ...]
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"Gram matrix must be square, got {vals.shape}")
        if len(self.sample_ids) != vals.shape[0]:
            raise ValueError("sample_ids length does not match matrix size")
        if not np.all(np.isfinite(vals)):
            raise ValueError("Gram matrix contains non-finite entries")
        asym = float(np.max(np.abs(vals - vals.T))) if vals.size else 0.0
        if asym > 1e-10:
            raise ValueError(f"Gram matrix asymmetric by {asym}")
        vals = vals.view()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))

    @property
    def size(self) -> int:
        return self.values.shape[0]


def _stack(samples, what: str) -> TrainStack:
    """``samples`` as a nonempty ``TrainStack``; ``what`` names them in errors.

    A stack is taken as it is: its shapes were checked when it was built.
    A sequence of ``TensorTrain``s is checked here, the only place the
    engine's inputs are: every train has the first one's dims and rank
    chain.  From the last mode back, each core that is the same array in
    every train joins the shared tail (samples from ``stack_and_decompose``
    share all cores but the first); the cores of the modes before it are
    stacked, one array per mode.  The first mode is always stacked.
    ``model_store`` writes and reads a model's support set as one such
    stack, and refuses to save one with more than one stacked mode.
    """
    if not isinstance(samples, TrainStack):
        trains = list(samples)
        if not trains:
            raise ValueError(f"need at least one {what} sample")
        dims = trains[0].dims
        for i, t in enumerate(trains):
            if t.dims != dims:
                raise ValueError(f"{what} sample {i} has dims {t.dims}, expected {dims}")
        chains = {t.ranks for t in trains}
        if len(chains) > 1:
            raise ValueError(
                f"{what} samples must share one rank chain, found {sorted(chains)}; "
                "decompose them jointly (stack_and_decompose) first"
            )
        cores = trains[0].cores
        s = len(cores)
        while s > 1 and all(t.cores[s - 1] is cores[s - 1] for t in trains):
            s -= 1
        samples = TrainStack(
            tuple(np.stack([t.cores[k] for t in trains]) for k in range(s)), cores[s:]
        )
    if not len(samples):
        raise ValueError(f"need at least one {what} sample")
    return samples


@np.errstate(over="ignore", invalid="ignore")
def _kernel_matrix(rows: TrainStack, cols: TrainStack, spec: KernelSpec,
                   symmetric: bool = False) -> np.ndarray:
    """Kernel values between every row and every column train.

    This is the only place the TT-kernel arithmetic lives.  Cores constant
    across a whole side (the shared tails of a stacked decomposition, or
    modes 2..d of a single pair) have their blocks reduced once: to one
    matrix for "prod", to block sums for "sum".  Where one side's tail
    starts later than the other's, the modes between are leading modes of
    both.  The leading modes are evaluated for all pairs at once: the
    fibers of a chunk of rows and of all columns are compared in one
    matrix product, the base kernel is applied elementwise, and the
    per-pair blocks are chained (prod) or summed (sum).  With
    ``symmetric`` (rows are cols) each chunk skips the columns left of its
    first row, and the upper triangle is copied into the lower.  A value
    that is not finite, as a huge polynomial degree gives, raises
    ``CapacityError`` with no numpy warning: it exceeds float64.
    """
    per_mode = spec.per_mode
    prod = spec.combine == "prod"
    d = rows.order
    s = max(len(rows.lead), len(cols.lead))  # the first mode shared on both sides
    row_lead, row_tail = rows.split(s)
    col_lead, col_tail = cols.split(s)
    ra, rb = rows.ranks, cols.ranks
    shared_blocks = [
        _fiber_block(per_mode[k], a, b) for k, a, b in zip(range(s, d), row_tail, col_tail)
    ]
    if prod:
        # collapse the shared suffix right-to-left into one matrix
        tail = np.ones((1, 1))
        for blk in reversed(shared_blocks):
            tail = np.tensordot(blk, tail, axes=((1, 3), (0, 1)))
    else:
        # mode k's block sum counts once per free rank choice at every
        # bond other than k and k+1
        pair = [x * y for x, y in zip(ra, rb)]
        mult = [math.prod(pair[:k]) * math.prod(pair[k + 2:]) for k in range(d)]
        shared_total = sum(
            mult[k] * float(blk.sum()) for k, blk in zip(range(s, d), shared_blocks)
        )

    n, m = len(rows), len(cols)
    col_fibers = [_fibers(c).reshape(m, -1, c.shape[2]) for c in col_lead]
    width = max(ra[k] * ra[k + 1] * m * rb[k] * rb[k + 1] for k in range(s))
    step = max(1, CHUNK_VALUES // width)
    out = np.empty((n, m))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        first = lo if symmetric else 0  # pairs below the diagonal are mirrored
        shape = (hi - lo, m - first)
        acc = None if prod else shared_total
        for k in range(s):
            x = _fibers(row_lead[k][lo:hi])
            y = col_fibers[k][first:].reshape(-1, x.shape[1])
            blk = _base_kernel_matrix(per_mode[k], x, y).reshape(
                shape[0], ra[k], ra[k + 1], shape[1], rb[k], rb[k + 1]
            )
            if not prod:
                acc = acc + mult[k] * blk.sum(axis=(1, 2, 4, 5))
            elif k == 0:
                # boundary ranks are 1: the first block is the chain so far
                acc = blk.reshape(shape[0], ra[1], shape[1], rb[1])
            else:
                acc = np.einsum("nrms,nrRmsS->nRmS", acc, blk)
        out[lo:hi, first:] = np.einsum("nrms,rs->nm", acc, tail) if prod else acc
        del acc, blk  # free this chunk's temporaries before the next
    if symmetric:
        for i in range(n):
            out[i + 1:, i] = out[i, i + 1:]
    bad = int(np.count_nonzero(~np.isfinite(out)))
    if bad:
        raise CapacityError(
            f"{bad} of {out.size} kernel values are NaN or inf: they exceed float64"
        )
    return out


def build_gram(samples, spec: KernelSpec, sample_ids=None) -> GramMatrix:
    """Kernel matrix over samples sharing one rank chain.

    ``samples`` is a ``TrainStack`` or a sequence of ``TensorTrain``s.
    Each pair i <= j is evaluated once by the kernel engine and mirrored
    into the lower triangle, so the matrix is exactly symmetric.
    """
    samples = _stack(samples, "Gram")
    _check_pair(samples, samples, spec)
    if sample_ids is None:
        sample_ids = tuple(range(len(samples)))
    return GramMatrix(
        values=_kernel_matrix(samples, samples, spec, symmetric=True),
        spec=spec,
        sample_ids=sample_ids,
    )


def cross_gram(train, test, spec: KernelSpec) -> np.ndarray:
    """Rectangular kernel block, rows = test samples, columns = train samples.

    Each side is a ``TrainStack`` or a sequence of ``TensorTrain``s.  Train
    samples must share one rank chain, and test samples must carry that
    same chain.
    """
    train = _stack(train, "train")
    test = _stack(test, "test")
    _check_pair(train, train, spec)
    if train.dims != test.dims:
        raise ValueError(f"dims mismatch: {test.dims} vs {train.dims}")
    if test.ranks != train.ranks:
        raise ValueError(
            f"test samples have rank chain {test.ranks}, training chain is {train.ranks}"
        )
    return _kernel_matrix(test, train, spec)
