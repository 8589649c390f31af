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
``cross_gram`` call it directly.  Cores shared by every row and every
column (the tails of a stacked decomposition) are reduced once, and only
the leading modes are evaluated per pair.  Gram matrices built from samples
that share one rank chain are positive semidefinite for both combine rules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError
from .tensor import TensorTrain

NAIVE_TERM_CAP = 10_000_000

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
        if int(self.degree) != self.degree or self.degree < 1:
            raise ValueError(f"degree must be a positive integer, got {self.degree}")
        object.__setattr__(self, "degree", int(self.degree))
        object.__setattr__(self, "c", float(self.c))


@dataclass(frozen=True)
class RbfKernel:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2))"""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "sigma", float(self.sigma))


BaseKernel = LinearKernel | PolynomialKernel | RbfKernel


def kernel_to_dict(k: BaseKernel) -> dict:
    if isinstance(k, LinearKernel):
        return {"kind": "linear"}
    if isinstance(k, PolynomialKernel):
        return {"kind": "poly", "c": k.c, "degree": k.degree}
    if isinstance(k, RbfKernel):
        return {"kind": "rbf", "sigma": k.sigma}
    raise TypeError(f"not a base kernel: {k!r}")


def kernel_from_dict(d: dict) -> BaseKernel:
    kind = d.get("kind")
    if kind == "linear":
        return LinearKernel()
    if kind == "poly":
        return PolynomialKernel(c=d.get("c", 1.0), degree=d.get("degree", 2))
    if kind == "rbf":
        return RbfKernel(sigma=d["sigma"])
    raise ValueError(f"unknown kernel kind: {kind!r}")


def parse_kernel(text: str) -> BaseKernel:
    """Parse 'linear', 'poly[:c=..,degree=..]', or 'rbf[:sigma=..]'."""
    name, _, argstr = text.strip().partition(":")
    name = name.strip().lower()
    args = {}
    if argstr:
        for piece in argstr.split(","):
            key, _, val = piece.partition("=")
            if not val:
                # bare value shorthand, e.g. "rbf:2.5"
                key, val = ("sigma" if name == "rbf" else "c"), key
            args[key.strip()] = float(val)
    if name == "linear":
        return LinearKernel()
    if name in ("poly", "polynomial"):
        return PolynomialKernel(
            c=args.get("c", 1.0), degree=int(args.get("degree", 2))
        )
    if name == "rbf":
        if "sigma" not in args:
            raise ValueError(f"rbf kernel needs a sigma, got {text!r}")
        return RbfKernel(sigma=args["sigma"])
    raise ValueError(f"unknown kernel {text!r}")


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
            if not isinstance(k, (LinearKernel, PolynomialKernel, RbfKernel)):
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

    def with_sigma(self, sigma: float) -> "KernelSpec":
        """Copy with every RBF mode switched to the given bandwidth."""
        per_mode = tuple(
            RbfKernel(sigma) if isinstance(k, RbfKernel) else k for k in self.per_mode
        )
        return replace(self, per_mode=per_mode)

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


def _check_pair(a: TensorTrain, b: TensorTrain, spec: KernelSpec):
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


def _fiber_block(k: BaseKernel, ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """All-pairs base-kernel values between the fibers of two cores.

    Returns G with G[r, s, u, t] = k(ca[r, :, s], cb[u, :, t]).
    """
    g = np.einsum("rms,umt->rsut", ca, cb, optimize=True)
    if isinstance(k, LinearKernel):
        return g
    if isinstance(k, PolynomialKernel):
        return (g + k.c) ** k.degree
    if isinstance(k, RbfKernel):
        na = np.einsum("rms,rms->rs", ca, ca)
        nb = np.einsum("umt,umt->ut", cb, cb)
        d2 = na[:, :, None, None] + nb[None, None, :, :] - 2.0 * g
        np.maximum(d2, 0.0, out=d2)
        return np.exp(-d2 / (2.0 * k.sigma**2))
    raise TypeError(f"not a base kernel: {k!r}")


def tt_kernel(a: TensorTrain, b: TensorTrain, spec: KernelSpec) -> float:
    """Fast evaluator for the spec's combine rule: a 1x1 kernel matrix."""
    _check_pair(a, b, spec)
    return float(_kernel_matrix([a], [b], spec)[0, 0])


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
    """Symmetric kernel matrix over a sample list, with its spec snapshot."""

    values: np.ndarray
    spec: KernelSpec
    sample_ids: tuple[int, ...]

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
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))

    @property
    def size(self) -> int:
        return self.values.shape[0]


def _require_shared_chain(tts, what: str) -> None:
    chains = {tt.ranks for tt in tts}
    if len(chains) > 1:
        raise ValueError(
            f"{what} must share one rank chain, found {sorted(chains)}; "
            "decompose them jointly (stack_and_decompose) first"
        )


def _shared_mode_start(rows, cols) -> int:
    """First mode index from which cores are constant within each side.

    From that mode on, every (row, col) pair sees the same pair of cores, so
    per-mode blocks can be computed once instead of per pair.  Samples
    produced by stack_and_decompose share all cores except the first.
    """
    d = rows[0].order
    s = d
    for k in range(d - 1, 0, -1):
        row_shared = all(t.cores[k] is rows[0].cores[k] for t in rows)
        col_shared = all(t.cores[k] is cols[0].cores[k] for t in cols)
        if row_shared and col_shared:
            s = k
        else:
            break
    return s


def _kernel_matrix(rows, cols, spec: KernelSpec, symmetric: bool = False) -> np.ndarray:
    """Kernel values between every row and every column train.

    This is the only place the TT-kernel arithmetic lives.  Cores constant
    across a whole side (the shared tails of a stacked decomposition, or
    modes 2..d of a single pair) have their blocks reduced once: to one
    matrix for "prod", to block sums for "sum".  Only the leading modes
    are evaluated per pair.  With ``symmetric`` (rows are cols) only pairs
    i <= j are evaluated and the upper triangle is copied into the lower.
    """
    per_mode = spec.per_mode
    prod = spec.combine == "prod"
    d = rows[0].order
    s = _shared_mode_start(rows, cols)
    shared_blocks = [
        _fiber_block(per_mode[k], rows[0].cores[k], cols[0].cores[k])
        for k in range(s, d)
    ]
    if prod:
        # collapse the shared suffix right-to-left into one matrix
        tail = np.ones((1, 1))
        for blk in reversed(shared_blocks):
            tail = np.einsum("rsut,st->ru", blk, tail, optimize=True)
    else:
        shared_sums = [float(blk.sum()) for blk in shared_blocks]

    out = np.empty((len(rows), len(cols)))
    for i, a in enumerate(rows):
        for j in range(i if symmetric else 0, len(cols)):
            b = cols[j]
            blocks = [_fiber_block(per_mode[k], a.cores[k], b.cores[k]) for k in range(s)]
            if prod:
                v = np.ones((1, 1))
                for blk in blocks:
                    v = np.einsum("ru,rsut->st", v, blk, optimize=True)
                out[i, j] = float(np.sum(v * tail))
            else:
                sums = [float(blk.sum()) for blk in blocks] + shared_sums
                pair = [ra * rb for ra, rb in zip(a.ranks, b.ranks)]
                total = 0.0
                for k in range(d):
                    mult = 1
                    for m in range(d + 1):
                        if m != k and m != k + 1:
                            mult *= pair[m]
                    total += mult * sums[k]
                out[i, j] = total
        if symmetric:
            out[i:, i] = out[i, i:]
    return out


def _checked_samples(samples, what: str):
    samples = list(samples)
    if not samples:
        raise ValueError(f"need at least one {what} sample")
    dims = samples[0].dims
    for i, t in enumerate(samples):
        if t.dims != dims:
            raise ValueError(f"{what} sample {i} has dims {t.dims}, expected {dims}")
    return samples


def build_gram(samples, spec: KernelSpec, sample_ids=None) -> GramMatrix:
    """Kernel matrix over samples sharing one rank chain.

    Each pair i <= j is evaluated once by the kernel engine and mirrored
    into the lower triangle, so the matrix is exactly symmetric.
    """
    samples = _checked_samples(samples, "Gram")
    _check_pair(samples[0], samples[0], spec)
    _require_shared_chain(samples, "Gram samples")
    if sample_ids is None:
        sample_ids = tuple(range(len(samples)))
    return GramMatrix(
        values=_kernel_matrix(samples, samples, spec, symmetric=True),
        spec=spec,
        sample_ids=sample_ids,
    )


def cross_gram(train, test, spec: KernelSpec) -> np.ndarray:
    """Rectangular kernel block, rows = test samples, columns = train samples.

    Train samples must share one rank chain; test samples must carry that
    same chain (pad with conform_interior_ranks if needed).
    """
    train = _checked_samples(train, "train")
    test = _checked_samples(test, "test")
    _check_pair(train[0], train[0], spec)
    if train[0].dims != test[0].dims:
        raise ValueError(f"dims mismatch: {test[0].dims} vs {train[0].dims}")
    _require_shared_chain(train, "train samples")
    chain = train[0].ranks
    for i, t in enumerate(test):
        if t.ranks != chain:
            raise ValueError(
                f"test sample {i} has rank chain {t.ranks}, training chain is {chain}"
            )
    return _kernel_matrix(test, train, spec)
