"""End-to-end training and prediction for TT kernel machines.

The training procedure mirrors the usual kernel-SVM recipe, with the twist
that samples are decomposed jointly: for every candidate rank setting, the
train and validation samples are stacked and decomposed together so all
trains share one rank chain (a requirement for a PSD Gram matrix), then a
grid over (C, sigma) is scanned on the validation split, each C seeded
from the previous one's solution, and the winning combination's scan
solution is the model: no solve follows the scan.  The samples are
stacked once per training, merged into the first mode, in one holder
that keeps the stack's first split for every rank setting; each setting
factors its later splits itself.  Cores are sign-fixed, so a
model depends on the data and the grid, not on the signs LAPACK picks.
Prediction decomposes each incoming sample at the model's rank chain by
keeping the support vectors' shared trailing cores and fitting a fresh
first core by least squares, which keeps new samples in the same core
representation the kernel values were trained on.  The samples of one
request are stacked as training stacks its own and fit together, one
least-squares solve per chunk, into one ``TrainStack``.  Kernel and
decision values that are not finite raise ``CapacityError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapacityError, ConvergenceError
from .kernels import (
    CHUNK_VALUES,
    KERNEL_KINDS,
    KernelSpec,
    build_gram,
    cross_gram,
    kernel_from_dict,
)
from .solver import (
    SUPPORT_EPS,
    DualProblem,
    decision_values,
    predict_labels,
    solve_dual,
)
from .tensor import (
    DenseTensor,
    StackedSamples,
    TensorTrain,
    TrainStack,
    TtSvdConfig,
    interior_rank_chain,
    stack_and_decompose,
    stack_samples,
)

SPLIT_NAMES = ("train", "validation", "test")


@dataclass
class Dataset:
    """Labeled same-shape tensor samples with a train/validation/test split."""

    samples: list[DenseTensor]
    labels: np.ndarray
    split: np.ndarray

    def __post_init__(self):
        self.samples = list(self.samples)
        labels = np.asarray(self.labels)
        if not np.issubdtype(labels.dtype, np.integer):
            if not np.all(labels == labels.astype(np.int64)):
                raise ValueError("labels must be integers")
        self.labels = labels.astype(np.int64)
        self.split = np.asarray(self.split, dtype=object)
        n = len(self.samples)
        if self.labels.shape != (n,) or self.split.shape != (n,):
            raise ValueError(
                f"{n} samples with labels {self.labels.shape} and split {self.split.shape}"
            )
        bad = set(self.split) - set(SPLIT_NAMES)
        if bad:
            raise ValueError(f"unknown split names: {sorted(bad)}")
        if n:
            dims = self.samples[0].dims
            for i, s in enumerate(self.samples):
                if s.dims != dims:
                    raise ValueError(f"sample {i} has dims {s.dims}, expected {dims}")

    @property
    def dims(self) -> tuple[int, ...]:
        if not self.samples:
            raise ValueError("empty dataset has no dims")
        return self.samples[0].dims

    @property
    def classes(self) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unique(self.labels))

    def subset(self, split: str):
        if split not in SPLIT_NAMES:
            raise ValueError(f"unknown split {split!r}")
        idx = np.nonzero(self.split == split)[0]
        return [self.samples[i] for i in idx], self.labels[idx]

    def restrict_classes(self, classes) -> "Dataset":
        keep = np.isin(self.labels, list(classes))
        idx = np.nonzero(keep)[0]
        return Dataset(
            samples=[self.samples[i] for i in idx],
            labels=self.labels[idx],
            split=self.split[idx],
        )

    def counts(self) -> dict:
        return {
            name: int(np.sum(self.split == name)) for name in SPLIT_NAMES
        }

    @classmethod
    def from_arrays(cls, x, labels, split) -> "Dataset":
        x = np.asarray(x, dtype=np.float64)
        return cls(
            samples=[DenseTensor(x[i]) for i in range(x.shape[0])],
            labels=labels,
            split=split,
        )


def draw_dataset(
    train_samples,
    train_labels,
    test_samples,
    test_labels,
    classes,
    train_per_class: int,
    val_per_class: int,
    seed: int,
) -> Dataset:
    """Seeded per-class train/validation draws plus the full test split.

    Classes are drawn in ascending id order, whatever order ``classes``
    lists them in, so one seed gives one dataset per class set.  From the
    pool of training samples, each class contributes ``train_per_class``
    training and ``val_per_class`` validation samples taken from one
    seeded shuffle of its pool; every test sample of the classes is kept.
    ``test_samples`` may be None when there is no test pool.
    """
    classes = sorted(int(c) for c in classes)
    if len(set(classes)) != len(classes):
        raise ValueError(f"class ids must be distinct, got {classes}")
    train_labels = np.asarray(train_labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    samples, labels, split = [], [], []
    for cls in classes:
        pool = np.nonzero(train_labels == cls)[0]
        need = train_per_class + val_per_class
        if len(pool) < need:
            raise ValueError(
                f"class {cls} has {len(pool)} training samples, need {need}"
            )
        picked = rng.permutation(pool)[:need]
        for j, idx in enumerate(picked):
            samples.append(train_samples[idx])
            labels.append(cls)
            split.append("train" if j < train_per_class else "validation")
    if test_samples is not None:
        test_labels = np.asarray(test_labels, dtype=np.int64)
        for idx in np.nonzero(np.isin(test_labels, classes))[0]:
            samples.append(test_samples[idx])
            labels.append(int(test_labels[idx]))
            split.append("test")
    return Dataset(samples=samples, labels=np.array(labels), split=np.array(split, dtype=object))


def make_pair_dataset(train_samples, train_labels, test_samples, test_labels, classes,
                      train_per_class: int, val_per_class: int, seed: int) -> Dataset:
    """Seeded two-class subset: ``draw_dataset`` for exactly two classes."""
    if len(set(int(c) for c in classes)) != 2:
        raise ValueError(f"need two distinct classes, got {tuple(classes)}")
    return draw_dataset(train_samples, train_labels, test_samples, test_labels,
                        classes, train_per_class, val_per_class, seed)


@dataclass(frozen=True)
class GridConfig:
    """One training run: the search space and the options of every solve.

    ``rank_values`` entries are either a single int (uniform interior rank)
    or a tuple with one rank per interior position.  ``mode_kinds`` names
    the base kernel for each tensor mode; sigma from ``sigma_values`` is
    substituted into every RBF mode at each grid point, so with no RBF mode
    the sigma axis collapses to a single pass.

    ``normalize`` scales every nonzero sample to unit Frobenius norm, in
    training and in prediction; ``solver_tol`` and ``solver_max_iter`` are
    ``solve_dual``'s ``tol`` and ``max_iter`` for every grid point.  They
    are not checked here: a bad value fails where the solver reads it.
    ``train_binary``, ``train_multiclass_ovo`` and ``rank_sweep`` all read
    the run from one grid, so a variant of a run is ``dataclasses.replace``
    of its grid.
    """

    c_values: tuple[float, ...]
    sigma_values: tuple[float, ...]
    rank_values: tuple
    mode_kinds: tuple[str, ...]
    combine: str = "prod"
    poly_c: float = 1.0
    poly_degree: int = 2
    normalize: bool = False
    solver_tol: float = 1e-3
    solver_max_iter: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "c_values", tuple(float(c) for c in self.c_values))
        object.__setattr__(self, "sigma_values", tuple(float(s) for s in self.sigma_values))
        object.__setattr__(self, "rank_values", tuple(self.rank_values))
        object.__setattr__(self, "mode_kinds", tuple(str(k) for k in self.mode_kinds))
        if not self.c_values or any(c <= 0 for c in self.c_values):
            raise ValueError(f"c_values must be positive, got {self.c_values}")
        if any(s <= 0 for s in self.sigma_values):
            raise ValueError(f"sigma_values must be positive, got {self.sigma_values}")
        if not self.rank_values:
            raise ValueError("rank_values must not be empty")
        for kind in self.mode_kinds:
            if kind not in KERNEL_KINDS:
                raise ValueError(f"mode kind must be one of {KERNEL_KINDS}, got {kind!r}")
        if self.has_rbf and not self.sigma_values:
            raise ValueError("sigma_values must not be empty when an rbf mode is used")

    @property
    def has_rbf(self) -> bool:
        return "rbf" in self.mode_kinds

    def rank_settings(self, d: int) -> list[tuple[int, ...]]:
        out = []
        for entry in self.rank_values:
            setting = interior_rank_chain(entry, d, f"rank setting {entry}")
            if any(r < 1 for r in setting):
                raise ValueError(f"ranks must be >= 1, got {entry}")
            out.append(setting)
        return out

    def sigmas(self) -> tuple:
        return self.sigma_values if self.has_rbf else (None,)

    def make_spec(self, sigma) -> KernelSpec:
        if sigma is None and self.has_rbf:
            raise ValueError("rbf mode requires a sigma")
        params = {"c": self.poly_c, "degree": self.poly_degree, "sigma": sigma}
        return KernelSpec(
            per_mode=tuple(kernel_from_dict({**params, "kind": k}) for k in self.mode_kinds),
            combine=self.combine,
        )


@dataclass
class SvmModel:
    """A trained binary TT kernel machine."""

    support: tuple[TensorTrain, ...]
    coef: np.ndarray  # alpha_i * y_i per support sample
    bias: float
    spec: KernelSpec
    dims: tuple[int, ...]
    interior_ranks: tuple[int, ...]
    neg_class: int
    pos_class: int
    normalize: bool = False
    grid_point: dict = field(default_factory=dict)
    validation_accuracy: float = float("nan")
    info: dict = field(default_factory=dict)

    @property
    def classes(self) -> tuple[int, ...]:
        return (self.neg_class, self.pos_class)

    def predict(self, samples) -> np.ndarray:
        return predict(self, samples)


def _tail_basis(tail) -> np.ndarray:
    """Chain trailing cores into a basis matrix of shape (R_2, I_2*...*I_d).

    Any tensor X representable with these trailing cores factors as
    X_(1) = A @ basis for some first-core matrix A of shape (I_1, R_2),
    where X_(1) is the mode-1 unfolding in first-index-fastest order.  An
    empty tail, that of order-1 data, gives the 1x1 identity.
    """
    acc = tail[0] if tail else np.ones((1, 1, 1))
    for core in tail[1:]:
        acc = np.tensordot(acc, core, axes=(acc.ndim - 1, 0))
    return acc[..., 0].reshape(acc.shape[0], -1, order="F")


def _prepare_samples(model: SvmModel, samples) -> TrainStack:
    """Decompose incoming samples at the model's rank chain.

    Every support TT carries the same trailing cores (training stacks all
    samples into one decomposition), so each new sample keeps those cores
    and only its first core is fit by least squares against the trailing
    basis.  TT kernels are functions of the cores rather than of the
    reconstructed tensor, so reusing the stored representation is what
    keeps kernel values between new samples and support vectors on the
    same footing as the training Gram matrix; an independent decomposition
    is free to pick different core scales and bases, which the kernel
    registers as a systematic shift.  Training's own first cores are the
    first split's leading singular vectors instead: the two rules agree to
    roundoff only when no later split truncates.

    The samples are normalised and stacked as training does it
    (``_normalized``, ``stack_samples``), in chunks of about
    ``CHUNK_VALUES`` values: one ``lstsq`` per chunk fits its first-split
    unfolding, and the fit reshapes as ``stack_and_decompose``'s first
    core does into rows of one ``(n, 1, I_1, R_2)`` array, the leading
    core of the returned ``TrainStack`` over the support vectors' tail.
    """
    dims = tuple(model.dims)
    for sample in samples:
        if sample.dims != dims:
            raise ValueError(
                f"sample dims {sample.dims} do not match model dims {dims}"
            )
    tail = tuple(model.support[0].cores[1:])
    basis = _tail_basis(tail)  # (R_2, I_2*...*I_d)
    rank, cols = basis.shape
    first = np.empty((len(samples), 1, dims[0], rank))
    step = max(1, CHUNK_VALUES // (dims[0] * cols))
    for lo in range(0, len(samples), step):
        chunk = samples[lo:lo + step]
        stack = stack_samples(_normalized(chunk) if model.normalize else chunk)
        rhs = stack.values.reshape(len(chunk) * dims[0], cols, order="F")
        fit = np.linalg.lstsq(basis.T, rhs.T, rcond=None)[0]
        first[lo:lo + len(chunk)] = fit.T.reshape(len(chunk), 1, dims[0], rank, order="F")
    return TrainStack((first,), tail)


def decision_function(model: SvmModel, samples) -> np.ndarray:
    """Signed decision values, one per sample.

    A kernel or decision value that is not finite, as a huge polynomial
    degree read from a model file gives, raises ``CapacityError``: it
    exceeds float64.  The overflow itself raises no numpy warning.
    """
    samples = list(samples)
    if not samples:
        return np.zeros(0)
    if not model.support:
        return np.full(len(samples), model.bias)
    rows = cross_gram(model.support, _prepare_samples(model, samples), model.spec)
    with np.errstate(over="ignore", invalid="ignore"):
        values = decision_values(model.coef, model.bias, rows)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise CapacityError(
            f"{bad} of {len(values)} decision values are NaN or inf: the model's "
            "kernel values exceed float64 on these samples"
        )
    return values


def class_labels(model: SvmModel, values) -> np.ndarray:
    """Class ids of decision values; a value of exactly 0 goes positive."""
    signs = predict_labels(values)
    return np.where(signs > 0, model.pos_class, model.neg_class).astype(np.int64)


def predict(model: SvmModel, samples) -> np.ndarray:
    """Predicted class ids; a decision value of exactly 0 goes positive."""
    return class_labels(model, decision_function(model, samples))


def _signed_labels(labels, pos_class) -> np.ndarray:
    return np.where(labels == pos_class, 1.0, -1.0)


def _normalized(samples):
    """Each sample divided by its norm; a zero sample stays as it is.
    Training and prediction both normalise by this rule."""
    out = []
    for s in samples:
        nrm = s.norm()
        out.append(DenseTensor(s.values / nrm) if nrm > 0 else s)
    return out


def _grid_key(entry) -> tuple:
    # maximize accuracy, then prefer smaller ranks, smaller C, smaller sigma
    sigma = entry["sigma"] if entry["sigma"] is not None else 0.0
    return (-entry["validation_accuracy"], tuple(entry["ranks"]), entry["C"], sigma)


def _seeded_start(prev, c_value):
    """Alpha seeding: the start for C = ``c_value`` after ``prev``, the
    previous C of the same Gram and its solution (None for none).  The
    previous alphas scaled by C / C_prev stay feasible and lie near the new
    optimum; those at C_prev go to exactly C.  None, a cold start, unless
    the previous C is smaller."""
    if prev is None or not prev[0] < c_value:
        return None
    c_prev, alphas = prev
    start = np.minimum(alphas * (c_value / c_prev), c_value)
    start[alphas == c_prev] = c_value
    return start


def train_binary(ds: Dataset, grid: GridConfig) -> SvmModel:
    """Grid-searched binary training of the run ``grid`` describes.

    For every rank setting the train and validation samples are decomposed
    jointly; for every (sigma, C) the dual is solved on the training Gram
    matrix and scored on the validation split.  Accuracy ties are broken
    toward smaller ranks, then smaller C, then smaller sigma.  Each C of a
    (ranks, sigma) starts from the previous C's solution when that C is
    smaller (``_seeded_start``), so an ascending C grid pays for one cold
    solve per Gram; the report keeps the grid's order.  Each grid point is
    solved once, and the winner's scan solution is the model: no solve
    follows the scan, and only the winner's trains, spec and solution
    outlive its grid point, so each Gram is freed as the scan moves on.
    The full scan is reported under ``info["grid"]``; ``info["solver"]``
    holds the solve's ``tol`` and the winner's ``converged`` and
    ``objective``, with ``iterations`` 0, the iterations spent after the
    scan.  The model is an optimum of its grid point to the solver's
    tolerance; which one, within that tolerance, can depend on the C
    values scanned before it.  The grid's ``normalize``, ``solver_tol``
    and ``solver_max_iter`` hold for every solve, and an unconverged
    winner raises ``ConvergenceError``.

    The train and validation samples are stacked once, in one
    ``StackedSamples``, and each rank setting decomposes that holder once.
    The holder keeps the stack and its first split, of the samples merged
    into the first mode, factored once for all rank settings (from its
    Gram's eigenproblem when it is tall, at least 32 columns wide and has
    as many well-conditioned terms as the first rank keeps, as
    ``stack_and_decompose`` says; by the SVD otherwise); each setting
    factors its later splits itself.  Each setting's ``TrainStack`` is
    sliced into train and validation views, which every Gram, cross-Gram
    and solve of that setting reads; the layers are reached through this
    module's globals, which the benchmark's trace wraps.  The model's
    first cores are copies, so it does not keep the holder's arrays
    alive.  The holder, and with it the stack and its first split, is
    freed when training returns.
    """
    train_s, train_y = ds.subset("train")
    val_s, val_y = ds.subset("validation")
    if not train_s:
        raise ValueError("training split is empty")
    if not val_s:
        raise ValueError("validation split is empty")
    classes = tuple(int(c) for c in np.unique(train_y))
    if len(classes) != 2:
        raise ValueError(f"binary training needs exactly 2 classes, got {classes}")
    if not set(int(c) for c in np.unique(val_y)) <= set(classes):
        raise ValueError("validation labels outside the training classes")
    neg_class, pos_class = classes
    d = len(ds.dims)
    if len(grid.mode_kinds) != d:
        raise ValueError(
            f"grid names {len(grid.mode_kinds)} mode kinds but data has order {d}"
        )

    if grid.normalize:
        train_s = _normalized(train_s)
        val_s = _normalized(val_s)
    y_train = _signed_labels(train_y, pos_class)
    y_val = _signed_labels(val_y, pos_class)
    n_train = len(train_s)
    # every rank setting reads the first split of this one stack
    stack = StackedSamples(train_s + val_s)

    report = []
    kept = None  # the best entry so far: its trains, spec and solution
    for ranks in grid.rank_settings(d):
        tts = stack_and_decompose(stack, TtSvdConfig(max_ranks=ranks))
        tr_tts, va_tts = tts[:n_train], tts[n_train:]
        for sigma in grid.sigmas():
            spec = grid.make_spec(sigma)
            gram = build_gram(tr_tts, spec)
            rows = cross_gram(tr_tts, va_tts, spec)
            prev = None
            for c_value in grid.c_values:
                sol = solve_dual(
                    DualProblem(gram=gram, labels=y_train, C=c_value),
                    tol=grid.solver_tol,
                    max_iter=grid.solver_max_iter,
                    start=_seeded_start(prev, c_value),
                )
                prev = (c_value, sol.alphas)
                vals = decision_values(sol.alphas * y_train, sol.bias, rows)
                entry = {
                    "ranks": list(ranks),
                    "sigma": sigma,
                    "C": c_value,
                    "validation_accuracy": float(np.mean(predict_labels(vals) == y_val)),
                    "converged": sol.converged,
                    "iterations": sol.iterations,
                    "support_count": int(len(sol.support_indices)),
                }
                report.append(entry)
                if kept is None or _grid_key(entry) < _grid_key(kept[0]):
                    kept = (entry, tr_tts, spec, sol)

    best, tr_tts, spec, sol = kept
    if not sol.converged:
        raise ConvergenceError(
            f"solver did not converge at the selected grid point "
            f"(ranks={tuple(best['ranks'])}, C={best['C']}, sigma={best['sigma']}): "
            f"{sol.iterations} iterations, objective {sol.objective:.6g}"
        )

    sv = sol.support_indices
    return SvmModel(
        support=tuple(tr_tts[i] for i in sv),
        coef=(sol.alphas * y_train)[sv],
        bias=sol.bias,
        spec=spec,
        dims=ds.dims,
        interior_ranks=tr_tts.interior_ranks,
        neg_class=neg_class,
        pos_class=pos_class,
        normalize=grid.normalize,
        grid_point={"ranks": list(best["ranks"]), "C": best["C"], "sigma": best["sigma"]},
        validation_accuracy=best["validation_accuracy"],
        info={
            "grid": report,
            "train_count": n_train,
            "validation_count": len(val_s),
            "solver": {
                "tol": grid.solver_tol,
                "iterations": 0,
                "converged": sol.converged,
                "objective": sol.objective,
            },
        },
    )


@dataclass
class OvoModel:
    """One-vs-one ensemble of binary models over K classes."""

    classes: tuple[int, ...]
    models: dict

    @property
    def dims(self) -> tuple[int, ...]:
        return next(iter(self.models.values())).dims

    def predict(self, samples) -> np.ndarray:
        samples = list(samples)
        n = len(samples)
        k = len(self.classes)
        index = {c: i for i, c in enumerate(self.classes)}
        votes = np.zeros((n, k), dtype=np.int64)
        strength = np.zeros((n, k))
        for (a, b), model in self.models.items():
            vals = decision_function(model, samples)
            signs = predict_labels(vals)
            winners = np.where(signs > 0, index[b], index[a])
            votes[np.arange(n), winners] += 1
            strength[:, index[a]] += np.abs(vals)
            strength[:, index[b]] += np.abs(vals)
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            top = votes[i].max()
            tied = np.nonzero(votes[i] == top)[0]
            if len(tied) > 1:
                best = strength[i, tied].max()
                tied = tied[strength[i, tied] >= best]
            out[i] = self.classes[int(tied.min())]
        return out


def train_multiclass_ovo(ds: Dataset, grid: GridConfig) -> OvoModel:
    """Train one binary model per unordered class pair; vote at prediction.

    Each pair's model is ``train_binary`` of the pair's samples on the same
    ``grid``, so it is bitwise the model a binary run of the pair gives.

    Vote ties are broken by the larger accumulated |decision value| over
    the models a class participates in, then by the smaller class id.
    """
    train_s, train_y = ds.subset("train")
    classes = tuple(int(c) for c in np.unique(train_y))
    if len(classes) < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    models = {}
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            sub = ds.restrict_classes((a, b))
            models[(a, b)] = train_binary(sub, grid)
    return OvoModel(classes=classes, models=models)


@dataclass
class Metrics:
    accuracy: float
    classes: tuple[int, ...]
    confusion: np.ndarray  # rows = true class, columns = predicted class
    per_class_recall: dict

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "classes": list(self.classes),
            "confusion": self.confusion.tolist(),
            "per_class_recall": {str(c): r for c, r in self.per_class_recall.items()},
        }


def compute_metrics(true_labels, predicted_labels, classes) -> Metrics:
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    classes = tuple(int(c) for c in classes)
    index = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    confusion = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(true_labels, predicted_labels):
        confusion[index[int(t)], index[int(p)]] += 1
    recall = {}
    for c in classes:
        i = index[c]
        total = int(confusion[i].sum())
        recall[c] = float(confusion[i, i] / total) if total else float("nan")
    accuracy = float(np.mean(true_labels == predicted_labels)) if len(true_labels) else float("nan")
    return Metrics(accuracy=accuracy, classes=classes, confusion=confusion,
                   per_class_recall=recall)


def evaluate(model, ds: Dataset, split: str = "test") -> Metrics:
    """Accuracy, confusion matrix, and per-class recall on one split."""
    samples, labels = ds.subset(split)
    if not samples:
        raise ValueError(f"split {split!r} is empty")
    classes = model.classes
    unknown = set(int(c) for c in np.unique(labels)) - set(classes)
    if unknown:
        raise ValueError(f"labels {sorted(unknown)} not covered by the model classes {classes}")
    predicted = model.predict(samples)
    return compute_metrics(labels, predicted, classes)


def rank_sweep(ds: Dataset, grid: GridConfig) -> list[dict]:
    """Train at each rank setting separately and report test accuracy.

    Each entry of ``grid.rank_values`` gives one row: the winner of
    ``train_binary`` on ``grid`` restricted to that one rank setting (the
    full (sigma, C) search, with every other option of ``grid``), scored
    on the test split.  To sweep other ranks, ``replace`` the grid's
    ``rank_values``.
    """
    rows = []
    for entry in grid.rank_values:
        model = train_binary(ds, replace(grid, rank_values=(entry,)))
        metrics = evaluate(model, ds, split="test")
        rows.append(
            {
                "ranks": model.grid_point["ranks"],
                "C": model.grid_point["C"],
                "sigma": model.grid_point["sigma"],
                "validation_accuracy": model.validation_accuracy,
                "test_accuracy": metrics.accuracy,
                "support_count": int(len(model.support)),
            }
        )
    return rows
