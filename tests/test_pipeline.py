"""Training pipeline: datasets, grid search, multiclass, metrics, sweeps."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ttkm import pipeline, solver, tensor
from ttkm.errors import ConvergenceError
from ttkm.kernels import (
    GramMatrix,
    KernelSpec,
    LinearKernel,
    PolynomialKernel,
    RbfKernel,
    build_gram,
    cross_gram,
    tt_kernel,
    tt_kernel_naive,
)
from ttkm.pipeline import (
    Dataset,
    GridConfig,
    Metrics,
    OvoModel,
    SvmModel,
    compute_metrics,
    decision_function,
    evaluate,
    make_pair_dataset,
    predict,
    rank_sweep,
    train_binary,
    train_multiclass_ovo,
)
from ttkm.tensor import (
    DenseTensor,
    TensorTrain,
    TrainStack,
    TtSvdConfig,
    reconstruct,
    stack_and_decompose,
    tt_svd,
)


def blob_dataset(rng, classes=(0, 1), n_train=6, n_val=4, n_test=4,
                 dims=(3, 3, 4), noise=0.05):
    """Well-separated class clusters around random unit-norm centers."""
    centers = {}
    for c in classes:
        base = rng.standard_normal(dims)
        centers[c] = base / np.linalg.norm(base)
    samples, labels, split = [], [], []
    for c in classes:
        for name, count in (("train", n_train), ("validation", n_val), ("test", n_test)):
            for _ in range(count):
                x = centers[c] + noise * rng.standard_normal(dims)
                samples.append(DenseTensor(x))
                labels.append(c)
                split.append(name)
    return Dataset(samples=samples, labels=np.array(labels), split=np.array(split, dtype=object))


def small_grid(d=3, ranks=(2,), cs=(10.0,), sigmas=(1.0,), combine="prod",
               kinds=None):
    return GridConfig(
        c_values=cs,
        sigma_values=sigmas,
        rank_values=ranks,
        mode_kinds=("rbf",) * d if kinds is None else kinds,
        combine=combine,
    )


def linear_grid(d=3, ranks=(4,), cs=(10.0,)):
    """All-linear product grid: kernel values equal dense inner products,
    so jointly decomposed and per-sample decomposed TTs agree exactly
    whenever the rank chain is high enough for exact reconstruction."""
    return small_grid(d=d, ranks=ranks, cs=cs, kinds=("linear",) * d)


def bias_only_model(neg, pos, bias):
    """Degenerate model with no support vectors: decision value == bias."""
    return SvmModel(
        support=(),
        coef=np.zeros(0),
        bias=bias,
        spec=KernelSpec.uniform(LinearKernel(), 2),
        dims=(2, 2),
        interior_ranks=(1,),
        neg_class=neg,
        pos_class=pos,
    )


class TestDataset:
    def test_subset_and_counts(self):
        rng = np.random.default_rng(1)
        ds = blob_dataset(rng)
        tr_s, tr_y = ds.subset("train")
        assert len(tr_s) == 12 and len(tr_y) == 12
        assert ds.counts() == {"train": 12, "validation": 8, "test": 8}
        assert ds.classes == (0, 1)

    def test_validation_errors(self):
        s = [DenseTensor(np.zeros((2, 2)))]
        with pytest.raises(ValueError):
            Dataset(samples=s, labels=np.array([0, 1]), split=np.array(["train"], dtype=object))
        with pytest.raises(ValueError):
            Dataset(samples=s, labels=np.array([0]), split=np.array(["dev"], dtype=object))
        with pytest.raises(ValueError):
            Dataset(
                samples=[DenseTensor(np.zeros((2, 2))), DenseTensor(np.zeros((2, 3)))],
                labels=np.array([0, 1]),
                split=np.array(["train", "train"], dtype=object),
            )

    def test_restrict_classes(self):
        rng = np.random.default_rng(2)
        ds = blob_dataset(rng, classes=(0, 1, 2))
        sub = ds.restrict_classes((0, 2))
        assert sub.classes == (0, 2)
        assert len(sub.samples) == 28

    def test_from_arrays(self):
        x = np.zeros((3, 2, 2))
        ds = Dataset.from_arrays(x, np.array([0, 1, 0]), np.array(["train"] * 3, dtype=object))
        assert len(ds.samples) == 3
        assert ds.dims == (2, 2)


class TestMakePairDataset:
    def test_counts_and_split_layout(self):
        rng = np.random.default_rng(3)
        train_s = [DenseTensor(rng.standard_normal((2, 2))) for _ in range(40)]
        train_y = np.repeat([3, 7], 20)
        test_s = [DenseTensor(rng.standard_normal((2, 2))) for _ in range(10)]
        test_y = np.array([3, 7, 7, 3, 3, 9, 9, 7, 3, 7])
        ds = make_pair_dataset(train_s, train_y, test_s, test_y, (7, 3),
                               train_per_class=5, val_per_class=3, seed=11)
        assert ds.counts() == {"train": 10, "validation": 6, "test": 8}
        # class 9 test samples are excluded
        _, test_labels = ds.subset("test")
        assert set(test_labels) == {3, 7}

    def test_seed_determinism(self):
        rng = np.random.default_rng(4)
        train_s = [DenseTensor(rng.standard_normal((2, 2))) for _ in range(30)]
        train_y = np.repeat([0, 1], 15)
        a = make_pair_dataset(train_s, train_y, train_s[:2], train_y[:2], (0, 1), 4, 4, seed=5)
        b = make_pair_dataset(train_s, train_y, train_s[:2], train_y[:2], (0, 1), 4, 4, seed=5)
        for s1, s2 in zip(a.samples, b.samples):
            np.testing.assert_array_equal(s1.values, s2.values)

    def test_insufficient_pool_rejected(self):
        s = [DenseTensor(np.zeros((2, 2)))] * 4
        y = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError, match="need"):
            make_pair_dataset(s, y, s, y, (0, 1), train_per_class=2, val_per_class=1, seed=0)


class TestGridConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_grid(cs=(0.0,))
        with pytest.raises(ValueError):
            small_grid(ranks=())
        with pytest.raises(ValueError):
            GridConfig(c_values=(1.0,), sigma_values=(1.0,), rank_values=(2,),
                       mode_kinds=("rbf", "sigmoid"))

    def test_rank_settings_expand_ints(self):
        g = small_grid(ranks=(2, (3, 4)))
        assert g.rank_settings(3) == [(2, 2), (3, 4)]
        with pytest.raises(ValueError):
            g.rank_settings(4)

    def test_sigma_axis_collapses_without_rbf(self):
        g = GridConfig(c_values=(1.0,), sigma_values=(1.0, 2.0), rank_values=(2,),
                       mode_kinds=("linear", "poly"))
        assert g.sigmas() == (None,)
        spec = g.make_spec(None)
        assert spec.order == 2

    def test_make_spec_substitutes_sigma(self):
        g = small_grid(d=2)
        spec = g.make_spec(42.0)
        assert spec.per_mode == (RbfKernel(42.0), RbfKernel(42.0))
        # only the RBF modes take the sigma; the others keep their settings
        g = GridConfig(c_values=(1.0,), sigma_values=(1.0,), rank_values=(2,),
                       mode_kinds=("rbf", "poly", "linear", "rbf"), combine="sum",
                       poly_c=0.5, poly_degree=3)
        spec = g.make_spec(9.0)
        assert spec == KernelSpec(
            per_mode=(RbfKernel(9.0), PolynomialKernel(c=0.5, degree=3),
                      LinearKernel(), RbfKernel(9.0)),
            combine="sum",
        )


class TestTrainBinary:
    def test_separable_blobs_reach_full_validation_accuracy(self):
        # rbf kernel, C=1, sigma=1, all interior ranks 2
        rng = np.random.default_rng(10)
        ds = blob_dataset(rng)
        model = train_binary(ds, small_grid(cs=(1.0,)))
        assert model.validation_accuracy == 1.0

    def test_linear_prod_blobs_reach_full_test_accuracy(self):
        rng = np.random.default_rng(10)
        ds = blob_dataset(rng)
        model = train_binary(ds, linear_grid())
        assert model.validation_accuracy == 1.0
        m = evaluate(model, ds, split="test")
        assert m.accuracy == 1.0

    def test_predictions_on_training_samples(self):
        # zero training error at large C on separable data, so predicting
        # on the training split must recover the training labels
        rng = np.random.default_rng(11)
        ds = blob_dataset(rng)
        model = train_binary(ds, linear_grid(cs=(100.0,)))
        tr_s, tr_y = ds.subset("train")
        np.testing.assert_array_equal(predict(model, tr_s), tr_y)

    def test_deterministic_retrain_matches_scan(self):
        rng = np.random.default_rng(12)
        ds = blob_dataset(rng, noise=0.4)
        grid = small_grid(ranks=(1, 2), cs=(1.0, 10.0), sigmas=(0.5, 2.0))
        model = train_binary(ds, grid)
        matching = [
            e for e in model.info["grid"]
            if list(e["ranks"]) == model.grid_point["ranks"]
            and e["C"] == model.grid_point["C"]
            and e["sigma"] == model.grid_point["sigma"]
        ]
        assert len(matching) == 1
        assert model.validation_accuracy == matching[0]["validation_accuracy"]

    def test_one_svd_per_new_rank_prefix(self, monkeypatch):
        # order-4 data at ranks 2 and 4: the first split, of the merged
        # sample and first modes, is shared, and each rank adds its last
        # two splits: 1 + 2 * 2 factorizations (2 * 3 unshared); the
        # winner's final solve decomposes nothing.  The first split (60 x
        # 48) is tall and 48 columns wide, so it is the one taken from its
        # Gram's eigenproblem
        rng = np.random.default_rng(16)
        ds = blob_dataset(rng, dims=(3, 3, 4, 4), noise=0.3)
        calls = []
        for name in ("svd", "eigh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
        model = train_binary(ds, small_grid(d=4, ranks=(2, 4), cs=(1.0, 10.0)))
        assert calls == ["eigh"] + ["svd"] * 4
        assert len(model.info["grid"]) == 4

    def test_stack_is_dropped_when_training_returns(self, monkeypatch):
        holders = []

        class Recorded(pipeline.StackedSamples):
            def __init__(self, samples):
                super().__init__(samples)
                holders.append(weakref.ref(self))

        monkeypatch.setattr(pipeline, "StackedSamples", Recorded)
        rng = np.random.default_rng(17)
        model = train_binary(blob_dataset(rng), small_grid(ranks=(1, 2)))
        gc.collect()
        assert len(holders) == 1 and holders[0]() is None
        assert model.support

    @pytest.mark.parametrize("train", ["binary", "ovo", "rank_sweep"])
    def test_support_is_a_copy_of_the_support_rows(self, monkeypatch, train):
        # a model's first cores are the support samples' rows, copied out
        # of the scan's stacks, so the model does not keep them alive
        scanned, models = [], []
        real_decompose, real_model = pipeline.stack_and_decompose, pipeline._model
        monkeypatch.setattr(pipeline, "stack_and_decompose",
                            lambda *a: scanned.append(real_decompose(*a)) or scanned[-1])
        monkeypatch.setattr(pipeline, "_model",
                            lambda *a: models.append(real_model(*a)) or models[-1])
        rng = np.random.default_rng(17)
        grid = small_grid(ranks=(1, 2))
        if train == "ovo":
            train_multiclass_ovo(blob_dataset(rng, classes=(0, 1, 2)), grid)
        else:
            (train_binary if train == "binary" else rank_sweep)(blob_dataset(rng), grid)
        assert len(models) == {"binary": 1, "ovo": 3, "rank_sweep": 2}[train]
        assert scanned
        for model in models:
            assert isinstance(model.support, TrainStack)
            (first,) = model.support.lead
            assert first.shape[0] == len(model.coef) > 0
            assert not any(np.shares_memory(first, c) for s in scanned for c in s.lead)

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(13)
        ds = blob_dataset(rng, noise=0.3)
        grid = small_grid(ranks=(2,), cs=(1.0, 10.0), sigmas=(1.0, 2.0))
        a = train_binary(ds, grid)
        b = train_binary(ds, grid)
        np.testing.assert_array_equal(a.coef, b.coef)
        assert a.bias == b.bias
        assert a.grid_point == b.grid_point

    def test_tie_break_prefers_small_rank_then_c_then_sigma(self):
        # every grid point separates this easy data perfectly, so the
        # winner must be the lexicographically smallest combination
        rng = np.random.default_rng(14)
        ds = blob_dataset(rng, noise=0.01)
        grid = small_grid(ranks=(3, 1, 2), cs=(10.0, 1.0), sigmas=(5.0, 1.0))
        model = train_binary(ds, grid)
        assert all(e["validation_accuracy"] == 1.0 for e in model.info["grid"])
        assert model.grid_point == {"ranks": [1, 1], "C": 1.0, "sigma": 1.0}

    def test_grid_report_covers_every_point(self):
        rng = np.random.default_rng(15)
        ds = blob_dataset(rng)
        grid = small_grid(ranks=(1, 2), cs=(1.0, 10.0), sigmas=(1.0, 2.0))
        model = train_binary(ds, grid)
        assert len(model.info["grid"]) == 2 * 2 * 2

    def test_wrong_class_count_rejected(self):
        rng = np.random.default_rng(16)
        ds = blob_dataset(rng, classes=(0, 1, 2))
        with pytest.raises(ValueError, match="exactly 2"):
            train_binary(ds, small_grid())

    def test_validation_label_leak_rejected(self):
        rng = np.random.default_rng(17)
        ds = blob_dataset(rng)
        ds.labels[np.nonzero(ds.split == "validation")[0][0]] = 9
        with pytest.raises(ValueError, match="validation"):
            train_binary(ds, small_grid())

    def test_mode_kind_count_must_match_order(self):
        rng = np.random.default_rng(18)
        ds = blob_dataset(rng)
        with pytest.raises(ValueError, match="mode kinds"):
            train_binary(ds, small_grid(d=2))

    def test_class_mapping_smaller_id_is_negative(self):
        rng = np.random.default_rng(19)
        ds = blob_dataset(rng, classes=(5, 3))
        model = train_binary(ds, small_grid())
        assert (model.neg_class, model.pos_class) == (3, 5)


def record_solves(monkeypatch):
    """Swap a spy into ``pipeline.solve_dual``; it appends (problem,
    keyword arguments, solution) for every solve to the list it returns."""
    solves = []
    real_solve = pipeline.solve_dual

    def recording(p, **kwargs):
        sol = real_solve(p, **kwargs)
        solves.append((p, kwargs, sol))
        return sol

    monkeypatch.setattr(pipeline, "solve_dual", recording)
    return solves


def scan_index(model) -> int:
    """The winner's position in the report, which is its scan solve's."""
    point = model.grid_point
    return next(i for i, e in enumerate(model.info["grid"])
                if (e["ranks"], e["C"], e["sigma"]) ==
                (point["ranks"], point["C"], point["sigma"]))


class TestSeededScan:
    """Each C of a (ranks, sigma) starts from the previous, smaller C's
    solution, and the winner's scan solution is the model: no solve follows
    the scan.  So the model is an optimum of its grid point to the solver's
    tolerance, not the bits of one cold solve there."""

    CS = (1.0, 10.0, 100.0, 1000.0)

    @pytest.fixture(scope="class")
    def case(self):
        # a winner at C = 1000, which the scan reached from C = 100's solution
        ds = blob_dataset(np.random.default_rng(66), noise=0.6, n_train=8, n_val=6)
        grid = small_grid(ranks=(1, 2), cs=self.CS, sigmas=(0.5, 2.0))
        return ds, grid, train_binary(ds, grid)

    def test_model_is_an_optimum_of_its_grid_point(self, case, monkeypatch):
        ds, grid, model = case
        assert model.grid_point["C"] == 1000.0
        solves = record_solves(monkeypatch)
        again = train_binary(ds, grid)
        np.testing.assert_array_equal(again.coef, model.coef)
        assert again.bias == model.bias
        p, kwargs, scan = solves[scan_index(model)]
        assert kwargs["start"] is not None  # seeded from C = 100
        assert model.info["solver"]["iterations"] == 0
        sv = scan.support_indices
        assert model.coef.tobytes() == (scan.alphas * p.labels)[sv].tobytes()
        assert model.bias == scan.bias
        report = solver.kkt_report(p, scan, grid.solver_tol)
        assert report.max_violation <= grid.solver_tol
        cold = solver.solve_dual(p, tol=grid.solver_tol)
        assert cold.converged and cold.iterations > 0
        assert scan.objective == pytest.approx(cold.objective, rel=grid.solver_tol)

    def test_unsorted_c_values_keep_the_report_order_and_the_model(self, case):
        ds, grid, model = case
        unsorted = (100.0, 1.0, 1000.0, 10.0)
        got = train_binary(ds, replace(grid, c_values=unsorted))
        assert [e["C"] for e in got.info["grid"]] == list(unsorted) * 4
        assert got.grid_point == model.grid_point
        assert got.validation_accuracy == model.validation_accuracy
        assert len(got.support) == len(model.support)
        for sa, sb in zip(got.support, model.support):
            for ca, cb in zip(sa.cores, sb.cores):
                np.testing.assert_array_equal(ca, cb)
        # two optima to the solver's tolerance: 5e-9 apart at C = 1000
        scale = np.max(np.abs(model.coef))
        np.testing.assert_allclose(got.coef, model.coef, rtol=0, atol=1e-6 * scale)
        assert got.bias == pytest.approx(model.bias, rel=1e-6)

    @pytest.mark.parametrize("cs, cold", [
        (CS, [True, False, False, False]),
        ((100.0, 1.0, 1000.0, 10.0), [True, True, False, True]),
    ], ids=["ascending", "unsorted"])
    def test_one_decomposition_per_rank_one_gram_per_sigma(self, case, monkeypatch, cs, cold):
        ds, grid, _ = case
        calls = {name: [] for name in ("stack_and_decompose", "build_gram", "cross_gram")}
        for name, seen in calls.items():
            real = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name,
                                lambda *a, _real=real, _seen=seen, **k:
                                _seen.append(1) or _real(*a, **k))
        solves = record_solves(monkeypatch)
        model = train_binary(ds, replace(grid, c_values=cs))
        assert len(calls["stack_and_decompose"]) == 2
        assert len(calls["build_gram"]) == len(calls["cross_gram"]) == 2 * 2
        assert len(solves) == len(model.info["grid"]) == 2 * 2 * 4
        assert [kw.get("start") is None for _, kw, _ in solves] == cold * 4
        p, _, scan = solves[scan_index(model)]
        assert p.C == model.grid_point["C"]
        assert model.bias == scan.bias

    def test_single_point_grid_pays_for_one_solve(self, case, monkeypatch):
        # the scan's one cold solve is the model: no solve follows the scan
        ds, _, _ = case
        solves = record_solves(monkeypatch)
        model = train_binary(ds, small_grid(ranks=(2,), cs=(100.0,), sigmas=(0.5,)))
        assert len(solves) == 1
        (p, scan_kwargs, scan), = solves
        assert scan_kwargs["start"] is None
        assert scan.iterations > 0
        assert model.info["solver"]["iterations"] == 0
        sv = scan.support_indices
        assert model.coef.tobytes() == (scan.alphas * p.labels)[sv].tobytes()
        assert sum(sol.iterations for _, _, sol in solves) == sum(
            e["iterations"] for e in model.info["grid"])

    def test_unconverged_winner_raises_from_its_scan_solution(self, case, monkeypatch):
        # no second max_iter budget: the scan's own solves are all there is
        ds, _, _ = case
        grid = replace(small_grid(ranks=(1, 2), cs=(1.0, 1000.0), sigmas=(0.5, 2.0)),
                       solver_max_iter=1)
        solves = record_solves(monkeypatch)
        entries = []  # the report's entries, as the winner's choice reads them
        real_key = pipeline._grid_key
        monkeypatch.setattr(pipeline, "_grid_key",
                            lambda e: entries.append(e) or real_key(e))
        with pytest.raises(ConvergenceError) as err:
            train_binary(ds, grid)
        assert len(solves) == 2 * 2 * 2
        assert not any(sol.converged for _, _, sol in solves)
        best = min({id(e): e for e in entries}.values(), key=real_key)
        assert (f"(ranks={tuple(best['ranks'])}, C={best['C']}, sigma={best['sigma']}): "
                f"1 iterations") in str(err.value)

    def test_seeded_start_scales_the_previous_solution(self):
        # 11 * (30 / 11) rounds below 30: a bound needs its own rule to stay one
        assert 11.0 * (30.0 / 11.0) < 30.0
        alphas = np.array([0.0, 5.5, 11.0, 11.0 * (1 - 2**-52)])
        start = pipeline._seeded_start((11.0, alphas), 30.0)
        assert start[0] == 0.0 and start[2] == 30.0
        np.testing.assert_allclose(start[[1, 3]], [15.0, 30.0], rtol=1e-15)
        assert np.all(start <= 30.0)
        assert pipeline._seeded_start((10.0, alphas), 10.0) is None
        assert pipeline._seeded_start((10.0, alphas), 3.0) is None
        assert pipeline._seeded_start(None, 3.0) is None


class TestPredict:
    def test_decision_values_and_labels_consistent(self):
        rng = np.random.default_rng(20)
        ds = blob_dataset(rng)
        model = train_binary(ds, small_grid())
        te_s, _ = ds.subset("test")
        vals = decision_function(model, te_s)
        labels = predict(model, te_s)
        np.testing.assert_array_equal(
            labels, np.where(vals >= 0, model.pos_class, model.neg_class)
        )

    def test_empty_input(self):
        model = bias_only_model(0, 1, bias=0.5)
        assert predict(model, []).shape == (0,)

    def test_no_support_vectors_returns_bias(self):
        model = bias_only_model(0, 1, bias=-0.25)
        samples = [DenseTensor(np.ones((2, 2)))] * 3
        np.testing.assert_allclose(decision_function(model, samples), -0.25)
        np.testing.assert_array_equal(predict(model, samples), [0, 0, 0])

    def test_zero_decision_value_goes_positive(self):
        model = bias_only_model(4, 9, bias=0.0)
        assert predict(model, [DenseTensor(np.ones((2, 2)))])[0] == 9

    def test_dims_mismatch_rejected(self):
        rng = np.random.default_rng(21)
        ds = blob_dataset(rng)
        model = train_binary(ds, small_grid())
        with pytest.raises(ValueError, match="dims"):
            predict(model, [DenseTensor(np.zeros((2, 2)))])

    def test_support_permutation_invariance(self):
        rng = np.random.default_rng(22)
        ds = blob_dataset(rng, noise=0.3)
        model = train_binary(ds, small_grid(cs=(1.0,)))
        assert len(model.support) >= 2
        perm = np.random.default_rng(0).permutation(len(model.support))
        shuffled = SvmModel(
            support=tuple(model.support[i] for i in perm),
            coef=model.coef[perm],
            bias=model.bias,
            spec=model.spec,
            dims=model.dims,
            interior_ranks=model.interior_ranks,
            neg_class=model.neg_class,
            pos_class=model.pos_class,
        )
        te_s, _ = ds.subset("test")
        np.testing.assert_allclose(
            decision_function(shuffled, te_s), decision_function(model, te_s), atol=1e-10
        )
        np.testing.assert_array_equal(predict(shuffled, te_s), predict(model, te_s))

    def test_normalize_makes_prediction_scale_invariant(self):
        rng = np.random.default_rng(23)
        ds = blob_dataset(rng)
        model = train_binary(ds, replace(small_grid(), normalize=True))
        te_s, _ = ds.subset("test")
        scaled = [DenseTensor(7.0 * s.values) for s in te_s]
        np.testing.assert_array_equal(predict(model, scaled), predict(model, te_s))
        np.testing.assert_allclose(
            decision_function(model, scaled), decision_function(model, te_s), atol=1e-12
        )

    def test_support_rows_match_training_gram_at_full_rank(self):
        # at ranks high enough for exact decomposition, handing a support
        # vector's dense tensor back to the model must reproduce the
        # decision value implied by its training Gram row, rbf included
        rng = np.random.default_rng(24)
        ds = blob_dataset(rng)
        model = train_binary(ds, small_grid(ranks=(12,), cs=(1.0,)))
        gram = build_gram(list(model.support), model.spec).values
        sv_dense = [reconstruct(tt) for tt in model.support]
        vals = decision_function(model, sv_dense)
        np.testing.assert_allclose(vals, gram @ model.coef + model.bias, atol=1e-8)

    def test_rbf_test_accuracy_survives_truncated_ranks(self):
        # the predict-time representation stays aligned with the stored
        # support vectors even when the rank chain truncates the samples
        rng = np.random.default_rng(25)
        ds = blob_dataset(rng, n_train=10, n_val=6, n_test=8, noise=0.3)
        grid = small_grid(ranks=(2,), cs=(1.0, 10.0), sigmas=(0.5, 1.0, 2.0))
        model = train_binary(ds, grid)
        m = evaluate(model, ds, split="test")
        assert m.accuracy >= 0.9

    def test_projection_beats_an_independent_decomposition(self):
        # what the truncated-ranks test above is for: on the same data and
        # support set, decomposing each test sample on its own, at the
        # model's ranks, scores at chance (0.50), while the projection onto
        # the support vectors' tail scores 0.9375
        rng = np.random.default_rng(25)
        ds = blob_dataset(rng, n_train=10, n_val=6, n_test=8, noise=0.3)
        model = train_binary(ds, small_grid(ranks=(2,), cs=(1.0, 10.0), sigmas=(0.5, 1.0, 2.0)))
        test_s, test_y = ds.subset("test")
        projected = np.mean(predict(model, test_s) == test_y)
        cfg = TtSvdConfig.fixed(model.interior_ranks)
        own = [tt_svd(x, cfg) for x in (pipeline._normalized(test_s) if model.normalize
                                        else test_s)]
        values = [sum(c * tt_kernel(sv, tt, model.spec) for sv, c in zip(model.support, model.coef))
                  + model.bias for tt in own]
        independent = np.mean(pipeline.class_labels(model, values) == test_y)
        assert projected > independent


def reference_prepare_samples(model, samples):
    """The projection as it was before requests were batched: one ``lstsq``
    and one train per sample.  The batched projection matches it to
    roundoff, not bit for bit: a multi-RHS ``lstsq`` sums in another order."""
    prepared = pipeline._normalized(samples) if model.normalize else samples
    if len(model.dims) == 1:
        return [TensorTrain((s.values[None, :, None],)) for s in prepared]
    tail = model.support[0].cores[1:]
    basis = pipeline._tail_basis(tail)
    out = []
    for s in prepared:
        unfolding = s.values.reshape(model.dims[0], -1, order="F")
        first = np.linalg.lstsq(basis.T, unfolding.T, rcond=None)[0].T
        out.append(TensorTrain((first[None, :, :],) + tuple(tail)))
    return out


def projection_model(dims, normalize=False, rank_deficient=False, seed=50, m=12, rank=3):
    """A model whose ``m`` support vectors come from one joint decomposition
    of random samples (no training), with one base kernel of each kind."""
    rng = np.random.default_rng(seed)
    d = len(dims)
    cfg = TtSvdConfig.fixed((rank,) * (d - 1)) if d > 1 else TtSvdConfig.tolerance(0.1)
    support = tuple(stack_and_decompose(
        [DenseTensor(rng.standard_normal(dims)) for _ in range(m)], cfg))
    ranks = support[0].ranks
    if rank_deficient:
        # two equal rank slices of the first tail core: the tail basis has
        # two equal rows, so each fit has a least-norm solution
        core = support[0].cores[1].copy()
        core[1] = core[0]
        tail = (core,) + support[0].cores[2:]
        support = tuple(TensorTrain((tt.cores[0],) + tail) for tt in support)
        assert np.linalg.matrix_rank(pipeline._tail_basis(tail)) < ranks[1]
    kinds = [RbfKernel(1.5), PolynomialKernel(c=1.0, degree=2), LinearKernel()]
    return SvmModel(
        support=support, coef=rng.standard_normal(m), bias=0.1,
        spec=KernelSpec(per_mode=tuple(kinds[i % 3] for i in range(d))),
        dims=dims, interior_ranks=ranks[1:-1], neg_class=0, pos_class=1,
        normalize=normalize,
    )


def assert_close_trains(got, want, rel=1e-12):
    """Same tails (the same arrays), first cores equal to ``rel`` of their size."""
    assert len(got) == len(want)
    for tt, ref in zip(got, want):
        assert all(a is b for a, b in zip(tt.cores[1:], ref.cores[1:]))
        a, b = tt.cores[0], ref.cores[0]
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(b)), 1e-300)


def detach_first(trains):
    """The same trains with each first core copied out of the shared array."""
    return [TensorTrain((tt.cores[0].copy(),) + tt.cores[1:]) for tt in trains]


class TestBatchedProjection:
    """``_prepare_samples`` fits a request's first cores in one least-squares
    solve per chunk, into one array that the returned trains are views of."""

    @pytest.mark.parametrize("dims", [(6,), (4, 5), (3, 4, 5), (3, 4, 2, 3)])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("n", [1, 16])
    def test_matches_the_per_sample_reference(self, dims, normalize, n):
        model = projection_model(dims, normalize)
        rng = np.random.default_rng(51)
        samples = [DenseTensor(rng.standard_normal(dims)) for _ in range(n)]
        if n > 1:
            samples[-1] = DenseTensor(np.zeros(dims))  # stays zero under normalize
        got = pipeline._prepare_samples(model, samples)
        # the stack contract: the first cores are one (n, 1, I_1, R_2)
        # array, and the tail is the support vectors' own arrays
        assert isinstance(got, TrainStack) and len(got) == n
        (first,) = got.lead
        assert first.shape == (n, 1, dims[0], model.support[0].ranks[1])
        assert len(got.tail) == len(dims) - 1
        assert all(a is b for a, b in zip(got.tail, model.support[0].cores[1:]))
        assert_close_trains(got, reference_prepare_samples(model, samples))

    @pytest.mark.parametrize("dims", [(6,), (3, 4, 5), (3, 4, 2, 3)])
    def test_chunks_match_one_solve(self, monkeypatch, dims):
        # a chunk of 3 samples: 20 samples take 7 solves, at every order:
        # order-1 samples are fit against the 1x1 identity basis too
        model = projection_model(dims, normalize=True)
        rng = np.random.default_rng(52)
        samples = [DenseTensor(rng.standard_normal(dims)) for _ in range(20)]
        whole = pipeline._prepare_samples(model, samples)
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(pipeline, "CHUNK_VALUES", 3 * int(np.prod(dims)))
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        got = pipeline._prepare_samples(model, samples)
        assert len(calls) == 7
        assert_close_trains(got, reference_prepare_samples(model, samples))
        assert_close_trains(got, whole)

    @pytest.mark.parametrize("dims,ranks", [((3, 4, 2), (2, 2)), ((4, 7, 4, 7), (4, 28, 7))])
    def test_training_first_cores_when_no_later_split_truncates(self, dims, ranks):
        # training keeps the first split's singular vectors, a request the
        # least-squares fit against the tail: the two agree only when the
        # tail holds the kept rows of the first split exactly, as it does
        # when no later split truncates (at these ranks each later split
        # keeps every singular value)
        rng = np.random.default_rng(59)
        samples = [DenseTensor(rng.standard_normal(dims)) for _ in range(12)]
        trained = stack_and_decompose(samples, TtSvdConfig.fixed(ranks))
        model = projection_model(dims)
        model = replace(model, support=tuple(trained), interior_ranks=ranks,
                        coef=np.ones(len(trained)))
        assert_close_trains(pipeline._prepare_samples(model, samples), list(trained),
                            rel=1e-13)

    def test_rank_deficient_tail_basis(self):
        model = projection_model((3, 4, 5), rank_deficient=True)
        rng = np.random.default_rng(53)
        samples = [DenseTensor(rng.standard_normal((3, 4, 5))) for _ in range(16)]
        assert_close_trains(pipeline._prepare_samples(model, samples),
                            reference_prepare_samples(model, samples))

    def test_benchmark_scale_request_over_several_chunks(self):
        # 400 samples of 4x7x4x7 at rank 4: 83 samples a chunk, 5 chunks
        model = projection_model((4, 7, 4, 7), seed=54, m=40, rank=4)
        rng = np.random.default_rng(55)
        samples = [DenseTensor(rng.random((4, 7, 4, 7))) for _ in range(400)]
        assert_close_trains(pipeline._prepare_samples(model, samples),
                            reference_prepare_samples(model, samples))

    @pytest.mark.parametrize("dims", [(6,), (3, 4, 2, 3)])
    def test_kernel_rows_from_a_batch(self, dims):
        model = projection_model(dims)
        rng = np.random.default_rng(56)
        samples = [DenseTensor(rng.standard_normal(dims)) for _ in range(16)]
        batch = pipeline._prepare_samples(model, samples)
        rows = cross_gram(model.support, batch, model.spec)
        assert np.array_equal(rows, cross_gram(model.support, detach_first(batch), model.spec))
        gram = build_gram(batch, model.spec).values
        assert np.array_equal(gram, build_gram(detach_first(batch), model.spec).values)
        for i, j in [(0, 0), (15, 11), (7, 3)]:
            want = tt_kernel_naive(batch[i], model.support[j], model.spec)
            assert rows[i, j] == pytest.approx(want, rel=1e-10, abs=1e-12)
            want = tt_kernel_naive(batch[i], batch[j], model.spec)
            assert gram[i, j] == pytest.approx(want, rel=1e-10, abs=1e-12)
        ref = reference_prepare_samples(model, samples)
        want = cross_gram(model.support, ref, model.spec) @ model.coef + model.bias
        np.testing.assert_allclose(decision_function(model, samples), want, rtol=1e-10)

    def test_peak_memory_stays_chunked(self):
        # one right-hand side for all 400 samples would hold 2.5 MB and
        # peaked at 2.69 MB here; a chunk of 83 samples peaks at 1.11 MB
        model = projection_model((4, 7, 4, 7), seed=57, m=40, rank=4)
        rng = np.random.default_rng(58)
        samples = [DenseTensor(rng.random((4, 7, 4, 7))) for _ in range(400)]
        tracemalloc.start()
        try:
            pipeline._prepare_samples(model, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


class TestOvo:
    def test_two_class_ovo_matches_binary(self):
        rng = np.random.default_rng(30)
        ds = blob_dataset(rng, noise=0.3)
        grid = small_grid()
        binary = train_binary(ds, grid)
        ovo = train_multiclass_ovo(ds, grid)
        assert set(ovo.models) == {(0, 1)}
        te_s, _ = ds.subset("test")
        np.testing.assert_array_equal(ovo.predict(te_s), predict(binary, te_s))

    def test_three_class_blobs(self):
        rng = np.random.default_rng(31)
        ds = blob_dataset(rng, classes=(0, 1, 2))
        ovo = train_multiclass_ovo(ds, linear_grid())
        assert len(ovo.models) == 3
        m = evaluate(ovo, ds, split="test")
        assert m.accuracy >= 0.95

    def test_model_count_for_five_classes(self):
        rng = np.random.default_rng(32)
        ds = blob_dataset(rng, classes=(0, 1, 2, 3, 4), n_train=3, n_val=2, n_test=1)
        ovo = train_multiclass_ovo(ds, small_grid())
        assert len(ovo.models) == 10

    def test_vote_tie_broken_by_decision_strength(self):
        # three-way vote tie; class 1 accumulates the largest |value|
        ovo = OvoModel(
            classes=(0, 1, 2),
            models={
                (0, 1): bias_only_model(0, 1, bias=-1.0),
                (0, 2): bias_only_model(0, 2, bias=0.5),
                (1, 2): bias_only_model(1, 2, bias=-0.7),
            },
        )
        sample = [DenseTensor(np.ones((2, 2)))]
        assert ovo.predict(sample)[0] == 1

    def test_full_tie_broken_by_smallest_class_id(self):
        # vote tie and strength tie between classes 0 and 1
        ovo = OvoModel(
            classes=(0, 1, 2),
            models={
                (0, 1): bias_only_model(0, 1, bias=-1.0),
                (0, 2): bias_only_model(0, 2, bias=0.5),
                (1, 2): bias_only_model(1, 2, bias=-0.5),
            },
        )
        sample = [DenseTensor(np.ones((2, 2)))]
        assert ovo.predict(sample)[0] == 0


class TestMetrics:
    def test_hand_scored_fixture(self):
        m = compute_metrics([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], classes=(0, 1))
        assert m.accuracy == pytest.approx(0.6)
        np.testing.assert_array_equal(m.confusion, [[1, 1], [1, 2]])
        assert m.per_class_recall[0] == pytest.approx(0.5)
        assert m.per_class_recall[1] == pytest.approx(2 / 3)

    def test_to_dict_round_trip_types(self):
        m = compute_metrics([0, 1], [0, 1], classes=(0, 1))
        d = m.to_dict()
        assert d["accuracy"] == 1.0
        assert d["confusion"] == [[1, 0], [0, 1]]

    def test_evaluate_rejects_unknown_labels(self):
        rng = np.random.default_rng(40)
        ds = blob_dataset(rng)
        model = train_binary(ds, small_grid())
        ds.labels[np.nonzero(ds.split == "test")[0][0]] = 9
        with pytest.raises(ValueError, match="not covered"):
            evaluate(model, ds, split="test")

    def test_evaluate_empty_split_rejected(self):
        rng = np.random.default_rng(41)
        ds = blob_dataset(rng, n_test=0)
        model = train_binary(ds, small_grid())
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, ds, split="test")


def rank_one_dataset(rng, classes=(0, 1), n_train=6, n_val=4, n_test=4,
                     dims=(3, 3, 4), noise=0.05):
    """Separable clusters of exactly TT-rank-(1,...,1) samples: each sample
    is an outer product of per-mode factors, noise applied to the factors."""
    factors = {c: [rng.standard_normal(n) for n in dims] for c in classes}
    for fs in factors.values():
        for f in fs:
            f /= np.linalg.norm(f)
    samples, labels, split = [], [], []
    for c in classes:
        for name, count in (("train", n_train), ("validation", n_val), ("test", n_test)):
            for _ in range(count):
                parts = [f + noise * rng.standard_normal(f.shape) for f in factors[c]]
                x = parts[0]
                for p in parts[1:]:
                    x = np.multiply.outer(x, p)
                samples.append(DenseTensor(x))
                labels.append(c)
                split.append(name)
    return Dataset(samples=samples, labels=np.array(labels), split=np.array(split, dtype=object))


class TestRankSweep:
    def test_rows_and_accuracy_on_easy_data(self):
        # every swept rank is at least the true rank (1, 1), so accuracy
        # must hold up across the sweep instead of degrading
        rng = np.random.default_rng(50)
        ds = rank_one_dataset(rng)
        grid = linear_grid(ranks=(1, 2))
        rows = rank_sweep(ds, grid)
        assert [r["ranks"] for r in rows] == [[1, 1], [2, 2]]
        assert all(r["test_accuracy"] >= 0.95 for r in rows)
        assert rows[1]["test_accuracy"] >= rows[0]["test_accuracy"] - 1e-12
        assert all("validation_accuracy" in r and "C" in r for r in rows)

    def test_replaced_rank_values_set_the_rows(self):
        rng = np.random.default_rng(51)
        ds = blob_dataset(rng)
        rows = rank_sweep(ds, replace(small_grid(ranks=(1,)), rank_values=(2, (1, 2))))
        assert [r["ranks"] for r in rows] == [[2, 2], [1, 2]]

    def test_one_scan_serves_every_rank_setting(self, monkeypatch):
        # a training per setting would stack the samples and factor their
        # first split (12 columns wide: the SVD route) once per setting
        ds = blob_dataset(np.random.default_rng(54), noise=0.3)
        grid = small_grid(ranks=(1, 2, 3), cs=(1.0, 10.0), sigmas=(0.5, 2.0))
        holders, routes = [], []

        class Recorded(pipeline.StackedSamples):
            def __init__(self, samples):
                super().__init__(samples)
                holders.append(1)

        real_factor = tensor._factor_first
        monkeypatch.setattr(pipeline, "StackedSamples", Recorded)
        monkeypatch.setattr(tensor, "_factor_first",
                            lambda t, route: routes.append(route) or real_factor(t, route))
        solves = record_solves(monkeypatch)
        rows = rank_sweep(ds, grid)
        assert len(rows) == 3
        assert len(holders) == 1
        assert routes == ["svd"]
        sweep_solves = len(solves)
        train_binary(ds, grid)
        assert sweep_solves == len(solves) - sweep_solves == 3 * 2 * 2

    def test_repeated_setting_gives_one_row_per_entry(self):
        ds = blob_dataset(np.random.default_rng(55), noise=0.3)
        rows = rank_sweep(ds, small_grid(ranks=(1, (1, 1)), cs=(1.0, 10.0)))
        assert len(rows) == 2 and rows[0] == rows[1]

    def test_max_iter_binds(self):
        rng = np.random.default_rng(52)
        ds = blob_dataset(rng, noise=0.3)
        grid = small_grid(ranks=(1, 2), cs=(1000.0,))
        with pytest.raises(ConvergenceError):
            rank_sweep(ds, replace(grid, solver_max_iter=1))


class TestOneRunPerGrid:
    """``train_binary``, ``train_multiclass_ovo`` and ``rank_sweep`` read
    every option of a run from one ``GridConfig``, so their models are
    bitwise equal when the grid is."""

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(53)
        ds = blob_dataset(rng, noise=0.3)
        # unequal sample norms, so that normalize changes the model
        ds.samples = [DenseTensor((1.0 + i % 3) * s.values) for i, s in enumerate(ds.samples)]
        grid = small_grid(ranks=(1, 2), cs=(1.0, 100.0), sigmas=(0.5, 2.0))
        return ds, replace(grid, normalize=True, solver_tol=1e-6)

    @staticmethod
    def assert_same_model(a, b):
        np.testing.assert_array_equal(a.coef, b.coef)
        assert a.bias == b.bias
        assert a.grid_point == b.grid_point

    def test_the_options_change_the_model(self, case):
        ds, grid = case
        model = train_binary(ds, grid)
        assert model.normalize and model.info["solver"]["tol"] == 1e-6
        default = train_binary(ds, replace(grid, normalize=False, solver_tol=1e-3))
        assert not (np.array_equal(model.coef, default.coef) and model.bias == default.bias)

    def test_ovo_pair_model_is_the_binary_model(self, case):
        ds, grid = case
        ovo = train_multiclass_ovo(ds, grid)
        self.assert_same_model(ovo.models[(0, 1)], train_binary(ds, grid))

    def test_rank_sweep_winners_are_the_binary_models(self, case, monkeypatch):
        # each row's model, caught on its way to the test evaluation, is
        # bitwise the model of a training on its rank setting alone
        ds, grid = case
        winners = []
        real_evaluate = pipeline.evaluate

        def recording(model, *args, **kwargs):
            winners.append(model)
            return real_evaluate(model, *args, **kwargs)

        monkeypatch.setattr(pipeline, "evaluate", recording)
        rows = rank_sweep(ds, grid)
        monkeypatch.undo()
        assert len(winners) == len(rows) == 2
        for entry, row, winner in zip(grid.rank_values, rows, winners):
            model = train_binary(ds, replace(grid, rank_values=(entry,)))
            assert winner.coef.tobytes() == model.coef.tobytes()
            assert np.asarray(winner.bias).tobytes() == np.asarray(model.bias).tobytes()
            assert winner.grid_point == model.grid_point
            assert len(winner.support) == len(model.support)
            for sa, sb in zip(winner.support, model.support):
                assert [c.tobytes() for c in sa.cores] == [c.tobytes() for c in sb.cores]
            assert row == {
                "ranks": model.grid_point["ranks"],
                "C": model.grid_point["C"],
                "sigma": model.grid_point["sigma"],
                "validation_accuracy": model.validation_accuracy,
                "test_accuracy": evaluate(model, ds, split="test").accuracy,
                "support_count": len(model.support),
            }


PIPELINE_LAYERS = ("stack_and_decompose", "build_gram", "cross_gram", "solve_dual",
                   "decision_function")


class TestTraceIntegrity:
    """The benchmark's traced run (``perfbench/spans.py::traced_api``) swaps
    wrappers into ``pipeline``'s module globals, and reads the pair count
    of a Gram from ``len()`` of ``build_gram``'s first argument.  Training
    and prediction must reach every layer through those globals, or the
    per-layer metrics read zero without any error."""

    @pytest.fixture
    def seen(self, monkeypatch):
        calls = {name: [] for name in PIPELINE_LAYERS}
        for name, log in calls.items():
            real = getattr(pipeline, name)

            def spy(*args, _real=real, _log=log, **kwargs):
                result = _real(*args, **kwargs)
                _log.append((args, result))
                return result

            monkeypatch.setattr(pipeline, name, spy)
        return calls

    def test_training_and_prediction_reach_every_layer(self, seen):
        ds = blob_dataset(np.random.default_rng(68), noise=0.4)
        model = train_binary(ds, small_grid(ranks=(1, 2), cs=(1.0, 10.0), sigmas=(0.5, 2.0)))
        n_train = ds.counts()["train"]
        assert len(seen["stack_and_decompose"]) == 2
        assert len(seen["build_gram"]) == len(seen["cross_gram"]) == 2 * 2
        assert [len(args[0]) for args, _ in seen["build_gram"]] == [n_train] * 4
        assert len(seen["solve_dual"]) == 2 * 2 * 2
        assert not seen["decision_function"]

        test_s, _ = ds.subset("test")
        for run in (lambda: predict(model, test_s), lambda: evaluate(model, ds),
                    lambda: model.predict(test_s)):
            for log in seen.values():
                log.clear()
            run()
            assert len(seen["decision_function"]) == len(seen["cross_gram"]) == 1
            (_, rows), = seen["cross_gram"]
            assert rows.shape == (len(test_s), len(model.support))
            assert not (seen["build_gram"] or seen["solve_dual"] or seen["stack_and_decompose"])


class TestSolverTablesPerTraining:
    """A training on the benchmark's pair-rbf-prod grid shape (2 ranks, 4
    sigmas, 4 Cs) builds one pair-curvature table per Gram, 8 in all, for
    its 32 solves, and no label-product table; every solution has the bits
    of a solve on a fresh Gram that caches nothing."""

    def test_eight_tables_for_thirty_two_solves(self, monkeypatch):
        tables, label_tables = [], []
        for name, log in (("_pair_curvatures", tables), ("_label_products", label_tables)):
            real = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda *a, _real=real, _log=log:
                                _log.append(1) or _real(*a))
        solves = record_solves(monkeypatch)
        ds = blob_dataset(np.random.default_rng(69), noise=0.6, n_train=8, n_val=6)
        train_binary(ds, small_grid(ranks=(2, 4), cs=(1.0, 10.0, 100.0, 1000.0),
                                    sigmas=(0.5, 1.0, 2.0, 4.0)))
        assert len(solves) == 32
        assert len(tables) == 8 and not label_tables
        assert len({id(p.gram) for p, _, _ in solves}) == 8
        for p, kwargs, got in solves:
            gram = GramMatrix(values=np.array(p.gram.values), spec=p.gram.spec,
                              sample_ids=p.gram.sample_ids)
            want = solver.solve_dual(replace(p, gram=gram), **kwargs)
            assert got.iterations == want.iterations and got.converged == want.converged
            for a, b in ((got.alphas, want.alphas), (got.bias, want.bias),
                         (got.objective, want.objective)):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            q = solver._label_products(p.gram.values, p.labels)
            assert np.asarray(got.objective).tobytes() == np.asarray(
                solver._objective(got.alphas, q)).tobytes()
        assert len(tables) == 8 + 32
