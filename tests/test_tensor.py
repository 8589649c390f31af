"""Tensor train construction, decomposition, and contraction."""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ttkm.tensor import (
    DenseTensor,
    StackedSamples,
    TensorTrain,
    TrainStack,
    TtSvdConfig,
    _GRAM_TAU,
    _fix_signs,
    _gram_split,
    random_tensor_train,
    reconstruct,
    stack_and_decompose,
    tt_inner_product,
    tt_svd,
    unfold,
)


def rel_err(t, tt):
    return (
        np.linalg.norm(t.values - reconstruct(tt).values)
        / np.linalg.norm(t.values)
    )


class TestDenseTensor:
    def test_flat_round_trip_is_first_index_fastest(self):
        flat = np.arange(24, dtype=float)
        t = DenseTensor.from_flat((2, 3, 4), flat)
        # first index varies fastest in the flat layout
        assert t.values[1, 0, 0] == 1.0
        assert t.values[0, 1, 0] == 2.0
        assert t.values[0, 0, 1] == 6.0
        np.testing.assert_array_equal(t.to_flat(), flat)

    def test_flat_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor.from_flat((2, 3), np.zeros(5))

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor(np.zeros((2, 0, 3)))

    def test_scalar_input_becomes_order_one(self):
        t = DenseTensor(np.float64(3.0))
        assert t.dims == (1,)

    @pytest.mark.parametrize("dims", [(4, 4, 4), (4, 7, 4, 7)])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_rejected(self, dims, bad):
        # one inf used to make tt_svd with a tolerance loop forever
        values = np.random.default_rng(12).standard_normal(dims)
        values[(1,) * len(dims)] = bad
        with pytest.raises(ValueError, match="finite"):
            tt_svd(DenseTensor(values), TtSvdConfig(rel_tol=1e-6))

    def test_tensors_and_trains_carry_no_instance_dict(self):
        # datasets hold thousands of these; slots keep each one small
        t = DenseTensor(np.ones((2, 2)))
        tt = TensorTrain((np.ones((1, 2, 1)),))
        assert not hasattr(t, "__dict__") and not hasattr(tt, "__dict__")
        with pytest.raises(AttributeError):
            t.values = np.zeros((2, 2))
        with pytest.raises(AttributeError):
            tt.cores = ()


class TestUnfold:
    def test_identity_on_matrix_first_split(self):
        t = DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(unfold(t, 1), t.values)

    def test_shape_2x3x4_at_k2(self):
        t = DenseTensor(np.arange(24, dtype=float).reshape(2, 3, 4))
        m = unfold(t, 2)
        assert m.shape == (6, 4)
        # entry (i, j, k) sits at row i + 2 j, column k
        i, j, k = np.meshgrid(range(2), range(3), range(4), indexing="ij")
        np.testing.assert_array_equal(m[i + 2 * j, k], t.values)

    def test_index_arithmetic_oracle(self):
        # row/column positions must follow first-index-fastest linearization
        rng = np.random.default_rng(11)
        t = DenseTensor(rng.standard_normal((3, 4, 5)))
        m1 = unfold(t, 1)
        m2 = unfold(t, 2)
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    assert m1[i, j + 4 * k] == t.values[i, j, k]
                    assert m2[i + 3 * j, k] == t.values[i, j, k]

    def test_unfoldings_at_every_split_share_one_linearization(self):
        # entry (i, j, k) is element i + 3 j + 9 k of every unfolding,
        # read first-index-fastest
        rng = np.random.default_rng(12)
        t = DenseTensor(rng.standard_normal((3, 3, 3)))
        flat = np.array([t.values[i, j, k] for k in range(3) for j in range(3) for i in range(3)])
        for k in (1, 2):
            np.testing.assert_array_equal(unfold(t, k).ravel(order="F"), flat)

    def test_split_out_of_range(self):
        t = DenseTensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            unfold(t, 0)
        with pytest.raises(ValueError):
            unfold(t, 2)


class TestTensorTrainType:
    def test_rank_chain_validation(self):
        good = TensorTrain((np.zeros((1, 2, 3)), np.zeros((3, 2, 1))))
        assert good.ranks == (1, 3, 1)
        assert good.dims == (2, 2)
        with pytest.raises(ValueError):
            TensorTrain((np.zeros((1, 2, 3)), np.zeros((2, 2, 1))))
        with pytest.raises(ValueError):
            TensorTrain((np.zeros((2, 2, 1)),))

    def test_entry_matches_explicit_matrix_product(self):
        rng = np.random.default_rng(21)
        tt = random_tensor_train((3, 4, 2), (2, 3), rng)
        a1, a2, a3 = tt.cores
        got = tt.entry((1, 2, 0))
        want = (a1[:, 1, :] @ a2[:, 2, :] @ a3[:, 0, :]).item()
        assert got == pytest.approx(want, rel=1e-14)


class TestTtSvdConfig:
    def test_requires_some_policy(self):
        with pytest.raises(ValueError):
            TtSvdConfig()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TtSvdConfig(max_ranks=(0, 2))
        with pytest.raises(ValueError):
            TtSvdConfig(rel_tol=0.0)

    def test_rank_count_checked_against_order(self):
        t = DenseTensor(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            tt_svd(t, TtSvdConfig.fixed((2,)))


class TestTtSvd:
    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(31)
        u, v, w = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(6)
        t = DenseTensor(np.einsum("i,j,k->ijk", u, v, w))
        tt = tt_svd(t, TtSvdConfig.tolerance(1e-12))
        assert tt.interior_ranks == (1, 1)
        assert rel_err(t, tt) <= 1e-10

    def test_planted_ranks_recovered_in_tolerance_mode(self):
        rng = np.random.default_rng(32)
        planted = random_tensor_train((4, 4, 4), (3, 3), rng)
        t = reconstruct(planted)
        tt = tt_svd(t, TtSvdConfig.tolerance(1e-12))
        assert all(r <= 3 for r in tt.interior_ranks)
        assert rel_err(t, tt) <= 1e-10

    def test_planted_ranks_recovered_in_fixed_mode(self):
        rng = np.random.default_rng(33)
        planted = random_tensor_train((4, 4, 4), (3, 3), rng)
        t = reconstruct(planted)
        tt = tt_svd(t, TtSvdConfig.fixed((3, 3)))
        assert tt.interior_ranks == (3, 3)
        assert rel_err(t, tt) <= 1e-10

    def test_tolerance_guarantee_random_tensors(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            t = DenseTensor(rng.standard_normal((4, 5, 3, 2)))
            for eps in (1e-1, 1e-4, 1e-8):
                tt = tt_svd(t, TtSvdConfig.tolerance(eps))
                assert rel_err(t, tt) <= eps

    def test_fixed_ranks_clamped_to_achievable(self):
        rng = np.random.default_rng(35)
        t = DenseTensor(rng.standard_normal((3, 3, 3)))
        tt = tt_svd(t, TtSvdConfig.fixed((50, 50)))
        # split 1: min(3, 9) = 3; split 2: min(3*3, 3) = 3
        assert tt.interior_ranks == (3, 3)
        assert rel_err(t, tt) <= 1e-12

    def test_fixed_mode_error_no_better_than_tight_tolerance(self):
        # smooth image-like tensor: truncation at rank 5 must sit above the
        # near-exact tolerance run
        x = np.linspace(-2, 2, 28)
        img = np.exp(-np.add.outer(x**2, x**2)) + 0.1 * np.outer(np.sin(3 * x), np.cos(2 * x))
        t = DenseTensor(DenseTensor(img).to_flat().reshape(4, 7, 4, 7, order="F"))
        fixed = tt_svd(t, TtSvdConfig.fixed((4, 5, 4)))
        tight = tt_svd(t, TtSvdConfig.tolerance(1e-12))
        assert rel_err(t, fixed) >= rel_err(t, tight) - 1e-12
        assert rel_err(t, fixed) <= 0.5

    def test_combined_policy_tolerance_then_clamp(self):
        rng = np.random.default_rng(36)
        t = DenseTensor(rng.standard_normal((6, 6, 6)))
        loose = tt_svd(t, TtSvdConfig(max_ranks=(2, 2), rel_tol=0.9))
        assert all(r <= 2 for r in loose.interior_ranks)
        tight = tt_svd(t, TtSvdConfig(max_ranks=(50, 50), rel_tol=1e-10))
        assert rel_err(t, tight) <= 1e-10

    def test_zero_tensor_gives_zero_train_at_rank_one(self):
        t = DenseTensor(np.zeros((2, 3, 4)))
        tt = tt_svd(t, TtSvdConfig.fixed((3, 3)))
        assert tt.interior_ranks == (1, 1)
        assert all(np.all(c == 0) for c in tt.cores)
        np.testing.assert_array_equal(reconstruct(tt).values, t.values)

    def test_order_one_tensor(self):
        t = DenseTensor(np.array([1.0, -2.0, 3.0]))
        tt = tt_svd(t, TtSvdConfig.tolerance(1e-12))
        assert tt.ranks == (1, 1)
        np.testing.assert_allclose(reconstruct(tt).values, t.values, atol=1e-14)

    def test_interior_ranks_never_exceed_split_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            d = rng.integers(2, 5)
            dims = tuple(int(n) for n in rng.integers(2, 5, size=d))
            t = DenseTensor(rng.standard_normal(dims))
            tt = tt_svd(t, TtSvdConfig.tolerance(1e-8))
            for k, r in enumerate(tt.interior_ranks, start=1):
                assert r <= min(math.prod(dims[:k]), math.prod(dims[k:]))


class TestReconstruct:
    def test_scalar_shaped_train(self):
        cores = (np.full((1, 1, 1), 2.0),) * 3
        t = reconstruct(TensorTrain(cores))
        assert t.dims == (1, 1, 1)
        assert t.values[0, 0, 0] == pytest.approx(8.0)

    def test_matches_entrywise_matrix_products(self):
        rng = np.random.default_rng(41)
        tt = random_tensor_train((2, 3, 4), (2, 2), rng)
        t = reconstruct(tt)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    assert t.values[i, j, k] == pytest.approx(
                        tt.entry((i, j, k)), rel=1e-12, abs=1e-14
                    )

    def test_round_trip_after_tight_tt_svd(self):
        rng = np.random.default_rng(42)
        t = DenseTensor(rng.standard_normal((5, 4, 3)))
        tt = tt_svd(t, TtSvdConfig.tolerance(1e-12))
        assert rel_err(t, tt) <= 1e-10

    def test_zero_cores_give_zero_tensor(self):
        tt = TensorTrain((np.zeros((1, 2, 2)), np.zeros((2, 3, 1))))
        np.testing.assert_array_equal(reconstruct(tt).values, np.zeros((2, 3)))


class TestInnerProduct:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            a = random_tensor_train((4, 3, 4), (3, 2), rng)
            b = random_tensor_train((4, 3, 4), (2, 3), rng)
            want = float(np.sum(reconstruct(a).values * reconstruct(b).values))
            got = tt_inner_product(a, b)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_self_inner_product_is_squared_norm(self):
        rng = np.random.default_rng(52)
        a = random_tensor_train((3, 5, 2), (2, 2), rng)
        n2 = reconstruct(a).norm() ** 2
        assert tt_inner_product(a, a) == pytest.approx(n2, rel=1e-12)
        assert tt_inner_product(a, a) >= 0.0

    def test_zero_train(self):
        rng = np.random.default_rng(53)
        a = random_tensor_train((3, 3), (2,), rng)
        z = tt_svd(DenseTensor(np.zeros((3, 3))), TtSvdConfig.fixed((2,)))
        assert tt_inner_product(a, z) == 0.0

    def test_dims_mismatch_rejected(self):
        rng = np.random.default_rng(54)
        a = random_tensor_train((3, 3), (2,), rng)
        b = random_tensor_train((3, 4), (2,), rng)
        with pytest.raises(ValueError):
            tt_inner_product(a, b)

    def test_order_one(self):
        a = TensorTrain((np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1),))
        b = TensorTrain((np.array([4.0, 5.0, 6.0]).reshape(1, 3, 1),))
        assert tt_inner_product(a, b) == pytest.approx(32.0)


class TestFrobeniusNorm:
    """DenseTensor.norm is the Frobenius norm."""

    def test_known_values(self):
        assert DenseTensor(np.zeros((2, 2))).norm() == 0.0
        assert DenseTensor(np.ones((2, 3, 4))).norm() == pytest.approx(
            math.sqrt(24.0)
        )

    def test_consistent_with_self_inner_product(self):
        rng = np.random.default_rng(61)
        t = DenseTensor(rng.standard_normal((4, 4, 4)))
        tt = tt_svd(t, TtSvdConfig.tolerance(1e-12))
        assert t.norm() == pytest.approx(
            math.sqrt(tt_inner_product(tt, tt)), rel=1e-10
        )


class TestStackAndDecompose:
    def test_single_sample_reduces_to_plain_decomposition(self):
        rng = np.random.default_rng(71)
        t = DenseTensor(rng.standard_normal((4, 4, 4)))
        (tt,) = stack_and_decompose([t], TtSvdConfig.tolerance(1e-10))
        assert rel_err(t, tt) <= 1e-10

    def test_identical_copies_share_reconstruction(self):
        rng = np.random.default_rng(72)
        t = DenseTensor(rng.standard_normal((3, 4, 5)))
        tts = stack_and_decompose([t, t, t], TtSvdConfig.tolerance(1e-10))
        for tt in tts:
            assert rel_err(t, tt) <= 1e-8

    def test_shared_rank_chain_and_accuracy(self):
        rng = np.random.default_rng(73)
        samples = [DenseTensor(rng.standard_normal((3, 4, 2))) for _ in range(4)]
        tts = stack_and_decompose(samples, TtSvdConfig.tolerance(1e-10))
        chains = {tt.ranks for tt in tts}
        assert len(chains) == 1
        for s, tt in zip(samples, tts):
            assert rel_err(s, tt) <= 1e-8

    def test_tail_cores_are_shared_objects(self):
        rng = np.random.default_rng(74)
        samples = [DenseTensor(rng.standard_normal((3, 3, 3))) for _ in range(3)]
        tts = stack_and_decompose(samples, TtSvdConfig.fixed((2, 2)))
        for k in range(1, 3):
            assert all(tt.cores[k] is tts[0].cores[k] for tt in tts)

    def test_fixed_ranks_apply_to_sample_splits_only(self):
        rng = np.random.default_rng(75)
        samples = [DenseTensor(rng.standard_normal((4, 4))) for _ in range(6)]
        tts = stack_and_decompose(samples, TtSvdConfig.fixed((3,)))
        assert all(tt.interior_ranks == (3,) for tt in tts)

    @pytest.mark.parametrize("cfg", [
        TtSvdConfig.fixed((3, 2)),
        TtSvdConfig.tolerance(0.2),
        TtSvdConfig(max_ranks=(2, 3), rel_tol=0.05),
    ])
    def test_cores_equal_stacked_reference_bit_for_bit(self, cfg):
        rng = np.random.default_rng(76)
        samples = [DenseTensor(rng.standard_normal((3, 4, 5))) for _ in range(9)]
        got = stack_and_decompose(samples, cfg)
        # reference: a C-ordered stack with the sample and first modes
        # merged (sample fastest), one tt_svd, and the first core cut per
        # sample
        stacked = np.stack([s.values for s in samples], axis=0)
        merged = DenseTensor(stacked.reshape((27, 4, 5), order="F"))
        joint = tt_svd(merged, cfg)
        lead = joint.cores[0].reshape(9, 3, -1, order="F")
        for i, tt in enumerate(got):
            want = (lead[i:i + 1],) + joint.cores[1:]
            assert len(tt.cores) == len(want)
            for a, b in zip(tt.cores, want):
                assert np.array_equal(a, b)

    def test_dims_mismatch_rejected(self):
        a = DenseTensor(np.zeros((2, 2)))
        b = DenseTensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            stack_and_decompose([a, b], TtSvdConfig.fixed((2,)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_and_decompose([], TtSvdConfig.fixed((2,)))


class TestRandomizedInvariants:
    def test_tt_svd_outputs_are_valid_trains(self):
        rng = np.random.default_rng(91)
        for _ in range(30):
            d = int(rng.integers(1, 5))
            dims = tuple(int(n) for n in rng.integers(2, 5, size=d))
            t = DenseTensor(rng.standard_normal(dims))
            if d == 1 or rng.random() < 0.5:
                cfg = TtSvdConfig.tolerance(10.0 ** -rng.integers(1, 10))
            else:
                cfg = TtSvdConfig.fixed(tuple(int(r) for r in rng.integers(1, 4, size=d - 1)))
            tt = tt_svd(t, cfg)
            assert tt.dims == dims
            assert tt.ranks[0] == tt.ranks[-1] == 1
            if cfg.rel_tol is not None:
                assert rel_err(t, tt) <= cfg.rel_tol


def reference_signs(u, vt):
    """The sign rule, written plainly: each ``u`` column's first entry of
    largest magnitude is made positive, with its ``vt`` row."""
    rows = np.argmax(np.abs(u), axis=0)
    signs = np.where(u[rows, np.arange(u.shape[1])] < 0, -1.0, 1.0)
    return u * signs, vt * signs[:, None]


def reference_gram_split(a):
    """The leading thin-SVD terms of a tall ``a`` from its Gram's
    eigenproblem, written plainly: eigenpairs of ``a^T a`` in descending
    order, those above ``_GRAM_TAU**2`` times the largest kept, ``s``
    their square roots, ``u = a V / s``."""
    w, v = np.linalg.eigh(a.T @ a)
    w, v = w[::-1], v[:, ::-1]
    keep = w > _GRAM_TAU ** 2 * w[0]
    s = np.sqrt(w[keep])
    v = np.ascontiguousarray(v[:, keep])
    return a @ v / s, s, v.T


def reference_tt_svd(t, cfg, gram=True):
    """The TT-SVD sweep as it was before split SVDs were shared, with the
    sign rule: it keeps the tensor to the end and scales ``vt`` in place.
    Under fixed ranks a tall first split of at least 32 columns is
    factored by ``reference_gram_split`` when that keeps at least the
    first rank's count of terms (with ``gram``; without, every split takes
    the SVD).  The shared sweep must match it bit for bit."""
    dims, d = t.dims, t.order
    nrm = t.norm()
    if nrm == 0.0:
        return [np.zeros((1, n, 1)) for n in dims]
    delta = None
    if cfg.rel_tol is not None and d > 1:
        delta = cfg.rel_tol * nrm / math.sqrt(d - 1)
    cores, c, r_prev = [], t.values, 1
    for k in range(d - 1):
        a = c.reshape(r_prev * dims[k], -1, order="F")
        factors = None
        if gram and k == 0 and cfg.rel_tol is None and a.shape[0] >= a.shape[1] >= 32:
            factors = reference_gram_split(a)
            if len(factors[1]) < cfg.max_ranks[0]:
                factors = None
        if factors is None:
            factors = np.linalg.svd(a, full_matrices=False)
        u, s, vt = factors
        u, vt = reference_signs(u, vt)
        r = len(s)
        if delta is not None:
            tail = np.concatenate([np.cumsum((s * s)[::-1])[::-1], [0.0]])
            keep = np.nonzero(tail <= delta * delta)[0]
            r = int(keep[0]) if keep.size else len(s)
        if cfg.max_ranks is not None:
            r = min(r, cfg.max_ranks[k])
        r = max(1, min(r, len(s)))
        cores.append(u[:, :r].reshape(r_prev, dims[k], r, order="F"))
        c = vt[:r]
        c *= s[:r, None]
        r_prev = r
    cores.append(c.reshape(r_prev, dims[-1], 1, order="F"))
    return cores


def fortran_stack(samples):
    """The (M, I_1, ..., I_d) stack of ``samples`` in Fortran order."""
    stacked = np.empty((len(samples),) + samples[0].dims, order="F")
    for i, s in enumerate(samples):
        stacked[i] = s.values
    return stacked


def merged_stack(samples):
    """The samples' Fortran-ordered stack with its sample and first modes
    merged, sample index fastest, as ``StackedSamples`` lays it out."""
    stacked = fortran_stack(samples)
    return stacked.reshape((stacked.shape[0] * stacked.shape[1],) + stacked.shape[2:],
                           order="F")


def reference_stack_and_decompose(samples, cfg, gram=True):
    """The joint decomposition, written plainly: the sample and first modes
    of a fresh Fortran-ordered stack merged, ``reference_tt_svd``, and the
    first core cut per sample.  ``stack_and_decompose`` must match it bit
    for bit."""
    joint = reference_tt_svd(DenseTensor(merged_stack(samples)), cfg, gram)
    lead = joint[0].reshape(len(samples), samples[0].dims[0], -1, order="F")
    return [(lead[i:i + 1],) + tuple(joint[1:]) for i in range(len(samples))]


def sample_mode_stack_and_decompose(samples, cfg):
    """The former joint decomposition, kept as an oracle of the trains'
    values: the samples on a new leading mode, TT-SVD over d+1 modes with
    that mode never truncated under fixed ranks, and one ``einsum`` per
    sample to absorb its row of the leading core.  It differs from
    ``stack_and_decompose`` only in the gauge of the cores."""
    stacked = fortran_stack(samples)
    if cfg.max_ranks is not None:
        cfg = TtSvdConfig(max_ranks=(stacked.size,) + cfg.max_ranks, rel_tol=cfg.rel_tol)
    joint = reference_tt_svd(DenseTensor(stacked), cfg)
    out = []
    for i in range(len(samples)):
        first = np.einsum("r,ris->is", joint[0][0, i, :], joint[1])[None, :, :]
        out.append(TensorTrain((first,) + tuple(joint[2:])))
    return out


def assert_same_trains(got, want):
    assert len(got) == len(want)
    for tt, cores in zip(got, want):
        cores = cores.cores if isinstance(cores, TensorTrain) else cores
        assert len(tt.cores) == len(cores)
        for a, b in zip(tt.cores, cores):
            assert a.shape == b.shape
            assert np.array_equal(a, b)


def benchmark_corpus(train_per_class, val_per_class):
    """The benchmark's fixed training and validation corpus (4x7x4x7)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"
    loader = importlib.util.spec_from_file_location("perfbench_synth", path)
    synth = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(synth)
    corpus = np.random.default_rng(0)
    train, _ = synth.split(corpus, train_per_class)
    validation, _ = synth.split(corpus, val_per_class)
    return [DenseTensor(x) for x in np.concatenate([train, validation])]


# tracemalloc peak of one plain-list stack_and_decompose of the
# predict-stream corpus at ranks 4, with the sweep that kept the stack to
# the end and scaled vt in place (under pytest, numpy 2.4)
UNSHARED_SWEEP_PEAK_BYTES = 4_398_320
# tracemalloc peak of tt_svd of a C-ordered (200,4,7,4,7) tensor at ranks
# (200,4,4,4) with that same sweep, before split SVDs were cached (under
# pytest, numpy 2.4); a cache that kept each split's vt to the end of the
# sweep peaked at 4,397,147 B
UNCACHED_TT_SVD_PEAK_BYTES = 3_141_864
# tracemalloc peak of a StackedSamples of the predict-stream corpus and
# its stack_and_decompose at ranks (2,2,2) then (4,4,4), with the split
# cache that kept every split a holder factored (under pytest, numpy 2.4)
SPLIT_CACHE_HOLDER_PEAK_BYTES = 2_889_868


SHARED_SWEEP_CONFIGS = (
    TtSvdConfig.fixed((2, 2, 2)),
    TtSvdConfig.fixed((4, 4, 4)),
    TtSvdConfig.fixed((2, 4, 2)),
    TtSvdConfig.fixed((2, 2, 2)),
    TtSvdConfig.tolerance(0.3),
    TtSvdConfig(max_ranks=(3, 2, 2), rel_tol=0.1),
)


def random_samples(seed, m=9, dims=(3, 4, 2, 5)):
    rng = np.random.default_rng(seed)
    return [DenseTensor(rng.standard_normal(dims)) for _ in range(m)]


def count_factorizations(monkeypatch):
    """A list that records ``"svd"`` or ``"eigh"`` for every call of
    ``np.linalg.svd`` or ``np.linalg.eigh``, in order."""
    calls = []
    for name in ("svd", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    return calls


class TestSharedSweep:
    """One ``StackedSamples`` decomposed at many settings gives what a fresh
    plain-list decomposition gives, bit for bit, from fewer SVDs."""

    def test_one_holder_through_many_settings(self):
        samples = random_samples(81)
        stack = StackedSamples(samples)
        for cfg in SHARED_SWEEP_CONFIGS:
            got = stack_and_decompose(stack, cfg)
            assert_same_trains(got, stack_and_decompose(samples, cfg))
            assert_same_trains(got, reference_stack_and_decompose(samples, cfg))

    @pytest.mark.parametrize("case", ["zeros", "one sample", "order 2", "order 1"])
    def test_edge_cases(self, case):
        rng = np.random.default_rng(82)
        if case == "zeros":
            samples = [DenseTensor(np.zeros((3, 4, 2, 5))) for _ in range(4)]
        elif case == "one sample":
            samples = random_samples(83, m=1)
        elif case == "order 2":
            samples = [DenseTensor(rng.standard_normal((4, 6))) for _ in range(7)]
        else:
            samples = [DenseTensor(rng.standard_normal(5)) for _ in range(3)]
        d = samples[0].order
        configs = [TtSvdConfig(max_ranks=(r,) * (d - 1)) for r in (2, 4, 2)]
        configs += [TtSvdConfig.tolerance(0.3), TtSvdConfig(max_ranks=(3,) * (d - 1),
                                                            rel_tol=0.1)]
        stack = StackedSamples(samples)
        for cfg in configs:
            got = stack_and_decompose(stack, cfg)
            assert_same_trains(got, stack_and_decompose(samples, cfg))
            assert_same_trains(got, reference_stack_and_decompose(samples, cfg))

    def test_tt_svd_matches_the_reference_sweep(self):
        rng = np.random.default_rng(84)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            dims = tuple(int(n) for n in rng.integers(1, 5, size=d))
            t = DenseTensor(rng.standard_normal(dims))
            caps = tuple(int(r) for r in rng.integers(1, 4, size=d - 1))
            rel_tol = float(rng.choice([0.5, 0.1, 1e-8]))
            for cfg in (TtSvdConfig(max_ranks=caps), TtSvdConfig(rel_tol=rel_tol),
                        TtSvdConfig(max_ranks=caps, rel_tol=rel_tol)):
                assert_same_trains([tt_svd(t, cfg)], [reference_tt_svd(t, cfg)])

    @pytest.mark.parametrize("name, per_class", [("pair-rbf-prod", (30, 20)),
                                                 ("predict-stream", (60, 40))])
    def test_benchmark_corpora_match_the_reference(self, name, per_class, monkeypatch):
        # the first split of both corpora takes the Gram route: the
        # reference forms it from the eigenpairs of its Gram, written plainly
        samples = benchmark_corpus(*per_class)
        configs = [TtSvdConfig.fixed(ranks) for ranks in ((2, 2, 2), (4, 4, 4), (2, 2, 2))]
        wants = [reference_stack_and_decompose(samples, cfg) for cfg in configs]
        calls = count_factorizations(monkeypatch)
        stack = StackedSamples(samples)
        for cfg, want in zip(configs, wants):
            assert_same_trains(stack_and_decompose(stack, cfg), want)
        # the holder's first split from one eigh; two later SVDs per call
        assert calls == ["eigh"] + ["svd"] * 6

    def test_first_split_factored_once_per_holder(self, monkeypatch):
        samples = random_samples(85)
        calls = count_factorizations(monkeypatch)
        stack = StackedSamples(samples)
        seen = 0
        # (factorizations, cfg): the first split, of the merged sample and
        # first modes (27 x 40, so by the SVD), is factored by the first
        # call only; every call factors its two later splits
        for new, cfg in ((3, TtSvdConfig.fixed((2, 2, 2))),
                         (2, TtSvdConfig.fixed((4, 4, 4))),
                         (2, TtSvdConfig.fixed((2, 4, 2))),
                         (2, TtSvdConfig.fixed((2, 2, 2))),
                         (2, TtSvdConfig.fixed((4, 4, 4)))):
            stack_and_decompose(stack, cfg)
            seen += new
            assert len(calls) == seen
        stack_and_decompose(samples, TtSvdConfig.fixed((2, 2, 2)))
        assert len(calls) == seen + 3  # a plain list shares nothing

    def test_cached_svds_are_read_only(self):
        samples = random_samples(86)
        cfg = TtSvdConfig.fixed((2, 2, 2))
        stack = StackedSamples(samples)
        tts = stack_and_decompose(stack, cfg)
        (first,) = stack._firsts.values()
        for a in first:
            with pytest.raises(ValueError):
                a[...] = 0.0
        # the returned cores are the caller's: writing them changes no
        # later result of the holder
        for core in tts.lead + tts.tail:
            core[...] = 0.0
        assert_same_trains(stack_and_decompose(stack, cfg), stack_and_decompose(samples, cfg))

    def test_peak_memory_not_above_the_unshared_sweep(self):
        # the fresh holder keeps the stack and the first split to the end
        # of the call, and each later split is freed once the next is formed
        samples = benchmark_corpus(60, 40)
        cfg = TtSvdConfig.fixed((4, 4, 4))
        tracemalloc.start()
        try:
            stack_and_decompose(samples, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= UNSHARED_SWEEP_PEAK_BYTES

    def test_holder_peak_memory_not_above_the_split_cache(self):
        # the holder keeps the stack and its first split; each call frees
        # its later splits as it goes
        samples = benchmark_corpus(60, 40)
        tracemalloc.start()
        try:
            stack = StackedSamples(samples)
            for r in (2, 4):
                stack_and_decompose(stack, TtSvdConfig.fixed((r, r, r)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= SPLIT_CACHE_HOLDER_PEAK_BYTES

    def test_tt_svd_peak_memory_not_above_the_uncached_sweep(self):
        # tt_svd keeps nothing between calls: each split's SVD is freed
        # once the next split's matrix is formed from it
        t = DenseTensor(np.random.default_rng(0).standard_normal((200, 4, 7, 4, 7)))
        cfg = TtSvdConfig.fixed((200, 4, 4, 4))
        tracemalloc.start()
        try:
            tt = tt_svd(t, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_trains([tt], [reference_tt_svd(t, cfg)])
        assert peak <= UNCACHED_TT_SVD_PEAK_BYTES


def assert_signs_fixed(u):
    """Every column's first entry of largest magnitude is positive."""
    rows = np.argmax(np.abs(u), axis=0)
    assert np.all(u[rows, np.arange(u.shape[1])] > 0)


class TestMergedRoute:
    """``stack_and_decompose`` merges the sample mode into the first mode:
    the trains it returns hold the values the former sample-mode route
    gave, in a gauge the sign rule fixes."""

    def assert_same_values(self, samples, cfg):
        got = stack_and_decompose(samples, cfg)
        want = sample_mode_stack_and_decompose(samples, cfg)
        scale = max(float(np.max(np.abs(s.values))) for s in samples)
        for a, b in zip(got, want):
            assert a.ranks == b.ranks
            diff = np.max(np.abs(reconstruct(a).values - reconstruct(b).values))
            assert diff <= 1e-12 * scale

    @pytest.mark.parametrize("name, per_class", [("pair-rbf-prod", (30, 20)),
                                                 ("predict-stream", (60, 40))])
    def test_benchmark_corpora_keep_their_values(self, name, per_class):
        samples = benchmark_corpus(*per_class)
        for ranks in ((2, 2, 2), (4, 4, 4), (2, 4, 2)):
            self.assert_same_values(samples, TtSvdConfig.fixed(ranks))

    @pytest.mark.parametrize("case", ["one sample", "order 2", "order 1", "clamped"])
    def test_edge_cases_keep_their_values(self, case):
        rng = np.random.default_rng(87)
        ranks = 2
        if case == "one sample":
            samples = random_samples(88, m=1)
        elif case == "order 2":
            samples = [DenseTensor(rng.standard_normal((4, 6))) for _ in range(7)]
        elif case == "order 1":
            samples = [DenseTensor(rng.standard_normal(5)) for _ in range(3)]
        else:
            # rank 50 is clamped at every split: 27, 10 and 5 are achievable
            samples, ranks = random_samples(89), 50
        d = samples[0].order
        self.assert_same_values(samples, TtSvdConfig.fixed((ranks,) * (d - 1)))

    def test_cores_do_not_depend_on_lapack_signs(self, monkeypatch):
        samples = random_samples(90)
        t = DenseTensor(np.random.default_rng(91).standard_normal((5, 4, 6, 3)))
        configs = (TtSvdConfig.fixed((2, 2, 2)), TtSvdConfig.fixed((4, 3, 2)),
                   TtSvdConfig.tolerance(0.3))
        plain = [(stack_and_decompose(samples, cfg), tt_svd(t, cfg)) for cfg in configs]

        svd = np.linalg.svd
        rng = np.random.default_rng(92)
        flipped, kept = [], []

        def negating_svd(*args, **kwargs):
            u, s, vt = svd(*args, **kwargs)
            cols = rng.random(len(s)) < 0.5
            u[:, cols] *= -1.0
            vt[cols] *= -1.0
            flipped.append(int(cols.sum()))
            kept.append(u)
            return u, s, vt

        monkeypatch.setattr(np.linalg, "svd", negating_svd)
        for cfg, (stacked, single) in zip(configs, plain):
            assert_same_trains(stack_and_decompose(samples, cfg), [tt.cores for tt in stacked])
            assert_same_trains([tt_svd(t, cfg)], [single])
        assert sum(flipped) > 0
        for u in kept:
            assert_signs_fixed(u)

    def test_sign_ties_go_to_the_first_row(self):
        # column 0 ties -0.6 against 0.6 and column 2 ties 0.5 against
        # -0.5: the first of the tied rows is made positive; column 1's
        # largest entry is already positive
        u = np.array([[-0.6, 0.1, 0.5],
                      [0.6, 0.8, -0.5],
                      [0.2, -0.3, 0.1]])
        vt = np.arange(6.0).reshape(3, 2)
        _fix_signs(u, vt)
        np.testing.assert_array_equal(u, [[0.6, 0.1, 0.5],
                                          [-0.6, 0.8, -0.5],
                                          [-0.2, -0.3, 0.1]])
        np.testing.assert_array_equal(vt, [[-0.0, -1.0], [2.0, 3.0], [4.0, 5.0]])

    def test_first_cores_share_no_memory_with_the_cache(self):
        stack = StackedSamples(random_samples(93))
        tts = stack_and_decompose(stack, TtSvdConfig.fixed((2, 2, 2)))
        cached = [a for split in stack._firsts.values() for a in split]
        assert cached
        # neither the first cores, copied out of the holder's first split,
        # nor the trailing cores, the sweep's own, share its memory
        for tt in tts:
            assert not any(np.shares_memory(core, a) for core in tt.cores for a in cached)

    @pytest.mark.parametrize("rel_tol", [0.5, 0.2, 0.05, 1e-6])
    def test_tolerance_stack_meets_its_error_bound(self, rel_tol):
        samples = random_samples(94, m=12)
        tts = stack_and_decompose(samples, TtSvdConfig.tolerance(rel_tol))
        err = math.sqrt(sum(np.sum((s.values - reconstruct(tt).values) ** 2)
                            for s, tt in zip(samples, tts)))
        total = math.sqrt(sum(np.sum(s.values ** 2) for s in samples))
        assert err <= rel_tol * total
        assert len({tt.ranks for tt in tts}) == 1


EPS = np.finfo(float).eps


def gram_route_cases():
    """Tall first-split unfoldings: both benchmark corpora and random
    Gaussian stacks, each at least 32 columns wide."""
    cases = [merged_stack(benchmark_corpus(30, 20)), merged_stack(benchmark_corpus(60, 40))]
    cases += [merged_stack(random_samples(seed, m=40)) for seed in (96, 97, 98)]
    return [t.reshape(t.shape[0], -1, order="F") for t in cases]


class TestGramRoute:
    """Under fixed ranks a tall first split of at least 32 columns is
    factored from its Gram's eigenproblem when the Gram keeps as many
    well-conditioned terms as the first rank asks for.  ``np.linalg.svd``
    is its oracle; every other split keeps the SVD."""

    @pytest.mark.parametrize("a", gram_route_cases(),
                             ids=["pair-rbf-prod", "predict-stream", "random-96",
                                  "random-97", "random-98"])
    def test_factors_agree_with_the_svd(self, a):
        u, s, vt = _gram_split(a)
        want = np.linalg.svd(a, full_matrices=False)
        rows, cols = a.shape
        assert u.shape == (rows, cols) and s.shape == vt.shape[:1] == (cols,)
        # squared singular values within the rounding of forming and
        # diagonalising the Gram
        assert np.max(np.abs(s ** 2 - want.S ** 2)) <= cols * EPS * want.S[0] ** 2
        scale = np.max(np.abs(a))
        assert np.max(np.abs((u * s) @ vt - a)) <= cols * EPS * scale
        # every column orthonormal to within the conditioning it was let in at
        gap = np.max(np.abs(u.T @ u - np.eye(cols)))
        assert gap <= cols * EPS * (s[0] / s[-1]) ** 2
        # the leading terms a fixed rank keeps reconstruct as the SVD's do
        for r in (2, 4, 8):
            got = (u[:, :r] * s[:r]) @ vt[:r]
            ref = (want.U[:, :r] * want.S[:r]) @ want.Vh[:r]
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("name, per_class", [("pair-rbf-prod", (30, 20)),
                                                 ("predict-stream", (60, 40))])
    def test_trains_reconstruct_as_the_svd_route_does(self, name, per_class):
        samples = benchmark_corpus(*per_class)
        scale = max(float(np.max(np.abs(s.values))) for s in samples)
        for ranks in ((2, 2, 2), (4, 4, 4), (8, 4, 2)):
            cfg = TtSvdConfig.fixed(ranks)
            got = stack_and_decompose(samples, cfg)
            want = reference_stack_and_decompose(samples, cfg, gram=False)
            for tt, cores in zip(got, want):
                diff = reconstruct(tt).values - reconstruct(TensorTrain(cores)).values
                assert np.max(np.abs(diff)) <= 1e-12 * scale

    @pytest.mark.parametrize("order", [(4, 2), (2, 4)])
    def test_holder_serving_two_ranks_matches_fresh_lists(self, order):
        # every column of u is formed at once, so a rank-2 setting read
        # before or after a rank-4 one gets the bits a fresh list gets
        samples = benchmark_corpus(30, 20)
        stack = StackedSamples(samples)
        for r in order:
            cfg = TtSvdConfig.fixed((r, r, r))
            assert_same_trains(stack_and_decompose(stack, cfg),
                               stack_and_decompose(samples, cfg))

    def test_holder_serving_both_modes_matches_fresh_lists(self, monkeypatch):
        samples = benchmark_corpus(30, 20)
        configs = (TtSvdConfig.fixed((4, 4, 4)), TtSvdConfig.tolerance(0.3),
                   TtSvdConfig.fixed((2, 2, 2)), TtSvdConfig(max_ranks=(4, 4, 4), rel_tol=0.1))
        wants = [(stack_and_decompose(samples, cfg), reference_stack_and_decompose(samples, cfg))
                 for cfg in configs]
        calls = count_factorizations(monkeypatch)
        stack = StackedSamples(samples)
        for cfg, (fresh, reference) in zip(configs, wants):
            got = stack_and_decompose(stack, cfg)
            assert_same_trains(got, fresh)
            assert_same_trains(got, reference)
        # the first split is factored once per route: the Gram's
        # eigenproblem for both fixed settings, one SVD for both tolerance
        # ones
        assert calls[:3] == ["eigh", "svd", "svd"] and calls.count("eigh") == 1

    def test_tolerance_mode_keeps_the_svd(self, monkeypatch):
        samples = benchmark_corpus(30, 20)
        t = DenseTensor(merged_stack(samples))
        calls = count_factorizations(monkeypatch)
        for cfg in (TtSvdConfig.tolerance(0.3), TtSvdConfig.tolerance(1e-3),
                    TtSvdConfig(max_ranks=(4, 4, 4), rel_tol=0.1)):
            assert_same_trains(stack_and_decompose(samples, cfg),
                               reference_stack_and_decompose(samples, cfg, gram=False))
            assert_same_trains([tt_svd(t, cfg)], [reference_tt_svd(t, cfg, gram=False)])
        assert "eigh" not in calls

    @pytest.mark.parametrize("case", ["zero pixels", "duplicated samples"])
    def test_rank_deficient_stack_keeps_the_gram_route(self, case, monkeypatch):
        samples = benchmark_corpus(30, 20)
        if case == "zero pixels":
            # a 4-pixel border is zero in every image, as in MNIST: 56 of
            # the first split's 196 columns are zero, and more are zero
            # in some rows
            for s in samples:
                img = s.values.reshape(28, 28)
                img[:4] = img[-4:] = img[:, :4] = img[:, -4:] = 0.0
        else:
            # 20 rows of 5 distinct samples span less than 196 columns
            samples = samples[:5] * 20
        a = merged_stack(samples).reshape(4 * len(samples), -1, order="F")
        want = np.linalg.svd(a, full_matrices=False)
        calls = count_factorizations(monkeypatch)
        u, s, vt = _gram_split(a)
        # only the singular values above _GRAM_TAU of the largest are kept,
        # and they agree with the SVD's
        assert len(s) == np.count_nonzero(want.S > _GRAM_TAU * want.S[0]) < a.shape[1]
        assert np.max(np.abs(s ** 2 - want.S[:len(s)] ** 2)) <= a.shape[1] * EPS * want.S[0] ** 2
        assert np.max(np.abs(u.T @ u - np.eye(len(s)))) <= a.shape[1] * EPS / _GRAM_TAU ** 2
        cfg = TtSvdConfig.fixed((4, 4, 4))
        got = stack_and_decompose(samples, cfg)
        # the first split takes no SVD; the two later splits do
        assert calls == ["eigh", "eigh", "svd", "svd"]
        assert_same_trains(got, reference_stack_and_decompose(samples, cfg))
        scale = np.max(np.abs(a))
        for tt, cores in zip(got, reference_stack_and_decompose(samples, cfg, gram=False)):
            diff = reconstruct(tt).values - reconstruct(TensorTrain(cores)).values
            assert np.max(np.abs(diff)) <= 1e-12 * scale

    @staticmethod
    def five_term_samples():
        """40 samples whose first split (80 x 64) has rank 5: the Gram keeps
        5 terms."""
        rng = np.random.default_rng(100)
        x = np.zeros((40, 2, 8, 8))
        x.reshape(40, 2, 64)[:, :, :5] = rng.standard_normal((40, 2, 5))
        return [DenseTensor(v) for v in x]

    def test_first_rank_beyond_the_gram_takes_the_svd(self, monkeypatch):
        samples = self.five_term_samples()
        calls = count_factorizations(monkeypatch)
        for r, route in ((5, ["eigh", "svd"]), (6, ["eigh", "svd", "svd"])):
            calls.clear()
            cfg = TtSvdConfig.fixed((r, 2))
            got = stack_and_decompose(samples, cfg)
            assert calls == route
            assert_same_trains(got, reference_stack_and_decompose(samples, cfg))
        # the reference takes the SVD at rank 6 too
        cfg = TtSvdConfig.fixed((6, 2))
        assert_same_trains(stack_and_decompose(samples, cfg),
                           reference_stack_and_decompose(samples, cfg, gram=False))

    @pytest.mark.parametrize("order", [(2, 8, 2), (8, 2, 8)])
    def test_holder_serving_both_routes_matches_fresh_lists(self, order, monkeypatch):
        samples = self.five_term_samples()
        fresh = {r: stack_and_decompose(samples, TtSvdConfig.fixed((r, 2))) for r in order}
        calls = count_factorizations(monkeypatch)
        stack = StackedSamples(samples)
        for r in order:
            assert_same_trains(stack_and_decompose(stack, TtSvdConfig.fixed((r, 2))), fresh[r])
        # the first split is factored once by each route, and every call
        # factors its later split
        assert calls.count("eigh") == 1 and calls.count("svd") == 4

    @pytest.mark.parametrize("dims, route", [((2, 31), "svd"), ((2, 32), "gram"),
                                             ((2, 4, 8), "gram"), ((1, 40), "svd")])
    def test_narrow_or_wide_splits_take_the_svd(self, dims, route, monkeypatch):
        # 20 samples: 40 rows (20 for dims (1, 40), wider than tall)
        samples = [DenseTensor(x) for x in
                   np.random.default_rng(99).standard_normal((20,) + dims)]
        calls = count_factorizations(monkeypatch)
        cfg = TtSvdConfig.fixed((2,) * (len(dims) - 1))
        got = stack_and_decompose(samples, cfg)
        assert ("eigh" in calls) == (route == "gram")
        assert_same_trains(got, reference_stack_and_decompose(samples, cfg,
                                                              gram=route == "gram"))


class TestTrainStack:
    """A ``TrainStack`` reads as the list of its trains: indexing gives a
    ``TensorTrain``, slicing a stack of views, and out-of-range indices fail
    as a list's do."""

    @pytest.fixture(scope="class")
    def stack(self):
        return stack_and_decompose(random_samples(95, m=7), TtSvdConfig.fixed((2, 3, 2)))

    def test_indexing_and_slicing_behave_as_a_list(self, stack):
        trains = list(stack)
        assert len(stack) == len(trains) == 7
        assert all(isinstance(tt, TensorTrain) for tt in trains)
        for i in (0, 3, 6, -1, -7, np.int64(2)):
            assert_same_trains([stack[i]], [trains[i]])
        for sl in (slice(2, 5), slice(-3, None), slice(None, None, 2),
                   slice(None, None, -1), slice(5, 2), slice(100, 200), slice(0, 0)):
            got = stack[sl]
            assert isinstance(got, TrainStack)
            assert len(got) == len(trains[sl])
            assert_same_trains(got, trains[sl])
        for i in (7, -8, 100):
            with pytest.raises(IndexError):
                trains[i]
            with pytest.raises(IndexError):
                stack[i]
        with pytest.raises(TypeError):
            stack["1"]

    def test_views_of_one_first_core_array_over_one_tail(self, stack):
        (first,) = stack.lead
        assert first.shape == (7, 1, 3, 2)
        assert stack.dims == (3, 4, 2, 5) and stack.ranks == (1, 2, 3, 2, 1)
        assert stack.interior_ranks == stack[0].interior_ranks == (2, 3, 2)
        part = stack[2:5]
        assert np.shares_memory(part.lead[0], first)
        assert all(a is b for a, b in zip(part.tail, stack.tail))
        tt = stack[4]
        assert np.shares_memory(tt.cores[0], first)
        assert all(a is b for a, b in zip(tt.cores[1:], stack.tail))
        assert tt.ranks == stack.ranks and tt.dims == stack.dims

    def test_shapes_checked_when_built(self):
        with pytest.raises(ValueError, match="leading core"):
            TrainStack(())
        with pytest.raises(ValueError, match="leading core 1"):
            TrainStack((np.zeros((3, 1, 4, 2)), np.zeros((2, 2, 5, 1))))
        with pytest.raises(ValueError, match="leading core 0"):
            TrainStack((np.zeros((3, 4, 2)),), (np.zeros((2, 5, 1)),))
        with pytest.raises(ValueError, match="rank mismatch"):
            TrainStack((np.zeros((3, 1, 4, 2)),), (np.zeros((3, 5, 1)),))
        with pytest.raises(ValueError, match="boundary"):
            TrainStack((np.zeros((3, 2, 4, 2)),), (np.zeros((2, 5, 1)),))
        with pytest.raises(ValueError, match="zero dimension"):
            TrainStack((np.zeros((3, 1, 0, 2)),), (np.zeros((2, 5, 1)),))
        empty = TrainStack((np.zeros((0, 1, 4, 2)),), (np.zeros((2, 5, 1)),))
        assert len(empty) == 0 and list(empty) == [] and empty.dims == (4, 5)

    def test_order_one(self):
        samples = [DenseTensor(np.arange(5.0) + i) for i in range(3)]
        stack = stack_and_decompose(samples, TtSvdConfig.fixed(()))
        assert stack.tail == () and stack.ranks == (1, 1) and stack.interior_ranks == ()
        for tt, s in zip(stack, samples):
            np.testing.assert_array_equal(reconstruct(tt).values, s.values)
