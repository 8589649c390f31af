"""Tensor train construction, decomposition, and contraction."""

import math

import numpy as np
import pytest

from ttkm.tensor import (
    DenseTensor,
    TensorTrain,
    TtSvdConfig,
    conform_interior_ranks,
    fold,
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


class TestUnfold:
    def test_identity_on_matrix_first_split(self):
        t = DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(unfold(t, 1), t.values)

    def test_shape_2x3x4_at_k2(self):
        t = DenseTensor(np.arange(24, dtype=float).reshape(2, 3, 4))
        m = unfold(t, 2)
        assert m.shape == (6, 4)
        back = fold(m, (2, 3, 4), 2)
        np.testing.assert_array_equal(back.values, t.values)

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

    def test_fold_then_unfold_other_split_preserves_entries(self):
        rng = np.random.default_rng(12)
        t = DenseTensor(rng.standard_normal((3, 3, 3)))
        back = fold(unfold(t, 1), t.dims, 1)
        m2 = unfold(back, 2)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert m2[i + 3 * j, k] == t.values[i, j, k]

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

    def test_dims_mismatch_rejected(self):
        a = DenseTensor(np.zeros((2, 2)))
        b = DenseTensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            stack_and_decompose([a, b], TtSvdConfig.fixed((2,)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_and_decompose([], TtSvdConfig.fixed((2,)))


class TestConformInteriorRanks:
    def test_padding_preserves_reconstruction(self):
        rng = np.random.default_rng(81)
        tt = random_tensor_train((3, 4, 3), (2, 2), rng)
        padded = conform_interior_ranks(tt, (4, 5))
        assert padded.interior_ranks == (4, 5)
        np.testing.assert_allclose(
            reconstruct(padded).values, reconstruct(tt).values, atol=1e-14
        )

    def test_noop_when_already_matching(self):
        rng = np.random.default_rng(82)
        tt = random_tensor_train((3, 3), (2,), rng)
        assert conform_interior_ranks(tt, (2,)) is tt

    def test_shrinking_rejected(self):
        rng = np.random.default_rng(83)
        tt = random_tensor_train((3, 3), (3,), rng)
        with pytest.raises(ValueError):
            conform_interior_ranks(tt, (2,))


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
