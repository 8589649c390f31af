"""TT kernels: base kernels, naive reference, fast evaluators, Gram assembly."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ttkm import kernels
from ttkm.errors import CapacityError
from ttkm.kernels import (
    GramMatrix,
    KernelSpec,
    LinearKernel,
    PolynomialKernel,
    RbfKernel,
    base_kernel_eval,
    build_gram,
    cross_gram,
    kernel_from_dict,
    kernel_to_dict,
    parse_kernel,
    tt_kernel,
    tt_kernel_naive,
    tt_kernel_prod_fast,
    tt_kernel_sum_fast,
)
from ttkm.tensor import (
    DenseTensor,
    TensorTrain,
    TrainStack,
    TtSvdConfig,
    random_tensor_train,
    reconstruct,
    stack_and_decompose,
    tt_inner_product,
    tt_svd,
)


def naive_reference(a, b, spec):
    """Independent re-implementation of the tuple sum with permuted loops.

    Iterates the second train's rank tuple in the outer loop and accumulates
    per-mode values in reverse mode order, so agreement with the library's
    evaluators is not an artifact of shared loop structure.
    """
    d = a.order
    total = 0.0
    for ib in itertools.product(*(range(r) for r in b.ranks)):
        for ia in itertools.product(*(range(r) for r in a.ranks)):
            acc = 1.0 if spec.combine == "prod" else 0.0
            for i in reversed(range(d)):
                v = base_kernel_eval(
                    spec.per_mode[i],
                    a.cores[i][ia[i], :, ia[i + 1]],
                    b.cores[i][ib[i], :, ib[i + 1]],
                )
                acc = acc * v if spec.combine == "prod" else acc + v
            total += acc
    return total


def detach(tt):
    """Copy a train so no cores are shared with any other train."""
    return TensorTrain(tuple(c.copy() for c in tt.cores))


def mixed_spec(d, sigma=1.0, combine="prod"):
    kinds = [RbfKernel(sigma), PolynomialKernel(c=1.0, degree=2), LinearKernel()]
    return KernelSpec(per_mode=tuple(kinds[i % 3] for i in range(d)), combine=combine)


class TestBaseKernels:
    def test_linear_matches_loop_dot(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(7), rng.standard_normal(7)
        want = sum(float(a * b) for a, b in zip(x, y))
        assert base_kernel_eval(LinearKernel(), x, y) == pytest.approx(want, rel=1e-12)

    def test_polynomial_known_value(self):
        # ([1,0].[1,0] + 1)^2 = 4
        k = PolynomialKernel(c=1.0, degree=2)
        assert base_kernel_eval(k, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(4.0)

    def test_rbf_identical_inputs(self):
        k = RbfKernel(sigma=0.7)
        x = np.array([0.3, -1.2, 2.0])
        assert base_kernel_eval(k, x, x) == pytest.approx(1.0)

    def test_rbf_known_value(self):
        k = RbfKernel(sigma=2.0)
        got = base_kernel_eval(k, [1.0, 0.0], [0.0, 1.0])
        assert got == pytest.approx(math.exp(-2.0 / 8.0), rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            base_kernel_eval(LinearKernel(), [1.0, 2.0], [1.0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RbfKernel(sigma=0.0)
        with pytest.raises(ValueError):
            PolynomialKernel(degree=0)

    def test_parse_and_dict_round_trip(self):
        for text, want in [
            ("linear", LinearKernel()),
            ("poly:c=2,degree=3", PolynomialKernel(c=2.0, degree=3)),
            ("poly:degree=3.0", PolynomialKernel(degree=3)),
            ("rbf:sigma=1.5", RbfKernel(sigma=1.5)),
            ("rbf:1.5", RbfKernel(sigma=1.5)),
        ]:
            k = parse_kernel(text)
            assert k == want
            assert kernel_from_dict(kernel_to_dict(k)) == k
        with pytest.raises(ValueError):
            parse_kernel("sigmoid")
        with pytest.raises(ValueError):
            parse_kernel("rbf")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_refuses_a_non_finite_parameter(self, value):
        # an infinite sigma made every RBF value 1, and a non-finite c
        # made every poly value NaN or inf
        with pytest.raises(ValueError, match="sigma"):
            RbfKernel(sigma=float(value))
        with pytest.raises(ValueError, match="sigma"):
            parse_kernel(f"rbf:sigma={value}")
        with pytest.raises(ValueError, match="c must be finite"):
            PolynomialKernel(c=float(value))
        with pytest.raises(ValueError, match="c must be finite"):
            kernel_from_dict({"kind": "poly", "c": float(value), "degree": 2})

    @pytest.mark.parametrize("degree", ["inf", "-inf", "nan", "2.5", "0"])
    def test_parse_refuses_a_degree_that_is_not_a_positive_integer(self, degree):
        # refused, neither overflowed in int() nor truncated to a whole number
        with pytest.raises(ValueError, match="degree"):
            parse_kernel(f"poly:degree={degree}")
        with pytest.raises(ValueError, match="degree"):
            PolynomialKernel(degree=float(degree))


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(per_mode=(), combine="prod")
        with pytest.raises(ValueError):
            KernelSpec(per_mode=(LinearKernel(),), combine="avg")

    def test_with_sigma_touches_only_rbf_modes(self):
        # a sigma put into every mode's dict reaches only the RBF modes:
        # kernel_from_dict ignores parameters a kind does not take
        spec = mixed_spec(3, sigma=1.0)
        d = spec.to_dict()
        d["per_mode"] = [{**m, "sigma": 9.0} for m in d["per_mode"]]
        out = KernelSpec.from_dict(d)
        assert out.per_mode[0] == RbfKernel(9.0)
        assert out.per_mode[1] == PolynomialKernel(c=1.0, degree=2)
        assert out.per_mode[2] == LinearKernel()

    def test_dict_round_trip(self):
        spec = mixed_spec(4, sigma=2.5, combine="sum")
        assert KernelSpec.from_dict(spec.to_dict()) == spec


class TestNaive:
    def test_matches_permuted_loop_reference(self):
        rng = np.random.default_rng(2)
        for combine in ("prod", "sum"):
            spec = mixed_spec(3, sigma=1.3, combine=combine)
            a = random_tensor_train((3, 2, 3), (2, 2), rng)
            b = random_tensor_train((3, 2, 3), (2, 2), rng)
            got = tt_kernel_naive(a, b, spec)
            want = naive_reference(a, b, spec)
            assert got == pytest.approx(want, rel=1e-12)

    def test_all_linear_prod_equals_tt_inner_product(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_tensor_train((3, 4, 2), (2, 3), rng)
            b = random_tensor_train((3, 4, 2), (3, 2), rng)
            spec = KernelSpec.uniform(LinearKernel(), 3, "prod")
            got = tt_kernel_naive(a, b, spec)
            want = tt_inner_product(a, b)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_rank_one_collapse(self):
        rng = np.random.default_rng(4)
        a = random_tensor_train((4, 3, 5), (1, 1), rng)
        b = random_tensor_train((4, 3, 5), (1, 1), rng)
        per_mode = []
        for i in range(3):
            per_mode.append(RbfKernel(1.0) if i != 1 else LinearKernel())
        vals = [
            base_kernel_eval(per_mode[i], a.cores[i][0, :, 0], b.cores[i][0, :, 0])
            for i in range(3)
        ]
        spec_p = KernelSpec(per_mode=tuple(per_mode), combine="prod")
        spec_s = KernelSpec(per_mode=tuple(per_mode), combine="sum")
        assert tt_kernel_naive(a, b, spec_p) == pytest.approx(math.prod(vals), rel=1e-12)
        assert tt_kernel_naive(a, b, spec_s) == pytest.approx(math.fsum(vals), rel=1e-12)

    def test_term_cap_enforced(self):
        rng = np.random.default_rng(5)
        a = random_tensor_train((2, 2, 2), (2, 2), rng)
        spec = KernelSpec.uniform(LinearKernel(), 3, "prod")
        with pytest.raises(CapacityError):
            tt_kernel_naive(a, a, spec, term_cap=10)

    def test_order_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        a = random_tensor_train((2, 2), (2,), rng)
        with pytest.raises(ValueError):
            tt_kernel_naive(a, a, KernelSpec.uniform(LinearKernel(), 3))


class TestFastEvaluators:
    def test_prod_fast_matches_naive(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            d = int(rng.integers(1, 5))
            dims = tuple(int(n) for n in rng.integers(2, 5, size=d))
            ra = tuple(int(r) for r in rng.integers(1, 4, size=d - 1))
            rb = tuple(int(r) for r in rng.integers(1, 4, size=d - 1))
            a = random_tensor_train(dims, ra, rng)
            b = random_tensor_train(dims, rb, rng)
            spec = mixed_spec(d, sigma=float(rng.uniform(0.5, 3.0)))
            got = tt_kernel_prod_fast(a, b, spec)
            want = tt_kernel_naive(a, b, spec)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_sum_fast_matches_naive(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            d = int(rng.integers(1, 5))
            dims = tuple(int(n) for n in rng.integers(2, 5, size=d))
            ra = tuple(int(r) for r in rng.integers(1, 4, size=d - 1))
            rb = tuple(int(r) for r in rng.integers(1, 4, size=d - 1))
            a = random_tensor_train(dims, ra, rng)
            b = random_tensor_train(dims, rb, rng)
            spec = mixed_spec(d, sigma=float(rng.uniform(0.5, 3.0)), combine="sum")
            got = tt_kernel_sum_fast(a, b, spec)
            want = tt_kernel_naive(a, b, spec)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_all_linear_prod_equals_dense_inner_product(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = DenseTensor(rng.standard_normal((3, 4, 3)))
            y = DenseTensor(rng.standard_normal((3, 4, 3)))
            a = tt_svd(x, TtSvdConfig.tolerance(1e-12))
            b = tt_svd(y, TtSvdConfig.tolerance(1e-12))
            spec = KernelSpec.uniform(LinearKernel(), 3, "prod")
            want = float(np.sum(x.values * y.values))
            assert tt_kernel_prod_fast(a, b, spec) == pytest.approx(want, rel=1e-8)

    def test_self_kernel_nonnegative_all_rbf_prod(self):
        rng = np.random.default_rng(10)
        a = random_tensor_train((3, 3, 3), (3, 3), rng)
        spec = KernelSpec.uniform(RbfKernel(1.0), 3, "prod")
        assert tt_kernel_prod_fast(a, a, spec) >= 0.0

    def test_symmetry_under_argument_swap(self):
        rng = np.random.default_rng(11)
        a = random_tensor_train((3, 4, 3), (2, 3), rng)
        b = random_tensor_train((3, 4, 3), (3, 2), rng)
        for combine in ("prod", "sum"):
            spec = mixed_spec(3, sigma=1.1, combine=combine)
            kab, kba = tt_kernel(a, b, spec), tt_kernel(b, a, spec)
            assert kab == pytest.approx(kba, rel=1e-12, abs=1e-12)

    def test_sum_fast_single_mode(self):
        rng = np.random.default_rng(12)
        a = random_tensor_train((5,), (), rng)
        b = random_tensor_train((5,), (), rng)
        spec = KernelSpec.uniform(RbfKernel(1.0), 1, "sum")
        want = base_kernel_eval(RbfKernel(1.0), a.cores[0][0, :, 0], b.cores[0][0, :, 0])
        assert tt_kernel_sum_fast(a, b, spec) == pytest.approx(want, rel=1e-12)

    def test_large_sigma_limits(self):
        # as sigma grows every RBF factor tends to 1, so the prod kernel
        # tends to the tuple count over interior ranks and the sum kernel to
        # d times that count
        rng = np.random.default_rng(13)
        a = random_tensor_train((3, 3, 3), (2, 3), rng)
        b = random_tensor_train((3, 3, 3), (3, 2), rng)
        sig = 1e6
        spec_p = KernelSpec.uniform(RbfKernel(sig), 3, "prod")
        spec_s = KernelSpec.uniform(RbfKernel(sig), 3, "sum")
        pairs = [ra * rb for ra, rb in zip(a.ranks, b.ranks)]
        tuples = math.prod(pairs)
        assert tt_kernel_prod_fast(a, b, spec_p) == pytest.approx(tuples, rel=1e-3)
        assert tt_kernel_sum_fast(a, b, spec_s) == pytest.approx(3 * tuples, rel=1e-3)

    def test_dispatch_matches_specialized(self):
        rng = np.random.default_rng(14)
        a = random_tensor_train((3, 3), (2,), rng)
        b = random_tensor_train((3, 3), (2,), rng)
        sp = mixed_spec(2, combine="prod")
        ss = mixed_spec(2, combine="sum")
        assert tt_kernel(a, b, sp) == tt_kernel_prod_fast(a, b, sp)
        assert tt_kernel(a, b, ss) == tt_kernel_sum_fast(a, b, ss)


class TestGram:
    def make_samples(self, rng, m=8, dims=(3, 4, 3), ranks=(2, 2)):
        tensors = [DenseTensor(rng.standard_normal(dims)) for _ in range(m)]
        return stack_and_decompose(tensors, TtSvdConfig.fixed(ranks))

    def test_single_sample(self):
        rng = np.random.default_rng(20)
        tts = self.make_samples(rng, m=1)
        g = build_gram(tts, KernelSpec.uniform(RbfKernel(1.0), 3, "prod"))
        assert g.values.shape == (1, 1)
        assert g.values[0, 0] == pytest.approx(
            tt_kernel_prod_fast(tts[0], tts[0], g.spec), rel=1e-12
        )

    def test_entries_match_pairwise_evaluation(self):
        rng = np.random.default_rng(21)
        tts = self.make_samples(rng, m=6)
        for combine in ("prod", "sum"):
            spec = mixed_spec(3, sigma=1.5, combine=combine)
            g = build_gram(tts, spec)
            for i in range(6):
                for j in range(6):
                    want = tt_kernel(tts[i], tts[j], spec)
                    assert g.values[i, j] == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_shared_tail_fast_path_equals_detached_path(self):
        # the hoisted shared-suffix computation must agree with fully
        # per-pair evaluation on trains that share no arrays
        rng = np.random.default_rng(22)
        tts = self.make_samples(rng, m=7)
        loose = [detach(t) for t in tts]
        for combine in ("prod", "sum"):
            spec = mixed_spec(3, sigma=0.9, combine=combine)
            fast = build_gram(tts, spec)
            slow = build_gram(loose, spec)
            np.testing.assert_allclose(fast.values, slow.values, rtol=1e-10, atol=1e-12)

    def test_positive_semidefinite_for_shared_chain(self):
        rng = np.random.default_rng(23)
        for combine in ("prod", "sum"):
            for trial in range(5):
                tts = self.make_samples(rng, m=10)
                spec = mixed_spec(3, sigma=1.0 + trial, combine=combine)
                g = build_gram(tts, spec)
                eig = np.linalg.eigvalsh(g.values)
                assert eig[0] >= -1e-8 * max(eig[-1], 1e-30)

    def test_rank_chain_mismatch_rejected(self):
        rng = np.random.default_rng(24)
        a = random_tensor_train((3, 3, 3), (2, 2), rng)
        b = random_tensor_train((3, 3, 3), (3, 2), rng)
        with pytest.raises(ValueError, match="rank chain"):
            build_gram([a, b], KernelSpec.uniform(LinearKernel(), 3))

    def test_symmetric_and_ids_recorded(self):
        rng = np.random.default_rng(25)
        tts = self.make_samples(rng, m=5)
        g = build_gram(tts, mixed_spec(3), sample_ids=(10, 11, 12, 13, 14))
        np.testing.assert_array_equal(g.values, g.values.T)
        assert g.sample_ids == (10, 11, 12, 13, 14)
        assert g.spec == mixed_spec(3)

    @pytest.mark.parametrize("combine", ["prod", "sum"])
    def test_overflow_is_a_capacity_error_without_a_warning(self, combine):
        # a huge degree overflows float64; numpy's overflow warning used to
        # come first, then GramMatrix's ValueError
        rng = np.random.default_rng(26)
        tts = self.make_samples(rng, m=4)
        spec = KernelSpec(per_mode=(PolynomialKernel(degree=10**300), LinearKernel(),
                                    LinearKernel()), combine=combine)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapacityError, match="NaN or inf"):
                build_gram(tts, spec)
            with pytest.raises(CapacityError, match="NaN or inf"):
                cross_gram(tts, tts[:2], spec)

    def test_gram_matrix_type_validation(self):
        spec = KernelSpec.uniform(LinearKernel(), 1)
        with pytest.raises(ValueError):
            GramMatrix(values=np.zeros((2, 3)), spec=spec, sample_ids=(0, 1))
        with pytest.raises(ValueError):
            GramMatrix(values=np.array([[0.0, 1.0], [0.5, 0.0]]), spec=spec, sample_ids=(0, 1))
        with pytest.raises(ValueError):
            GramMatrix(values=np.full((1, 1), np.nan), spec=spec, sample_ids=(0,))


class TestCrossGram:
    def test_against_direct_evaluation(self):
        rng = np.random.default_rng(30)
        tensors = [DenseTensor(rng.standard_normal((3, 3, 3))) for _ in range(9)]
        tts = stack_and_decompose(tensors, TtSvdConfig.fixed((2, 2)))
        train, test = tts[:6], tts[6:]
        for combine in ("prod", "sum"):
            spec = mixed_spec(3, sigma=1.4, combine=combine)
            rows = cross_gram(train, test, spec)
            assert rows.shape == (3, 6)
            for i in range(3):
                for j in range(6):
                    want = tt_kernel(test[i], train[j], spec)
                    assert rows[i, j] == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_detached_test_samples_supported(self):
        rng = np.random.default_rng(31)
        tensors = [DenseTensor(rng.standard_normal((3, 3))) for _ in range(4)]
        train = stack_and_decompose(tensors, TtSvdConfig.fixed((2,)))
        probe = detach(train[0])
        spec = KernelSpec.uniform(RbfKernel(1.0), 2, "prod")
        rows = cross_gram(train, [probe], spec)
        g = build_gram(train, spec)
        np.testing.assert_allclose(rows[0], g.values[0], rtol=1e-10)

    def test_train_equals_test_reproduces_gram(self):
        rng = np.random.default_rng(32)
        tensors = [DenseTensor(rng.standard_normal((4, 4))) for _ in range(5)]
        tts = stack_and_decompose(tensors, TtSvdConfig.fixed((3,)))
        spec = mixed_spec(2, sigma=2.0, combine="sum")
        rows = cross_gram(tts, tts, spec)
        g = build_gram(tts, spec)
        np.testing.assert_allclose(rows, g.values, rtol=1e-10, atol=1e-12)

    def test_rank_chain_requirements(self):
        rng = np.random.default_rng(33)
        a = random_tensor_train((3, 3), (2,), rng)
        b = random_tensor_train((3, 3), (2,), rng)
        probe = random_tensor_train((3, 3), (3,), rng)
        spec = KernelSpec.uniform(LinearKernel(), 2)
        with pytest.raises(ValueError, match="rank chain"):
            cross_gram([a, b], [probe], spec)
        with pytest.raises(ValueError):
            cross_gram([a, probe], [b], spec)

    def test_dims_mismatch_rejected(self):
        rng = np.random.default_rng(34)
        a = random_tensor_train((3, 3), (2,), rng)
        c = random_tensor_train((3, 4), (2,), rng)
        with pytest.raises(ValueError):
            cross_gram([a], [c], KernelSpec.uniform(LinearKernel(), 2))


def rotated_spec(d, shift, combine):
    """mixed_spec with the kernel list rotated, so each kind leads once."""
    kinds = [RbfKernel(1.3), PolynomialKernel(c=1.0, degree=2), LinearKernel()]
    return KernelSpec(
        per_mode=tuple(kinds[(i + shift) % 3] for i in range(d)), combine=combine
    )


def shared_suffix_trains(rng, m, dims, ranks, prefix):
    """Hand-built trains whose first ``prefix`` cores vary per sample and
    whose remaining cores are the same arrays for every sample."""
    shared = random_tensor_train(dims, ranks, rng).cores[prefix:]
    return [
        TensorTrain(random_tensor_train(dims, ranks, rng).cores[:prefix] + shared)
        for _ in range(m)
    ]


class TestBatchedEngine:
    """The all-pairs engine against the naive oracle, on every path it takes."""

    @pytest.fixture(scope="class")
    def stacked(self):
        # rank 8 at the first bond and 60 samples: a symmetric Gram needs
        # more than two row chunks
        rng = np.random.default_rng(40)
        tensors = [DenseTensor(rng.standard_normal((4, 6, 4))) for _ in range(60)]
        return stack_and_decompose(tensors, TtSvdConfig.fixed((8, 4)))

    @staticmethod
    def rows_per_chunk(rows, cols):
        r1, s1 = rows[0].ranks[1], cols[0].ranks[1]
        return max(1, kernels.CHUNK_VALUES // (r1 * len(cols) * s1))

    @pytest.mark.parametrize("combine", ["prod", "sum"])
    @pytest.mark.parametrize("shift", [0, 1, 2])
    def test_gram_over_several_chunks_matches_naive(self, stacked, combine, shift):
        step = self.rows_per_chunk(stacked, stacked)
        assert len(stacked) > 2 * step
        spec = rotated_spec(3, shift, combine)
        g = build_gram(stacked, spec).values
        last = len(stacked) - 1
        picks = [(0, 0), (0, last), (step - 1, step), (step, step - 1),
                 (2 * step, 1), (last, 2 * step + 1), (last, last)]
        for i, j in picks:
            want = tt_kernel_naive(stacked[i], stacked[j], spec)
            assert g[i, j] == pytest.approx(want, rel=1e-10, abs=1e-12)
        # every entry against the 1x1 engine call, which never chunks
        for i in range(0, len(stacked), 7):
            for j in range(len(stacked)):
                assert g[i, j] == pytest.approx(
                    tt_kernel(stacked[i], stacked[j], spec), rel=1e-10, abs=1e-12)

    def test_gram_is_exactly_symmetric(self, stacked):
        for combine in ("prod", "sum"):
            g = build_gram(stacked, rotated_spec(3, 0, combine)).values
            assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("combine", ["prod", "sum"])
    def test_rectangular_cross_gram_matches_naive(self, stacked, combine):
        train, test = stacked[:45], stacked[45:]
        spec = rotated_spec(3, 1, combine)
        rows = cross_gram(train, test, spec)
        assert rows.shape == (15, 45)
        for i, j in [(0, 0), (0, 44), (7, 20), (14, 0), (14, 44)]:
            want = tt_kernel_naive(test[i], train[j], spec)
            assert rows[i, j] == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("combine", ["prod", "sum"])
    @pytest.mark.parametrize("prefix", [2, 4])
    def test_varying_prefix_longer_than_one_core(self, combine, prefix):
        rng = np.random.default_rng(41 + prefix)
        dims, ranks = (3, 4, 2, 3), (2, 3, 2)
        tts = shared_suffix_trains(rng, 6, dims, ranks, prefix)
        probes = shared_suffix_trains(rng, 3, dims, ranks, prefix)
        assert len(kernels._stack(tts, "Gram").lead) == prefix
        for shift in range(3):
            spec = rotated_spec(4, shift, combine)
            g = build_gram(tts, spec).values
            assert np.array_equal(g, g.T)
            rows = cross_gram(tts, probes, spec)
            for i in range(6):
                for j in range(i, 6):
                    want = tt_kernel_naive(tts[i], tts[j], spec)
                    assert g[i, j] == pytest.approx(want, rel=1e-10, abs=1e-12)
            for i in range(3):
                for j in range(6):
                    want = tt_kernel_naive(probes[i], tts[j], spec)
                    assert rows[i, j] == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_gram_memory_stays_chunked(self):
        # 400 samples of rank 4: one unchunked block of first-mode fiber
        # kernel values is 400*4 x 400*4 float64 values, about 20 MB
        rng = np.random.default_rng(42)
        tensors = [DenseTensor(rng.random((4, 7, 4, 7))) for _ in range(400)]
        tts = stack_and_decompose(tensors, TtSvdConfig.fixed((4, 4, 4)))
        spec = KernelSpec.uniform(RbfKernel(1.0), 4)
        tracemalloc.start()
        try:
            build_gram(tts, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 400 x 400 result and its symmetry check take about 4 MB
        assert peak < 8e6


def copied_lead(trains):
    """The same trains with their per-sample first cores copied; the tail
    arrays stay shared, so the engine sees the same shared tail."""
    return [TensorTrain((tt.cores[0].copy(),) + tt.cores[1:]) for tt in trains]


def assert_naive(values, rows, cols, spec, picks):
    for i, j in picks:
        want = tt_kernel_naive(rows[i], cols[j], spec)
        assert values[i, j] == pytest.approx(want, rel=1e-10, abs=1e-12)


def all_picks(n, m):
    return [(i, j) for i in range(n) for j in range(m)]


# (sample count, dims, fixed interior ranks) of a joint decomposition
STACK_CASES = {
    "order-1": (5, (6,), ()),
    "singleton": (1, (3, 4, 3), (2, 2)),
    "order-3": (7, (3, 4, 3), (2, 2)),
    "order-4": (9, (3, 4, 2, 3), (2, 3, 2)),
}


class TestStackInput:
    """The engine reads only ``TrainStack``s.  A stack, the same trains as a
    list and the same trains with copied first cores give the same bits,
    and every form matches the naive oracle."""

    @staticmethod
    def stack(case, seed=60):
        m, dims, ranks = STACK_CASES[case]
        rng = np.random.default_rng(seed)
        tensors = [DenseTensor(rng.standard_normal(dims)) for _ in range(m)]
        return stack_and_decompose(tensors, TtSvdConfig.fixed(ranks))

    @pytest.mark.parametrize("combine", ["prod", "sum"])
    @pytest.mark.parametrize("case", sorted(STACK_CASES))
    def test_stack_list_and_copies_give_equal_bits(self, case, combine):
        stack = self.stack(case)
        assert isinstance(stack, TrainStack)
        spec = rotated_spec(stack.order, 1, combine)
        forms = (stack, list(stack), copied_lead(stack))
        grams = [build_gram(f, spec).values for f in forms]
        for g in grams[1:]:
            assert np.array_equal(g, grams[0])
        assert np.array_equal(grams[0], grams[0].T)
        assert_naive(grams[0], stack, stack, spec, all_picks(len(stack), len(stack)))
        cut = max(1, len(stack) * 2 // 3)
        train, test = stack[:cut], stack[cut:] if cut < len(stack) else stack
        crosses = [cross_gram(f(train), f(test), spec)
                   for f in (lambda x: x, list, copied_lead)]
        for c in crosses[1:]:
            assert np.array_equal(c, crosses[0])
        assert_naive(crosses[0], test, train, spec, all_picks(len(test), len(train)))

    @pytest.mark.parametrize("combine", ["prod", "sum"])
    def test_independent_trains_have_no_shared_tail(self, combine):
        rng = np.random.default_rng(61)
        dims, ranks = (3, 4, 2), (2, 3)
        trains = [random_tensor_train(dims, ranks, rng) for _ in range(5)]
        probes = [random_tensor_train(dims, ranks, rng) for _ in range(3)]
        stacked = kernels._stack(trains, "Gram")
        assert len(stacked.lead) == 3 and stacked.tail == ()
        explicit = TrainStack(tuple(np.stack([t.cores[k] for t in trains]) for k in range(3)))
        spec = rotated_spec(3, 2, combine)
        g = build_gram(trains, spec).values
        assert np.array_equal(g, build_gram(explicit, spec).values)
        assert_naive(g, trains, trains, spec, all_picks(5, 5))
        rows = cross_gram(trains, probes, spec)
        assert np.array_equal(rows, cross_gram(explicit, probes, spec))
        assert_naive(rows, probes, trains, spec, all_picks(3, 5))

    @pytest.mark.parametrize("combine", ["prod", "sum"])
    def test_stack_against_a_list_whose_tail_starts_later(self, combine):
        # the stack shares modes 2..4, the list only modes 3..4: mode 2 of
        # the stack is broadcast over its trains
        stack = self.stack("order-4", seed=62)
        rng = np.random.default_rng(63)
        later = shared_suffix_trains(rng, 4, stack.dims, stack.interior_ranks, 2)
        assert len(kernels._stack(later, "test").lead) == 2
        spec = rotated_spec(4, 0, combine)
        rows = cross_gram(stack, later, spec)
        assert np.array_equal(rows, cross_gram(list(stack), later, spec))
        assert_naive(rows, later, stack, spec, all_picks(4, len(stack)))
        cols = cross_gram(later, stack, spec)
        assert np.array_equal(cols, cross_gram(later, list(stack), spec))
        assert_naive(cols, stack, later, spec, all_picks(len(stack), 4))

    @pytest.mark.parametrize("combine", ["prod", "sum"])
    def test_symmetric_gram_over_several_chunks(self, monkeypatch, combine):
        # one row of 9 columns at first-bond rank 2 is 36 values, so 48
        # values a chunk gives 9 chunks of one row
        monkeypatch.setattr(kernels, "CHUNK_VALUES", 48)
        stack = self.stack("order-4", seed=64)
        spec = rotated_spec(4, 1, combine)
        g = build_gram(stack, spec).values
        assert np.array_equal(g, g.T)
        assert np.array_equal(g, build_gram(list(stack), spec).values)
        assert np.array_equal(g, build_gram(copied_lead(stack), spec).values)
        assert_naive(g, stack, stack, spec, all_picks(len(stack), len(stack)))

    @pytest.mark.parametrize("case", ["order-1", "independent"])
    def test_fibers_compared_are_never_one_buffer(self, monkeypatch, case):
        # the last core's transposed fibers (S = 1) are contiguous already;
        # were they views of the stack, x @ y.T of a symmetric chunk would
        # read one buffer twice and numpy would take a rank-k update, whose
        # sums differ in the last bits from the product's
        if case == "order-1":
            trains = self.stack("order-1")
        else:
            rng = np.random.default_rng(67)
            trains = [random_tensor_train((3, 4, 2), (2, 3), rng) for _ in range(5)]
        seen = []
        real = kernels._base_kernel_matrix

        def checked(k, x, y):
            seen.append(np.shares_memory(x, y))
            return real(k, x, y)

        monkeypatch.setattr(kernels, "_base_kernel_matrix", checked)
        build_gram(trains, KernelSpec.uniform(LinearKernel(), trains[0].order))
        assert seen and not any(seen)

    def test_empty_stack_is_refused(self):
        stack = self.stack("order-3")
        spec = rotated_spec(3, 0, "prod")
        with pytest.raises(ValueError, match="at least one Gram sample"):
            build_gram(stack[3:3], spec)
        with pytest.raises(ValueError, match="at least one test sample"):
            cross_gram(stack, stack[:0], spec)
        with pytest.raises(ValueError, match="at least one train sample"):
            cross_gram([], stack, spec)

    def test_chain_and_dims_checked_between_stacks(self):
        a = self.stack("order-3")
        spec = rotated_spec(3, 0, "prod")
        m, dims, _ = STACK_CASES["order-3"]
        rng = np.random.default_rng(66)
        b = stack_and_decompose([DenseTensor(rng.standard_normal(dims)) for _ in range(m)],
                                TtSvdConfig.fixed((1, 2)))
        with pytest.raises(ValueError, match="rank chain"):
            cross_gram(a, b, spec)
        c = self.stack("order-4")
        with pytest.raises(ValueError, match="dims mismatch"):
            cross_gram(a, c, spec)
