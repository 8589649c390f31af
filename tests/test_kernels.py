"""TT kernels: base kernels, naive reference, fast evaluators, Gram assembly."""

import itertools
import math

import numpy as np
import pytest

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


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(per_mode=(), combine="prod")
        with pytest.raises(ValueError):
            KernelSpec(per_mode=(LinearKernel(),), combine="avg")

    def test_with_sigma_touches_only_rbf_modes(self):
        spec = mixed_spec(3, sigma=1.0)
        out = spec.with_sigma(9.0)
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
