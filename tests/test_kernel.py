import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsesvm.data import DataError, DesignMatrix, binarize
from sparsesvm.kernel import KernelModel, gram_matrix, kernel_predict
from sparsesvm.multiclass import GaussianKernelSpec, PairProblem
from sparsesvm.simdata import gen_spiral
from sparsesvm.solvers import KernelMMWorkspace, SDWorkspace

from conftest import with_intercept


def naive_gram(X, gamma):
    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d = X[i] - X[j]
            K[i, j] = math.exp(-gamma * float(d @ d))
    return K


class TestGramMatrix:
    def test_matches_elementwise_loop(self, rng):
        X = rng.standard_normal((13, 4))
        K, gamma = gram_matrix(X, 0.7)
        assert gamma == 0.7
        np.testing.assert_allclose(K, naive_gram(X, 0.7), rtol=0, atol=1e-12)

    def test_symmetric_unit_diagonal(self, rng):
        X = 100.0 * rng.standard_normal((20, 3))
        K, _ = gram_matrix(X, 2.0)
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.ones(20))
        # distant pairs may underflow to exactly zero
        assert np.all(K >= 0) and np.all(K <= 1.0)

    def test_duplicate_points_give_unit_entry(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0]])
        K, _ = gram_matrix(X, 1.0)
        assert K[0, 1] == 1.0

    def test_gamma_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="gamma"):
            gram_matrix(rng.standard_normal((4, 2)), 0.0)


    @pytest.mark.parametrize("gamma", [1.0, None], ids=["gamma1", "median"])
    def test_exactly_symmetric_for_a_strided_view(self, rng, gamma):
        """Features read through a strided view, as a design's ``X[:, :-1]``, give
        an exactly symmetric K with a unit diagonal, the bits of a contiguous copy."""
        X = rng.standard_normal((257, 8))[:, :-1]
        K, got = gram_matrix(X, gamma)
        want, want_gamma = gram_matrix(np.ascontiguousarray(X), gamma)
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.ones(257))
        assert K.tobytes() == want.tobytes() and got == want_gamma

    @pytest.mark.parametrize("gamma", [0.7, None])
    def test_writes_into_out(self, rng, gamma):
        """K lands in the block ``out`` of a wider array, as in a kernel pair's
        [K | 1], with the same bits as in an array of its own."""
        X = rng.standard_normal((9, 2))
        buf = np.full((9, 10), 7.0)
        K, got = gram_matrix(X, gamma, out=buf[:, :-1])
        want, want_gamma = gram_matrix(X, gamma)
        assert np.shares_memory(K, buf) and got == want_gamma
        assert buf[:, :-1].tobytes() == np.ascontiguousarray(want).tobytes()
        np.testing.assert_array_equal(buf[:, -1], np.full(9, 7.0))

    def test_overflowing_row_is_refused_without_a_warning(self):
        X = np.array([[0.0, 1.0], [1e308, 1.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="row 2 is too large"):
                gram_matrix(X, 1.0)


class TestMedianBandwidth:
    """``gram_matrix(X, None)`` takes the median-distance bandwidth."""

    @staticmethod
    def bandwidth(X):
        return gram_matrix(X, None)[1]

    def test_two_points_closed_form(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert self.bandwidth(X) == pytest.approx(1.0 / (2 * 25.0))

    def test_degenerate_cloud_falls_back(self):
        X = np.zeros((5, 3))
        assert self.bandwidth(X) == pytest.approx(1.0 / 3.0)

    def test_single_point(self):
        assert self.bandwidth(np.zeros((1, 4))) == pytest.approx(0.25)

    def test_scaling_shrinks_bandwidth(self, rng):
        X = rng.standard_normal((30, 5))
        assert self.bandwidth(10.0 * X) == pytest.approx(self.bandwidth(X) / 100.0,
                                                         rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 12, 13])
    def test_median_has_np_median_bits(self, rng, n):
        """Odd and even pair counts, with ties among the distances."""
        X = np.round(rng.standard_normal((n, 2)), 1)
        iu = np.triu_indices(n, k=1)
        med = float(np.median(old_sq_dists(X, X)[iu]))
        assert self.bandwidth(X) == 1.0 / (2 * med)


def old_sq_dists(A, B):
    a2 = np.sum(A * A, axis=1)
    b2 = np.sum(B * B, axis=1)
    return np.maximum(a2[:, None] + b2[None, :] - 2.0 * (A @ B.T), 0.0)


def old_pair_design(feats, y, gamma):
    """The kernel pair's design and gamma as built before ``gram_matrix`` wrote
    into the pair's [K | 1]: a median bandwidth from a distance pass of its
    own, then a gram matrix from another, then the design around a copy of it."""
    if gamma is None:
        iu = np.triu_indices(feats.shape[0], k=1)
        med = float(np.median(old_sq_dists(feats, feats)[iu])) if iu[0].size else 1.0
        gamma = 1.0 / (feats.shape[1] * (med if med > 0.0 else 1.0))
    K = np.exp(-gamma * old_sq_dists(feats, feats))
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, 1.0)
    return with_intercept(K, y), gamma


class TestPairBuild:
    """``PairProblem.build`` forms a kernel pair's [K | 1] in one place."""

    @pytest.mark.parametrize("gamma", [1.0, None], ids=["gamma1", "median"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_design_and_gamma_match_the_old_route_bit_for_bit(self, seed, gamma):
        ds = gen_spiral(120, 90, 40, seed=seed)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            prob = PairProblem.build(ds, i, j, GaussianKernelSpec(gamma), "sd")
            feats, got_gamma = prob.kernel_rows
            want, want_gamma = old_pair_design(feats, prob.design.y, gamma)
            assert got_gamma == want_gamma
            assert prob.design.X.tobytes() == want.X.tobytes()

    def test_default_bandwidth_build_peaks_under_three_gram_matrices(self, traced_peak):
        """One [K | 1] buffer, one distance pass and the bandwidth's median from
        its upper triangle: the build's traced peak stays under 2.7 n x n arrays
        (two distance passes and a second copy of K reached 3.0)."""
        ds = gen_spiral(200, 160, 40, seed=0)
        np.median(np.ones(3))  # numpy.ma, which np.median loads, is not the build's
        prob, peak = traced_peak(PairProblem.build, ds, 0, 1, GaussianKernelSpec(), "mm")
        n = prob.design.n
        assert n == 360
        assert peak <= 2.7 * 8 * n * n

    @pytest.mark.parametrize("gamma", [1.0, None], ids=["gamma1", "median"])
    def test_gram_block_exactly_symmetric(self, gamma):
        ds = gen_spiral(120, 90, 40, seed=0)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            K = PairProblem.build(ds, i, j, GaussianKernelSpec(gamma), "sd").design.X[:, :-1]
            np.testing.assert_array_equal(K, K.T)
            np.testing.assert_array_equal(np.diag(K), np.ones(K.shape[0]))

    def test_gamma_one_build_peaks_under_3_2_gram_matrices(self, traced_peak):
        """At gamma 1 most eigenpairs are kept (319 of 360), and they are taken in
        one C-ordered copy: the build's traced peak reads about 2.9 n x n arrays
        (a boolean column selection and a contiguous copy of it reached 3.8)."""
        ds = gen_spiral(200, 160, 40, seed=0)
        prob, peak = traced_peak(PairProblem.build, ds, 0, 1, GaussianKernelSpec(1.0), "mm")
        n = prob.design.n
        assert n == 360 and prob.workspace.Q.shape[1] > 0.8 * n
        assert peak <= 3.2 * 8 * n * n

    @pytest.mark.parametrize("solver", ["mm", "MM", "sd"])
    def test_workspace_follows_the_solver_name(self, solver):
        prob = PairProblem.build(gen_spiral(30, 20, 10, seed=0), 0, 1,
                                 GaussianKernelSpec(1.0), solver)
        kind = SDWorkspace if solver == "sd" else KernelMMWorkspace
        assert type(prob.workspace) is kind


class TestKernelDesign:
    """A kernel pair's design is ``[K | 1]`` over the gram matrix K of its rows."""

    def test_columns_are_kernel_values(self):
        ds = gen_spiral(5, 3, 2, seed=1)
        prob = PairProblem.build(ds, 0, 1, GaussianKernelSpec(0.5), "sd")
        feats, _ = prob.kernel_rows
        K, _ = gram_matrix(feats, 0.5)
        assert prob.design.X.shape == (8, 9)
        np.testing.assert_array_equal(prob.design.X[:, -1], np.ones(8))
        np.testing.assert_array_equal(prob.design.X[:, :-1], K)
        np.testing.assert_array_equal(prob.design.y, binarize(ds, 0, 1).y)

    def test_shape_mismatch_rejected(self, rng):
        K, _ = gram_matrix(rng.standard_normal((5, 2)), 1.0)
        with pytest.raises(DataError, match="label vector length"):
            with_intercept(K, np.ones(4))


class TestKernelModel:
    def test_training_scores_match_design_scores(self, rng):
        X = rng.standard_normal((10, 2))
        y = np.where(rng.standard_normal(10) > 0, 1.0, -1.0)
        gamma = 0.8
        design = with_intercept(gram_matrix(X, gamma)[0], y)
        alpha = rng.standard_normal(11)
        model = KernelModel(alpha, gamma, X, y)
        # the design's coefficients are the signed weights y alpha and the intercept
        signed = np.append(y * alpha[:-1], alpha[-1])
        np.testing.assert_allclose(kernel_predict(model, X), design.X @ signed,
                                   rtol=0, atol=1e-10)

    def test_scalar_and_batch_agree(self, rng):
        X = rng.standard_normal((6, 3))
        y = np.ones(6)
        y[::2] = -1.0
        model = KernelModel(rng.standard_normal(7), 1.0, X, y)
        Q = rng.standard_normal((4, 3))
        batch = kernel_predict(model, Q)
        assert isinstance(batch, np.ndarray) and batch.shape == (4,)
        for i in range(4):
            one = kernel_predict(model, Q[i])
            assert isinstance(one, float)
            assert one == pytest.approx(batch[i], abs=1e-12)

    def test_far_query_decays_to_intercept(self, rng):
        X = rng.standard_normal((5, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        alpha = np.concatenate([rng.standard_normal(5), [0.37]])
        model = KernelModel(alpha, 1.0, X, y)
        assert kernel_predict(model, np.array([1e4, -1e4])) == pytest.approx(0.37)

    def test_support_size_counts_nonzero_duals(self, rng):
        X = rng.standard_normal((6, 2))
        y = np.ones(6)
        y[3:] = -1.0
        alpha = np.array([0.0, 1.5, 0.0, -0.2, 0.0, 0.0, 9.9])
        assert KernelModel(alpha, 1.0, X, y).support_size == 2

    def test_alpha_length_validated(self, rng):
        X = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="intercept"):
            KernelModel(np.zeros(4), 1.0, X, np.array([1.0, -1.0, 1.0, -1.0]))

    @given(st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_gram_entries_bounded(self, gamma):
        hyp = np.random.default_rng(3)
        X = hyp.standard_normal((7, 2))
        K, _ = gram_matrix(X, gamma)
        assert np.all((K > 0.0) & (K <= 1.0))
