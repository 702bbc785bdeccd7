import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsesvm.data import DataError, DesignMatrix
from sparsesvm.kernel import KernelModel, gram_matrix, kernel_predict, median_bandwidth


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
        np.testing.assert_allclose(gram_matrix(X, 0.7), naive_gram(X, 0.7),
                                   rtol=0, atol=1e-12)

    def test_symmetric_unit_diagonal(self, rng):
        X = 100.0 * rng.standard_normal((20, 3))
        K = gram_matrix(X, 2.0)
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.ones(20))
        # distant pairs may underflow to exactly zero
        assert np.all(K >= 0) and np.all(K <= 1.0)

    def test_duplicate_points_give_unit_entry(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0]])
        K = gram_matrix(X, 1.0)
        assert K[0, 1] == 1.0

    def test_gamma_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="gamma"):
            gram_matrix(rng.standard_normal((4, 2)), 0.0)


class TestMedianBandwidth:
    def test_two_points_closed_form(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert median_bandwidth(X) == pytest.approx(1.0 / (2 * 25.0))

    def test_degenerate_cloud_falls_back(self):
        X = np.zeros((5, 3))
        assert median_bandwidth(X) == pytest.approx(1.0 / 3.0)

    def test_single_point(self):
        assert median_bandwidth(np.zeros((1, 4))) == pytest.approx(0.25)

    def test_scaling_shrinks_bandwidth(self, rng):
        X = rng.standard_normal((30, 5))
        assert median_bandwidth(10.0 * X) == pytest.approx(
            median_bandwidth(X) / 100.0, rel=1e-12)


class TestKernelDesign:
    """A kernel pair's design is ``DesignMatrix.from_features(K, y)``."""

    def test_columns_are_kernel_values(self, rng):
        X = rng.standard_normal((8, 3))
        y = np.where(rng.standard_normal(8) > 0, 1.0, -1.0)
        K = gram_matrix(X, 0.5)
        design = DesignMatrix.from_features(K, y)
        assert design.X.shape == (8, 9)
        np.testing.assert_array_equal(design.X[:, -1], np.ones(8))
        np.testing.assert_array_equal(design.X[:, :-1], K)
        np.testing.assert_array_equal(design.y, y)

    def test_shape_mismatch_rejected(self, rng):
        K = gram_matrix(rng.standard_normal((5, 2)), 1.0)
        with pytest.raises(DataError, match="label vector length"):
            DesignMatrix.from_features(K, np.ones(4))


class TestKernelModel:
    def test_training_scores_match_design_scores(self, rng):
        X = rng.standard_normal((10, 2))
        y = np.where(rng.standard_normal(10) > 0, 1.0, -1.0)
        gamma = 0.8
        design = DesignMatrix.from_features(gram_matrix(X, gamma), y)
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
        K = gram_matrix(X, gamma)
        assert np.all((K > 0.0) & (K <= 1.0))
