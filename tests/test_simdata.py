import numpy as np
import pytest

from sparsesvm.simdata import (BINARY_CLASS_NAMES, PlantedModel, SimSpec, _planted_labels,
                               gen_gaussian_causal, gen_spiral,
                               gen_synthetic_corr)

from conftest import no_convergence


class TestSyntheticCorr:
    def test_shapes_and_truth(self):
        ds, truth = gen_synthetic_corr(50, 10, seed=0)
        assert ds.features.shape == (50, 10)
        assert ds.class_names == BINARY_CLASS_NAMES
        np.testing.assert_array_equal(truth.support, [0, 1])
        assert truth.beta_true[0] == 10.0 and truth.beta_true[1] == -10.0
        assert np.all(truth.beta_true[2:] == 0.0)

    def test_sample_moments_track_target_covariance(self):
        ds, _ = gen_synthetic_corr(4000, 6, seed=3)
        C = np.cov(ds.features, rowvar=False)
        assert C[0, 1] == pytest.approx(0.9, abs=0.15)
        assert C[0, 0] == pytest.approx(1.0, abs=0.15)
        assert C[1, 1] == pytest.approx(3.0, abs=0.3)
        assert C[2, 2] == pytest.approx(2.0, abs=0.3)

    def test_labels_roughly_balanced(self):
        ds, _ = gen_synthetic_corr(2000, 8, seed=1)
        frac = float(np.mean(ds.labels == 1))
        assert 0.45 <= frac <= 0.55

    def test_labels_are_score_signs(self):
        ds, truth = gen_synthetic_corr(300, 5, seed=2)
        scores = ds.features @ truth.beta_true[:-1]
        np.testing.assert_array_equal(ds.labels, (scores > 0).astype(int))

    def test_deterministic(self):
        a, _ = gen_synthetic_corr(40, 4, seed=9)
        b, _ = gen_synthetic_corr(40, 4, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_small_p_rejected(self):
        with pytest.raises(ValueError, match="p"):
            gen_synthetic_corr(10, 1, seed=0)

    def test_cholesky_failure_names_the_covariance(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cholesky", no_convergence)
        with pytest.raises(ValueError,
                           match=r"^covariance repair failed \(minimum eigenvalue \S+\): forced$"):
            gen_synthetic_corr(50, 6, seed=0)

    def test_eigenvectors_only_for_a_repair(self, monkeypatch):
        """The positive-definiteness check reads eigenvalues alone. Made to
        fail here by shifting them, it rebuilds the covariance from its
        clipped eigendecomposition; that covariance is positive definite
        already, so the repair only rounds it."""
        calls = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        plain, _ = gen_synthetic_corr(200, 6, seed=4)
        assert calls == []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) - 10.0)
        repaired, _ = gen_synthetic_corr(200, 6, seed=4)
        assert calls == [(6, 6)]
        np.testing.assert_allclose(repaired.features, plain.features, rtol=1e-9, atol=1e-12)


class TestGaussianCausal:
    def test_planted_coefficients_in_band(self):
        _, truth = gen_gaussian_causal(30, 40, k0=7, seed=4)
        assert truth.support.size == 7
        assert np.all(np.diff(truth.support) > 0)
        mags = np.abs(truth.beta_true[truth.support])
        assert np.all((mags >= 2.0) & (mags <= 10.0))
        off = np.setdiff1d(np.arange(40), truth.support)
        assert np.all(truth.beta_true[off] == 0.0)
        assert truth.beta_true[-1] == 0.0

    def test_features_near_isotropic(self):
        ds, _ = gen_gaussian_causal(4000, 8, k0=2, seed=6)
        C = np.cov(ds.features, rowvar=False)
        assert float(np.max(np.abs(C - np.eye(8)))) <= 4.0 / np.sqrt(4000)

    def test_deterministic(self):
        a, ta = gen_gaussian_causal(25, 12, k0=3, seed=13)
        b, tb = gen_gaussian_causal(25, 12, k0=3, seed=13)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(ta.beta_true, tb.beta_true)

    def test_k0_validated(self):
        with pytest.raises(ValueError, match="k0"):
            gen_gaussian_causal(10, 5, k0=6, seed=0)
        with pytest.raises(ValueError, match="k0"):
            gen_gaussian_causal(10, 5, k0=0, seed=0)


class TestSpiral:
    def test_default_composition(self):
        ds = gen_spiral()
        assert ds.features.shape == (1000, 2)
        assert ds.class_names == ("A", "B", "C")
        counts = np.bincount(ds.labels)
        np.testing.assert_array_equal(counts, [600, 300, 100])

    def test_noiseless_first_point_of_class_a(self):
        ds = gen_spiral(sigmas=(0.0, 0.0, 0.0))
        r = 7.0 * (1.0 - 1.0 / 720.0)
        theta = np.pi / 8.0 + np.pi / 600.0
        want = np.array([-3.5 + r * np.cos(theta), 3.5 + r * np.sin(theta)])
        np.testing.assert_allclose(ds.features[0], want, rtol=0, atol=1e-12)

    def test_noiseless_radii_wind_inward(self):
        ds = gen_spiral(60, 30, 10, sigmas=(0.0, 0.0, 0.0))
        radii = np.hypot(ds.features[:, 0] + 3.5, ds.features[:, 1] - 3.5)
        assert np.all(radii < 7.0)
        assert np.all(radii >= 7.0 / 6.0 - 1e-12)
        class_a = radii[ds.labels == 0]
        assert np.all(np.diff(class_a) < 0)

    def test_deterministic(self):
        a = gen_spiral(50, 25, 10, seed=21)
        b = gen_spiral(50, 25, 10, seed=21)
        np.testing.assert_array_equal(a.features, b.features)

    def test_counts_validated(self):
        with pytest.raises(ValueError, match="at least one"):
            gen_spiral(10, 0, 5)


def test_row_scoring_zero_is_redrawn_until_it_has_a_sign():
    """Rows 0 and 2 score 0; the first redraw of both leaves row 2 at 0, the
    second gives it a sign."""
    X = np.array([[1.0, 1.0], [2.0, 0.0], [3.0, 3.0]])
    blocks = iter([np.array([[0.0, 1.0], [5.0, 5.0]]), np.array([[4.0, 1.0]])])
    counts = []

    def redraw(count):
        counts.append(count)
        return next(blocks)

    labels = _planted_labels(X, np.array([1.0, -1.0]), redraw)
    assert counts == [2, 1]
    np.testing.assert_array_equal(X, [[0.0, 1.0], [2.0, 0.0], [4.0, 1.0]])
    np.testing.assert_array_equal(labels, [0, 1, 1])


class TestRecords:
    def test_simspec_round_trip(self):
        spec = SimSpec("spiral", 1000, 2, seed=0, params={"sigmas": [0.1, 0.2, 0.3]})
        d = spec.to_dict()
        assert d["family"] == "spiral" and d["k0"] is None
        assert d["params"]["sigmas"] == [0.1, 0.2, 0.3]

    def test_planted_model_coerces_arrays(self):
        m = PlantedModel([1, 0, 0], [0])
        assert m.beta_true.dtype == float
        assert m.support.dtype == int
