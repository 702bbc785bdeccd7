import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsesvm.data import (GRAM_SPAN, RANK_TOL, DataError, Dataset, DesignMatrix,
                            apply_transform, binarize, load_csv, load_features_csv,
                            make_folds, thin_svd)
from sparsesvm.simdata import gen_gaussian_causal, gen_synthetic_corr

EPS = np.finfo(float).eps


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_readback(self, tmp_path):
        path = write(tmp_path, "f1,f2,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        ds = load_csv(path, "label")
        assert ds.n == 3 and ds.p == 2
        assert ds.class_names == ("a", "b")
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_allclose(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_label_by_index_without_header(self, tmp_path):
        path = write(tmp_path, "1.0,yes\n2.0,no\n")
        ds = load_csv(path, 1, has_header=False)
        assert ds.class_names == ("yes", "no")
        assert ds.p == 1

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = write(tmp_path, "f1,label\n1.0,a\nx,b\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, "label")

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "f1,f2\n1.0,2.0\n")
        with pytest.raises(DataError):
            load_csv(path, "label")

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "f1,label\n1.0,a\n2.0,a\n")
        with pytest.raises(DataError, match="2 classes"):
            load_csv(path, "label")

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("label,f1\na,1.0\nb,2.0\n".encode("utf-8-sig"))
        ds = load_csv(path, "label")
        assert ds.class_names == ("a", "b")
        np.testing.assert_array_equal(ds.features, [[1.0], [2.0]])

    def test_first_appearance_order(self, tmp_path):
        path = write(tmp_path, "f1,label\n1.0,z\n2.0,a\n3.0,z\n4.0,m\n")
        ds = load_csv(path, "label")
        assert ds.class_names == ("z", "a", "m")


class TestLoadFeaturesCsv:
    def test_readback(self, tmp_path):
        path = write(tmp_path, "f1,f2\n1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(load_features_csv(path), [[1, 2], [3, 4]])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_reports_row(self, tmp_path, cell):
        path = write(tmp_path, f"f1,f2\n1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(DataError, match="non-finite value at row 2, column 1"):
            load_features_csv(path)

    def test_ragged_row_reported(self, tmp_path):
        path = write(tmp_path, "1.0,2.0\n3.0\n", name="r.csv")
        with pytest.raises(DataError, match="row 2 has 1 cells, expected 2"):
            load_features_csv(path, has_header=False)

    def test_field_over_csv_limit(self, tmp_path):
        path = write(tmp_path, "f1\n" + "1" * 200_000 + "\n")
        with pytest.raises(DataError, match="malformed CSV"):
            load_features_csv(path)

    def test_byte_order_mark_without_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("1.0,2.0\n3.0,4.0\n".encode("utf-8-sig"))
        np.testing.assert_array_equal(load_features_csv(path, has_header=False),
                                      [[1, 2], [3, 4]])

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"f1\n\xff\n")
        with pytest.raises(DataError, match="not UTF-8"):
            load_features_csv(path)


# Cells a CSV loader meets: numbers, non-finite spellings, blanks, words and
# arbitrary short text (quotes, separators and line breaks included).
CSV_CELLS = st.one_of(
    st.sampled_from(["1", "-2.5", "0", "1e3", " 7 ", "nan", "inf", "-inf", "1e999",
                     "", " ", "a", "b", "x"]),
    st.text(max_size=4),
)
CSV_TEXT = st.lists(st.lists(CSV_CELLS, min_size=1, max_size=4), max_size=6).map(
    lambda rows: "\n".join(",".join(row) for row in rows))
CSV_BYTES = st.one_of(CSV_TEXT.map(lambda t: t.encode("utf-8")), st.binary(max_size=40))
FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(content=CSV_BYTES, header=st.booleans(),
       label=st.sampled_from([0, -1, 3, "1", "f1", "label", "²"]))
@FUZZ
def test_load_csv_gives_dataset_or_data_error(tmp_path, content, header, label):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(content)
    try:
        ds = load_csv(path, label, has_header=header)
    except DataError:
        return
    assert ds.features.ndim == 2 and ds.n == ds.labels.size
    assert np.all(np.isfinite(ds.features))


@given(content=CSV_BYTES, header=st.booleans())
@FUZZ
def test_load_features_csv_gives_array_or_data_error(tmp_path, content, header):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(content)
    try:
        feats = load_features_csv(path, has_header=header)
    except DataError:
        return
    assert feats.ndim == 2 and feats.shape[0] >= 1
    assert np.all(np.isfinite(feats))


class TestTransforms:
    def test_standardized_column(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 0]), ("a", "b"))
        out = apply_transform(ds, "standardized")
        np.testing.assert_allclose(out.features[:, 0], [-1.0, 0.0, 1.0], atol=1e-6)
        assert out.transform == "standardized"

    def test_minmax_column(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 0]), ("a", "b"))
        out = apply_transform(ds, "minmax")
        np.testing.assert_allclose(out.features[:, 0], [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("kind", ["standardized", "minmax"])
    def test_constant_column_goes_to_zero(self, kind):
        ds = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]),
                     np.array([0, 1, 0]), ("a", "b"))
        out = apply_transform(ds, kind)
        np.testing.assert_array_equal(out.features[:, 0], np.zeros(3))

    def test_double_transform_rejected(self):
        ds = Dataset(np.array([[1.0], [2.0]]), np.array([0, 1]), ("a", "b"))
        out = apply_transform(ds, "minmax")
        with pytest.raises(DataError, match="already transformed"):
            apply_transform(out, "standardized")

    def test_standardized_invariants(self, rng):
        X = rng.standard_normal((40, 5)) * 3 + 1
        ds = Dataset(X, rng.integers(0, 2, size=40), ("a", "b"))
        out = apply_transform(ds, "standardized")
        np.testing.assert_allclose(out.features.mean(axis=0), 0, atol=1e-10)
        np.testing.assert_allclose(out.features.var(axis=0, ddof=1), 1, atol=1e-8)

    def test_held_out_replay_uses_training_parameters(self, rng):
        """Held-out values may leave [0,1]; the stored min/max are not refit."""
        X = rng.uniform(0, 1, size=(20, 3))
        ds = apply_transform(Dataset(X, rng.integers(0, 2, size=20), ("a", "b")), "minmax")
        held = np.array([[2.0, 0.5, -1.0]])
        replayed = ds.transform_params.apply(held)
        assert replayed[0, 0] > 1.0
        assert replayed[0, 2] < 0.0
        np.testing.assert_allclose(ds.transform_params.apply(X), ds.features)


class TestDatasetValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0], [np.nan]]), np.array([0, 1]), ("a", "b"))

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0], [2.0]]), np.array([0, 2]), ("a", "b"))

    def test_take_subsets_rows(self, rng):
        ds = Dataset(rng.standard_normal((6, 2)), np.array([0, 1, 0, 1, 0, 1]), ("a", "b"))
        sub = ds.take([0, 3, 5])
        assert sub.n == 3
        np.testing.assert_array_equal(sub.labels, [0, 1, 1])

    @pytest.mark.parametrize("indices", [[True, False, False, False, True, True],
                                         [0.0, 3.0], np.array([1.5])])
    def test_take_rejects_non_integer_indices(self, rng, indices):
        # a boolean mask would otherwise be read as the row numbers 0 and 1
        ds = Dataset(rng.standard_normal((6, 2)), np.array([0, 1, 0, 1, 0, 1]), ("a", "b"))
        with pytest.raises(DataError, match="row indices must be integers"):
            ds.take(indices)

    def test_take_accepts_any_integer_dtype(self, rng):
        ds = Dataset(rng.standard_normal((6, 2)), np.array([0, 1, 0, 1, 0, 1]), ("a", "b"))
        for dtype in (np.int32, np.uint8, np.int64):
            np.testing.assert_array_equal(ds.take(np.array([5, 0], dtype=dtype)).labels, [1, 0])


class TestBinarize:
    def test_counts_and_signs(self, rng):
        labels = np.array([0] * 10 + [1] * 20 + [2] * 30)
        ds = Dataset(rng.standard_normal((60, 4)), labels, ("a", "b", "c"))
        design = binarize(ds, 0, 1)
        assert design.n == 30
        assert int(np.sum(design.y == 1)) == 10
        assert int(np.sum(design.y == -1)) == 20

    def test_intercept_column_is_ones(self, rng):
        ds = Dataset(rng.standard_normal((10, 3)), rng.integers(0, 2, size=10), ("a", "b"))
        design = binarize(ds, 1, 0)
        np.testing.assert_array_equal(design.X[:, -1], np.ones(design.n))

    def test_same_class_twice_rejected(self, rng):
        ds = Dataset(rng.standard_normal((4, 2)), np.array([0, 1, 0, 1]), ("a", "b"))
        with pytest.raises(DataError):
            binarize(ds, 0, 0)


class TestDesignMatrix:
    def test_requires_trailing_ones(self, rng):
        X = rng.standard_normal((5, 3))
        with pytest.raises(DataError):
            DesignMatrix(X, np.ones(5))

    def test_requires_pm_one_labels(self, rng):
        X = np.column_stack([rng.standard_normal((5, 2)), np.ones(5)])
        with pytest.raises(DataError):
            DesignMatrix(X, np.array([1.0, 0.0, 1.0, -1.0, 1.0]))


def with_spectrum(rng, shape, s):
    """A design of ``shape`` whose singular values are ``s``."""
    A, _ = np.linalg.qr(rng.standard_normal((shape[0], s.size)))
    B, _ = np.linalg.qr(rng.standard_normal((shape[1], s.size)))
    return (A * s) @ B.T


def lapack_factors(X):
    """``thin_svd``'s factors from ``np.linalg.svd`` with the ``RANK_TOL`` cut."""
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    r = int(np.count_nonzero(s > RANK_TOL * s[0]))
    return U[:, :r], s[:r], Vh[:r].T


def refuse_svd(*args, **kwargs):
    """Stands in for ``np.linalg.svd``: a design factored anyway took the gram route."""
    raise AssertionError("np.linalg.svd called")


@pytest.fixture
def no_lapack_svd(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", refuse_svd)


@pytest.fixture
def lapack_svd_calls(monkeypatch):
    """Count the calls of ``np.linalg.svd``."""
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def assert_thin_svd_of(svd, X, s_ref, orth_tol):
    n, p = X.shape
    r = svd.s.size
    assert svd.U.shape == (n, r) and svd.V.shape == (p, r)
    assert svd.U.flags.c_contiguous and svd.V.flags.c_contiguous
    assert np.all(np.diff(svd.s) <= 0)
    np.testing.assert_allclose(svd.s, s_ref, rtol=1e-13, atol=0)
    assert np.max(np.abs(svd.U.T @ svd.U - np.eye(r))) <= orth_tol
    assert np.max(np.abs(svd.V.T @ svd.V - np.eye(r))) <= orth_tol
    assert np.linalg.norm((svd.U * svd.s) @ svd.V.T - X) <= 1e-13 * np.linalg.norm(X)


class TestThinSvd:
    """``thin_svd`` factors through ``eigh(X'X)`` or ``eigh(XX')`` while the
    eigenvalues span less than ``GRAM_SPAN (n + p)``, and through LAPACK's SVD
    otherwise."""

    def test_identity(self):
        svd = thin_svd(np.eye(3))
        np.testing.assert_allclose(svd.s, np.ones(3))
        assert svd.s.size == 3

    def test_rank_one(self, rng):
        u = rng.standard_normal(8)
        v = rng.standard_normal(3)
        svd = thin_svd(np.outer(u, v))
        assert svd.s.size == 1

    @pytest.mark.parametrize("shape", [(50, 10), (10, 50), (30, 30)])
    def test_orthonormal_and_reconstructs(self, rng, shape):
        X = rng.standard_normal(shape)
        svd = thin_svd(X)
        r = svd.s.size
        assert np.max(np.abs(svd.U.T @ svd.U - np.eye(r))) <= 1e-10
        assert np.max(np.abs(svd.V.T @ svd.V - np.eye(r))) <= 1e-10
        err = np.linalg.norm(svd.U @ np.diag(svd.s) @ svd.V.T - X)
        assert err <= 1e-8 * np.linalg.norm(X)
        assert np.all(np.diff(svd.s) <= 0)

    @pytest.mark.parametrize("shape", [(80, 30), (30, 80), (40, 40)],
                             ids=["tall", "wide", "square"])
    def test_agrees_with_lapack(self, rng, shape, monkeypatch):
        X = with_spectrum(rng, shape, np.linspace(3.0, 1.0, min(shape)))
        s_ref = np.linalg.svd(X, compute_uv=False)
        monkeypatch.setattr(np.linalg, "svd", refuse_svd)
        svd = thin_svd(X)
        assert svd.s.size == min(shape)
        assert_thin_svd_of(svd, X, s_ref, 8 * EPS * sum(shape))

    @pytest.mark.parametrize("shape", [(3, 2), (12, 6), (40, 39), (6, 30), (200, 101)])
    def test_guard_keeps_the_factors_orthonormal(self, rng, shape, lapack_svd_calls):
        """Just inside the guard the gram route is taken and the factors stay
        orthonormal to a small multiple of ``eps (n + p)``, the accuracy of
        LAPACK's own; just outside it LAPACK's SVD is taken."""
        r = min(shape)
        limit = np.sqrt(GRAM_SPAN * sum(shape))
        for seed in range(6):
            draw = np.random.default_rng(seed)
            inside = with_spectrum(draw, shape, np.geomspace(1.0, 1.01 / limit, r))
            s_ref = np.linalg.svd(inside, compute_uv=False)
            del lapack_svd_calls[:]
            assert_thin_svd_of(thin_svd(inside), inside, s_ref, 8 * EPS * sum(shape))
            assert not lapack_svd_calls
            thin_svd(with_spectrum(draw, shape, np.geomspace(1.0, 0.99 / limit, r)))
            assert lapack_svd_calls == [shape]

    @pytest.mark.parametrize("spoil", ["ill-conditioned", "rank-deficient"])
    def test_design_failing_the_guard_falls_back(self, rng, lapack_svd_calls, spoil):
        """A column scaled by 1e-6, or a duplicated column that the ``RANK_TOL``
        cut drops: the factors are LAPACK's, bit for bit."""
        X = rng.standard_normal((60, 20))
        if spoil == "ill-conditioned":
            X[:, 3] *= 1e-6
        else:
            X[:, 7] = X[:, 2]
        r = 20 if spoil == "ill-conditioned" else 19
        want = lapack_factors(X)
        del lapack_svd_calls[:]
        svd = thin_svd(X)
        assert lapack_svd_calls == [X.shape]
        assert svd.s.size == r
        for got, ref in zip((svd.U, svd.s, svd.V), want):
            np.testing.assert_array_equal(got, ref)

    def test_corr_cv_fold_design_takes_the_gram_route(self, no_lapack_svd):
        raw, _ = gen_synthetic_corr(800, 500, seed=1)
        ds = apply_transform(raw, "standardized")
        folds = make_folds(ds.n, 4, seed=1, labels=ds.labels)
        design = binarize(ds.take(folds.train_indices(0)), 1, 0)
        assert design.X.shape == (600, 501)
        svd = thin_svd(design.X)
        assert svd.s.size == 501
        assert np.max(np.abs(svd.U.T @ svd.U - np.eye(501))) <= 8 * EPS * 1101

    def test_planted_design_takes_the_gram_route(self, no_lapack_svd):
        ds, _ = gen_gaussian_causal(200, 100, 5, 0)
        svd = thin_svd(binarize(ds, 1, 0).X)
        assert svd.s.size == 101
        assert np.max(np.abs(svd.U.T @ svd.U - np.eye(101))) <= 8 * EPS * 301


class TestMakeFolds:
    def test_one_sample_per_fold(self):
        plan = make_folds(10, 10, seed=0)
        sizes = np.bincount(plan.assignments, minlength=10)
        np.testing.assert_array_equal(sizes, np.ones(10))

    def test_balanced_sizes(self):
        plan = make_folds(10, 3, seed=0)
        sizes = sorted(np.bincount(plan.assignments), reverse=True)
        assert sizes == [4, 3, 3]

    def test_deterministic(self):
        a = make_folds(37, 5, seed=11)
        b = make_folds(37, 5, seed=11)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_stratification_spreads_small_class(self, rng):
        labels = np.array([0] * 45 + [1] * 5)
        plan = make_folds(50, 5, seed=3, labels=labels)
        for fold in range(5):
            members = labels[plan.val_indices(fold)]
            assert int(np.sum(members == 1)) == 1

    def test_train_val_partition(self):
        plan = make_folds(23, 4, seed=9)
        for fold in range(4):
            merged = np.sort(np.concatenate([plan.val_indices(fold), plan.train_indices(fold)]))
            np.testing.assert_array_equal(merged, np.arange(23))

    def test_num_folds_out_of_range(self):
        with pytest.raises(ValueError):
            make_folds(5, 1, seed=0)
        with pytest.raises(ValueError):
            make_folds(5, 6, seed=0)

    def test_json_round_trip(self):
        plan = make_folds(12, 3, seed=4)
        doc = json.loads(json.dumps(plan.to_dict()))
        assert doc == {"num_folds": 3, "seed": 4, "assignments": plan.assignments.tolist()}


@given(n=st.integers(4, 60), num_folds=st.integers(2, 4), seed=st.integers(0, 999))
@settings(max_examples=80, deadline=None)
def test_fold_sizes_differ_by_at_most_one(n, num_folds, seed):
    if num_folds > n:
        return
    plan = make_folds(n, num_folds, seed=seed)
    sizes = np.bincount(plan.assignments, minlength=num_folds)
    assert sizes.max() - sizes.min() <= 1
    assert sizes.sum() == n
