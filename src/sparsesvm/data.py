"""Dataset ingestion, feature transforms, design matrices, factorization, folds."""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "ColumnTransform",
    "Dataset",
    "DesignMatrix",
    "ThinSVD",
    "FoldPlan",
    "load_csv",
    "load_labeled_csv",
    "load_features_csv",
    "apply_transform",
    "binarize",
    "thin_svd",
    "make_folds",
]


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class ColumnTransform:
    """Per-column affine map fitted on training features.

    ``scale`` holds the sample standard deviation (ddof=1) for the
    "standardized" kind and the column range for "minmax"; a zero marks a
    constant training column, which maps to zero on any input.
    """

    kind: str
    center: np.ndarray
    scale: np.ndarray

    def apply(self, features: np.ndarray) -> np.ndarray:
        X = np.asarray(features, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.center.size:
            raise DataError(
                f"expected {self.center.size} feature columns, got shape {X.shape}"
            )
        out = np.zeros_like(X)
        live = self.scale != 0
        out[:, live] = (X[:, live] - self.center[live]) / self.scale[live]
        return out


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer class ids indexing ``class_names``."""

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    transform: str = "none"
    transform_params: ColumnTransform | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(str(c) for c in self.class_names))
        if features.ndim != 2 or features.size == 0:
            raise DataError(f"feature matrix must be 2-d and non-empty, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise DataError("labels length does not match number of feature rows")
        if not np.all(np.isfinite(features)):
            raise DataError("feature matrix contains non-finite entries")
        if labels.min() < 0 or labels.max() >= len(self.class_names):
            raise DataError("label ids must index into class_names")
        if np.unique(labels).size < 2:
            raise DataError("fewer than 2 classes present")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        """Rows ``indices`` (integers, not a mask), sharing class names and transform metadata."""
        idx = np.asarray(indices)
        if not np.issubdtype(idx.dtype, np.integer):
            raise DataError(f"row indices must be integers, got dtype {idx.dtype}")
        return replace(self, features=self.features[idx], labels=self.labels[idx])


@dataclass(frozen=True)
class DesignMatrix:
    """Two-class design with a trailing all-ones intercept column and +/-1 labels."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2 or X.shape[1] < 2:
            raise DataError(f"design matrix needs at least one feature column, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DataError("label vector length does not match design rows")
        if not np.all(X[:, -1] == 1.0):
            raise DataError("last design column must be the intercept (all ones)")
        if not np.all(np.abs(y) == 1.0):
            raise DataError("labels must be +/-1")

    @classmethod
    def from_features(cls, features: np.ndarray, y: np.ndarray) -> "DesignMatrix":
        features = np.asarray(features, dtype=float)
        return cls(np.hstack([features, np.ones((features.shape[0], 1))]), y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1] - 1


@dataclass(frozen=True)
class ThinSVD:
    """Rank-truncated thin SVD, X ~= U @ diag(s) @ V.T."""

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic assignment of each sample to one validation fold."""

    num_folds: int
    assignments: np.ndarray
    seed: int

    def val_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)

    def to_dict(self) -> dict:
        return {
            "num_folds": int(self.num_folds),
            "seed": int(self.seed),
            "assignments": [int(a) for a in self.assignments],
        }


def _read_rows(path: Path) -> list[list[str]]:
    """The non-empty rows of a comma-delimited UTF-8 file, with or without a
    byte-order mark."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            return [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV: {exc}") from None


def _parse_rows(path, rows, ncol: int, label_idx: int | None = None):
    """Feature values and raw labels of ``rows``: each row must have ``ncol``
    cells, and each cell but the label a finite float. Rows count from 1."""
    feats = []
    raw_labels = []
    for i, row in enumerate(rows, start=1):
        if len(row) != ncol:
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {ncol}")
        vals = []
        for j, cell in enumerate(row):
            cell = cell.strip()
            if j == label_idx:
                if not cell:
                    raise DataError(f"{path}: missing label at row {i}")
                raw_labels.append(cell)
                continue
            if not cell:
                raise DataError(f"{path}: missing value at row {i}, column {j}")
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: cannot parse {cell!r} as a number at row {i}, column {j}"
                ) from None
            if not np.isfinite(v):
                raise DataError(f"{path}: non-finite value at row {i}, column {j}")
            vals.append(v)
        feats.append(vals)
    return feats, raw_labels


def load_features_csv(path, has_header: bool = True) -> np.ndarray:
    """Read a comma-delimited UTF-8 file of feature cells only (no label
    column) into an n x p array; every cell must parse as a finite float."""
    path = Path(path)
    rows = _read_rows(path)
    if has_header:
        rows = rows[1:]
    if not rows:
        raise DataError(f"{path}: no data rows")
    feats, _ = _parse_rows(path, rows, len(rows[0]))
    return np.asarray(feats, dtype=float)


def load_labeled_csv(path, label_column, has_header: bool = True):
    """Read a comma-delimited UTF-8 file into an n x p feature array and the
    list of its raw label strings, however many classes they hold.

    ``label_column`` is a header name (requires ``has_header``) or a 0-based
    column index; every other cell must parse as a finite float.
    """
    path = Path(path)
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: empty file")
    header = None
    if has_header:
        header, rows = [c.strip() for c in rows[0]], rows[1:]
        if not rows:
            raise DataError(f"{path}: no data rows")
    ncol = len(header) if header is not None else len(rows[0])

    if isinstance(label_column, str) and not label_column.lstrip("-").isdecimal():
        if header is None:
            raise DataError("label column given by name but the file has no header")
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not found in header {header}")
        label_idx = header.index(label_column)
    else:
        label_idx = int(label_column)
        if not -ncol <= label_idx < ncol:
            raise DataError(f"label column index {label_idx} out of range for {ncol} columns")
        label_idx %= ncol

    feats, raw_labels = _parse_rows(path, rows, ncol, label_idx)
    return np.asarray(feats, dtype=float), raw_labels


def load_csv(path, label_column, has_header: bool = True) -> Dataset:
    """Read a comma-delimited UTF-8 file into a Dataset (see ``load_labeled_csv``).

    Labels are factorized in first-appearance order; there must be at least two.
    """
    feats, raw_labels = load_labeled_csv(path, label_column, has_header)
    index = {lab: i for i, lab in enumerate(dict.fromkeys(raw_labels))}
    if len(index) < 2:
        raise DataError(f"{path}: fewer than 2 classes in the label column")
    ids = np.asarray([index[lab] for lab in raw_labels], dtype=int)
    return Dataset(feats, ids, tuple(index))


def apply_transform(ds: Dataset, kind: str) -> Dataset:
    """Column-wise standardize or min-max scale. Constant columns map to zero.

    The fitted parameters are stored on the returned Dataset so held-out data
    can be pushed through ``transform_params.apply`` without refitting.
    """
    if ds.transform != "none":
        raise DataError(f"dataset already transformed ({ds.transform!r})")
    X = ds.features
    span = np.ptp(X, axis=0)
    if kind == "standardized":
        center = X.mean(axis=0)
        scale = X.std(axis=0, ddof=1) if X.shape[0] > 1 else np.zeros(X.shape[1])
        scale = np.where(span == 0, 0.0, scale)
    elif kind == "minmax":
        center = X.min(axis=0)
        scale = span
    elif kind == "none":
        return ds
    else:
        raise DataError(f"unknown transform {kind!r}")
    params = ColumnTransform(kind, center, scale)
    return replace(ds, features=params.apply(X), transform=kind, transform_params=params)


def binarize(ds: Dataset, positive_class: int, negative_class: int) -> DesignMatrix:
    """Rows of the two classes with labels mapped to +/-1 and an intercept column."""
    pos, neg = int(positive_class), int(negative_class)
    if pos == neg:
        raise DataError("positive and negative class must differ")
    for cid in (pos, neg):
        if not 0 <= cid < len(ds.class_names):
            raise DataError(f"class id {cid} out of range")
        if not np.any(ds.labels == cid):
            raise DataError(f"class {ds.class_names[cid]!r} has no samples")
    mask = (ds.labels == pos) | (ds.labels == neg)
    y = np.where(ds.labels[mask] == pos, 1.0, -1.0)
    return DesignMatrix.from_features(ds.features[mask], y)


# share of the largest singular value or eigenvalue below which factors are dropped
RANK_TOL = 1e-12
# ``thin_svd`` factors an n x p design through its gram matrix only while that
# matrix's eigenvalues span at most a factor GRAM_SPAN (n + p); see there
GRAM_SPAN = 2.0


def thin_svd(X: np.ndarray) -> ThinSVD:
    """Thin SVD keeping singular values above ``RANK_TOL`` relative to the largest.

    An n x p design is factored through the eigendecomposition of its gram
    matrix: of ``G = X'X`` when n >= p, whose eigenvectors are ``V`` and
    eigenvalues ``s^2``, so that ``U = X V / s``; of ``G = XX'`` when n < p,
    giving ``U`` and ``V = X'U / s``. That takes about half the time and
    memory of LAPACK's SVD.

    Squaring the design squares its condition number, and the factor formed
    by the product loses orthogonality in step: ``||U'U - I||`` (or
    ``||V'V - I||``) grows like ``eps lam_max / lam_min``. The gram route is
    therefore taken only when ``lam_max < GRAM_SPAN (n + p) lam_min``, which
    holds that error to a small multiple of ``eps (n + p)``, the error of
    LAPACK's own factors that ``solvers._factored_grad_sq`` allows for. Every
    other design, the rank-deficient ones among them, is factored by
    ``np.linalg.svd`` and cut at ``RANK_TOL`` as before, after paying for the
    gram eigendecomposition too.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if X.size:
        tall = n >= p
        G = X.T @ X if tall else X @ X.T
        # the eigenpairs of -G are G's in descending order, so s comes out sorted
        np.negative(G, out=G)
        try:
            lam, Q = np.linalg.eigh(G)
        except np.linalg.LinAlgError:  # non-finite entries: left to the SVD below
            lam = None
        del G
        # -lam[0] and -lam[-1] are G's largest and smallest eigenvalues
        if lam is not None and -lam[-1] > -lam[0] / (GRAM_SPAN * (n + p)):
            s = np.sqrt(np.negative(lam, out=lam), out=lam)
            other = X @ Q if tall else X.T @ Q
            other /= s
            return ThinSVD(other, s, Q) if tall else ThinSVD(Q, s, other)
    try:
        U, s, Vh = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"SVD failed to converge: {exc}") from exc
    if s.size == 0 or s[0] <= 0.0:
        r = 0
    else:
        r = int(np.count_nonzero(s > RANK_TOL * s[0]))
    return ThinSVD(np.ascontiguousarray(U[:, :r]), s[:r].copy(), np.ascontiguousarray(Vh[:r].T))


def make_folds(n: int, num_folds: int, seed: int, labels=None) -> FoldPlan:
    """Balanced fold assignment, stratified by class when labels are given.

    Assignment deals shuffled samples to folds cyclically, carrying the cycle
    across classes so overall fold sizes differ by at most one.
    """
    if not 2 <= num_folds <= n:
        raise DataError(f"need 2 <= num_folds <= n, got num_folds={num_folds}, n={n}")
    rng = np.random.default_rng(seed)
    if labels is None:
        groups = [rng.permutation(n)]
    else:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise DataError("labels length does not match n")
        groups = [rng.permutation(np.flatnonzero(labels == c)) for c in np.unique(labels)]
    assignments = np.empty(n, dtype=int)
    assignments[np.concatenate(groups)] = np.arange(n) % num_folds
    return FoldPlan(int(num_folds), assignments, int(seed))
