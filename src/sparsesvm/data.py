"""Dataset ingestion, feature transforms, design matrices, factorization, folds."""

from __future__ import annotations

import csv
import itertools
import math
from array import array
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
    "apply_transform",
    "binarize",
    "thin_svd",
    "make_folds",
]


class DataError(ValueError):
    """Malformed or inconsistent input data.

    An error about one row of an array keeps the row's index there in ``row``,
    and its message names the row, numbered from 1, where ``{row}`` stands;
    ``renumbered`` names it as a larger set the array was taken from numbers it.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = None if row is None else int(row)

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.row is None else text.format(row=self.row + 1)

    def renumbered(self, rows) -> "DataError":
        """This error with its row named by ``rows[row]``; unchanged without a row."""
        return self if self.row is None else DataError(self.args[0], rows[self.row])


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
        """The transformed features; a value that is not finite after the map is
        refused, naming its row (numbered from 1) and feature column."""
        X = np.asarray(features, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.center.size:
            raise DataError(
                f"expected {self.center.size} feature columns, got shape {X.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            out = X - self.center
            out /= np.where(self.scale != 0, self.scale, 1.0)
        out[:, self.scale == 0] = 0.0
        finite = np.isfinite(out)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise DataError(f"{self.kind} transform of row {{row}}, feature column {j}: "
                            f"{X[i, j]:g} maps to {out[i, j]:g}", i)
        return out


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer class ids indexing ``class_names``, of which
    there are at least two; a class may have no rows (a holdout is only scored).

    ``source_rows`` holds, for rows taken from another dataset (``take``), the
    index of each in the dataset first taken from, which names a row a check
    refuses; None for a dataset of its own rows.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    transform: str = "none"
    transform_params: ColumnTransform | None = None
    source_rows: np.ndarray | None = None

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
        if len(self.class_names) < 2:
            raise DataError("fewer than 2 class names")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def source(self) -> np.ndarray:
        """The index of each row in the dataset first taken from (``source_rows``)."""
        return np.arange(self.n) if self.source_rows is None else self.source_rows

    def take(self, indices) -> "Dataset":
        """Rows ``indices`` (integers, not a mask), sharing class names and transform metadata."""
        idx = _row_indices(indices)
        return replace(self, features=self.features.take(idx, axis=0),
                       labels=self.labels[idx], source_rows=self.source()[idx])


def _row_indices(indices) -> np.ndarray:
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise DataError(f"row indices must be integers, got dtype {idx.dtype}")
    return idx


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


def load_labeled_csv(path, label_column=None, has_header: bool = True):
    """Read a comma-delimited UTF-8 file, with or without a byte-order mark,
    into an n x p feature array and the list of its raw label strings, however
    many classes they hold.

    ``label_column`` is a header name (requires ``has_header``) or a 0-based
    column index; with None every cell is a feature and the labels are None.
    Every row must be as wide as the header, or as the first row without one,
    and every cell but the label must parse as a finite float. Rows are parsed
    as they are read, into one buffer of floats, so the first fault in the file
    is reported; the text is decoded a block of 8 KiB ahead of the rows parsed.
    """
    path = Path(path)
    values = array("d")
    raw_labels = []
    i = 0  # data rows read; the messages number them from 1
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = filter(None, csv.reader(fh))
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: empty file")
            ncol = len(first)
            header = [c.strip() for c in first] if has_header else None
            if label_column is None:
                label_idx = None
            elif isinstance(label_column, str) and not label_column.lstrip("-").isdecimal():
                if header is None:
                    raise DataError("label column given by name but the file has no header")
                if label_column not in header:
                    raise DataError(f"label column {label_column!r} not found in header {header}")
                label_idx = header.index(label_column)
            else:
                label_idx = int(label_column)
                if not -ncol <= label_idx < ncol:
                    raise DataError(
                        f"label column index {label_idx} out of range for {ncol} columns")
                label_idx %= ncol
            if header is None:
                rows = itertools.chain([first], rows)
            for i, row in enumerate(rows, start=1):
                if len(row) != ncol:
                    raise DataError(f"{path}: row {i} has {len(row)} cells, expected {ncol}")
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
                    if not math.isfinite(v):
                        raise DataError(f"{path}: non-finite value at row {i}, column {j}")
                    values.append(v)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV: {exc}") from None
    if not i:
        raise DataError(f"{path}: no data rows")
    feats = np.frombuffer(values, dtype=float).reshape(i, ncol - (label_idx is not None))
    return feats, None if label_idx is None else raw_labels


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
    """Column-wise standardize or min-max scale. Constant columns map to zero,
    and a column whose fitted center or scale overflows is refused.

    The fitted parameters are stored on the returned Dataset so held-out data
    can be pushed through ``transform_params.apply`` without refitting.
    """
    if ds.transform != "none":
        raise DataError(f"dataset already transformed ({ds.transform!r})")
    if kind == "none":
        return ds
    if kind not in ("standardized", "minmax"):
        raise DataError(f"unknown transform {kind!r}")
    X = ds.features
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        span = np.ptp(X, axis=0)
        if kind == "minmax":
            center, scale = X.min(axis=0), span
        else:
            center = X.mean(axis=0)
            scale = X.std(axis=0, ddof=1) if X.shape[0] > 1 else np.zeros(X.shape[1])
            scale = np.where(span == 0, 0.0, scale)
    bad = np.flatnonzero(~(np.isfinite(center) & np.isfinite(scale)))
    if bad.size:
        j = bad[0]
        raise DataError(f"{kind} transform overflows: feature column {j} has center "
                        f"{center[j]:g} and scale {scale[j]:g}")
    params = ColumnTransform(kind, center, scale)
    return replace(ds, features=params.apply(X), transform=kind, transform_params=params)


# cells per block of rows that ``binarize`` gathers: the temporary is one
# block, not a second copy of the features
GATHER_BLOCK = 1 << 15
# bound on the squared norm of a pair design's features (and of a row that a
# kernel scores): under it no entry or partial sum of ``X'X`` or ``XX'``, and
# no squared distance between two rows, can overflow
MAX_SQ_NORM = np.finfo(float).max / 4


def binarize(ds: Dataset, positive_class: int, negative_class: int,
             rows=None) -> DesignMatrix:
    """Rows of the two classes with labels mapped to +/-1 and an intercept column.

    ``rows`` (integers, not a mask) restricts ``ds`` to those rows first:
    ``binarize(ds, i, j, rows=r)`` equals ``binarize(ds.take(r), i, j)`` bit
    for bit, without the copy of the features that ``take`` makes. The rows
    are gathered block by block straight into the design's ``[X | 1]`` array,
    so that array is the only one of its size the call allocates. Features
    whose squared norm passes ``MAX_SQ_NORM`` are refused, naming the row,
    as ``ds.source()`` numbers it, at which the gathered rows' total passes.
    """
    pos, neg = int(positive_class), int(negative_class)
    if pos == neg:
        raise DataError("positive and negative class must differ")
    labels = ds.labels
    if rows is not None:
        rows = _row_indices(rows)
        labels = labels[rows]
    for cid in (pos, neg):
        if not 0 <= cid < len(ds.class_names):
            raise DataError(f"class id {cid} out of range")
        if not np.any(labels == cid):
            raise DataError(f"class {ds.class_names[cid]!r} has no samples")
    mask = (labels == pos) | (labels == neg)
    y = np.where(labels[mask] == pos, 1.0, -1.0)
    sel = np.flatnonzero(mask) if rows is None else rows[mask]
    X = np.empty((sel.size, ds.p + 1))
    X[:, -1] = 1.0
    step = max(1, GATHER_BLOCK // ds.p)
    total = 0.0  # squared norm of the rows gathered so far
    for start in range(0, sel.size, step):
        block = X[start:start + step, :-1]
        block[...] = ds.features.take(sel[start:start + step], axis=0)
        with np.errstate(over="ignore"):  # refused below
            a2 = np.einsum("ij,ij->i", block, block)
            totals = np.cumsum(a2)
            totals += total
        big = np.flatnonzero(~(totals <= MAX_SQ_NORM))
        if big.size:
            i = big[0]
            what = (f"its squared norm is {a2[i]:g}" if not a2[i] <= MAX_SQ_NORM else
                    f"the pair's rows up to it have squared norm {totals[i]:g}")
            raise DataError(f"row {{row}} is too large: {what}", ds.source()[sel[start + i]])
        total = totals[-1]
    return DesignMatrix(X, y)


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
