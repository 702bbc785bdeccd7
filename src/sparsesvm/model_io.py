"""Versioned JSON serialization for fitted models."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ColumnTransform
from .kernel import KernelModel
from .multiclass import OVOModel, PairClassifier, predict_ovo

__all__ = ["MODEL_FORMAT", "SavedModel", "save_model", "load_model"]

MODEL_FORMAT = "sparse-svm-model/1"


@dataclass
class SavedModel:
    """A deserialized model plus the training-time feature transform."""

    ovo: OVOModel
    transform: ColumnTransform | None

    def predict_ids(self, raw_features) -> np.ndarray:
        feats = np.atleast_2d(np.asarray(raw_features, dtype=float))
        if self.transform is not None:
            feats = self.transform.apply(feats)
        return np.atleast_1d(predict_ovo(self.ovo, feats))

    def predict_names(self, raw_features) -> list[str]:
        return [self.ovo.class_names[i] for i in self.predict_ids(raw_features)]


def _transform_doc(transform: ColumnTransform | None) -> dict:
    if transform is None:
        return {"kind": "none"}
    return {
        "kind": transform.kind,
        "center": transform.center.tolist(),
        "scale": transform.scale.tolist(),
    }


def _pair_doc(pair: PairClassifier) -> dict:
    doc = {"positive": int(pair.positive), "negative": int(pair.negative)}
    if pair.kernel is not None:
        km = pair.kernel
        doc["kernel"] = {
            "gamma": float(km.gamma),
            "alpha": km.alpha.tolist(),
            "train_features": km.train_features.tolist(),
            "train_labels": km.train_labels.tolist(),
        }
    else:
        doc["coef"] = pair.coef.tolist()
    return doc


def save_model(path, model: OVOModel, transform: ColumnTransform | None = None) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "class_names": list(model.class_names),
        "transform": _transform_doc(transform),
        "pairs": [_pair_doc(pair) for pair in model.pairs],
    }
    # allow_nan=False: never write a file that load_model refuses
    Path(path).write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")


_JSON_NAMES = {dict: "object", list: "list", str: "string", int: "integer", float: "number"}


def _is_a(value, kind: type) -> bool:
    """JSON type test: an integer counts as a number, a boolean as neither."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _field(obj: dict, key: str, kind: type, where: str):
    """``obj[key]``, required to be of JSON type ``kind``."""
    if key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    value = obj[key]
    if not _is_a(value, kind):
        raise ValueError(f"{where}: {key!r} must be a {_JSON_NAMES[kind]}, "
                         f"got {type(value).__name__}")
    return value


def _finite(arr: np.ndarray, key: str, where: str) -> np.ndarray:
    """``arr``, which must hold no NaN or infinity (JSON's ``NaN``, ``Infinity``)."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{where}: {key!r} holds a non-finite number")
    return arr


def _vector(obj: dict, key: str, where: str) -> np.ndarray:
    values = _field(obj, key, list, where)
    if not all(_is_a(v, float) for v in values):
        raise ValueError(f"{where}: {key!r} must be a list of numbers")
    return _finite(np.asarray(values, dtype=float), key, where)


def _matrix(obj: dict, key: str, where: str) -> np.ndarray:
    rows = _field(obj, key, list, where)
    if not rows or not all(isinstance(r, list) and all(_is_a(v, float) for v in r) for r in rows):
        raise ValueError(f"{where}: {key!r} must be a non-empty list of lists of numbers")
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"{where}: rows of {key!r} differ in length")
    return _finite(np.asarray(rows, dtype=float), key, where)


def _parse_transform(doc: dict) -> ColumnTransform | None:
    tdoc = _field(doc, "transform", dict, "model")
    kind = _field(tdoc, "kind", str, "transform")
    if kind == "none":
        return None
    if kind not in ("standardized", "minmax"):
        raise ValueError(f"transform: unknown kind {kind!r}")
    center = _vector(tdoc, "center", "transform")
    scale = _vector(tdoc, "scale", "transform")
    if center.size != scale.size:
        raise ValueError(f"transform: center has {center.size} entries, scale {scale.size}")
    return ColumnTransform(kind, center, scale)


def _parse_pair(pdoc, where: str, num_classes: int) -> PairClassifier:
    if not isinstance(pdoc, dict):
        raise ValueError(f"{where}: must be an object, got {type(pdoc).__name__}")
    ids = [_field(pdoc, key, int, where) for key in ("positive", "negative")]
    if ids[0] == ids[1] or not all(0 <= i < num_classes for i in ids):
        raise ValueError(f"{where}: class ids {ids} must be distinct and below {num_classes}")
    if "kernel" in pdoc:
        kwhere = f"{where}.kernel"
        kdoc = _field(pdoc, "kernel", dict, where)
        feats = _matrix(kdoc, "train_features", kwhere)
        # KernelModel itself rejects a bad gamma, mismatched lengths and labels not +/-1
        kernel = KernelModel(alpha=_vector(kdoc, "alpha", kwhere),
                             gamma=float(_field(kdoc, "gamma", float, kwhere)),
                             train_features=feats,
                             train_labels=_vector(kdoc, "train_labels", kwhere))
        return PairClassifier(ids[0], ids[1], kernel=kernel)
    coef = _vector(pdoc, "coef", where)
    if coef.size < 2:
        raise ValueError(f"{where}: 'coef' needs at least one weight and an intercept")
    return PairClassifier(ids[0], ids[1], coef=coef)


def _parse_model(doc) -> SavedModel:
    if not isinstance(doc, dict):
        raise ValueError(f"model must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(
            f"unsupported model format {doc.get('format')!r}, expected {MODEL_FORMAT}")
    names = _field(doc, "class_names", list, "model")
    if len(names) < 2 or not all(isinstance(c, str) for c in names):
        raise ValueError("model: 'class_names' must list at least two strings")
    transform = _parse_transform(doc)
    pdocs = _field(doc, "pairs", list, "model")
    if not pdocs:
        raise ValueError("model: 'pairs' is empty")
    pairs = []
    widths = set() if transform is None else {transform.center.size}
    for i, pdoc in enumerate(pdocs):
        pair = _parse_pair(pdoc, f"pairs[{i}]", len(names))
        pairs.append(pair)
        widths.add(pair.width)
    if len(widths) > 1:
        raise ValueError(f"model: transform and pairs disagree on the feature count "
                         f"({sorted(widths)})")
    return SavedModel(ovo=OVOModel(pairs=pairs, class_names=tuple(names)), transform=transform)


def load_model(path) -> SavedModel:
    """Read a model file; any malformed document raises ``ValueError("<path>: ...")``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a valid model file: {exc}") from exc
    try:
        return _parse_model(doc)
    except (ValueError, OverflowError) as exc:  # an integer too large for a float overflows
        raise ValueError(f"{path}: {exc}") from exc
