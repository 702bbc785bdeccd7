import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsesvm.data import apply_transform
from sparsesvm.model_io import MODEL_FORMAT, load_model, save_model
from sparsesvm.multiclass import (GaussianKernelSpec, predict_ovo, train_ovo)
from sparsesvm.sparsity import SparsityConstraint

from test_multiclass import blob_dataset


class TestLinearRoundTrip:
    def test_predictions_survive_reload(self, rng, tmp_path):
        ds = blob_dataset(rng, n_per=15)
        model = train_ovo(ds, SparsityConstraint(k=3, p=4))
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.transform is None
        assert loaded.ovo.class_names == ds.class_names
        np.testing.assert_array_equal(loaded.predict_ids(ds.features),
                                      predict_ovo(model, ds.features))
        for pa, pb in zip(model.pairs, loaded.ovo.pairs):
            np.testing.assert_array_equal(pa.coef, pb.coef)

    def test_class_names_produce_prediction_strings(self, rng, tmp_path):
        ds = blob_dataset(rng, n_per=10, classes=2)
        model = train_ovo(ds, SparsityConstraint(k=2, p=4))
        path = tmp_path / "m.json"
        save_model(path, model)
        names = load_model(path).predict_names(ds.features[:3])
        assert set(names) <= {"a", "b"}


class TestKernelRoundTrip:
    def test_predictions_survive_reload(self, rng, tmp_path):
        ds = blob_dataset(rng, n_per=12, classes=2)
        model = train_ovo(ds, 0.5, kernel=GaussianKernelSpec(gamma=0.7))
        path = tmp_path / "kernel.json"
        save_model(path, model)
        loaded = load_model(path)
        km = loaded.ovo.pairs[0].kernel
        assert km is not None
        assert km.gamma == 0.7
        np.testing.assert_array_equal(loaded.predict_ids(ds.features),
                                      predict_ovo(model, ds.features))


class TestTransformStorage:
    def test_training_transform_replayed_on_raw_input(self, rng, tmp_path):
        raw = blob_dataset(rng, n_per=15)
        ds = apply_transform(raw, "standardized")
        model = train_ovo(ds, SparsityConstraint(k=3, p=4))
        path = tmp_path / "scaled.json"
        save_model(path, model, transform=ds.transform_params)
        loaded = load_model(path)
        assert loaded.transform.kind == "standardized"
        # raw coordinates in, transformed predictions out
        np.testing.assert_array_equal(loaded.predict_ids(raw.features),
                                      predict_ovo(model, ds.features))


class TestFormatValidation:
    def test_wrong_format_string(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else/9"}))
        with pytest.raises(ValueError, match=MODEL_FORMAT.replace("/", "/")):
            load_model(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="not a valid model file"):
            load_model(path)

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "image.json"
        path.write_bytes(b"\x89PNG\r\n\x1a\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8 text")):
            load_model(path)

    def test_integer_too_large_for_a_float(self, rng, tmp_path):
        ds = blob_dataset(rng, n_per=8, classes=2)
        path = tmp_path / "m.json"
        save_model(path, train_ovo(ds, SparsityConstraint(k=1, p=4)))
        doc = json.loads(path.read_text())
        doc["pairs"][0]["coef"][0] = 10 ** 400
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="too large"):
            load_model(path)

    def test_non_finite_number_never_written(self, rng, tmp_path):
        ds = apply_transform(blob_dataset(rng, n_per=8, classes=2), "standardized")
        params = replace(ds.transform_params, scale=np.full(4, np.inf))
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_model(path, train_ovo(ds, SparsityConstraint(k=1, p=4)), transform=params)
        assert not path.exists()

    def test_format_marker_written(self, rng, tmp_path):
        ds = blob_dataset(rng, n_per=8, classes=2)
        model = train_ovo(ds, SparsityConstraint(k=1, p=4))
        path = tmp_path / "m.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        assert doc["format"] == MODEL_FORMAT
        assert doc["transform"] == {"kind": "none"}


def _paths(node, prefix=()):
    """Every (container path, key or index) in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _at(doc, prefix):
    for key in prefix:
        doc = doc[key]
    return doc


# a value of another JSON type than the one it replaces
_RETYPED = {dict: [[], 1.5], list: ["x", 2.0], str: [3, None], int: ["1", [1]],
            float: ["1.0", {}], type(None): [0, "null"], bool: ["true", {}]}


@pytest.fixture(scope="module")
def saved_docs(tmp_path_factory):
    rng = np.random.default_rng(7)
    raw = blob_dataset(rng, n_per=10)
    ds = apply_transform(raw, "standardized")
    out = tmp_path_factory.mktemp("docs")
    docs = []
    for name, model, transform in (
            ("linear", train_ovo(ds, SparsityConstraint(k=2, p=4)), ds.transform_params),
            ("kernel", train_ovo(raw, 0.5, kernel=GaussianKernelSpec(gamma=0.7)), None)):
        save_model(out / f"{name}.json", model, transform=transform)
        docs.append(json.loads((out / f"{name}.json").read_text()))
    return docs


@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_model_raises_value_error(saved_docs, tmp_path, data):
    """Deleting any key or list entry (a whole pair aside, which leaves a
    valid model), retyping any value or making it NaN or an infinity (JSON's
    ``NaN``, ``Infinity``) is reported as a ValueError."""
    doc = json.loads(json.dumps(data.draw(st.sampled_from(saved_docs))))
    prefix, key = data.draw(st.sampled_from(list(_paths(doc))))
    parent = _at(doc, prefix)
    how = data.draw(st.sampled_from(["delete", "retype", "non-finite"]))
    if how == "delete" and prefix != ("pairs",):
        del parent[key]
    elif how == "non-finite":
        parent[key] = data.draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    else:
        parent[key] = data.draw(st.sampled_from(_RETYPED[type(parent[key])]))
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_model(path)
