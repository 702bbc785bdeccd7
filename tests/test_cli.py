import csv
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sparsesvm
from sparsesvm.cli import _stratified_split, main
from sparsesvm.data import make_folds
from sparsesvm.model_io import load_model

from conftest import no_convergence
from test_crossval import overflowing_row_dataset


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture
def causal_csv(tmp_path, capsys):
    path = tmp_path / "causal.csv"
    rc, _, _ = run_cli(capsys, "gen", "--family", "gaussian-causal", "--n", "80",
                       "--p", "8", "--k0", "2", "--seed", "3",
                       "--output", str(path))
    assert rc == 0
    return path


@pytest.fixture
def spiral_csv(tmp_path, capsys):
    path = tmp_path / "spiral.csv"
    rc, _, _ = run_cli(capsys, "gen", "--family", "spiral", "--n-a", "60",
                       "--n-b", "30", "--n-c", "10", "--seed", "0",
                       "--output", str(path))
    assert rc == 0
    return path


class TestGen:
    def test_csv_and_sidecar(self, causal_csv):
        lines = causal_csv.read_text().splitlines()
        assert lines[0] == "f1,f2,f3,f4,f5,f6,f7,f8,label"
        assert len(lines) == 81
        assert lines[1].rsplit(",", 1)[1] in ("-1", "1")
        sidecar = json.loads(causal_csv.with_suffix(".json").read_text())
        assert sidecar["spec"]["family"] == "gaussian-causal"
        assert sidecar["spec"]["k0"] == 2
        assert len(sidecar["support"]) == 2
        assert len(sidecar["beta_true"]) == 9

    def test_spiral_sidecar_has_no_truth(self, spiral_csv):
        sidecar = json.loads(spiral_csv.with_suffix(".json").read_text())
        assert sidecar["beta_true"] is None
        assert sidecar["spec"]["n"] == 100

    def test_regen_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "gen", "--family", "synthetic-corr", "--n", "30",
                    "--p", "5", "--seed", "11", "--output", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_covariance_failure_ends_in_one_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(np.linalg, "cholesky", no_convergence)
        out = tmp_path / "corr.csv"
        rc, stdout, err = run_cli(capsys, "gen", "--family", "synthetic-corr", "--n", "30",
                                  "--p", "5", "--seed", "1", "--output", str(out))
        assert (rc, stdout) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: covariance repair failed (minimum eigenvalue ")
        assert err.endswith("): forced\n")
        assert not out.exists()

    def test_json_output_rejected_before_writing(self, tmp_path, capsys):
        """The sidecar of ``x.json`` is ``x.json`` itself, which would replace the CSV."""
        out = tmp_path / "data.json"
        rc, stdout, err = run_cli(capsys, "gen", "--family", "spiral", "--n-a", "20",
                                  "--n-b", "10", "--n-c", "5", "--output", str(out))
        assert rc == 1 and stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: --output")
        assert not out.exists()


class TestTrainPredict:
    def test_pipeline_recovers_labels(self, tmp_path, capsys, causal_csv):
        model_path = tmp_path / "model.json"
        rc, out, _ = run_cli(capsys, "train", "--data", str(causal_csv),
                             "--keep", "2", "--output", str(model_path))
        assert rc == 0
        report = json.loads(out)
        assert {"pairs", "converged"} <= set(report)
        assert len(report["pairs"]) == 1
        pair = report["pairs"][0]
        assert pair["stop_reason"] in {"distance", "budget"}
        assert pair["converged"] == (pair["stop_reason"] == "distance")

        rc, out, _ = run_cli(capsys, "predict", "--model", str(model_path),
                             "--data", str(causal_csv), "--label-column", "label")
        assert rc == 0
        scored = json.loads(out.splitlines()[-1])
        assert scored["n"] == 80
        assert scored["accuracy_pct"] >= 95.0

    def test_predict_scores_a_single_class_file(self, tmp_path, capsys, causal_csv):
        model_path = tmp_path / "m.json"
        run_cli(capsys, "train", "--data", str(causal_csv), "--output", str(model_path))
        header, *rows = causal_csv.read_text().splitlines()
        ones = [r for r in rows if r.rsplit(",", 1)[1] == "1"]
        one_class = tmp_path / "ones.csv"
        one_class.write_text("\n".join([header] + ones) + "\n")
        pred_path = tmp_path / "pred.csv"
        rc, out, err = run_cli(capsys, "predict", "--model", str(model_path),
                               "--data", str(one_class), "--label-column", "label",
                               "--output", str(pred_path))
        assert rc == 0, err
        predicted = pred_path.read_text().splitlines()[1:]
        scored = json.loads(out.splitlines()[-1])
        assert scored["n"] == len(ones) == len(predicted)
        assert scored["accuracy_pct"] == 100.0 * predicted.count("1") / len(ones)
        assert scored["accuracy_pct"] >= 95.0

    def test_predict_writes_feature_only_csv(self, tmp_path, capsys, causal_csv):
        model_path = tmp_path / "m.json"
        run_cli(capsys, "train", "--data", str(causal_csv), "--output", str(model_path))
        feats_only = tmp_path / "feats.csv"
        rows = causal_csv.read_text().splitlines()
        feats_only.write_text("\n".join(r.rsplit(",", 1)[0] for r in rows) + "\n")
        pred_path = tmp_path / "pred.csv"
        rc, _, _ = run_cli(capsys, "predict", "--model", str(model_path),
                           "--data", str(feats_only), "--output", str(pred_path))
        assert rc == 0
        lines = pred_path.read_text().splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 81

    def test_predict_checks_rows_against_the_header(self, tmp_path, capsys, causal_csv):
        """Feature rows must be as wide as the header, as in every other command."""
        model_path = tmp_path / "m.json"
        run_cli(capsys, "train", "--data", str(causal_csv), "--output", str(model_path))
        rows = [r.rsplit(",", 1)[0] for r in causal_csv.read_text().splitlines()[1:]]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(["a,b,c"] + rows) + "\n")
        rc, out, err = run_cli(capsys, "predict", "--model", str(model_path),
                               "--data", str(bad))
        assert rc == 1 and out == ""
        assert err.splitlines() == [f"error: {bad}: row 1 has 8 cells, expected 3"]

    def test_csv_report_format(self, tmp_path, capsys, causal_csv):
        rc, out, _ = run_cli(capsys, "train", "--data", str(causal_csv),
                             "--format", "csv", "--output", str(tmp_path / "m.json"))
        assert rc == 0
        assert out.splitlines()[0].startswith("positive,negative,outer_iters")

    def test_transform_stored_in_model(self, tmp_path, capsys, causal_csv):
        model_path = tmp_path / "scaled.json"
        run_cli(capsys, "train", "--data", str(causal_csv), "--transform",
                "standardized", "--output", str(model_path))
        assert load_model(model_path).transform.kind == "standardized"


class TestCV:
    def cv_args(self, data, out, *extra):
        return ["cv", "--data", str(data), "--grid", "0,0.5", "--folds", "3",
                "--seed", "1", "--format", "csv", "--output", str(out), *extra]

    def test_holdout_of_one_class_is_scored(self, tmp_path, capsys):
        """A 5% stratified holdout of 30 + 6 rows holds 2 rows of the larger class only."""
        rng = np.random.default_rng(0)
        rows = ["f1,f2,label"]
        for name, count, center in (("a", 30, 0.0), ("b", 6, 3.0)):
            for x in center + rng.standard_normal((count, 2)):
                rows.append(f"{float(x[0])!r},{float(x[1])!r},{name}")
        data = tmp_path / "two.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "t.json"
        rc, stdout, err = run_cli(capsys, "cv", "--data", str(data), "--grid", "0",
                                  "--folds", "3", "--holdout-fraction", "0.05",
                                  "--output", str(out))
        assert rc == 0, err
        assert 0.0 <= json.loads(stdout)["test_pct"] <= 100.0
        assert all(row["test"] in (0.0, 50.0, 100.0)
                   for row in json.loads(out.read_text())["rows"])

    def test_table_and_summary(self, tmp_path, capsys, causal_csv):
        out = tmp_path / "table.csv"
        rc, stdout, _ = run_cli(capsys, *self.cv_args(causal_csv, out))
        assert rc == 0
        summary = json.loads(stdout)
        assert set(summary) == {"selected_s", "selected_k", "valid_pct", "test_pct"}
        lines = out.read_text().splitlines()
        assert lines[0] == ("fold,s,Iter.,Time,Objective,Squared Distance,Train,Valid.,Test,"
                            "SV,Stop")
        assert len(lines) == 1 + 3 * 2 + 1
        assert lines[-1].startswith("selected,")

    def test_reruns_and_threads_byte_identical(self, tmp_path, capsys, causal_csv):
        outs = []
        for name, extra in (("a.csv", ()), ("b.csv", ()), ("c.csv", ("--threads", "2"))):
            out = tmp_path / name
            rc, _, _ = run_cli(capsys, *self.cv_args(causal_csv, out, *extra))
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_standardized_holdout_is_scored(self, tmp_path, capsys, causal_csv):
        """The held-out rows pass through the transform fitted on the cv rows."""
        out = tmp_path / "table.csv"
        rc, _, err = run_cli(capsys, *self.cv_args(causal_csv, out, "--transform",
                                                   "standardized"))
        assert rc == 0, err
        with out.open(newline="") as fh:
            tests = [float(row["Test"]) for row in csv.DictReader(fh)]
        assert len(tests) == 3 * 2 + 1
        assert all(0.0 <= t <= 100.0 for t in tests)

    def test_json_format(self, tmp_path, capsys, causal_csv):
        out = tmp_path / "table.json"
        rc, _, _ = run_cli(capsys, "cv", "--data", str(causal_csv), "--grid",
                           "0,0.5", "--folds", "3", "--output", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 6
        assert "fold_plan" in doc


class TestModelFiles:
    @pytest.mark.parametrize("flags", [("--keep", "2"),
                                       ("--kernel", "gaussian", "--dual-sparsity", "0.5")],
                             ids=["linear", "kernel"])
    def test_reruns_and_threads_byte_identical(self, tmp_path, capsys, spiral_csv, flags):
        """``train`` writes the same model bytes on a rerun and on 3 threads
        (the 3-class spiral has 3 pairs)."""
        outs = []
        for name, threads in (("a.json", "1"), ("b.json", "1"), ("c.json", "3")):
            out = tmp_path / name
            rc, _, _ = run_cli(capsys, "train", "--data", str(spiral_csv), *flags,
                               "--threads", threads, "--output", str(out))
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert len(json.loads(outs[0])["pairs"]) == 3


class TestTrace:
    def test_rows_follow_penalty_ladder(self, tmp_path, capsys, causal_csv):
        out = tmp_path / "trace.csv"
        rc, _, _ = run_cli(capsys, "trace", "--data", str(causal_csv),
                           "--keep", "2", "--output", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("positive,negative,outer,rho,inner_iters,restarts,"
                            "objective,grad_sq,distance,train_acc")
        rows = [line.split(",") for line in lines[1:]]
        assert 1 <= len(rows) <= 100
        rhos = [float(r[3]) for r in rows]
        for prev, cur in zip(rhos, rhos[1:]):
            assert cur == pytest.approx(prev * 1.2, rel=1e-12)

    def test_timings_add_only_a_level_time_column(self, tmp_path, capsys, spiral_csv):
        plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
        for out, extra in ((plain, ()), (timed, ("--timings",))):
            rc, _, _ = run_cli(capsys, "trace", "--data", str(spiral_csv), "--keep", "1",
                               *extra, "--output", str(out))
            assert rc == 0
        with timed.open(newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("time_s")
        assert rows[0][col + 1:] == ["train_acc"]
        assert all(float(row[col]) > 0.0 for row in rows[1:])
        # without the column the timed trace is the default trace, byte for byte
        stripped = "".join(",".join(row[:col] + row[col + 1:]) + "\n" for row in rows)
        assert stripped.encode() == plain.read_bytes()

    def test_rerun_byte_identical(self, tmp_path, capsys, causal_csv):
        a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
        for out in (a, b):
            run_cli(capsys, "trace", "--data", str(causal_csv), "--keep", "2",
                    "--output", str(out))
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("flags", [("--keep", "1"),
                                       ("--kernel", "gaussian", "--dual-sparsity", "0.5")],
                             ids=["linear", "kernel"])
    def test_last_row_per_pair_matches_train_report(self, tmp_path, capsys, spiral_csv,
                                                     flags):
        trace = tmp_path / "trace.csv"
        rc, _, _ = run_cli(capsys, "trace", "--data", str(spiral_csv), *flags,
                           "--output", str(trace))
        assert rc == 0
        rc, out, _ = run_cli(capsys, "train", "--data", str(spiral_csv), *flags,
                             "--output", str(tmp_path / "m.json"))
        assert rc == 0
        last = {}
        with trace.open(newline="") as fh:
            for row in csv.DictReader(fh):
                last[row["positive"], row["negative"]] = int(row["outer"])
        reports = json.loads(out)["pairs"]
        assert len(reports) == len(last) == 3
        assert list(last.values()) == [rep["outer_iters"] for rep in reports]


class TestFitFlags:
    def trace_rows(self, tmp_path, capsys, data, *flags):
        out = tmp_path / "trace.csv"
        rc, _, _ = run_cli(capsys, "trace", "--data", str(data), *flags, "--output", str(out))
        assert rc == 0
        with out.open(newline="") as fh:
            return list(csv.DictReader(fh))

    def test_train_with_steepest_descent(self, tmp_path, capsys, causal_csv):
        inner = {}
        for algorithm in ("mm", "sd"):
            model = tmp_path / f"{algorithm}.json"
            rc, out, _ = run_cli(capsys, "train", "--data", str(causal_csv), "--keep", "2",
                                 "--algorithm", algorithm, "--output", str(model))
            assert rc == 0
            inner[algorithm] = json.loads(out)["pairs"][0]["total_inner_iters"]
            rc, out, _ = run_cli(capsys, "predict", "--model", str(model),
                                 "--data", str(causal_csv), "--label-column", "label")
            assert rc == 0
            assert json.loads(out.splitlines()[-1])["accuracy_pct"] >= 95.0
        assert inner["sd"] != inner["mm"]

    def test_train_with_sparsity_fraction(self, tmp_path, capsys, causal_csv):
        """--sparsity 0.5 keeps round(0.5 * 8) = 4 of the 8 features."""
        model = tmp_path / "m.json"
        rc, _, err = run_cli(capsys, "train", "--data", str(causal_csv), "--sparsity", "0.5",
                             "--output", str(model))
        assert rc == 0, err
        pairs = json.loads(model.read_text())["pairs"]
        assert [np.count_nonzero(pair["coef"][:-1]) for pair in pairs] == [4]

    def test_trace_with_steepest_descent(self, tmp_path, capsys, causal_csv):
        mm = self.trace_rows(tmp_path, capsys, causal_csv, "--keep", "2")
        sd = self.trace_rows(tmp_path, capsys, causal_csv, "--keep", "2", "--algorithm", "sd")
        assert sd and [r["inner_iters"] for r in sd] != [r["inner_iters"] for r in mm]

    def test_cv_timings(self, tmp_path, capsys, causal_csv):
        times = {}
        for extra in ((), ("--timings",)):
            out = tmp_path / "table.csv"
            rc, _, _ = run_cli(capsys, "cv", "--data", str(causal_csv), "--grid", "0,0.5",
                               "--folds", "3", "--format", "csv", "--output", str(out), *extra)
            assert rc == 0
            with out.open(newline="") as fh:
                times[extra] = [float(row["Time"]) for row in csv.DictReader(fh)]
        assert len(times[()]) == 3 * 2 + 1
        assert all(t == 0.0 for t in times[()])
        assert all(t > 0.0 for t in times[("--timings",)])

    def test_trace_max_outer(self, tmp_path, capsys, spiral_csv):
        rows = self.trace_rows(tmp_path, capsys, spiral_csv, "--keep", "1", "--max-outer", "3")
        per_pair = {}
        for row in rows:
            per_pair.setdefault((row["positive"], row["negative"]), []).append(int(row["outer"]))
        assert len(per_pair) == 3
        assert all(1 <= len(outers) <= 3 for outers in per_pair.values())

    def test_trace_max_inner(self, tmp_path, capsys, causal_csv):
        rows = self.trace_rows(tmp_path, capsys, causal_csv, "--keep", "2", "--max-inner", "5")
        inner = [int(row["inner_iters"]) for row in rows]
        assert inner and max(inner) == 5


class TestErrors:
    @pytest.mark.parametrize("kernel", [(), ("--kernel", "gaussian")], ids=["linear", "kernel"])
    @pytest.mark.parametrize("flag", [("--sparsity", "0.9"), ("--keep", "1"),
                                      ("--dual-sparsity", "0.3")],
                             ids=["sparsity", "keep", "dual-sparsity"])
    def test_cv_rejects_sparsity_flags(self, tmp_path, capsys, causal_csv, kernel, flag):
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as err:
            main(["cv", "--data", str(causal_csv), "--grid", "0,0.5", "--folds", "3",
                  *kernel, *flag, "--output", str(out)])
        assert err.value.code == 2
        assert "--grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kernel", [(), ("--kernel", "gaussian")], ids=["linear", "kernel"])
    def test_cv_class_wholly_in_holdout(self, tmp_path, capsys, kernel):
        rng = np.random.default_rng(0)
        rows = ["f1,f2,label"]
        for name, count, center in (("a", 12, 0.0), ("b", 12, 3.0), ("c", 1, -3.0)):
            for x in center + rng.standard_normal((count, 2)):
                rows.append(f"{float(x[0])!r},{float(x[1])!r},{name}")
        data = tmp_path / "three.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "t.json"
        rc, stdout, err = run_cli(capsys, "cv", "--data", str(data), "--grid", "0",
                                  "--folds", "2", "--holdout-fraction", "0.6", *kernel,
                                  "--output", str(out))
        assert rc == 1 and stdout == ""
        assert err.splitlines() == ["error: class 'c' has no samples"]
        assert not out.exists()

    def test_cv_holdout_fraction_leaves_no_rows(self, tmp_path, capsys, causal_csv):
        out = tmp_path / "t.json"
        rc, stdout, err = run_cli(capsys, "cv", "--data", str(causal_csv), "--grid", "0",
                                  "--holdout-fraction", "0.99", "--output", str(out))
        assert rc == 1 and stdout == ""
        assert err.splitlines() == ["error: --holdout-fraction 0.99 holds out all 80 rows, "
                                    "which leaves none to cross-validate"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("kind", ["standardized", "minmax"])
    def test_transform_that_overflows(self, tmp_path, capsys, command, kind):
        data = tmp_path / "big.csv"
        data.write_text("f1,f2,label\n" + "1e308,1,a\n-1e308,2,a\n1e308,3,b\n-1e308,4,b\n" * 2)
        out = tmp_path / "out.json"
        flags = ["--grid", "0", "--folds", "2"] if command == "cv" else []
        rc, stdout, err = run_cli(capsys, command, "--data", str(data), "--transform", kind,
                                  *flags, "--output", str(out))
        assert rc == 1 and stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {kind} transform overflows: feature column 0 ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "trace"])
    def test_linear_row_that_overflows_is_refused(self, tmp_path, capsys, command):
        """A training row whose squared norm overflows ends a linear fit in one
        line naming its data row, before any factorization warns."""
        data = tmp_path / "big.csv"
        data.write_text("f1,f2,label\n1,2,a\n1e160,1,b\n3,1,c\n2,2,a\n0,1,b\n1,0,c\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, stdout, err = run_cli(capsys, command, "--data", str(data), "--keep", "1",
                                      "--output", str(out))
        assert (rc, stdout) == (1, "")
        assert err.splitlines()[0].endswith("row 2 is too large: its squared norm is inf")
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_kernel_row_that_overflows_is_named_by_its_data_row(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("f1,f2,label\n1,2,a\n0,1,b\n3,1,c\n1e200,2,c\n"
                        "0,1.5,b\n1,0,a\n2,2,a\n0.5,1,b\n")
        out = tmp_path / "m.json"
        rc, stdout, err = run_cli(capsys, "train", "--data", str(data), "--kernel", "gaussian",
                                  "--output", str(out))
        assert (rc, stdout) == (1, "")
        assert err.splitlines() == ["error: fit failed for class pair (a, c): row 4 is too "
                                    "large: its squared norm is inf"]
        assert not out.exists()

    def test_kernel_eigendecomposition_failure_ends_in_one_line(self, tmp_path, capsys,
                                                                  spiral_csv, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        out = tmp_path / "m.json"
        rc, stdout, err = run_cli(capsys, "train", "--data", str(spiral_csv), "--kernel",
                                  "gaussian", "--gamma", "1", "--output", str(out))
        assert (rc, stdout) == (1, "")
        assert err.splitlines() == ["error: fit failed for class pair (A, B): "
                                    "eigendecomposition failed to converge: forced"]
        assert not out.exists()

    def test_design_whose_products_overflow_is_refused(self, tmp_path, capsys):
        """Each row's squared norm, about 1e306, is under the bound, but 200 of
        them overflow the first column's entry of X'X: the fit is refused at
        the row where the pair's rows pass the bound, before any warning."""
        data = tmp_path / "big.csv"
        data.write_text("f1,f2,label\n" + "".join(f"1e153,{i % 7},{'ab'[i % 2]}\n"
                                                  for i in range(200)))
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, stdout, err = run_cli(capsys, "train", "--data", str(data), "--keep", "1",
                                      "--output", str(out))
        assert (rc, stdout) == (1, "")
        assert err.splitlines() == ["error: fit failed for class pair (a, b): row 45 is too "
                                    "large: the pair's rows up to it have squared norm 4.5e+307"]
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        ((), "row {} is too large: its squared norm is inf"),
        (("--kernel", "gaussian"),
         "row {} is too large for the Gaussian kernel: its squared norm is inf"),
    ], ids=["linear", "kernel"])
    def test_cv_row_that_overflows_is_named_by_its_data_row(self, tmp_path, capsys, flags,
                                                            message):
        """A cross-validation row holding 1e160, in fold 0's validation rows, is
        named by its data row in the file: a linear fold refuses it in the
        first design that holds it, a kernel one when fold 0 scores it."""
        labels = np.arange(30) % 2
        held, rest = _stratified_split(labels, 0.2, 0)
        row = int(rest[make_folds(rest.size, 3, 0, labels=labels[rest]).val_indices(0)[-1]])
        feats = np.random.default_rng(0).standard_normal((30, 2))
        feats[row, 0] = 1e160
        data = tmp_path / "d.csv"
        data.write_text("f1,f2,label\n" + "".join(f"{x0!r},{x1!r},{'ab'[c]}\n"
                                                  for (x0, x1), c in zip(feats.tolist(), labels)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, stdout, err = run_cli(capsys, "cv", "--data", str(data), "--grid", "0,0.5",
                                      "--folds", "3", *flags)
        assert (rc, stdout) == (1, "")
        assert err.splitlines() == ["error: " + message.format(row + 1)]

    @pytest.mark.parametrize("fraction", ["0", "0.2"])
    def test_cv_training_row_the_model_cannot_score_is_named_by_its_data_row(
            self, tmp_path, capsys, fraction):
        """Data row 28 at (1e150, 1e150), among fold 0's training rows, scores
        -inf in the pair fitted on the rows near 1e-160."""
        ds = overflowing_row_dataset()
        data = tmp_path / "d.csv"
        data.write_text("f1,f2,label\n" + "".join(f"{x0!r},{x1!r},{'abc'[c]}\n" for (x0, x1), c
                                                  in zip(ds.features.tolist(), ds.labels)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, stdout, err = run_cli(capsys, "cv", "--data", str(data), "--grid", "0",
                                      "--folds", "3", "--algorithm", "sd",
                                      "--holdout-fraction", fraction)
        assert (rc, stdout) == (1, "")
        assert err.splitlines() == ["error: row 28 scores -inf: its features overflow the model"]

    def test_cv_class_held_out_whole_by_a_fold(self, tmp_path, capsys):
        """Its one sample in the CV data sits in one fold's validation rows."""
        rng = np.random.default_rng(0)
        rows = ["f1,f2,label"]
        for name, count, center in (("a", 12, 0.0), ("b", 12, 3.0), ("C", 1, -3.0)):
            for x in center + rng.standard_normal((count, 2)):
                rows.append(f"{float(x[0])!r},{float(x[1])!r},{name}")
        data = tmp_path / "three.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "t.json"
        rc, stdout, err = run_cli(capsys, "cv", "--data", str(data), "--grid", "0",
                                  "--folds", "3", "--output", str(out))
        assert rc == 1 and stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "error: class 'C' has 1 cross-validation sample(s), all held out by fold ")
        assert lines[0].endswith(", which leaves that fold none to train on")
        assert not out.exists()

    def test_kernel_rejects_feature_sparsity(self, tmp_path, capsys, causal_csv):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(causal_csv), "--kernel", "gaussian",
                  "--sparsity", "0.5", "--output", str(tmp_path / "m.json")])
        assert err.value.code == 2
        assert "--dual-sparsity" in capsys.readouterr().err

    def test_dual_sparsity_requires_kernel(self, tmp_path, capsys, causal_csv):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(causal_csv), "--dual-sparsity", "0.5",
                  "--output", str(tmp_path / "m.json")])
        assert err.value.code == 2

    @pytest.mark.parametrize("command,flag", [("train", ("--seed", "99")),
                                              ("trace", ("--seed", "4")),
                                              ("trace", ("--threads", "8")),
                                              ("trace", ("--format", "csv")),
                                              ("train", ("--warmup", "5")),
                                              ("cv", ("--warmup", "5")),
                                              ("trace", ("--warmup", "5")),
                                              ("train", ("--no-accel",)),
                                              ("cv", ("--no-accel",)),
                                              ("trace", ("--no-accel",))],
                             ids=["train-seed", "trace-seed", "trace-threads", "trace-format",
                                  "train-warmup", "cv-warmup", "trace-warmup",
                                  "train-no-accel", "cv-no-accel", "trace-no-accel"])
    def test_flag_not_read_is_not_accepted(self, tmp_path, capsys, causal_csv, command, flag):
        out = tmp_path / "out"
        grid = ("--grid", "0") if command == "cv" else ()
        with pytest.raises(SystemExit) as err:
            main([command, "--data", str(causal_csv), "--keep", "2", *grid, *flag,
                  "--output", str(out)])
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (("train", "--gamma", "1"), "--gamma only applies with --kernel"),
        (("trace", "--gamma", "1"), "--gamma only applies with --kernel"),
        (("cv", "--grid", "0,0.5", "--folds", "3", "--gamma", "1"),
         "--gamma only applies with --kernel"),
        (("train", "--threads", "0"), "--threads must be at least 1, got 0"),
        (("train", "--threads", "-3"), "--threads must be at least 1, got -3"),
        (("cv", "--grid", "0,0.5", "--folds", "3", "--threads", "0"),
         "--threads must be at least 1, got 0"),
        (("cv", "--grid", "0,0.5", "--folds", "3", "--threads", "-3"),
         "--threads must be at least 1, got -3"),
        (("train", "--keep", "9"), "--keep must lie in [0, 8], got 9"),
        (("train", "--sparsity", "1"), "--sparsity must lie in [0, 1), got 1.0"),
        (("train", "--kernel", "gaussian", "--dual-sparsity", "1"),
         "--dual-sparsity must lie in [0, 1), got 1.0"),
        (("cv", "--grid", "0", "--holdout-fraction", "1"),
         "--holdout-fraction must lie in [0, 1), got 1.0"),
        (("cv", "--grid", ","), "--grid is empty"),
    ], ids=["train-gamma", "trace-gamma", "cv-gamma", "train-threads-0", "train-threads-neg",
            "cv-threads-0", "cv-threads-neg", "keep-over-p", "sparsity-1", "dual-sparsity-1",
            "holdout-fraction-1", "grid-empty"])
    def test_ignored_value_is_a_usage_error(self, tmp_path, capsys, causal_csv, argv, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--data", str(causal_csv), "--output", str(out)])
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"sparsesvm: error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "trace"])
    def test_keep_and_sparsity_are_exclusive(self, tmp_path, capsys, causal_csv, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main([command, "--data", str(causal_csv), "--keep", "2", "--sparsity", "0.5",
                  "--output", str(out)])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (("--grad-tol", "nan"), "grad_tol must be positive and finite, got nan"),
        (("--dist-tol", "nan"), "dist_tol must be positive and finite, got nan"),
        (("--rho0", "inf"), "rho0 must be positive and finite, got inf"),
        (("--multiplier", "nan"), "multiplier must exceed 1 and be finite, got nan"),
        (("--kernel", "gaussian", "--gamma", "nan"), "gamma must be positive and finite, got nan"),
    ], ids=["grad-tol", "dist-tol", "rho0", "multiplier", "gamma"])
    def test_non_finite_fit_value_rejected(self, tmp_path, capsys, causal_csv, flags, message):
        out = tmp_path / "m.json"
        sparsity = () if "--kernel" in flags else ("--keep", "3")
        rc, stdout, err = run_cli(capsys, "train", "--data", str(causal_csv), *sparsity,
                                  *flags, "--output", str(out))
        assert rc == 1 and stdout == ""
        assert err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "trace"])
    def test_overflowing_rho0_rejected(self, tmp_path, capsys, causal_csv, command):
        """A finite rho0 whose squared distance weight overflows ends in one
        line naming rho, not a traceback."""
        out = tmp_path / "out"
        rc, stdout, err = run_cli(capsys, command, "--data", str(causal_csv), "--keep", "3",
                                  "--rho0", "1e300", "--output", str(out))
        assert rc == 1 and stdout == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("error: ") and "rho is too large" in err
        assert not out.exists()

    @pytest.mark.parametrize("output", [("--output", "t.json"), ("--format", "csv")],
                             ids=["file", "stdout"])
    def test_cv_with_every_fit_failed_exits_nonzero(self, tmp_path, capsys, causal_csv, output):
        """When no fit of the grid succeeds, ``cv`` writes no table: one line
        names the first row's error."""
        output = tuple(str(tmp_path / tok) if tok.endswith(".json") else tok for tok in output)
        rc, stdout, err = run_cli(capsys, "cv", "--data", str(causal_csv), "--grid", "0,0.5",
                                  "--folds", "3", "--rho0", "1e300", *output)
        assert rc == 1 and stdout == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("error: every cross-validation fit failed: rho is too large")
        assert not (tmp_path / "t.json").exists()

    def test_missing_data_file_is_reported(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "train", "--data", str(tmp_path / "nope.csv"),
                             "--output", str(tmp_path / "m.json"))
        assert rc == 1
        assert err.startswith("error:")

    def test_bad_grid_rejected(self, tmp_path, capsys, causal_csv):
        with pytest.raises(SystemExit) as err:
            main(["cv", "--data", str(causal_csv), "--grid", "0,banana",
                  "--output", str(tmp_path / "t.csv")])
        assert err.value.code == 2

    @pytest.fixture
    def model_doc(self, tmp_path, capsys, causal_csv):
        path = tmp_path / "m.json"
        rc, _, _ = run_cli(capsys, "train", "--data", str(causal_csv), "--keep", "2",
                           "--output", str(path))
        assert rc == 0
        return json.loads(path.read_text())

    def predict_with(self, tmp_path, capsys, causal_csv, doc):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        rc, _, err = run_cli(capsys, "predict", "--model", str(path),
                             "--data", str(causal_csv), "--label-column", "label")
        assert rc == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
        return lines[0]

    def test_model_without_transform(self, tmp_path, capsys, causal_csv, model_doc):
        del model_doc["transform"]
        err = self.predict_with(tmp_path, capsys, causal_csv, model_doc)
        assert "missing key 'transform'" in err

    def test_linear_pair_without_coef(self, tmp_path, capsys, causal_csv, model_doc):
        del model_doc["pairs"][0]["coef"]
        err = self.predict_with(tmp_path, capsys, causal_csv, model_doc)
        assert "missing key 'coef'" in err

    def test_model_with_non_finite_coefficient(self, tmp_path, capsys, causal_csv, model_doc):
        model_doc["pairs"][0]["coef"][0] = float("nan")
        err = self.predict_with(tmp_path, capsys, causal_csv, model_doc)
        assert "'coef' holds a non-finite number" in err

    def test_kernel_model_with_labels_other_than_pm1(self, tmp_path, capsys, spiral_csv):
        path = tmp_path / "kernel.json"
        rc, _, _ = run_cli(capsys, "train", "--data", str(spiral_csv), "--kernel", "gaussian",
                           "--output", str(path))
        assert rc == 0
        doc = json.loads(path.read_text())
        doc["pairs"][0]["kernel"]["train_labels"][0] = 2.0
        err = self.predict_with(tmp_path, capsys, spiral_csv, doc)
        assert "training labels must be +/-1" in err

    @pytest.mark.parametrize("kernel", [(), ("--kernel", "gaussian")], ids=["linear", "kernel"])
    def test_predict_with_wrong_feature_count(self, tmp_path, capsys, spiral_csv, kernel):
        model = tmp_path / "m.json"
        rc, _, _ = run_cli(capsys, "train", "--data", str(spiral_csv), *kernel,
                           "--output", str(model))
        assert rc == 0
        # the first feature column only: the model scores two
        rows = [r.split(",", 1)[0] for r in spiral_csv.read_text().splitlines()]
        feats = tmp_path / "feats.csv"
        feats.write_text("\n".join(rows) + "\n")
        rc, out, err = run_cli(capsys, "predict", "--model", str(model), "--data", str(feats),
                               "--output", str(tmp_path / "pred.csv"))
        assert rc == 1 and out == ""
        assert err.splitlines() == ["error: expected 2 feature columns, got shape (100, 1)"]
        assert not (tmp_path / "pred.csv").exists()

    def test_model_is_a_list(self, tmp_path, capsys, causal_csv, model_doc):
        err = self.predict_with(tmp_path, capsys, causal_csv, [model_doc])
        assert "JSON object" in err

    @pytest.mark.parametrize("bad,reason", [
        ("nan", "non-finite value at row 2, column 3"),
        ("inf", "non-finite value at row 2, column 3"),
        (None, "row 2 has 7 cells, expected 8"),
    ])
    def test_feature_csv_rejects_bad_row(self, tmp_path, capsys, causal_csv, model_doc,
                                         bad, reason):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(model_doc))
        rows = [r.rsplit(",", 1)[0].split(",") for r in causal_csv.read_text().splitlines()]
        if bad is None:
            del rows[2][-1]
        else:
            rows[2][3] = bad
        feats = tmp_path / "feats.csv"
        feats.write_text("\n".join(",".join(r) for r in rows) + "\n")
        rc, out, err = run_cli(capsys, "predict", "--model", str(model), "--data", str(feats),
                               "--output", str(tmp_path / "pred.csv"))
        assert rc == 1 and out == ""
        assert err.splitlines() == [f"error: {feats}: {reason}"]
        assert not (tmp_path / "pred.csv").exists()

    def test_unknown_flag_exit_code(self):
        proc = subprocess.run([sys.executable, "-m", "sparsesvm.cli", "train",
                               "--frobnicate"], capture_output=True, text=True)
        assert proc.returncode == 2


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    """A linear model on 3 features, trained once for the predict fuzzing."""
    root = tmp_path_factory.mktemp("fuzz")
    data, model = root / "d.csv", root / "m.json"
    rows = ["f1,f2,f3,label"] + [f"{i % 5},{(i * 7) % 3},{i % 2},{'ab'[i % 2]}"
                                 for i in range(20)]
    data.write_text("\n".join(rows) + "\n")
    assert main(["train", "--data", str(data), "--keep", "2", "--output", str(model)]) == 0
    return model


# near the ends of the float range: overflowing magnitudes, the smallest normal
# number and subnormals
EXTREME_CELLS = ["1e308", "-1e308", "1e-308", "-1e-308", "5e-324", "-2.5e-310"]
FEATURE_CELLS = st.one_of(st.sampled_from(["1", "-0.5", "2e1", " 3 ", "nan", "inf", "", "x"]),
                          st.sampled_from(EXTREME_CELLS), st.text(max_size=3))
FEATURE_ROWS = st.one_of(st.lists(FEATURE_CELLS, min_size=3, max_size=3),
                         st.lists(FEATURE_CELLS, min_size=1, max_size=5))


def check_fuzzed_predict(tmp_path, capsys, model, rows, header):
    """Predictions, one per row, and nothing on stderr; or exit 1 with one error
    line. Either way no warning is raised."""
    feats = tmp_path / "fuzz.csv"
    feats.write_text("\n".join(",".join(r) for r in rows), encoding="utf-8")
    argv = ["predict", "--model", str(model), "--data", str(feats)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, *argv, *([] if header else ["--no-header"]))
    if rc == 0:
        with feats.open(newline="", encoding="utf-8") as fh:
            parsed = [r for r in csv.reader(fh) if r][1 if header else 0:]
        assert all(np.isfinite(float(c)) for r in parsed for c in r)
        lines = out.splitlines()
        assert lines[0] == "prediction" and set(lines[1:]) <= {"a", "b"}
        assert len(lines) == 1 + len(parsed) and err == ""
    else:
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@given(rows=st.lists(FEATURE_ROWS, min_size=1, max_size=4), header=st.booleans())
@example(rows=[["1", "1", "1e308"]], header=False)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_predict_fuzzed_feature_csv(tmp_path, capsys, fuzz_model, rows, header):
    """Any feature file gives predictions, one per row, or exit 1 with one error line."""
    check_fuzzed_predict(tmp_path, capsys, fuzz_model, rows, header)


SMALL_FEATURES = ["f1,f2,f3,label"] + [
    f"{1e-3 * (1 + i % 5):g},{1e-3 * (1 + (i * 7) % 3):g},{1e-3 * (1 + i % 2):g},{'ab'[i % 2]}"
    for i in range(20)]
FUZZ_FLAGS = {"standardized": ["--transform", "standardized", "--keep", "2"],
              "minmax": ["--transform", "minmax", "--keep", "2"],
              "gaussian": ["--kernel", "gaussian", "--dual-sparsity", "0.5"]}


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory):
    """Per kind, a model trained once on 3 features near 1e-3 for the predict
    fuzzing: linear under each transform, and a Gaussian kernel at the default
    bandwidth."""
    root = tmp_path_factory.mktemp("fuzz-small")
    data = root / "d.csv"
    data.write_text("\n".join(SMALL_FEATURES) + "\n")
    models = {}
    for kind, flags in FUZZ_FLAGS.items():
        models[kind] = root / f"{kind}.json"
        assert main(["train", "--data", str(data), *flags,
                     "--output", str(models[kind])]) == 0
    return models


@pytest.mark.parametrize("kind", sorted(FUZZ_FLAGS))
@given(rows=st.lists(FEATURE_ROWS, min_size=1, max_size=4), header=st.booleans())
@example(rows=[["1e-3", "1e308", "1e-3"]], header=False)
@example(rows=[["1e-3", "-2.5e-310", "5e-324"], ["1e-308", "1e-3", "1e-3"]], header=False)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_predict_fuzzed_feature_csv_on_scaled_and_kernel_models(tmp_path, capsys, fuzz_models,
                                                                kind, rows, header):
    """As above, for models whose transform or kernel a row can overflow."""
    check_fuzzed_predict(tmp_path, capsys, fuzz_models[kind], rows, header)


@pytest.mark.parametrize("kind", sorted(FUZZ_FLAGS))
def test_predict_row_that_overflows_the_model_is_named(tmp_path, capsys, fuzz_models, kind):
    feats = tmp_path / "f.csv"
    feats.write_text("f1,f2,f3\n1e-3,1e-3,1e-3\n1e-3,1e308,1e-3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "predict", "--model", str(fuzz_models[kind]),
                               "--data", str(feats))
    want = {"standardized": "standardized transform of row 2, feature column 1: 1e+308 maps to inf",
            "minmax": "minmax transform of row 2, feature column 1: 1e+308 maps to inf",
            "gaussian": "row 2 is too large for the Gaussian kernel: its squared norm is inf"}
    assert (rc, out) == (1, "")
    assert err.splitlines() == [f"error: {want[kind]}"]


@pytest.mark.parametrize("flags", [["--transform", "standardized"], ["--kernel", "gaussian"]],
                         ids=["standardized", "gaussian"])
def test_cv_holdout_row_that_overflows_is_refused(tmp_path, capsys, flags):
    """A held-out row holding 1e308 ends cv with one error line, naming its data
    row in the file: through the transform fitted on the rows near 1e-3, or
    through the kernel."""
    rows = [r.split(",") for r in SMALL_FEATURES[1:] * 2]
    held, _ = _stratified_split(np.array([r[-1] == "b" for r in rows], dtype=int), 0.2, 0)
    rows[held[0]][1] = "1e308"
    data = tmp_path / "d.csv"
    data.write_text("\n".join([SMALL_FEATURES[0]] + [",".join(r) for r in rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "cv", "--data", str(data), "--grid", "0,0.5",
                               "--folds", "3", *flags)
    want = {"standardized": "standardized transform of row {}, feature column 1: 1e+308 maps "
                            "to inf",
            "gaussian": "row {} is too large for the Gaussian kernel: its squared norm is inf"}
    assert (rc, out) == (1, "")
    assert err.splitlines() == ["error: " + want[flags[1]].format(held[0] + 1)]


def _load_toml(path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


GEN_SPIRAL = ["gen", "--family", "spiral", "--n-a", "5", "--n-b", "5", "--n-c", "5"]


class TestConsoleScript:
    def _run_declared_entry(self, tmp_path, *argv):
        """Run the [project.scripts] entry in a fresh interpreter, as the
        setuptools wrapper does: sys.exit(<attr>()) with argv[0] = "sparsesvm"."""
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        entry = _load_toml(pyproject)["project"]["scripts"]["sparsesvm"]
        assert entry == "sparsesvm.cli:main"
        module, attr = entry.split(":")
        code = (f"import sys; from {module} import {attr} as entry; "
                "sys.argv[0] = 'sparsesvm'; sys.exit(entry())")
        # the package's own parent, absolute, so the child finds it from
        # tmp_path whether it is installed or on a relative PYTHONPATH
        root = str(Path(sparsesvm.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)

    def test_installed_entry_point(self, tmp_path):
        out = tmp_path / "s.csv"
        proc = self._run_declared_entry(tmp_path, *GEN_SPIRAL, "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout
        assert out.exists()

        proc = self._run_declared_entry(tmp_path, "predict",
                                        "--model", str(tmp_path / "missing.json"),
                                        "--data", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    @pytest.mark.skipif(shutil.which("sparsesvm") is None,
                        reason="sparsesvm console script not installed")
    def test_console_script_on_path(self, tmp_path):
        out = tmp_path / "s.csv"
        proc = subprocess.run(["sparsesvm", *GEN_SPIRAL, "--output", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "wrote" in proc.stdout
        assert out.exists()
