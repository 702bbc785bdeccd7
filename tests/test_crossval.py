import json
import re

import numpy as np
import pytest

from sparsesvm.anneal import FitError
from sparsesvm.config import AnnealSchedule, SolverConfig
from sparsesvm.crossval import (CSV_HEADERS, CVRow, CVTable, accuracy_pct,
                                cross_validate, selection_metrics)
from sparsesvm.data import Dataset, make_folds
from sparsesvm.multiclass import (GaussianKernelSpec, OVOModel, PairClassifier,
                                  PairProblem, class_pairs, train_ovo)

from test_multiclass import blob_dataset


def pattern(p, support):
    beta = np.zeros(p + 1)
    beta[list(support)] = 1.0
    return beta


class TestSelectionMetrics:
    def test_perfect_recovery(self):
        truth = pattern(20, [2, 5, 11])
        m = selection_metrics(truth, truth, q=0.15)
        assert m.sensitivity == 1.0 and m.specificity == 1.0
        assert m.fdr == 0.0 and m.fomr == 0.0

    def test_empty_estimate_omits_at_rate_q(self):
        m = selection_metrics(pattern(10, []), pattern(10, [0, 3]), q=0.2)
        assert m.sensitivity == 0.0 and m.specificity == 1.0
        assert m.fdr == 0.0
        assert m.fomr == pytest.approx(0.2)

    def test_all_in_estimate_discovers_at_rate_one_minus_q(self):
        m = selection_metrics(pattern(10, range(10)), pattern(10, [1]), q=0.1)
        assert m.sensitivity == 1.0 and m.specificity == 0.0
        assert m.fdr == pytest.approx(0.9)
        assert m.fomr == 0.0

    def test_mixed_case_formula(self):
        # tp=1 fn=1 fp=1 tn=7: sen=.5 spc=.875
        m = selection_metrics(pattern(10, [0, 2]), pattern(10, [0, 1]), q=0.25)
        assert m.sensitivity == pytest.approx(0.5)
        assert m.specificity == pytest.approx(0.875)
        assert m.fdr == pytest.approx(0.125 * 0.75 / (0.125 * 0.75 + 0.5 * 0.25))
        assert m.fomr == pytest.approx(0.5 * 0.25 / (0.5 * 0.25 + 0.875 * 0.75))

    def test_intercept_ignored(self):
        a = pattern(5, [1])
        b = pattern(5, [1])
        a[-1], b[-1] = 3.0, 0.0
        m = selection_metrics(a, b, q=0.2)
        assert m.fdr == 0.0 and m.fomr == 0.0

    def test_q_validated(self):
        with pytest.raises(ValueError, match="q"):
            selection_metrics(pattern(5, [0]), pattern(5, [0]), q=1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            selection_metrics(pattern(5, [0]), pattern(6, [0]), q=0.5)


class TestAccuracyPct:
    def test_rigged_model_exact_percent(self):
        # always votes class 0 on score >= 0
        model = OVOModel(pairs=[PairClassifier(0, 1, coef=np.array([0.0, 1.0]))],
                         class_names=("a", "b"))
        feats = np.zeros((4, 1))
        assert accuracy_pct(model, feats, np.array([0, 0, 1, 1])) == 50.0
        assert accuracy_pct(model, feats, np.zeros(4)) == 100.0


def toy_rows():
    mk = lambda fold, s, v: CVRow(fold=fold, s=s, k=2.0, iterations=5, time_s=1.5,
                                  objective=0.25, sq_dist=1e-8, train_pct=100.0,
                                  valid_pct=v, test_pct=90.0, sv=3.0,
                                  stop_reason="budget/distance")
    return [mk(0, 0.0, 80.0), mk(1, 0.0, 90.0), mk(0, 0.5, 95.0), mk(1, 0.5, 85.0)]


class TestCVTable:
    def test_grid_and_fold_means(self):
        table = CVTable(rows=toy_rows(), selected_s=0.5, selected_k=2.0)
        assert sorted({r.s for r in table.rows}) == [0.0, 0.5]
        mean = table.mean_over_folds(0.0)
        assert mean["valid_pct"] == pytest.approx(85.0)
        # the stop reasons are text, with no mean
        assert "stop_reason" not in mean
        sel = table.selected_summary()
        assert sel["s"] == 0.5
        assert sel["valid_pct"] == pytest.approx(90.0)
        assert sel["test_pct"] == pytest.approx(90.0)

    def test_csv_layout(self):
        table = CVTable(rows=toy_rows(), selected_s=0.5, selected_k=2.0)
        lines = table.to_csv().splitlines()
        assert lines[0] == ",".join(CSV_HEADERS) == (
            "fold,s,Iter.,Time,Objective,Squared Distance,Train,Valid.,Test,SV,Stop")
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("selected,50,") and lines[-1].endswith(",nan")
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[3] == "0.0"
        assert first[-1] == "budget/distance"

    def test_csv_timings_flag(self):
        table = CVTable(rows=toy_rows(), selected_s=0.0, selected_k=2.0)
        assert ",1.5," in table.to_csv(include_timings=True)
        assert ",1.5," not in table.to_csv()

    def test_json_round_trip(self):
        table = CVTable(rows=toy_rows(), selected_s=0.5, selected_k=2.0)
        doc = json.loads(table.to_json())
        assert len(doc["rows"]) == 4
        assert doc["rows"][0]["time"] == 0.0
        assert doc["selected"]["s"] == 0.5
        assert doc["selected"]["valid"] == pytest.approx(90.0)
        assert doc["rows"][0]["stop_reason"] == "budget/distance"
        assert "stop_reason" not in doc["selected"]


class TestCrossValidate:
    def cv_setup(self, seed=5, n_per=15):
        ds = blob_dataset(np.random.default_rng(seed), n_per=n_per)
        folds = make_folds(ds.n, 3, seed=0, labels=ds.labels)
        return ds, folds

    def test_row_count_and_selection(self):
        ds, folds = self.cv_setup()
        table = cross_validate(ds, folds, [0.0, 0.5])
        assert len(table.rows) == 3 * 2
        assert all(r.error is None for r in table.rows)
        assert table.selected_s in (0.0, 0.5)

    def test_tie_prefers_sparser_level(self):
        ds, folds = self.cv_setup()
        table = cross_validate(ds, folds, [0.0, 0.5])
        means = {s: table.mean_over_folds(s)["valid_pct"] for s in (0.0, 0.5)}
        if means[0.0] == means[0.5]:
            assert table.selected_s == 0.5

    def test_dense_root_runs_even_when_grid_lacks_zero(self):
        ds, folds = self.cv_setup()
        table = cross_validate(ds, folds, [0.5])
        assert {r.s for r in table.rows} == {0.5}
        assert table.selected_s == 0.5

    def test_holdout_column(self):
        ds, folds = self.cv_setup()
        extra = blob_dataset(np.random.default_rng(99), n_per=10)
        with_h = cross_validate(ds, folds, [0.0], holdout=extra)
        without = cross_validate(ds, folds, [0.0])
        assert all(np.isfinite(r.test_pct) for r in with_h.rows)
        assert all(np.isnan(r.test_pct) for r in without.rows)

    def test_deterministic_and_thread_invariant(self):
        ds, folds = self.cv_setup()
        a = cross_validate(ds, folds, [0.0, 0.5]).to_csv()
        b = cross_validate(ds, folds, [0.0, 0.5]).to_csv()
        c = cross_validate(ds, folds, [0.0, 0.5], n_threads=2).to_csv()
        assert a == b == c

    def test_grid_validation(self):
        ds, folds = self.cv_setup()
        with pytest.raises(ValueError, match="empty"):
            cross_validate(ds, folds, [])
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            cross_validate(ds, folds, [0.0, 1.0])
        with pytest.raises(ValueError, match="ascending"):
            cross_validate(ds, folds, [0.5, 0.0])
        with pytest.raises(ValueError, match="ascending"):
            cross_validate(ds, folds, [0.5, 0.5])

    def test_fold_plan_must_match_dataset(self):
        ds, _ = self.cv_setup()
        bad = make_folds(ds.n + 1, 3, seed=0)
        with pytest.raises(ValueError, match="fold plan"):
            cross_validate(ds, bad, [0.0])


@pytest.mark.parametrize("kernel", [None, GaussianKernelSpec(gamma=0.5)],
                         ids=["linear", "kernel"])
def test_level_zero_fold_fits_equal_train_ovo(monkeypatch, kernel):
    ds = blob_dataset(np.random.default_rng(5), n_per=15)
    folds = make_folds(ds.n, 3, seed=0, labels=ds.labels)
    fitted = []
    fit = PairProblem.fit

    def recording_fit(self, *args, **kwargs):
        fitted.append(fit(self, *args, **kwargs))
        return fitted[-1]

    monkeypatch.setattr(PairProblem, "fit", recording_fit)
    cross_validate(ds, folds, [0.0, 0.5], kernel=kernel)
    monkeypatch.undo()
    # one thread: fold 0 fits its three pairs at level 0 before anything else
    cv_pairs = fitted[:3]
    direct = train_ovo(ds.take(folds.train_indices(0)), 0.0, kernel=kernel).pairs
    assert len(fitted) == 3 * 3 * 2 and len(direct) == 3
    for a, b in zip(cv_pairs, direct):
        assert (a.positive, a.negative) == (b.positive, b.negative)
        assert a.report.outer_iters == b.report.outer_iters
        if kernel is None:
            np.testing.assert_array_equal(a.coef, b.coef)
        else:
            np.testing.assert_array_equal(a.kernel.alpha, b.kernel.alpha)
            np.testing.assert_array_equal(a.kernel.train_features, b.kernel.train_features)


def test_stop_reasons_join_the_pair_fits_in_class_pairs_order(monkeypatch):
    ds = blob_dataset(np.random.default_rng(5), n_per=15)
    folds = make_folds(ds.n, 3, seed=0, labels=ds.labels)
    fitted = []
    fit = PairProblem.fit

    def recording_fit(self, *args, **kwargs):
        fitted.append(fit(self, *args, **kwargs))
        return fitted[-1]

    monkeypatch.setattr(PairProblem, "fit", recording_fit)
    table = cross_validate(ds, folds, [0.0, 0.5])
    # one thread: each row's three pairs are fitted in turn, in table order
    assert len(fitted) == 3 * len(table.rows)
    for i, row in enumerate(table.rows):
        pairs = fitted[3 * i:3 * i + 3]
        assert [(p.positive, p.negative) for p in pairs] == list(class_pairs(3))
        assert row.stop_reason == "/".join(p.report.stop_reason for p in pairs)
        assert set(row.stop_reason.split("/")) <= {"distance", "budget"}


# cross_validate runs whose fits fail at s=0.5 in every fold and at s=0.75 in
# fold 0 only (see test_failed_levels_in_table): for each grid, the selected
# level and k, then the text of to_csv() and of to_json(). The objective and
# squared-distance cells are compared at TABLE_RTOL (see split_solver_floats),
# every other cell and the layout byte for byte.
FAILED_LEVEL_TABLES = {
    (0.0, 0.5, 0.75): (
        0.0, 4.0,
        "fold,s,Iter.,Time,Objective,Squared Distance,Train,Valid.,Test,SV,Stop\n"
        "0,0,15,0.0,5.838942813358818e-08,0.0,100.0,100.0,100.0,0.3333333333333333,distance/distance/distance\n"
        "0,50,0,0.0,nan,nan,nan,nan,nan,nan,\n"
        "0,75,0,0.0,nan,nan,nan,nan,nan,nan,\n"
        "1,0,11,0.0,9.873729124339806e-08,0.0,100.0,100.0,100.0,0.3333333333333333,distance/distance/distance\n"
        "1,50,0,0.0,nan,nan,nan,nan,nan,nan,\n"
        "1,75,162,0.0,0.05286379194374937,0.02388458157095284,46.666666666666664,20.0,33.33333333333333,10.0,budget/budget/budget\n"
        "selected,0,13.0,0.0,7.856335968849312e-08,0.0,100.0,100.0,100.0,0.3333333333333333,nan\n",
        '{"rows": [{"fold": 0, "s": 0.0, "k": 4.0, "iterations": 15, "time": 0.0, "objective": '
        '5.838942813358818e-08, "squared_distance": 0.0, "train": 100.0, "valid": 100.0, '
        '"test": 100.0, "sv": 0.3333333333333333, "stop_reason": "distance/distance/distance", '
        '"error": null}, {"fold": 0, "s": 0.5, "k": NaN, "iterations": 0, "time": 0.0, '
        '"objective": NaN, "squared_distance": NaN, "train": NaN, "valid": NaN, "test": NaN, '
        '"sv": NaN, "stop_reason": null, "error": "no fit at s=0.5"}, {"fold": 0, "s": 0.75, '
        '"k": NaN, "iterations": 0, "time": 0.0, "objective": NaN, "squared_distance": NaN, '
        '"train": NaN, "valid": NaN, "test": NaN, "sv": NaN, "stop_reason": null, "error": "no '
        'fit at s=0.75"}, {"fold": 1, "s": 0.0, "k": 4.0, "iterations": 11, "time": 0.0, '
        '"objective": 9.873729124339806e-08, "squared_distance": 0.0, "train": 100.0, "valid": '
        '100.0, "test": 100.0, "sv": 0.3333333333333333, "stop_reason": '
        '"distance/distance/distance", "error": null}, {"fold": 1, "s": 0.5, "k": NaN, '
        '"iterations": 0, "time": 0.0, "objective": NaN, "squared_distance": NaN, "train": NaN, '
        '"valid": NaN, "test": NaN, "sv": NaN, "stop_reason": null, "error": "no fit at '
        's=0.5"}, {"fold": 1, "s": 0.75, "k": 1.0, "iterations": 162, "time": 0.0, "objective": '
        '0.05286379194374937, "squared_distance": 0.02388458157095284, "train": '
        '46.666666666666664, "valid": 20.0, "test": 33.33333333333333, "sv": 10.0, '
        '"stop_reason": "budget/budget/budget", "error": null}], "selected": {"s": 0.0, "k": '
        '4.0, "iterations": 13.0, "objective": 7.856335968849312e-08, "squared_distance": 0.0, '
        '"train": 100.0, "valid": 100.0, "test": 100.0, "sv": 0.3333333333333333}, "fold_plan": '
        '{"num_folds": 2, "seed": 0, "assignments": [1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, '
        '1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0]}}'
    ),
    (0.5,): (
        0.5, float("nan"),
        "fold,s,Iter.,Time,Objective,Squared Distance,Train,Valid.,Test,SV,Stop\n"
        "0,50,0,0.0,nan,nan,nan,nan,nan,nan,\n"
        "1,50,0,0.0,nan,nan,nan,nan,nan,nan,\n"
        "selected,50,nan,0.0,nan,nan,nan,nan,nan,nan,nan\n",
        '{"rows": [{"fold": 0, "s": 0.5, "k": NaN, "iterations": 0, "time": 0.0, "objective": '
        'NaN, "squared_distance": NaN, "train": NaN, "valid": NaN, "test": NaN, "sv": NaN, '
        '"stop_reason": null, "error": "no fit at s=0.5"}, {"fold": 1, "s": 0.5, "k": NaN, '
        '"iterations": 0, "time": 0.0, "objective": NaN, "squared_distance": NaN, "train": NaN, '
        '"valid": NaN, "test": NaN, "sv": NaN, "stop_reason": null, "error": "no fit at '
        's=0.5"}], "selected": {"s": 0.5, "k": NaN, "valid": NaN, "test": NaN}, "fold_plan": '
        '{"num_folds": 2, "seed": 0, "assignments": [1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, '
        '1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0]}}'
    ),
    (0.5, 0.75): (
        0.75, 1.0,
        "fold,s,Iter.,Time,Objective,Squared Distance,Train,Valid.,Test,SV,Stop\n"
        "0,50,0,0.0,nan,nan,nan,nan,nan,nan,\n"
        "0,75,0,0.0,nan,nan,nan,nan,nan,nan,\n"
        "1,50,0,0.0,nan,nan,nan,nan,nan,nan,\n"
        "1,75,162,0.0,0.05286379194374937,0.02388458157095284,46.666666666666664,20.0,33.33333333333333,10.0,budget/budget/budget\n"
        "selected,75,162.0,0.0,0.05286379194374937,0.02388458157095284,46.666666666666664,20.0,33.33333333333333,10.0,nan\n",
        '{"rows": [{"fold": 0, "s": 0.5, "k": NaN, "iterations": 0, "time": 0.0, "objective": '
        'NaN, "squared_distance": NaN, "train": NaN, "valid": NaN, "test": NaN, "sv": NaN, '
        '"stop_reason": null, "error": "no fit at s=0.5"}, {"fold": 0, "s": 0.75, "k": NaN, '
        '"iterations": 0, "time": 0.0, "objective": NaN, "squared_distance": NaN, "train": NaN, '
        '"valid": NaN, "test": NaN, "sv": NaN, "stop_reason": null, "error": "no fit at '
        's=0.75"}, {"fold": 1, "s": 0.5, "k": NaN, "iterations": 0, "time": 0.0, "objective": '
        'NaN, "squared_distance": NaN, "train": NaN, "valid": NaN, "test": NaN, "sv": NaN, '
        '"stop_reason": null, "error": "no fit at s=0.5"}, {"fold": 1, "s": 0.75, "k": 1.0, '
        '"iterations": 162, "time": 0.0, "objective": 0.05286379194374937, "squared_distance": '
        '0.02388458157095284, "train": 46.666666666666664, "valid": 20.0, "test": '
        '33.33333333333333, "sv": 10.0, "stop_reason": "budget/budget/budget", "error": null}], '
        '"selected": {"s": 0.75, "k": 1.0, "iterations": 162.0, "objective": '
        '0.05286379194374937, "squared_distance": 0.02388458157095284, "train": '
        '46.666666666666664, "valid": 20.0, "test": 33.33333333333333, "sv": 10.0}, '
        '"fold_plan": {"num_folds": 2, "seed": 0, "assignments": [1, 1, 0, 0, 0, 1, 1, 1, 0, 0, '
        '0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0]}}'
    ),
}


# The objective and squared distance of a fitted row are rounding-level
# functions of the factorization and the order of the solver's sums; the test
# is about how failed levels show in the table, which those digits do not decide.
TABLE_RTOL = 1e-9
# the two cells after the first CSV_HEADERS.index("Objective") cells of a line
_CSV_CELLS = re.compile(r"^((?:[^,\n]*,){%d})([^,\n]*),([^,\n]*)," % CSV_HEADERS.index("Objective"),
                        re.M)
_JSON_FIELD = re.compile(r'("(?:objective|squared_distance)": )(NaN|[-+0-9.e]+)')


def split_solver_floats(text):
    """``text`` with its objective and squared-distance cells masked as ``*``,
    and those cells' values in order."""
    values = []

    def csv_cells(m):
        if m.group(2) == "Objective":
            return m.group(0)
        values.extend((float(m.group(2)), float(m.group(3))))
        return m.group(1) + "*,*,"

    def json_field(m):
        values.append(float(m.group(2)))
        return m.group(1) + "*"

    if text.startswith("{"):
        return _JSON_FIELD.sub(json_field, text), values
    return _CSV_CELLS.sub(csv_cells, text), values


def assert_table_text(got, want):
    """``got`` is ``want`` but for its objective and squared-distance cells,
    which agree to ``TABLE_RTOL``."""
    got_text, got_values = split_solver_floats(got)
    want_text, want_values = split_solver_floats(want)
    assert got_text == want_text
    assert len(want_values) > 0
    np.testing.assert_allclose(got_values, want_values, rtol=TABLE_RTOL, atol=0)


@pytest.mark.parametrize("grid", sorted(FAILED_LEVEL_TABLES), ids=str)
def test_failed_levels_in_table(monkeypatch, grid):
    fit = PairProblem.fit
    failed_at_075 = []

    def failing_fit(self, s, *args, **kwargs):
        # one thread: fold 0 reaches s=0.75 first, and its first failing pair
        # ends that level for the fold
        if s == 0.5 or (s == 0.75 and not failed_at_075):
            if s == 0.75:
                failed_at_075.append(s)
            raise FitError(f"no fit at s={s}")
        return fit(self, s, *args, **kwargs)

    monkeypatch.setattr(PairProblem, "fit", failing_fit)
    ds = blob_dataset(np.random.default_rng(5), n_per=10)
    holdout = blob_dataset(np.random.default_rng(99), n_per=4)
    folds = make_folds(ds.n, 2, seed=0, labels=ds.labels)
    table = cross_validate(ds, folds, list(grid), holdout=holdout,
                           sched=AnnealSchedule(max_outer=8), cfg=SolverConfig(max_inner=50))
    want_s, want_k, want_csv, want_json = FAILED_LEVEL_TABLES[grid]
    assert table.selected_s == want_s
    np.testing.assert_equal(table.selected_k, want_k)
    assert_table_text(table.to_csv(), want_csv)
    assert_table_text(table.to_json(), want_json)
    if grid == (0.5,):
        # every fit failed: no statistic has a fold to average over
        assert json.loads(table.to_json())["selected"].keys() == {"s", "k", "valid", "test"}


def test_programming_error_in_a_fit_propagates(monkeypatch):
    def broken_fit(self, *args, **kwargs):
        raise TypeError("broken fit")

    monkeypatch.setattr(PairProblem, "fit", broken_fit)
    ds = blob_dataset(np.random.default_rng(5), n_per=10)
    folds = make_folds(ds.n, 2, seed=0, labels=ds.labels)
    with pytest.raises(TypeError, match="broken fit"):
        cross_validate(ds, folds, [0.0, 0.5])
    with pytest.raises(TypeError, match="broken fit"):
        train_ovo(ds, 0.5)


@pytest.mark.parametrize("n_threads", [0, -3])
def test_thread_count_below_one_rejected(n_threads):
    ds = blob_dataset(np.random.default_rng(5), n_per=10)
    folds = make_folds(ds.n, 2, seed=0, labels=ds.labels)
    with pytest.raises(ValueError, match="n_threads must be at least 1"):
        cross_validate(ds, folds, [0.0], n_threads=n_threads)
    with pytest.raises(ValueError, match="n_threads must be at least 1"):
        train_ovo(ds, 0.0, n_threads=n_threads)
