import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from sparsesvm import data
from sparsesvm.data import DataError, Dataset, DesignMatrix, binarize
from sparsesvm.multiclass import (GaussianKernelSpec, OVOModel, PairClassifier,
                                  PairProblem, class_pairs, init_heuristic,
                                  ordered_map, predict_ovo, train_ovo)
from sparsesvm.solvers import SOLVERS, KernelMMWorkspace, SDWorkspace
from sparsesvm.sparsity import SparsityConstraint

from conftest import with_intercept


def blob_dataset(rng, n_per=30, classes=3, p=4, sep=4.0, sigma=0.5):
    feats, labels = [], []
    for c in range(classes):
        center = np.zeros(p)
        center[c] = sep
        feats.append(center + sigma * rng.standard_normal((n_per, p)))
        labels.append(np.full(n_per, c))
    names = tuple(chr(ord("a") + c) for c in range(classes))
    return Dataset(np.vstack(feats), np.concatenate(labels), names)


class TestClassPairs:
    def test_three_classes(self):
        assert class_pairs(3) == [(0, 1), (0, 2), (1, 2)]

    def test_counts(self):
        for m in range(2, 8):
            assert len(class_pairs(m)) == m * (m - 1) // 2


class TestInitHeuristic:
    def test_slopes_match_per_column_least_squares(self, rng):
        X = rng.standard_normal((40, 6))
        y = np.where(rng.standard_normal(40) > 0, 1.0, -1.0)
        design = with_intercept(X, y)
        beta = init_heuristic(design)
        for j in range(6):
            slope = np.polyfit(X[:, j], y, 1)[0]
            assert beta[j] == pytest.approx(slope, rel=1e-10)
        assert beta[-1] == pytest.approx(y.mean())

    def test_constant_column_gets_zero_slope(self, rng):
        X = rng.standard_normal((20, 3))
        X[:, 1] = 7.0
        y = np.where(rng.standard_normal(20) > 0, 1.0, -1.0)
        beta = init_heuristic(with_intercept(X, y))
        assert beta[1] == 0.0
        assert np.isfinite(beta).all()

    def test_adds_at_most_one_feature_block(self, rng, traced_peak):
        n, p = 1200, 300
        design = with_intercept(rng.standard_normal((n, p)),
                                            np.where(rng.random(n) < 0.5, 1.0, -1.0))
        _, peak = traced_peak(init_heuristic, design)
        # the centred copy; squaring it out of place would add a second one
        assert peak <= 1.05 * n * p * 8


class TestVoting:
    def make_model(self, score_by_pair):
        """Pair classifiers with rigged constant scores on 1-d features."""
        pairs = []
        for (i, j), s in score_by_pair.items():
            coef = np.array([0.0, s])
            pairs.append(PairClassifier(i, j, coef=coef))
        return OVOModel(pairs=pairs, class_names=("a", "b", "c"))

    def test_clear_majority(self):
        model = self.make_model({(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
        assert predict_ovo(model, np.zeros(1)) == 0

    def test_circular_tie_goes_to_lowest_id(self):
        model = self.make_model({(0, 1): 1.0, (0, 2): -1.0, (1, 2): 1.0})
        assert predict_ovo(model, np.zeros(1)) == 0

    def test_zero_score_counts_for_positive_class(self):
        model = self.make_model({(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0})
        assert predict_ovo(model, np.zeros(1)) == 0

    def test_batch_shape_and_scalar_agreement(self, rng):
        model = self.make_model({(0, 1): 1.0, (0, 2): -1.0, (1, 2): -1.0})
        Q = rng.standard_normal((5, 1))
        out = predict_ovo(model, Q)
        assert out.shape == (5,)
        assert all(predict_ovo(model, Q[i]) == out[i] for i in range(5))


class TestTrainOVO:
    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_blobs_all_pairs_converge_and_classify(self, solver):
        ds = blob_dataset(np.random.default_rng(7))
        model = train_ovo(ds, SparsityConstraint(k=3, p=4), solver=solver)
        assert len(model.pairs) == 3
        assert all(pc.report.converged for pc in model.pairs)
        acc = float(np.mean(predict_ovo(model, ds.features) == ds.labels))
        assert acc == 1.0

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_reports_stay_consistent_when_a_pair_stalls(self, rng, solver):
        # every pair ends on the distance test; converged and the distance agree
        ds = blob_dataset(rng)
        model = train_ovo(ds, SparsityConstraint(k=3, p=4), solver=solver)
        for pc in model.pairs:
            assert pc.report.stop_reason == "distance"
            assert pc.report.converged == (pc.report.distance <= 1e-6)
            assert int(np.count_nonzero(pc.coef[:-1])) <= 3
        acc = float(np.mean(predict_ovo(model, ds.features) == ds.labels))
        assert acc == 1.0

    def test_two_class_reduces_to_sign_rule(self, rng):
        ds = blob_dataset(rng, classes=2, p=3)
        model = train_ovo(ds, SparsityConstraint(k=2, p=3))
        assert len(model.pairs) == 1
        pc = model.pairs[0]
        scores = pc.scores(ds.features)
        want = np.where(scores >= 0.0, 0, 1)
        np.testing.assert_array_equal(predict_ovo(model, ds.features), want)

    def test_threaded_training_matches_serial(self, rng):
        ds = blob_dataset(rng, n_per=20)
        a = train_ovo(ds, SparsityConstraint(k=2, p=4), n_threads=1)
        b = train_ovo(ds, SparsityConstraint(k=2, p=4), n_threads=3)
        for pa, pb in zip(a.pairs, b.pairs):
            np.testing.assert_array_equal(pa.coef, pb.coef)

    def test_kernel_pairs_use_their_own_sample_counts(self, rng):
        ds = blob_dataset(rng, n_per=15)
        model = train_ovo(ds, 0.5, kernel=GaussianKernelSpec(gamma=0.5))
        for pc in model.pairs:
            assert pc.kernel is not None and pc.coef is None
            assert pc.kernel.train_features.shape[0] == 30
            assert pc.kernel.support_size <= 15
        acc = float(np.mean(predict_ovo(model, ds.features) == ds.labels))
        assert acc == 1.0

    def test_kernel_constraint_object_rejected_on_wrong_dimension(self, rng):
        ds = blob_dataset(rng, n_per=10)
        with pytest.raises(RuntimeError, match="fit failed for class pair"):
            train_ovo(ds, SparsityConstraint(k=2, p=4),
                      kernel=GaussianKernelSpec(gamma=1.0))

    def test_pair_failure_names_the_classes(self, rng):
        ds = blob_dataset(rng, n_per=10)
        with pytest.raises(RuntimeError, match=r"\(a, b\)"):
            train_ovo(ds, SparsityConstraint(k=2, p=9))

    @pytest.mark.parametrize("kernel", [None, GaussianKernelSpec(gamma=0.5)],
                             ids=["linear", "kernel"])
    def test_class_without_rows_fails_its_pair(self, rng, kernel):
        ds = blob_dataset(rng, n_per=10)
        ds = Dataset(ds.features, ds.labels, ds.class_names + ("d",))
        with pytest.raises(RuntimeError, match=r"^fit failed for class pair \(a, d\): "
                                               r"class 'd' has no samples$") as err:
            train_ovo(ds, 0.0, kernel=kernel)
        assert isinstance(err.value.__cause__, DataError)

    def test_default_bandwidth_recorded_on_model(self, rng):
        ds = blob_dataset(rng, classes=2, n_per=12)
        model = train_ovo(ds, 0.0, kernel=GaussianKernelSpec())
        assert model.pairs[0].kernel.gamma > 0


class TestOrderedMap:
    """The pool behind ``train_ovo``'s pairs and ``cross_validate``'s folds."""

    WAIT = 10.0  # seconds one thread waits on another before the test gives up

    @pytest.mark.parametrize("n_threads", [2, 3, 8])
    @pytest.mark.parametrize("more", [False, True], ids=["fewer-items", "more-items"])
    def test_each_item_once_in_order_and_the_caller_runs_one(self, n_threads, more):
        n_items = 3 * n_threads + 1 if more else n_threads - 1
        caller = threading.get_ident()
        caller_ran = threading.Event()
        lock = threading.Lock()
        runs, threads, waited = [0] * n_items, set(), []

        def func(x):
            me = threading.get_ident()
            with lock:
                runs[x] += 1
                threads.add(me)
            if me == caller:
                caller_ran.set()
            else:
                # a worker holds its item until the caller has taken one
                waited.append(caller_ran.wait(self.WAIT))
            return x * x

        assert ordered_map(func, range(n_items), n_threads) == [x * x for x in range(n_items)]
        assert runs == [1] * n_items
        assert len(threads) <= n_threads
        assert caller in threads
        assert all(waited)

    def test_lowest_index_failure_raised_after_the_threads_stop(self):
        item2_failed = threading.Event()
        done = []

        def func(x):
            if x == 0:
                assert item2_failed.wait(self.WAIT)
                raise ValueError("item 0")
            if x == 2:
                try:
                    raise ValueError("item 2")
                finally:
                    item2_failed.set()
            done.append(x)
            return x

        with pytest.raises(ValueError, match="^item 0$"):
            ordered_map(func, range(6), n_threads=3)
        assert sorted(done) == [1, 3, 4, 5]

    def test_no_item_lost_or_repeated_under_fast_switching(self):
        n_items, rounds = 200, 50
        counts = [0] * n_items
        lock = threading.Lock()
        out = []

        def func(x):
            sum(range(50))  # a few bytecodes for the interpreter to switch within
            with lock:
                counts[x] += 1
            return -x

        def run():
            for _ in range(rounds):
                out.append(ordered_map(func, range(n_items), n_threads=8))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "ordered_map did not finish within 60 s"
        assert out == [[-x for x in range(n_items)]] * rounds
        assert counts == [rounds] * n_items

    def test_a_workers_system_exit_raised_after_the_threads_stop(self):
        n_items = 12
        caller = threading.get_ident()
        lock = threading.Lock()
        worker_exited = threading.Event()
        runs, finished, seen, exited = [0] * n_items, [], set(), []

        def func(x):
            if x == 0:
                raise ValueError("item 0")
            with lock:
                runs[x] += 1
                seen.add(threading.current_thread())
                leave = threading.get_ident() != caller and not exited
                if leave:
                    exited.append(x)
            if leave:
                worker_exited.set()
                raise SystemExit(3)
            if threading.get_ident() == caller:
                assert worker_exited.wait(self.WAIT)
            time.sleep(0.01)  # an item still running when the pool raised would show
            finished.append(x)
            return x

        with pytest.raises(SystemExit) as info:
            ordered_map(func, range(n_items), n_threads=3)
        # raised ahead of item 0's ValueError, once no worker runs an item
        assert info.value.code == 3
        assert not any(t.is_alive() for t in seen if t.ident != caller)
        assert runs == [0] + [1] * (n_items - 1)
        assert sorted(finished + exited) == list(range(1, n_items))

    def test_an_interrupt_in_the_caller_raised_after_the_worker_stops(self):
        n_items = 8
        caller = threading.get_ident()
        worker_busy = threading.Event()
        finished = []

        def func(x):
            if threading.get_ident() == caller:
                assert worker_busy.wait(self.WAIT)
                raise KeyboardInterrupt
            worker_busy.set()
            time.sleep(0.01)
            finished.append(x)
            return x

        with pytest.raises(KeyboardInterrupt):
            ordered_map(func, range(n_items), n_threads=2)
        # the worker drained every other item before the interrupt reached the caller
        assert len(set(finished)) == len(finished) == n_items - 1

    def test_importing_the_package_loads_no_executor_or_logging(self):
        # a fresh interpreter: this one has loaded whatever the test run needed
        code = ("import sys, sparsesvm; "
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "[]"


class TestPairProblem:
    def test_constraint_from_fraction_or_checked_object(self, rng):
        prob = PairProblem.build(blob_dataset(rng, n_per=10), 0, 2)
        assert prob.constraint(0.5) == SparsityConstraint(k=2, p=4)
        kept = SparsityConstraint(k=1, p=4)
        assert prob.constraint(kept) is kept
        with pytest.raises(ValueError, match="p=5"):
            prob.constraint(SparsityConstraint(k=1, p=5))

    def test_kernel_pair_keeps_the_binarized_rows(self, rng):
        ds = blob_dataset(rng, n_per=10)
        prob = PairProblem.build(ds, 2, 0, GaussianKernelSpec(gamma=0.5))
        linear = binarize(ds, 2, 0)
        np.testing.assert_array_equal(prob.design.y, linear.y)
        assert prob.design.p == linear.n
        pair = prob.fit(0.5)
        np.testing.assert_array_equal(pair.kernel.train_features, linear.X[:, :-1])
        np.testing.assert_array_equal(pair.kernel.train_labels, linear.y)
        assert (pair.positive, pair.negative) == (2, 0)

    @pytest.mark.parametrize("solver", ["mm", "sd"])
    def test_build_binds_the_solver(self, rng, solver):
        prob = PairProblem.build(blob_dataset(rng, n_per=10), 0, 1, solver=solver)
        assert isinstance(prob.workspace, SOLVERS[solver])
        prob.fit(0.0)
        prob.fit(0.5)

    @pytest.mark.parametrize("kernel", [None, GaussianKernelSpec(gamma=0.5)],
                             ids=["linear", "kernel"])
    def test_build_on_rows_equals_build_on_their_take(self, rng, kernel):
        ds = blob_dataset(rng, n_per=10)
        rows = rng.permutation(ds.n)[:20]
        got = PairProblem.build(ds, 2, 0, kernel, rows=rows)
        want = PairProblem.build(ds.take(rows), 2, 0, kernel)
        assert got.design.X.tobytes() == want.design.X.tobytes()
        assert got.design.y.tobytes() == want.design.y.tobytes()
        a, b = got.fit(0.5), want.fit(0.5)
        assert replace(a.report, wall_time=0.0) == replace(b.report, wall_time=0.0)
        assert got.warm.tobytes() == want.warm.tobytes()

    def test_build_rejects_unknown_solver(self, rng):
        with pytest.raises(ValueError, match="unknown solver"):
            PairProblem.build(blob_dataset(rng, n_per=10), 0, 1, solver="newton")

    def test_refit_warm_starts_at_the_penalty_reached(self, rng):
        """The refit resumes on the exact rung the first fit solved last; after
        this first fit's 48 levels of 1.2, rho0 * 1.2 ** 47 is an ulp off it."""
        prob = PairProblem.build(blob_dataset(rng, n_per=10), 0, 1)
        first_levels, hooked = [], []
        first = prob.fit(0.75, trace_hook=first_levels.append)
        np.testing.assert_array_equal(prob.warm, first.coef)
        prob.fit(0.9, trace_hook=hooked.append)
        assert len(first_levels) == first.report.outer_iters == 48
        assert hooked[0].rho == first_levels[-1].rho
        assert first.report.rho == first_levels[-1].rho


def test_kernel_model_keeps_unsigned_dual_weights(rng):
    """A kernel pair is fitted on [K | 1] in the signed weights c = y alpha;
    its model holds alpha, with +0.0 for every dropped sample."""
    prob = PairProblem.build(blob_dataset(rng, n_per=10), 0, 1, GaussianKernelSpec(gamma=0.5))
    np.testing.assert_array_equal(prob.design.X[:, :-1], prob.design.X[:, :-1].T)
    alpha = prob.fit(0.5).kernel.alpha
    y, c = prob.design.y, prob.warm
    np.testing.assert_array_equal(alpha, np.append(y * c[:-1], c[-1]))
    dropped = alpha[:-1] == 0.0
    assert np.any(dropped & (y < 0))
    assert not np.any(np.signbit(alpha[:-1][dropped]))


class ThinSVDCalled(Exception):
    pass


class TestKernelFactorization:
    """Kernel pairs under ``mm`` factor the gram matrix, never the design."""

    @pytest.fixture(autouse=True)
    def no_thin_svd(self, monkeypatch):
        real = data.thin_svd

        def refuse(*args, **kwargs):
            raise ThinSVDCalled

        for name, mod in list(sys.modules.items()):
            if name.startswith("sparsesvm") and getattr(mod, "thin_svd", None) is real:
                monkeypatch.setattr(mod, "thin_svd", refuse)

    def test_kernel_mm_builds_and_trains_without_a_thin_svd(self, rng):
        ds = blob_dataset(rng, n_per=10)
        kernel = GaussianKernelSpec(gamma=0.5)
        prob = PairProblem.build(ds, 0, 1, kernel, solver="mm")
        assert isinstance(prob.workspace, KernelMMWorkspace)
        prob.fit(0.5)
        model = train_ovo(ds, 0.5, solver="mm", kernel=kernel)
        assert len(model.pairs) == 3
        assert np.mean(predict_ovo(model, ds.features) == ds.labels) > 0.9

    def test_linear_mm_still_takes_the_thin_svd(self, rng):
        with pytest.raises(ThinSVDCalled):
            PairProblem.build(blob_dataset(rng, n_per=10), 0, 1, solver="mm")

    @pytest.mark.parametrize("kernel", [None, GaussianKernelSpec(gamma=0.5)],
                             ids=["linear", "kernel"])
    def test_sd_builds_are_unaffected(self, rng, kernel):
        prob = PairProblem.build(blob_dataset(rng, n_per=10), 0, 1, kernel, solver="sd")
        assert isinstance(prob.workspace, SDWorkspace)
        prob.fit(0.5)
