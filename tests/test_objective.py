import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsesvm.data import DesignMatrix
from sparsesvm.kernel import gram_matrix
from sparsesvm.objective import (ObjectiveState, PenaltyWeights, _rows_dot, gradient, hinge_loss,
                                 penalized_objective)
from sparsesvm.solvers import KernelMMWorkspace, MMWorkspace
from sparsesvm.sparsity import SparsityConstraint, project

from conftest import (random_problem, sq_distance, surrogate_value, with_intercept,
                      working_response)


def design_with_margins(margins):
    """One-feature design engineered so y_i x_i' beta hits given margins at beta=(1,0)."""
    m = np.asarray(margins, dtype=float)
    y = np.ones(m.size)
    X = np.column_stack([m, np.ones(m.size)])
    return DesignMatrix(X, y), np.array([1.0, 0.0])


class TestHingeLoss:
    def test_zero_beta(self, rng):
        design, _, _ = random_problem(rng, 12, 4, 2)
        assert hinge_loss(np.zeros(5), design) == pytest.approx(0.5, abs=1e-15)

    def test_inactive_hinge(self):
        design, beta = design_with_margins([1.5, 2.0, 7.0])
        assert hinge_loss(beta, design) == 0.0

    def test_hand_computed_pair(self):
        design, beta = design_with_margins([2.0, -1.0])
        assert hinge_loss(beta, design) == pytest.approx(1.0, abs=1e-15)

    def test_row_permutation_invariant(self, rng):
        design, _, _ = random_problem(rng, 15, 3, 2)
        beta = rng.standard_normal(4)
        perm = rng.permutation(15)
        permuted = DesignMatrix(design.X[perm], design.y[perm])
        assert hinge_loss(beta, design) == pytest.approx(hinge_loss(beta, permuted), rel=1e-14)


class TestWorkingResponse:
    def test_zero_beta_returns_labels(self, rng):
        design, _, _ = random_problem(rng, 10, 3, 1)
        np.testing.assert_array_equal(working_response(np.zeros(4), design), design.y)

    def test_clear_margins_return_scores(self):
        design, beta = design_with_margins([1.5, 3.0])
        np.testing.assert_allclose(working_response(beta, design), design.X @ beta)

    def test_boundary_margin_joins_inactive_branch(self):
        design, beta = design_with_margins([1.0, 0.2])
        z = working_response(beta, design)
        assert z[0] == pytest.approx(1.0)
        assert z[1] == design.y[1]


class TestPenaltyWeights:
    def test_formulas(self):
        w = PenaltyWeights.for_problem(50, SparsityConstraint(k=3, p=10), rho=2.0)
        assert w.a2 == pytest.approx(1 / 50)
        assert w.b2 == pytest.approx(2.0 / 8)

    def test_rho_zero_turns_penalty_off(self):
        w = PenaltyWeights.for_problem(10, SparsityConstraint(k=1, p=4), rho=0.0)
        assert w.b2 == 0.0

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            PenaltyWeights.for_problem(10, SparsityConstraint(k=1, p=4), rho=-1.0)

    def test_rho_whose_squared_weight_overflows_rejected(self):
        """The solvers square b2; a finite rho that overflows it is refused by
        name, one that does not is kept."""
        constraint = SparsityConstraint(k=1, p=4)
        with pytest.raises(ValueError, match="rho"):
            PenaltyWeights.for_problem(10, constraint, rho=1e300)
        assert PenaltyWeights.for_problem(10, constraint, rho=1e150).b2 == 1e150 / 4


class TestPenalizedObjective:
    def test_rho_zero_equals_loss(self, rng):
        design, constraint, _ = random_problem(rng, 20, 6, 3)
        weights = PenaltyWeights.for_problem(20, constraint, 0.0)
        beta = rng.standard_normal(7)
        state = penalized_objective(beta, design, constraint, weights)
        assert state.penalty == 0.0
        assert state.objective == pytest.approx(hinge_loss(beta, design))

    def test_feasible_point_has_zero_penalty(self, rng):
        design, constraint, weights = random_problem(rng, 20, 6, 3, rho=5.0)
        beta = project(rng.standard_normal(7), constraint)
        assert penalized_objective(beta, design, constraint, weights).penalty == 0.0

    def test_recomposition(self, rng):
        for _ in range(20):
            design, constraint, weights = random_problem(
                rng, int(rng.integers(5, 25)), 6, int(rng.integers(1, 6)), rho=float(rng.uniform(0, 4)))
            beta = rng.standard_normal(7)
            state = penalized_objective(beta, design, constraint, weights)
            want = hinge_loss(beta, design) + 0.5 * weights.b2 * sq_distance(beta, constraint)
            assert state.objective == pytest.approx(want, rel=1e-13)
            assert state.objective == pytest.approx(state.loss + state.penalty, rel=1e-13)


def margins_clear_of_kink(beta, design, gap=1e-3):
    return np.all(np.abs(1.0 - design.y * (design.X @ beta)) > gap)


def magnitudes_clear_of_ties(beta, constraint, gap=1e-3):
    if constraint.k in (0, constraint.p):
        return True
    mags = np.sort(np.abs(beta[:constraint.p]))
    boundary = constraint.p - constraint.k
    return mags[boundary] - mags[boundary - 1] > gap


class TestGradient:
    def test_zero_when_feasible_and_inactive(self):
        design, beta = design_with_margins([2.0, 3.0])
        constraint = SparsityConstraint(k=1, p=1)
        weights = PenaltyWeights.for_problem(2, constraint, rho=4.0)
        np.testing.assert_allclose(gradient(beta, design, constraint, weights), 0.0)

    def test_rho_zero_is_pure_loss_gradient(self, rng):
        design, constraint, _ = random_problem(rng, 15, 5, 2)
        weights = PenaltyWeights.for_problem(15, constraint, 0.0)
        beta = rng.standard_normal(6)
        margins = design.y * (design.X @ beta)
        v = -weights.a2 * design.y * np.maximum(0.0, 1.0 - margins)
        np.testing.assert_allclose(gradient(beta, design, constraint, weights),
                                   design.X.T @ v, rtol=1e-13)

    def test_matches_central_differences(self, rng):
        """Finite-difference oracle away from hinge kinks and selection ties."""
        checked = 0
        while checked < 100:
            n = int(rng.integers(5, 31))
            p = int(rng.integers(2, 11))
            k = int(rng.integers(1, p + 1))
            rho = float(rng.choice([0.0, 1.0, 100.0]))
            design, constraint, weights = random_problem(rng, n, p, k, rho=rho)
            beta = rng.standard_normal(p + 1)
            if not (margins_clear_of_kink(beta, design) and magnitudes_clear_of_ties(beta, constraint)):
                continue
            grad = gradient(beta, design, constraint, weights)
            h = 1e-6
            fd = np.empty(p + 1)
            for j in range(p + 1):
                e = np.zeros(p + 1)
                e[j] = h
                hi = penalized_objective(beta + e, design, constraint, weights).objective
                lo = penalized_objective(beta - e, design, constraint, weights).objective
                fd[j] = (hi - lo) / (2 * h)
            denom = max(float(np.linalg.norm(fd)), 1e-12)
            assert float(np.linalg.norm(grad - fd)) / denom <= 1e-5
            checked += 1

    def test_penalty_part_never_touches_intercept(self, rng):
        design, constraint, weights = random_problem(rng, 10, 6, 2, rho=20.0)
        beta = rng.standard_normal(7)
        margins = design.y * (design.X @ beta)
        v = -weights.a2 * design.y * np.maximum(0.0, 1.0 - margins)
        penalty_part = gradient(beta, design, constraint, weights) - design.X.T @ v
        assert penalty_part[-1] == pytest.approx(0.0, abs=1e-14)


@given(large=st.booleans(), kf=st.floats(0.0, 1.0), rows=st.sampled_from(["none", "all", "mixed"]),
       flip=st.floats(0.0, 1.0), rho=st.sampled_from([0.0, 0.5, 50.0]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_eval_gradient_matches_dense_oracle(large, kf, rows, flip, rho, seed):
    """The gradient read from the rows inside the margin equals the dense
    X.T @ (-a2 y slack) + b2 (beta - pm), with no, every, or some rows inside,
    on small designs and on designs large enough to gather those rows."""
    rng = np.random.default_rng(seed)
    n, p = (int(rng.integers(200, 320)), int(rng.integers(150, 260))) if large else (
        int(rng.integers(1, 31)), int(rng.integers(1, 11)))
    design, constraint, weights = random_problem(rng, n, p, int(round(kf * p)), rho=rho)
    X, y = design.X, design.y
    beta = rng.standard_normal(p + 1)
    scores = X @ beta
    if rows == "all":
        beta = beta * (0.5 / max(float(np.max(np.abs(scores))), 1e-300))
    else:
        # labels follow the scores, scaled so every margin is at least 2;
        # "mixed" then flips a drawn share of the labels, putting those rows inside
        y = np.where(scores >= 0.0, 1.0, -1.0)
        beta = beta * (2.0 / max(float(np.min(np.abs(scores))), 1e-300))
        if rows == "mixed":
            y = np.where(rng.random(n) < flip, -y, y)
    design = DesignMatrix(X, y)
    scores = X @ beta
    slack = np.maximum(0.0, 1.0 - y * scores)
    inside = np.count_nonzero(slack)
    assert {"none": inside == 0, "all": inside == n, "mixed": True}[rows]

    got = ObjectiveState(beta, scores, design, constraint, weights).grad
    v = -weights.a2 * y * slack
    pull = weights.b2 * (beta - project(beta, constraint))
    want = X.T @ v + pull
    bound = 1e-12 * (1.0 + np.abs(X).T @ np.abs(v) + np.abs(pull))
    assert np.all(np.abs(got - want) <= bound)


def test_rows_dot_reads_only_nonzero_rows_of_large_matrices(rng):
    """On a large matrix with few nonzero weights the zero-weight rows are never
    read (NaN there would poison a dense product); small ones use the dense product."""
    A = rng.standard_normal((300, 201))
    v = np.zeros(300)
    rows = rng.choice(300, 12, replace=False)
    v[rows] = rng.standard_normal(12)
    want = A.T @ v
    A[v == 0.0] = np.nan
    got = _rows_dot(v, A)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.any(v[:40] == 0.0)
    assert np.all(np.isnan(_rows_dot(v[:40], A[:40, :20])))


class TestSurrogate:
    def test_tangency_at_anchor(self, rng):
        for _ in range(50):
            design, constraint, weights = random_problem(
                rng, int(rng.integers(4, 20)), 5, int(rng.integers(1, 5)), rho=float(rng.uniform(0, 3)))
            beta = rng.standard_normal(6)
            sur = surrogate_value(beta, beta, design, constraint, weights)
            obj = penalized_objective(beta, design, constraint, weights).objective
            assert abs(sur - obj) <= 1e-12 * (1 + abs(obj))

    def test_dominance_on_random_pairs(self, rng):
        for _ in range(1000):
            n = int(rng.integers(3, 15))
            p = int(rng.integers(2, 7))
            design, constraint, weights = random_problem(
                rng, n, p, int(rng.integers(0, p + 1)), rho=float(rng.uniform(0, 5)))
            beta = rng.standard_normal(p + 1) * 2
            anchor = rng.standard_normal(p + 1) * 2
            sur = surrogate_value(beta, anchor, design, constraint, weights)
            obj = penalized_objective(beta, design, constraint, weights).objective
            assert sur >= obj - 1e-12

    def test_rho_zero_active_anchor_is_least_squares(self, rng):
        design, constraint, _ = random_problem(rng, 8, 3, 2)
        weights = PenaltyWeights.for_problem(8, constraint, 0.0)
        anchor = np.zeros(4)
        beta = rng.standard_normal(4)
        want = 0.5 * weights.a2 * float(np.sum((design.y - design.X @ beta) ** 2))
        assert surrogate_value(beta, anchor, design, constraint, weights) == pytest.approx(want, rel=1e-13)

    def test_surrogate_gradient_matches_objective_gradient_at_anchor(self, rng):
        """Tangency in first order: directional derivatives agree at the anchor."""
        for _ in range(20):
            design, constraint, weights = random_problem(rng, 12, 5, 2, rho=2.0)
            beta = rng.standard_normal(6)
            if not margins_clear_of_kink(beta, design, gap=1e-4):
                continue
            z = working_response(beta, design)
            pm = project(beta, constraint)
            sur_grad = (weights.a2 * design.X.T @ (design.X @ beta - z)
                        + weights.b2 * (beta - pm))
            np.testing.assert_allclose(sur_grad, gradient(beta, design, constraint, weights),
                                       atol=1e-10)


@pytest.mark.parametrize("basis", ["thin_svd", "gram", "none"])
def test_reweigh_in_place_keeps_weight_free_pieces(rng, basis):
    """A state weighed again at other weights keeps its weight-free pieces, the
    same objects, and forms its objective and gradient exactly as a fresh state
    at those weights would."""
    n, p, k = 30, 8, 3
    if basis == "gram":
        features = rng.standard_normal((n, 2))
        y = np.where(features[:, 0] * features[:, 1] > 0, 1.0, -1.0)
        design = with_intercept(gram_matrix(features, 0.5)[0], y)
        constraint = SparsityConstraint(k=10, p=n)
        ws = KernelMMWorkspace.from_design(design)
    else:
        design, constraint, _ = random_problem(rng, n, p, k)
        ws = MMWorkspace.from_design(design) if basis == "thin_svd" else None
    w1 = PenaltyWeights.for_problem(design.n, constraint, 2.0)
    w2 = PenaltyWeights.for_problem(design.n, constraint, 2.4)
    beta = 0.3 * rng.standard_normal(design.X.shape[1])
    kept = ("pm", "slack") if ws is None else ("pm", "slack", "residual_coords", "pm_coords")

    state = ObjectiveState.at(beta, design, constraint, w1, ws)
    pieces = {name: getattr(state, name) for name in kept}
    values = (state.sq_dist, state.loss)
    before = state.objective

    state._weigh(w2)
    fresh = ObjectiveState.at(beta, design, constraint, w2, ws)
    for name in kept:
        assert getattr(state, name) is pieces[name]
    assert (state.sq_dist, state.loss) == values
    assert state.objective == fresh.objective != before
    assert state.grad_sq == fresh.grad_sq
    if ws is None:
        np.testing.assert_array_equal(state.grad, fresh.grad)
    else:
        assert not hasattr(state, "grad")
