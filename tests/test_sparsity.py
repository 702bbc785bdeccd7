import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsesvm.sparsity import SparsityConstraint, project

from conftest import sq_distance


def brute_force_sq_distance(beta, k, p):
    """Minimum squared residual over every size-k support, intercept free."""
    best = np.inf
    for supp in itertools.combinations(range(p), k):
        cand = np.zeros(p)
        cand[list(supp)] = beta[list(supp)]
        best = min(best, float(np.sum((beta[:p] - cand) ** 2)))
    return best


def test_magnitude_order_forced():
    beta = np.array([3.0, -1.0, 2.0, 7.0])
    out = project(beta, SparsityConstraint(k=2, p=3))
    np.testing.assert_array_equal(out, [3.0, 0.0, 2.0, 7.0])


def test_k_equals_p_identity():
    beta = np.array([1.0, 1.0, 1.0, 5.0])
    out = project(beta, SparsityConstraint(k=3, p=3))
    np.testing.assert_array_equal(out, beta)


def test_sq_distance_single_drop():
    beta = np.array([3.0, -1.0, 2.0, 7.0])
    assert sq_distance(beta, SparsityConstraint(k=2, p=3)) == pytest.approx(1.0, abs=1e-15)


def test_sparse_input_distance_zero(rng):
    beta = np.zeros(9)
    beta[[1, 4]] = rng.standard_normal(2)
    beta[-1] = 3.0
    assert sq_distance(beta, SparsityConstraint(k=3, p=8)) == 0.0


def test_k_zero_clears_everything_but_intercept(rng):
    beta = rng.standard_normal(6)
    out = project(beta, SparsityConstraint(k=0, p=5))
    np.testing.assert_array_equal(out[:5], np.zeros(5))
    assert out[5] == beta[5]


def test_matches_brute_force_oracle(rng):
    for _ in range(200):
        p = int(rng.integers(1, 9))
        k = int(rng.integers(0, p + 1))
        beta = rng.standard_normal(p + 1)
        got = sq_distance(beta, SparsityConstraint(k=k, p=p))
        want = brute_force_sq_distance(beta, k, p)
        assert abs(got - want) <= 1e-12


def test_tie_break_keeps_lower_index():
    # both middle entries have magnitude 2; index 1 must win the last slot
    beta = np.array([5.0, 2.0, -2.0, 0.0])
    out = project(beta, SparsityConstraint(k=2, p=3))
    np.testing.assert_array_equal(out, [5.0, 2.0, 0.0, 0.0])


def test_all_ties_resolved_in_index_order():
    beta = np.array([1.0, -1.0, 1.0, -1.0, 9.0])
    out = project(beta, SparsityConstraint(k=2, p=4))
    np.testing.assert_array_equal(out, [1.0, -1.0, 0.0, 0.0, 9.0])


def test_any_array_like_input_projects_as_its_float_copy(rng):
    """A list, an integer array, a strided view and a read-only array give the
    output of their float copy, and the input is never written."""
    constraint = SparsityConstraint(k=3, p=7)
    base = rng.standard_normal(16)
    kept = base.copy()
    readonly = base[:8].copy()
    readonly.flags.writeable = False
    inputs = [list(base[:8]), rng.integers(-9, 10, 8), base[::2], readonly]
    for beta in inputs:
        before = np.array(beta, dtype=float)
        want = project(before.copy(), constraint)
        got = project(beta, constraint)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.asarray(beta, dtype=float), before)
        assert np.count_nonzero(got[:7]) == 3
    np.testing.assert_array_equal(base, kept)


def test_constraint_validation():
    with pytest.raises(ValueError):
        SparsityConstraint(k=4, p=3)
    with pytest.raises(ValueError):
        SparsityConstraint(k=-1, p=3)


@pytest.mark.parametrize("k, p, bad", [(2.0, 5, "k=2.0"), (2.5, 5, "k=2.5"), (True, 5, "k=True"),
                                       ("2", 5, "k='2'"), (1, 5.0, "p=5.0"), (1, False, "p=False")])
def test_constraint_rejects_non_integer_sizes(k, p, bad):
    # a float k would otherwise first fail inside project's np.partition
    name, value = bad.split("=")
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d, got {value}$"):
        SparsityConstraint(k=k, p=p)


def test_constraint_accepts_numpy_integers():
    constraint = SparsityConstraint(k=np.int64(2), p=np.int64(5))
    beta = np.array([1.0, -3.0, 0.5, 2.0, 0.1, 7.0])
    np.testing.assert_array_equal(project(beta, constraint), [0.0, -3.0, 0.0, 2.0, 0.0, 7.0])


def test_from_sparsity_rounding():
    assert SparsityConstraint.from_sparsity(0.996, 500).k == 2
    assert SparsityConstraint.from_sparsity(0.0, 7).k == 7
    assert SparsityConstraint.from_sparsity(0.9, 50).k == 5


def test_sparsity_round_trip():
    for p in (1, 7, 50, 500):
        for k in range(1, p + 1):
            assert SparsityConstraint.from_sparsity(1.0 - k / p, p) == SparsityConstraint(k, p)


finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=12,
)


@given(vec=finite_vectors, kf=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_projection_idempotent(vec, kf):
    beta = np.asarray(vec)
    p = beta.size - 1
    c = SparsityConstraint(k=int(round(kf * p)), p=p)
    once = project(beta, c)
    np.testing.assert_array_equal(project(once, c), once)


@given(vec=finite_vectors, kf=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_distance_never_beats_feasible_points(vec, kf, seed):
    """The projection is a nearest point: any sparse w is at least as far."""
    beta = np.asarray(vec)
    p = beta.size - 1
    k = int(round(kf * p))
    c = SparsityConstraint(k=k, p=p)
    r = np.random.default_rng(seed)
    w = np.zeros(p + 1)
    if k > 0:
        supp = r.choice(p, size=k, replace=False)
        w[supp] = r.standard_normal(k)
    w[p] = beta[p]
    assert sq_distance(beta, c) <= float(np.sum((beta - w) ** 2)) + 1e-9 * (1 + np.sum(beta ** 2))


@given(vec=finite_vectors, kf=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_intercept_never_touched(vec, kf):
    beta = np.asarray(vec)
    p = beta.size - 1
    c = SparsityConstraint(k=int(round(kf * p)), p=p)
    assert project(beta, c)[p] == beta[p]


def stable_top_k(beta, k, p):
    """Keep the k largest magnitudes among the first p entries, ties to the lower index."""
    out = np.zeros(beta.size)
    out[p:] = beta[p:]
    keep = np.argsort(-np.abs(beta[:p]), kind="stable")[:k]
    out[keep] = beta[keep]
    return out


# few distinct values, so that magnitudes tie often; signed zeros, infinities
# (which tie with each other) and NaN, which the sort ranks below every magnitude
tie_prone = st.one_of(st.integers(min_value=-3, max_value=3).map(float),
                      st.sampled_from([-0.0, np.inf, -np.inf, np.nan]))


@given(vec=st.lists(tie_prone, min_size=2, max_size=14), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_projection_matches_stable_sort_under_ties(vec, seed):
    """Every k on the drawn vector; and about 40 k on a vector of p in the
    hundreds whose entries repeat the drawn ones and as many normal draws."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([vec, rng.standard_normal(len(vec))])
    for beta in (np.asarray(vec, dtype=float), rng.choice(pool, int(rng.integers(100, 700)))):
        p = beta.size - 1
        for k in sorted({*range(0, p + 1, max(1, p // 40)), p}):
            got = project(beta, SparsityConstraint(k=k, p=p))
            want = stable_top_k(beta, k, p)
            assert np.array_equal(got, want, equal_nan=True), (k, got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (k, got, want)
