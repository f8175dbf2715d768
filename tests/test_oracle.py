"""Tests for the exact-minimum oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockra import oracle
from blockra import (
    brute_force_minimum,
    haus_integer_matrix,
    haus_integer_minimum,
    make_zero_sum_normal_matrix,
    sample_variance,
)


@pytest.mark.parametrize("shape", [(3, 3), (4, 3), (5, 3), (4, 4), (5, 4)])
def test_brute_force_matches_closed_form_on_integer_columns(shape):
    m, n = shape
    res = brute_force_minimum(haus_integer_matrix(m, n))
    closed, low_sum, count_lo = haus_integer_minimum(m, n)
    assert res.min_variance == pytest.approx(closed, abs=1e-12)
    sums = np.rint(res.argmin_matrix.values.sum(axis=1)).astype(int)
    assert int(np.sum(sums == low_sum)) == count_lo
    assert set(sums) <= {low_sum, low_sum + 1}


def test_closed_form_zero_when_mean_integer():
    v, low, count = haus_integer_minimum(3, 4)
    assert v == 0.0
    assert low == 4 * 3 * 4 // 2 // 3
    assert count == 3


def test_brute_force_reaches_zero_on_mixable_margins(local_min_4x4):
    res = brute_force_minimum(local_min_4x4)
    assert res.min_variance == pytest.approx(0.0, abs=1e-12)
    assert res.arrangements_scanned == 24 * 24


def test_brute_force_preserves_margins(uniform_8x3):
    X = np.asarray(uniform_8x3, dtype=float)[:5, :]
    res = brute_force_minimum(X)
    assert np.array_equal(
        np.sort(res.argmin_matrix.values, axis=0), np.sort(X, axis=0)
    )
    assert res.min_variance == pytest.approx(
        sample_variance(res.argmin_matrix.values.sum(axis=1))
    )


def test_brute_force_two_column_case():
    X = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    res = brute_force_minimum(X)
    # countermonotone pairing is optimal for two columns
    assert res.arrangements_scanned == 1
    expect = sample_variance(np.array([31.0, 22.0, 13.0]))
    assert res.min_variance == pytest.approx(expect)


def test_brute_force_budget_guard():
    X = np.zeros((9, 4))
    with pytest.raises(ValueError, match="budget"):
        brute_force_minimum(X)
    # explicit budgets move the cutoff
    with pytest.raises(ValueError):
        brute_force_minimum(np.zeros((4, 4)), max_arrangements=500)


@pytest.mark.parametrize("budget", [-1, 0, 1e6, True])
def test_brute_force_refuses_a_budget_that_is_not_a_positive_integer(budget):
    # -1 used to be reported as a 4 x 4 input needing 576 arrangements "over the budget of -1".
    with pytest.raises(ValueError, match="^max_arrangements must be a positive integer$"):
        brute_force_minimum(np.zeros((4, 4)), max_arrangements=budget)
    assert brute_force_minimum(np.zeros((4, 4)), max_arrangements=np.int64(576)).arrangements_scanned == 576


def test_brute_force_shape_guard():
    with pytest.raises(ValueError):
        brute_force_minimum(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        brute_force_minimum(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="finite"):
        brute_force_minimum(np.array([[np.nan, 1.0], [0.0, 2.0]]))


def test_zero_sum_matrix_construction():
    X = make_zero_sum_normal_matrix(100, 4, rng_seed=2)
    assert X.values.shape == (100, 4)
    assert np.abs(X.values.sum(axis=1)).max() < 1e-12
    # per-entry variance stays near one after the demeaning correction
    assert X.values.var() == pytest.approx(1.0, abs=0.15)


def test_zero_sum_matrix_long_rows():
    # Rounding in a row of 10^6 entries passes 1e-12; the check scales with the row.
    X = make_zero_sum_normal_matrix(2, 10**6, rng_seed=0)
    assert X.values.shape == (2, 10**6)
    assert np.abs(X.values.sum(axis=1)).max() < 1e-6


def test_zero_sum_matrix_deterministic():
    a = make_zero_sum_normal_matrix(20, 5, rng_seed=9)
    b = make_zero_sum_normal_matrix(20, 5, rng_seed=9)
    assert np.array_equal(a.values, b.values)


def _scan_minimum(X):
    """Reference: direct variance of every one of the (m!)^(n-1) arrangements."""
    m, n = X.shape
    perms = [list(p) for p in itertools.permutations(range(m))]
    best = np.inf
    for orders in itertools.product(perms, repeat=n - 1):
        s = X[:, 0].copy()
        for j, order in enumerate(orders, start=1):
            s = s + X[order, j]
        best = min(best, float(s.var(ddof=1)))
    return best


def _oracle_start(kind, m, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.standard_normal((m, n))
    if kind == "shared-values":
        u = rng.uniform(size=m)
        return np.column_stack([u] + [rng.permutation(u) for _ in range(n - 1)])
    return rng.integers(-3, 4, size=(m, n)).astype(np.float64)


def _check_against_scan(X, res):
    m, n = X.shape
    # abs: an exact complete mix sums to 0 or a few 1e-32, by summation order
    assert res.min_variance == pytest.approx(_scan_minimum(X), rel=1e-12, abs=1e-13)
    assert np.array_equal(np.sort(res.argmin_matrix.values, axis=0), np.sort(X, axis=0))
    assert sample_variance(res.argmin_matrix.values.sum(axis=1)) == res.min_variance
    assert res.arrangements_scanned == math.factorial(m) ** (n - 2)


@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.sampled_from(["normal", "shared-values", "integer"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_oracle_matches_full_scan(m, n, kind, seed):
    assume(math.factorial(m) ** (n - 1) <= 20_000)
    X = _oracle_start(kind, m, n, seed)
    _check_against_scan(X, brute_force_minimum(X))


@pytest.mark.parametrize("shape", [(5, 3), (4, 4), (3, 5), (5, 2)])
def test_oracle_small_tiles_match_full_scan(monkeypatch, shape):
    X = _oracle_start("shared-values", *shape, seed=sum(shape))
    _check_against_scan(X, brute_force_minimum(X))
    # Tiles of 7 entries split the scan into many front and back tiles.
    monkeypatch.setattr(oracle, "_TILE", 7)
    _check_against_scan(X, brute_force_minimum(X))


@pytest.mark.parametrize("m", range(1, 9))
def test_permutations_decode_in_itertools_order(m):
    decoded = oracle._permutations(np.arange(math.factorial(m)), m)
    assert np.array_equal(decoded, np.array(list(itertools.permutations(range(m)))))


@pytest.mark.parametrize("r", [0, 1, 2])
def test_orders_decode_in_product_order(r):
    m = 3
    expect = list(itertools.product(itertools.permutations(range(m)), repeat=r))
    orders = oracle._orders(np.arange(len(expect)), m, r)
    assert len(orders) == r
    got = [tuple(tuple(order[t]) for order in orders) for t in range(len(expect))]
    assert got == expect


@pytest.mark.parametrize("call, name", [
    (lambda: haus_integer_minimum(4.5, 3), "m"),  # used to return (0.222, 8.0, 3.5)
    (lambda: haus_integer_minimum(4, 1), "n"),
    (lambda: make_zero_sum_normal_matrix(4.5, 3), "m"),
    (lambda: make_zero_sum_normal_matrix(4, 3.0), "n"),
    (lambda: make_zero_sum_normal_matrix(4, 3, -1), "rng_seed"),
])
def test_oracle_helpers_refuse_bad_counts_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()
    assert haus_integer_minimum(np.int64(5), np.int32(3)) == haus_integer_minimum(5, 3)


@pytest.mark.parametrize("m, n, name", [
    (4.5, 3, "m"),  # used to return a 5 x 3 matrix
    (4, 2.5, "n"),  # used to die inside numpy's tile
    (1, 3, "m"),
    (4, 1, "n"),
])
def test_haus_integer_matrix_refuses_bad_counts_by_name(m, n, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        haus_integer_matrix(m, n)
    assert haus_integer_matrix(np.int64(4), np.int32(3)).values.tolist() == [[k] * 3 for k in (1, 2, 3, 4)]


def test_an_over_budget_input_is_refused_by_the_budget():
    # (1000!)^2 has 5,130 digits: the refusal used to die on Python's
    # 4,300-digit limit for printing an integer.
    with pytest.raises(ValueError, match="budget") as err:
        brute_force_minimum(np.zeros((1000, 4)))
    assert "digits" not in str(err.value) and "(1000!)^2" in str(err.value)


def _opposed_pair_start(c):
    # Two rows of +-c that cancel in every row sum, with two ordinary rows.
    return np.array([[c, -c, c, -c], [-c, c, -c, c], [1, 2, 3, 4], [0.5, 0.1, 0.2, 0.3]])


@pytest.mark.parametrize("X, message", [
    (np.random.default_rng(0).random((5, 4)) * 1e300, "the row-sum variance overflows"),
    (_opposed_pair_start(1e308), "the pair scores overflow"),
    (_opposed_pair_start(1e8), "the pair scores drift"),
], ids=["row-sum-variance", "pair-scores", "cancellation"])
def test_inputs_float64_cannot_score_are_refused_by_name_without_warnings(X, message):
    # Each used to end in the bookkeeping assertion, the first two after
    # RuntimeWarnings.  At c = 1e8 the scores' rounding (about 2e2) ranks the
    # arrangements wrongly: without the check the oracle reports 1.5292, and
    # direct enumeration of all (4!)^3 arrangements finds 1.4625.
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=message):
            brute_force_minimum(X)
    assert not seen, [str(w.message) for w in seen]


@pytest.mark.parametrize("X", [np.random.default_rng(0).random((5, 4)) * 1e153,
                               _opposed_pair_start(1e3)], ids=["random", "opposed-pair"])
def test_large_but_scorable_inputs_still_scan(X):
    res = brute_force_minimum(X)
    assert np.isfinite(res.min_variance)
    assert res.min_variance <= sample_variance(X.sum(axis=1))
    assert res.min_variance == sample_variance(res.argmin_matrix.values.sum(axis=1))
