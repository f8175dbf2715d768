"""Property-based checks of the structural invariants."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockra import (
    BlockRaConfig,
    McmcConfig,
    ObjectiveSpec,
    Partition,
    RearrangementMatrix,
    TargetDistribution,
    block_ra1,
    block_ra2,
    brute_force_minimum,
    countermonotone_rearrange,
    ks_distance,
    mcmc_block_ra,
    multivariate_dependence_exact,
    read_matrix_csv,
    sample_variance,
    standard_ra,
    w2_distance,
    write_matrix_csv,
)
from blockra import algorithms, dependence
from blockra.bench import _shared_values_start
from blockra.algorithms import _screened
from blockra.matrix import _block_move, _block_sums, _mask_sums, _split_of_mask, counter_permutation

from conftest import ref_spearman

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, width=64)


def matrices(max_m=8, max_n=4):
    return st.tuples(
        st.integers(2, max_m), st.integers(2, max_n)
    ).flatmap(lambda shape: arrays(np.float64, shape, elements=finite))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rearrangers_preserve_margins_and_never_worsen(X):
    start = sample_variance(X.sum(axis=1))
    for algo in (standard_ra, block_ra1, block_ra2):
        res = algo(X, BlockRaConfig(rng_seed=1, max_sweeps=20))
        assert np.array_equal(np.sort(res.final_matrix.values, axis=0), np.sort(X, axis=0))
        assert res.final_objective <= start + 1e-12
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)


@given(matrices(max_m=10, max_n=6))
@settings(max_examples=60, deadline=None)
def test_block_moves_majorize_the_row_sums(X):
    # Every partial sum of the k largest row sums can only fall under a
    # countermonotone move, so every convex objective of the sum is
    # non-increasing, not only the variance.  The bound covers the rounding
    # of the row sums and of their partial sums.
    tol = 4 * (X.shape[0] + X.shape[1]) * np.finfo(np.float64).eps * np.abs(X).sum()

    def checked_move(arr, cols, pi, comp):
        before = np.cumsum(np.sort(arr.sum(axis=1))[::-1])
        moved = _block_move(arr, cols, pi, comp)
        after = np.cumsum(np.sort(arr.sum(axis=1))[::-1])
        assert np.all(after <= before + tol), (pi.tolist(), comp.tolist())
        return moved

    with mock.patch.object(algorithms, "_block_move", checked_move):
        for algo in (standard_ra, block_ra1, block_ra2):
            algo(X, BlockRaConfig(rng_seed=1, max_sweeps=20))


@given(matrices(max_m=10, max_n=5))
@settings(max_examples=60, deadline=None)
def test_variance_decomposition_identity(X):
    # Var(row sums) = 1'C1 for the column covariance matrix C
    total = sample_variance(X.sum(axis=1))
    C = np.cov(X, rowvar=False, ddof=1)
    assert abs(total - float(C.sum())) <= 1e-10 * max(1.0, abs(total))


@given(
    arrays(np.float64, st.integers(2, 12).map(lambda m: (m,)), elements=finite),
    arrays(np.float64, st.integers(2, 12).map(lambda m: (m,)), elements=finite),
)
@settings(max_examples=80, deadline=None)
def test_counter_permutation_is_valid_and_never_increases_variance(s, t):
    if s.size != t.size:
        s = s[: min(s.size, t.size)]
        t = t[: min(s.size, t.size)]
    if s.size < 2:
        return
    sigma = counter_permutation(s, t)
    assert sorted(sigma) == list(range(s.size))
    before = sample_variance(s + t)
    after = sample_variance(s + t[sigma])
    assert after <= before + 1e-12


@given(matrices(max_m=6, max_n=4), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_block_move_never_increases_variance(X, seed):
    rng = np.random.default_rng(seed)
    n = X.shape[1]
    mask = int(rng.integers(1, (1 << (n - 1))))
    part = Partition.from_mask(mask, n)
    before = sample_variance(X.sum(axis=1))
    moved = countermonotone_rearrange(RearrangementMatrix(X), part)
    after = sample_variance(moved.values.sum(axis=1))
    assert after <= before + 1e-12
    assert np.array_equal(np.sort(moved.values, axis=0), np.sort(X, axis=0))


@given(matrices(max_m=7, max_n=4))
@settings(max_examples=30, deadline=None)
def test_dependence_measure_bounds(X):
    rep = multivariate_dependence_exact(X)
    assert -1.0 - 1e-12 <= rep.rho <= 1.0 + 1e-12
    assert rep.rho <= rep.worst_value + 1e-12


@given(
    st.tuples(st.integers(2, 12), st.integers(2, 6)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.integers(0, 2).map(float))),
    st.integers(1, 9),
)
@settings(max_examples=80, deadline=None)
def test_split_scores_match_per_split_loop_on_tie_heavy_matrices(X, per_chunk):
    # Entries 0..2 tie most block sums and make some constant, which score
    # -1; chunks of per_chunk splits put the ties and those splits anywhere.
    pis = [_split_of_mask(k, X.shape[1])[0] for k in range(1, 1 << (X.shape[1] - 1))]
    total = X.sum(axis=1)
    ref, n_constant = [], 0
    for pi in pis:
        s_pi = X[:, list(pi)].sum(axis=1)
        constant = np.ptp(s_pi) == 0 or np.ptp(total - s_pi) == 0
        n_constant += constant
        ref.append(-1.0 if constant else ref_spearman(s_pi, total - s_pi))
    masks = [sum(1 << int(j) for j in pi) for pi in pis]
    with mock.patch.object(dependence, "_CHUNK_CELLS", per_chunk * X.shape[0]):
        scores, constant_splits = dependence._split_spearman(X, masks)
    assert scores.tobytes() == np.array(ref).tobytes()
    assert constant_splits == n_constant


def _adversarial(draw, min_n=8, max_n=10):
    # Block sums that tie, sit near the screen's rounding bound (n = 8..10,
    # the screened widths) or round differently in another addition order.
    m, n = draw(st.integers(2, 12)), draw(st.integers(min_n, max_n))
    kinds = ["ties", "near-ties", "cancelling", "mixed-scale", "signed-zeros"]
    kind = draw(st.sampled_from(kinds))

    def ints(lo, hi):  # every entry drawn on its own, not from a shared fill value
        return draw(arrays(np.int64, (m, n), elements=st.integers(lo, hi), fill=st.nothing()))

    if kind == "ties":
        return ints(0, 2).astype(float)
    if kind == "near-ties":  # 1e8 + k (1 + j 2^-20): sums near 1e9 that differ by 2^-20 steps
        return 1e8 + ints(-3, 3) * (1.0 + np.arange(n) * 2.0**-20)
    if kind == "cancelling":  # +-2^53 terms: the rounding depends on the order of addition
        return ints(-2, 2) * 2.0**53 + ints(-3, 3)
    if kind == "mixed-scale":
        scales = 10.0 ** draw(arrays(np.int64, n, elements=st.integers(-8, 8)))
        return ints(-50, 50) / 7.0 * scales
    return draw(arrays(np.float64, (m, n), elements=st.sampled_from([0.0, -0.0, 1.0, -1.0])))


@given(st.data(), st.sampled_from([1, 5, 32]))
@settings(max_examples=300, deadline=None)
def test_screen_certifies_only_splits_the_kernel_leaves_alone(data, chunk):
    X = _adversarial(data.draw)
    n = X.shape[1]
    offered = []

    def move(k):  # a no-op, so every chunk is screened against X
        offered.append(k)
        return False

    with mock.patch.object(algorithms, "_SCREEN_CHUNK", chunk):
        assert _screened(X.copy(), move) == 0
    assert all(type(k) is int for k in offered) and offered == sorted(offered)
    for k in set(range(1, 1 << (n - 1))) - set(offered):
        Y = X.copy()
        assert not _block_move(Y, list(Y.T), *_split_of_mask(k, n)), k


@given(st.data(), st.sampled_from([1, 5, 32]))
@settings(max_examples=300, deadline=None)
def test_a_screened_pass_ends_where_an_unscreened_pass_does(data, chunk):
    # The real kernel: moves apply to ties, near-ties, +-2^53 terms and
    # signed zeros, and a screened split must still be a no-op when reached.
    X = _adversarial(data.draw)
    n = X.shape[1]
    screened, plain = X.copy(), X.copy()
    with mock.patch.object(algorithms, "_SCREEN_CHUNK", chunk):
        applied = _screened(screened, lambda k: _block_move(screened, list(screened.T),
                                                            *_split_of_mask(k, n)))
    assert applied == sum(_block_move(plain, list(plain.T), *_split_of_mask(k, n))
                          for k in range(1, 1 << (n - 1)))
    assert screened.tobytes() == plain.tobytes()


@given(st.data(), st.sampled_from(["one", "odd", "all"]))
@settings(max_examples=300, deadline=None)
def test_mask_sums_are_block_sums_bit_for_bit(data, budget):
    # n = 2..12, so blocks of eight or more columns, whose sum depends on
    # the order of addition, occur; masks may hold the last column.  Budgets
    # of one cell, an odd count and every subset's sums size the table.  The
    # descent sums row-major matrices, the chain and the fit column-major ones.
    X = _adversarial(data.draw, 2, 12)
    m, n = X.shape
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=40))
    cells = {"one": 1, "odd": 10 * m + 1, "all": m << n}[budget]
    got = _mask_sums(X, masks, cells)
    blocks = [np.array([j for j in range(n) if mask >> j & 1], dtype=np.intp) for mask in masks]
    ref = np.array([_block_sums(X, list(X.T), cols) for cols in blocks])
    F = np.asfortranarray(X)
    assert np.array([_block_sums(F, list(F.T), cols) for cols in blocks]).tobytes() == ref.tobytes()
    # A one-column block of -0.0 sums to +0.0, which ranks the same.
    assert np.array_equal(got, ref)
    assert got[ref != 0].tobytes() == ref[ref != 0].tobytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sample_variance_is_numpy_var_bit_for_bit_on_row_sums(data):
    s = _adversarial(data.draw, 2, 12).sum(axis=1)
    assert float.hex(sample_variance(s)) == float.hex(float(s.var(ddof=1)))


_SPECIAL_VALUES = {
    "signed-zeros": st.sampled_from([0.0, -0.0]),
    "ties": st.sampled_from([0.1, 0.7]),
    "cancelling": st.sampled_from([2.0**53, -(2.0**53), 1.0, -1.0, 0.5, 3.0]),
}


@given(st.sampled_from(sorted(_SPECIAL_VALUES)).flatmap(
    lambda kind: arrays(np.float64, st.integers(2, 300), elements=_SPECIAL_VALUES[kind], fill=st.nothing())))
@settings(max_examples=300, deadline=None)
def test_sample_variance_is_numpy_var_bit_for_bit_on_special_vectors(s):
    assert float.hex(sample_variance(s)) == float.hex(float(s.var(ddof=1)))


def test_sample_variance_overflows_to_inf_as_numpy_does():
    s = np.array([1e200, -1e200, 3e199, 0.0])
    with np.errstate(over="ignore"):
        assert s.var(ddof=1) == np.inf
        assert sample_variance(s) == np.inf


@given(matrices(max_m=8, max_n=4))
@settings(max_examples=40, deadline=None)
def test_csv_roundtrip_is_bit_exact(tmp_path_factory, X):
    path = tmp_path_factory.mktemp("csv") / "mat.csv"
    write_matrix_csv(X, path)
    back = read_matrix_csv(path)
    assert np.array_equal(back.values, X)


@given(
    st.lists(st.integers(-10**6, 10**6), min_size=8, max_size=64, unique=True),
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0]),
    st.integers(-8, 8),
)
@settings(max_examples=40, deadline=None)
def test_ks_affine_invariance_on_empirical_target(ints, a, b):
    # exact float arithmetic (integers, power-of-two scale) so the affine
    # map cannot create or break ties
    values = np.asarray(ints, dtype=np.float64)
    target = TargetDistribution.empirical(values)
    moved = TargetDistribution.empirical(a * values + b)
    rng = np.random.default_rng(0)
    sample = rng.choice(values, size=200, replace=True)
    d0 = ks_distance(sample, target)
    d1 = ks_distance(a * sample + b, moved)
    assert abs(d0 - d1) <= 1e-12


@given(st.floats(min_value=0.01, max_value=3.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_w2_shift_scales_quadratically(c):
    # W2 of a c-shifted perfect sample is c^2 up to the ~1e-7 grid term
    target = TargetDistribution.uniform(-1.0, 1.0)
    m = 2000
    xs = np.asarray(target.quantile((np.arange(m) + 0.5) / m))
    moved = w2_distance(xs + c, target)
    assert abs(moved - c * c) <= 1e-6


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_mcmc_chain_invariants(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(6, 3))
    trace = mcmc_block_ra(X, McmcConfig(n_iter=60, rng_seed=seed))
    assert np.array_equal(np.sort(trace.best_matrix.values, axis=0), np.sort(X, axis=0))
    floor = min(sample_variance(X.sum(axis=1)), float(np.min(trace.objective_per_iter)))
    # best_objective is best_matrix's own; the per-iteration objectives come
    # from the chain's running row sums, which drift in the last bits.
    assert trace.best_objective <= floor * (1 + 1e-12) + 1e-15


_HONESTY_STARTS = {
    "shared-values": _shared_values_start,
    "normal": lambda m, n, rng: rng.normal(size=(m, n)),
    "tied-integer": lambda m, n, rng: rng.integers(0, 3, size=(m, n)).astype(np.float64),
}


@pytest.mark.parametrize("kind", sorted(_HONESTY_STARTS))
@pytest.mark.parametrize("m, n", [(4, 4), (6, 3), (5, 5)])
@pytest.mark.parametrize("seed", [0, 1])
def test_every_result_reports_the_objective_of_the_matrix_it_returns(kind, m, n, seed):
    X = _HONESTY_STARTS[kind](m, n, np.random.default_rng([seed, m, n]))
    for algo in (standard_ra, block_ra1, block_ra2):
        res = algo(X, BlockRaConfig(rng_seed=seed))
        assert float.hex(res.final_objective) == float.hex(res.final_matrix.row_sum_variance)
    best = brute_force_minimum(X)
    assert float.hex(best.min_variance) == float.hex(best.argmin_matrix.row_sum_variance)
    for spec in (ObjectiveSpec(), ObjectiveSpec(np.square)):
        trace = mcmc_block_ra(X, McmcConfig(objective=spec, n_iter=300, rng_seed=seed))
        own = trace.best_matrix.values.sum(axis=1)
        expected = trace.best_matrix.row_sum_variance if spec.f is None else float(np.mean(own**2))
        assert float.hex(trace.best_objective) == float.hex(expected)
