"""Spearman correlation and the partition-minimum dependence measure."""

import math

import numpy as np
import pytest
import scipy.stats

from blockra.bench import enumerate_starts
from blockra.dependence import (
    multivariate_dependence_exact,
    multivariate_dependence_sampled,
    spearman,
)
from blockra.matrix import Partition


def test_spearman_monotone_extremes():
    x = np.array([0.1, 0.4, 2.0, 3.5])
    assert spearman(x, x**3) == pytest.approx(1.0)
    assert spearman(x, -x) == pytest.approx(-1.0)


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(11)
    x = rng.integers(0, 5, size=40).astype(float)  # heavy ties
    y = rng.integers(0, 5, size=40).astype(float)
    expected = scipy.stats.spearmanr(x, y).statistic
    assert spearman(x, y) == pytest.approx(expected, abs=1e-12)


def test_measure_is_minus_one_on_both_4x4_optima(local_min_4x4, complete_mix_4x4):
    assert multivariate_dependence_exact(local_min_4x4).rho == pytest.approx(-1.0, abs=1e-9)
    assert multivariate_dependence_exact(complete_mix_4x4).rho == pytest.approx(-1.0, abs=1e-9)


def test_measure_on_ra_stuck_matrix(ra_stuck_4x4):
    report = multivariate_dependence_exact(ra_stuck_4x4)
    assert report.rho == pytest.approx(-0.97143, abs=1e-4)
    assert report.rho > -1.0
    assert report.partitions_evaluated == 7
    assert report.per_partition is not None and len(report.per_partition) == 7
    # the measure averages the splits; worst is the least-opposed one
    values = list(report.per_partition.values())
    assert report.rho == pytest.approx(np.mean(values))
    assert report.worst_value == pytest.approx(max(values))
    # six splits are fully opposed, the two-and-two split is the holdout
    assert report.per_partition[(0, 1)] == pytest.approx(-0.8, abs=1e-9)
    assert sorted(values)[1] == pytest.approx(-1.0, abs=1e-9)


def test_sampled_estimator_is_unbiased_for_exact():
    # One draw is uniform over canonical splits, so averaging the
    # per-partition values over the whole sample space recovers rho.
    rng = np.random.default_rng(5)
    for n in (3, 4, 5):
        X = rng.normal(size=(8, n))
        exact = multivariate_dependence_exact(X)
        sample_space_mean = np.mean(list(exact.per_partition.values()))
        assert sample_space_mean == pytest.approx(exact.rho, abs=1e-12)


def test_sampled_constant_on_fully_opposed_matrix(local_min_4x4):
    for seed in (0, 1, 2):
        rep = multivariate_dependence_sampled(local_min_4x4, 25, rng_seed=seed)
        assert rep.rho == pytest.approx(-1.0, abs=1e-9)


def test_sampled_converges_to_exact(ra_stuck_4x4):
    exact = multivariate_dependence_exact(ra_stuck_4x4)
    sampled = multivariate_dependence_sampled(ra_stuck_4x4, 10_000, rng_seed=1)
    assert sampled.rho == pytest.approx(exact.rho, abs=0.01)


def test_sampled_mode_labels_and_determinism():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(16, 12))
    a = multivariate_dependence_sampled(X, 40, rng_seed=3)
    b = multivariate_dependence_sampled(X, 40, rng_seed=3)
    assert a.mode == "sampled"
    assert a.rho == b.rho
    assert a.worst_partition == b.worst_partition
    assert a.partitions_evaluated == 40


def test_rho_bounds():
    rng = np.random.default_rng(8)
    for _ in range(5):
        X = rng.normal(size=(10, 4))
        rho = multivariate_dependence_exact(X).rho
        assert -1.0 <= rho <= 1.0


_MEASURES = {
    "exact": multivariate_dependence_exact,
    "sampled": lambda X: multivariate_dependence_sampled(X, n_samples=50, rng_seed=0),
    "enumerate_starts": enumerate_starts,
}


@pytest.mark.parametrize("entries", ["nan", "inf", "overflowing-row-sums"])
@pytest.mark.parametrize("measure", list(_MEASURES))
def test_hostile_input_is_rejected(measure, entries):
    X = np.random.default_rng(4).normal(size=(6, 4))
    if entries == "overflowing-row-sums":
        X = np.full((6, 4), 1e308)
    else:
        np.fill_diagonal(X, np.nan if entries == "nan" else np.inf)
    with pytest.raises(ValueError, match="must be finite"):
        _MEASURES[measure](X)


def _ref_split_values(arr, pis):
    # Reference per-split loop: Spearman of each split's two block sums.
    total = arr.sum(axis=1)
    values = []
    for pi in pis:
        s_pi = arr[:, list(pi)].sum(axis=1)
        values.append(spearman(s_pi, total - s_pi))
    return values


@pytest.mark.parametrize("kind", ["tie-heavy", "normal"])
def test_split_scores_match_per_split_loop(kind):
    n = 12
    rng = np.random.default_rng(12)
    if kind == "tie-heavy":
        X = rng.integers(0, 3, size=(30, n)).astype(float)
    else:
        X = rng.normal(size=(30, n))

    pis = [Partition.from_mask(mask, n).pi for mask in range(1, 1 << (n - 1))]
    ref = _ref_split_values(X, pis)
    exact = multivariate_dependence_exact(X)
    assert list(exact.per_partition) == pis
    assert list(exact.per_partition.values()) == ref  # bit for bit, in split order
    assert exact.rho == math.fsum(ref) / len(ref)
    first_max = ref.index(max(ref))
    assert (exact.worst_partition, exact.worst_value) == (pis[first_max], ref[first_max])

    # The sampled measure scores the splits its own draws give.
    draws = np.random.default_rng(3)
    drawn = []
    while len(drawn) < 60:
        indicator = draws.integers(0, 2, size=n)
        if 0 < indicator.sum() < n:
            drawn.append(tuple(np.flatnonzero(indicator).tolist()))
    ref = _ref_split_values(X, drawn)
    sampled = multivariate_dependence_sampled(X, 60, rng_seed=3)
    assert sampled.rho == math.fsum(ref) / 60
    first_max = ref.index(max(ref))
    assert sampled.worst_value == ref[first_max]
    assert sampled.worst_partition == Partition(drawn[first_max], n).canonical().pi
