"""Tests for the distance statistics and acceptance thresholds."""

import math

import numpy as np
import pytest
from scipy import stats

from blockra import (
    TargetDistribution,
    Thresholds,
    default_thresholds,
    kolmogorov_asymptotic_cdf,
    ks_distance,
    median_threshold,
    verdict,
    w2_distance,
)


def _midpoint_sample(target, m):
    return np.asarray(target.quantile((np.arange(m) + 0.5) / m))


def test_normal_quantile_matches_reference():
    # 50-digit references at the double nearest each p, rounded to double.
    table = [
        (1e-12, -7.034483825301132),
        (1e-6, -4.753424308822899),
        (0.3, -0.5244005127080408),
        (0.5, 0.0),
        (0.97575, 1.972961051311885),
        (1 - 1e-6, 4.753424308817087),
        (1 - 1 / (10**6 + 1), 4.7534245109009845),
    ]
    p = np.array([p for p, _ in table])
    x = np.array([x for _, x in table])
    q = TargetDistribution.normal().quantile(p)
    assert np.all(np.abs(q - x) <= 1e-15 * np.maximum(1.0, np.abs(x)))


def test_ks_near_floor_on_midpoint_sample():
    target = TargetDistribution.normal()
    m = 10_000
    xs = _midpoint_sample(target, m)
    # perfect placement leaves only the half-step discretization gap
    assert ks_distance(xs, target) == pytest.approx(0.5 / m, rel=1e-6)


def test_ks_detects_location_shift():
    target = TargetDistribution.normal()
    xs = _midpoint_sample(target, 100_000) + 0.1
    # sup_x |Phi(x - 0.1) - Phi(x)| = 2 Phi(0.05) - 1
    expect = 2.0 * stats.norm.cdf(0.05) - 1.0
    assert expect == pytest.approx(0.0399, abs=1e-4)
    assert ks_distance(xs, target) == pytest.approx(expect, abs=2e-4)


def test_ks_agrees_with_scipy():
    rng = np.random.default_rng(8)
    xs = rng.normal(size=4000)
    ours = ks_distance(xs, TargetDistribution.normal())
    ref = stats.kstest(xs, "norm").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_w2_zero_on_own_quantiles_and_shift_scaling():
    target = TargetDistribution.uniform(-1.0, 1.0)
    m = 50_000
    xs = _midpoint_sample(target, m)
    assert w2_distance(xs, target) == pytest.approx(0.0, abs=1e-9)
    # constant shift c integrates to c^2
    assert w2_distance(xs + 0.02, target) == pytest.approx(4e-4, rel=1e-3)


def test_w2_requires_sorted_input():
    with pytest.raises(ValueError):
        w2_distance(np.array([1.0, 0.0]), TargetDistribution.normal())


def test_kolmogorov_cdf_reference_points():
    # median of the limit law sits at 0.82757
    assert kolmogorov_asymptotic_cdf(0.82757) == pytest.approx(0.5, abs=1e-4)
    assert kolmogorov_asymptotic_cdf(3.0) == pytest.approx(1.0, abs=1e-7)
    assert kolmogorov_asymptotic_cdf(0.0) == 0.0
    ts = np.linspace(0.01, 3.0, 200)
    vals = [kolmogorov_asymptotic_cdf(t) for t in ts]
    # left tail is cancellation-limited around 1e-16, hence the epsilon
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert kolmogorov_asymptotic_cdf(1.0) == pytest.approx(
        stats.kstwobign.cdf(1.0), abs=1e-12
    )


def test_threshold_constants_at_calibrated_size():
    normal = default_thresholds(TargetDistribution.normal(), 10**6)
    assert normal.ks == pytest.approx(8.2e-4)
    assert normal.w2 == pytest.approx(3.5e-6)
    # W2 rescales with target variance, KS does not
    wide = default_thresholds(TargetDistribution.normal(0.0, 2.0), 10**6)
    assert wide.ks == normal.ks
    assert wide.w2 == pytest.approx(4.0 * 3.5e-6)
    unif = default_thresholds(TargetDistribution.uniform(-1.0, 1.0), 10**6)
    assert unif.w2 == pytest.approx(4.7e-7)
    unif4 = default_thresholds(TargetDistribution.uniform(-4.0, 4.0), 10**6)
    assert unif4.w2 == pytest.approx(16.0 * 4.7e-7)


def test_asymptotic_ks_threshold_scaling():
    t = default_thresholds(
        TargetDistribution.normal(), 10_000, ks_asymptotic=True, n_replicates=11
    )
    assert t.ks == pytest.approx(0.8276 / math.sqrt(10_000))


def test_median_threshold_brackets_true_median():
    target = TargetDistribution.normal()
    med = median_threshold("ks", target, 400, n_replicates=41, rng_seed=0)
    # asymptotic median 0.8276/sqrt(m) is a good anchor already at m=400
    assert med == pytest.approx(0.8276 / 20.0, rel=0.25)
    with pytest.raises(ValueError):
        median_threshold("cvm", target, 100)
    with pytest.raises(ValueError):
        median_threshold("ks", target, 100, n_replicates=5)


@pytest.mark.parametrize("target", [
    TargetDistribution.normal(0.5, 2.0),
    TargetDistribution.uniform(-1.0, 1.0),
    TargetDistribution.empirical(np.repeat([-1.0, 0.0, 2.5], 40)),
])
def test_default_thresholds_match_per_statistic_replicates(target):
    # Reference: every replicate drawn and measured separately per statistic.
    m, reps, seed = 300, 13, 4

    def median(stat):
        vals = []
        for rep in range(reps):
            sample = target.sample(m, np.random.default_rng([seed, rep]))
            vals.append(stat(sample))
        return float(np.median(vals))

    ks = median(lambda x: ks_distance(x, target))
    w2 = median(lambda x: w2_distance(np.sort(x), target))
    assert default_thresholds(target, m, n_replicates=reps, rng_seed=seed) == Thresholds(ks, w2)
    assert median_threshold("ks", target, m, reps, seed) == ks
    assert median_threshold("w2", target, m, reps, seed) == w2
    asym = default_thresholds(target, m, ks_asymptotic=True, n_replicates=reps, rng_seed=seed)
    assert asym.w2 == w2


@pytest.mark.parametrize("ks_asymptotic", [False, True])
@pytest.mark.parametrize("m", [0, -3])
def test_default_thresholds_reject_a_nonpositive_m(m, ks_asymptotic):
    # The asymptotic KS level used to raise ZeroDivisionError or a math domain error.
    with pytest.raises(ValueError, match="m must be positive"):
        default_thresholds(TargetDistribution.normal(), m, ks_asymptotic=ks_asymptotic)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: TargetDistribution.normal(0.0, math.inf), id="normal-infinite-sigma"),
    pytest.param(lambda: TargetDistribution.normal(math.nan, 1.0), id="normal-nan-mu"),
    pytest.param(lambda: TargetDistribution.normal(0.0, 0.0), id="normal-zero-sigma"),
    pytest.param(lambda: TargetDistribution("normal", (0.0, -1.0)), id="direct-negative-sigma"),
    pytest.param(lambda: TargetDistribution("normal"), id="direct-normal-no-params"),
    pytest.param(lambda: TargetDistribution.uniform(-math.inf, 1.0), id="uniform-infinite-lo"),
    pytest.param(lambda: TargetDistribution.uniform(1.0, 1.0), id="uniform-empty"),
    pytest.param(lambda: TargetDistribution.uniform(-1e308, 1e308), id="uniform-width-overflows"),
    pytest.param(lambda: TargetDistribution("uniform", (2.0, 1.0)), id="direct-uniform-hi-below-lo"),
    pytest.param(lambda: TargetDistribution("uniform", (0.0, 1.0), np.ones(2)), id="direct-uniform-table"),
    pytest.param(lambda: TargetDistribution("cauchy", (0.0, 1.0)), id="direct-unknown-family"),
    pytest.param(lambda: TargetDistribution.empirical([]), id="empirical-empty"),
    pytest.param(lambda: TargetDistribution.empirical([0.0, math.nan]), id="empirical-nan"),
    pytest.param(lambda: TargetDistribution("empirical"), id="direct-empirical-no-table"),
    pytest.param(lambda: TargetDistribution("empirical", table=[1.0, math.inf]), id="direct-empirical-inf"),
    pytest.param(lambda: TargetDistribution("empirical", (1.0,), [1.0]), id="direct-empirical-params"),
])
def test_a_target_is_checked_however_it_is_built(build):
    # normal(0, inf) used to give NaN thresholds and normal(nan, 1) was accepted;
    # uniform(-inf, 1) died in numpy's sampler; direct construction checked nothing.
    with pytest.raises(ValueError, match="target"):
        build()


def test_a_directly_built_empirical_target_is_sorted_and_read_only():
    direct = TargetDistribution("empirical", table=[2.0, -1.0, 0.5])
    assert direct.table.tolist() == [-1.0, 0.5, 2.0] and not direct.table.flags.writeable
    assert direct.table.tobytes() == TargetDistribution.empirical([0.5, 2.0, -1.0]).table.tobytes()
    assert TargetDistribution("normal", (0, 2)).params == (0.0, 2.0)


def test_verdict_composition():
    target = TargetDistribution.normal()
    xs = _midpoint_sample(target, 10_000)
    # normal-tail truncation on the evaluation grid leaves ~8.5e-6 of W2
    v = verdict(xs, target, thresholds=Thresholds(ks=1e-3, w2=1e-5))
    assert v.ks_ok and v.w2_ok and v.both_ok
    v_bad = verdict(xs + 0.5, target, thresholds=Thresholds(ks=1e-3, w2=1e-5))
    assert not v_bad.ks_ok and not v_bad.w2_ok and not v_bad.both_ok
    # both_ok is the conjunction
    v_mixed = verdict(xs, target, thresholds=Thresholds(ks=1e-9, w2=1e6))
    assert (not v_mixed.ks_ok) and v_mixed.w2_ok and not v_mixed.both_ok


def test_empirical_target_roundtrip():
    rng = np.random.default_rng(3)
    pool = rng.normal(size=2000)
    target = TargetDistribution.empirical(pool)
    assert ks_distance(pool, target) == 0.0
    assert w2_distance(np.sort(pool), target) == pytest.approx(0.0, abs=1e-12)


def _brute_ks(values, table):
    """max |G - F| over the union of both laws' jump points, at each point and just below it."""
    xs, points = np.sort(values), np.union1d(values, table)
    return float(max(np.max(np.abs(np.searchsorted(xs, points, side) / xs.size
                                   - np.searchsorted(table, points, side) / table.size))
                     for side in ("right", "left")))


def test_ks_against_a_table_is_the_supremum_over_its_jumps():
    # The gap below a step reads the table's left limit, so a sample sitting
    # on the table's jumps reads 0 here; F at the jump would read 1/3.
    assert ks_distance([1.0, 2.0, 3.0], TargetDistribution.empirical([1.0, 2.0, 3.0])) == 0.0
    for case in range(300):
        rng = np.random.default_rng([33, case])
        digits = int(rng.integers(0, 2))  # rounded values: ties within and across the two
        table = np.round(rng.normal(size=int(rng.integers(1, 61))), digits)
        values = np.round(rng.normal(scale=rng.uniform(0.5, 2.0), size=int(rng.integers(1, 80))),
                          digits)
        target = TargetDistribution.empirical(table)
        assert ks_distance(values, target) == _brute_ks(values, target.table), case


_REF_NODES = (np.arange(50_000) + 0.5) / 50_000


def _reference_ks(xs, target):
    """KS as it was computed with the quantile-grid term: the steps, then 50,000 target nodes."""
    m = xs.size
    f_at = target.cdf(xs)
    d = max(np.max(np.arange(1, m + 1) / m - f_at), np.max(f_at - np.arange(0, m) / m))
    xg = target.quantile(_REF_NODES)
    d_grid = float(np.max(np.abs(np.searchsorted(xs, xg, side="right") / m - target.cdf(xg))))
    return float(max(d, d_grid, 0.0))


@pytest.mark.parametrize("m", [1, 2, 7, 10_000, 100_000])
@pytest.mark.parametrize("target", [
    TargetDistribution.normal(0.5, 2.0), TargetDistribution.uniform(-1.0, 1.0),
], ids=["normal", "uniform"])
def test_ks_at_the_steps_equals_the_two_term_ks_bit_for_bit(target, m):
    # The grid term can never win the max against a cdf that does not decrease;
    # scipy's ndtr is not monotone to the ulp, so for the normal target this pins it.
    ref_median = float(np.median([
        _reference_ks(np.sort(target.sample(m, np.random.default_rng([0, rep]))), target)
        for rep in range(41)]))
    assert median_threshold("ks", target, m) == ref_median
    values = target.sample(m, np.random.default_rng([m, 33])) + 0.01
    for xs in (values, np.round(values, 2)):  # and with ties
        ref = _reference_ks(np.sort(xs), target)
        assert ks_distance(xs, target) == ref
        v = verdict(xs, target)
        assert (v.d_ks, v.med_ks) == (ref, ref_median)


_TIED = TargetDistribution.empirical(np.repeat([-1.0, 0.0, 2.5], 40))


@pytest.mark.parametrize("m", [1, 2, 7, 10_000])
@pytest.mark.parametrize("target", [
    TargetDistribution.normal(0.5, 2.0), TargetDistribution.uniform(-1.0, 1.0), _TIED,
], ids=["normal", "uniform", "tied-empirical"])
def test_verdict_scores_as_the_two_distances_do(target, m):
    values = target.sample(m, np.random.default_rng([m, 7])) + 0.01
    v = verdict(values, target, Thresholds(ks=0.5, w2=0.5))
    assert v.d_ks == ks_distance(values, target)
    assert v.t_w2 == w2_distance(np.sort(values), target)


def _count_target_calls(monkeypatch):
    calls = {"quantile": 0, "cdf": 0}
    for name in calls:
        def counted(self, x, _name=name, _real=getattr(TargetDistribution, name)):
            calls[_name] += 1
            return _real(self, x)
        monkeypatch.setattr(TargetDistribution, name, counted)
    return calls


def test_verdict_builds_one_grid_and_w2_paths_never_touch_the_cdf(monkeypatch):
    target = TargetDistribution.normal()
    xs = np.sort(target.sample(500, np.random.default_rng(5)))
    calls = _count_target_calls(monkeypatch)
    verdict(xs, target, Thresholds(ks=1e-3, w2=1e-5))
    assert calls == {"quantile": 1, "cdf": 1}  # the sample's; KS reads no grid
    calls.update(quantile=0, cdf=0)
    w2_distance(xs, target)
    median_threshold("w2", target, 50, n_replicates=11)
    default_thresholds(target, 50, ks_asymptotic=True, n_replicates=11)
    assert calls == {"quantile": 3, "cdf": 0}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("score", [
    pytest.param(lambda xs, t: ks_distance(xs, t), id="ks"),
    pytest.param(lambda xs, t: w2_distance(np.sort(xs), t), id="w2"),
    pytest.param(lambda xs, t: verdict(xs, t, Thresholds(ks=1.0, w2=1.0)), id="verdict"),
    pytest.param(lambda xs, t: verdict(xs, t), id="verdict-default-thresholds"),
])
def test_a_non_finite_sum_is_refused(score, bad, monkeypatch):
    # A NaN passed the sortedness check and was scored as d_ks = t_w2 = NaN;
    # an infinite sum gave t_w2 = inf.  No threshold is simulated first.
    def no_thresholds(*args, **kwargs):
        raise AssertionError("thresholds simulated before the sample was checked")

    monkeypatch.setattr("blockra.gof.default_thresholds", no_thresholds)
    with pytest.raises(ValueError, match="finite"):
        score(np.array([0.1, bad, 0.3, 0.5, 0.7]), TargetDistribution.normal())
