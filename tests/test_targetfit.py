"""Tests for margin fitting toward a target sum law."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockra import (
    BlockRaConfig,
    FitConfig,
    RearrangementMatrix,
    MarginSpec,
    TargetDistribution,
    Thresholds,
    block_ra2,
    brute_force_minimum,
    discretize_quantiles,
    fit_sum_to_target,
    ks_distance,
    sample_variance,
    spread_dependence,
    spearman,
    w2_distance,
)
from blockra import targetfit
from blockra.algorithms import _pass_masks
from blockra.matrix import _block_move, _split_of_mask, counter_permutation
from blockra.targetfit import _NORMAL_START_SIGMA, _WARM_SORT_DESCENT_FRACTION, _ordered_move

WIDE_THRESHOLDS = Thresholds(ks=1.0, w2=1.0)


def _reference_move(arr, pi_cols, comp_cols):
    # Row-major matrix, block sums added left to right, counter_permutation's
    # rows and an np.ix_ gather per move.
    def block_sum(cols):
        s = arr[:, cols[0]].copy()
        for j in cols[1:]:
            s = s + arr[:, j]
        return s

    pi_cols, comp_cols = list(pi_cols), list(comp_cols)
    sigma = counter_permutation(block_sum(pi_cols), block_sum(comp_cols))
    arr[:, comp_cols] = arr[np.ix_(sigma, comp_cols)]


def _reference_fit(margins, target, m, cfg):
    """The fit loop written plainly: fresh argsorts everywhere, row-major storage.

    Uniform margins sit at the support bound and start from a seeded shuffle,
    normal margins start sorted and rescale every pass.  Returns (scale,
    final matrix, passes, stop reason).
    """
    n, n_cols = margins.n, margins.n + 1
    rng = np.random.default_rng(cfg.rng_seed)
    unit_grid = discretize_quantiles(margins.unit_law(), m)
    target_grid = discretize_quantiles(target, m)
    walk = margins.family == "normal"
    scale = _NORMAL_START_SIGMA if walk else np.max(np.abs(target_grid)) / (n * unit_grid[-1])
    var_target = sample_variance(target_grid)
    arr = np.empty((m, n_cols))
    arr[:, :n] = (scale * unit_grid)[:, None]
    if not walk:  # a fixed-scale fit shuffles each margin column once, in column order
        for j in range(n):
            arr[:, j] = arr[rng.permutation(m), j]
    arr[:, n] = -target_grid
    n_sim = cfg.n_sim if cfg.n_sim is not None else min(512, (1 << (n_cols - 1)) - 1)

    prev_var, prev_scale = np.inf, scale
    passes = 0
    reason = "max-passes"
    for _ in range(cfg.max_passes):
        passes += 1
        for mask in _pass_masks(n_cols, n_sim, rng):
            _reference_move(arr, *_split_of_mask(mask, n_cols))
        if walk:
            v = sample_variance(arr[:, :n].sum(axis=1))
            if v == 0:
                reason = "degenerate"
                break
            ratio = float(np.sqrt(var_target / v))
            scale *= ratio
            arr[:, :n] *= ratio
        var_all = sample_variance(arr.sum(axis=1))
        var_settled = passes > 1 and abs(var_all - prev_var) <= max(cfg.rel_tol * prev_var, 1e-18)
        if var_settled and abs(scale - prev_scale) <= max(cfg.rel_tol * abs(prev_scale), 1e-18):
            reason = "settled"
            break
        prev_var, prev_scale = var_all, scale
    for j in range(n):
        arr[np.argsort(arr[:, j], kind="stable"), j] = scale * unit_grid
    return scale, arr, passes, reason


_LAWS = {
    "uniform": (MarginSpec.uniform_symmetric, TargetDistribution.uniform(-1.0, 1.0)),
    "normal": (MarginSpec.normal, TargetDistribution.normal()),
}


@pytest.mark.parametrize("margin_law, target_law, n, m, max_passes", [
    (margin_law, target_law, n, m, max_passes)
    for margin_law, target_law in (("uniform", "normal"), ("normal", "uniform"))
    for n, m, max_passes in ((2, 300, 200), (3, 200, 200), (8, 60, 40),
                             (11, 40, 6))  # n = 11 samples its splits
] + [
    # m = 255 puts uniform grids on multiples of 2^-7, so block sums on
    # both sides of a split tie exactly.
    ("uniform", "uniform", 2, 255, 200),
    ("uniform", "uniform", 3, 255, 200),
    ("uniform", "normal", 2, 30_000, 150),  # long rows at a fixed scale
])
def test_fit_matches_plain_reference_bit_for_bit(margin_law, target_law, n, m, max_passes):
    margins, target = _LAWS[margin_law][0](n), _LAWS[target_law][1]
    cfg = FitConfig(rng_seed=n + m, max_passes=max_passes)
    rep = fit_sum_to_target(margins, target, m, cfg, thresholds=WIDE_THRESHOLDS)
    scale, arr, passes, reason = _reference_fit(margins, target, m, cfg)
    sums = arr[:, :n].sum(axis=1)
    assert rep.fitted_scale == scale
    assert rep.iterations == passes
    assert rep.stop_reason == reason
    assert rep.ks == ks_distance(sums, target)
    assert rep.w2 == w2_distance(np.sort(sums), target)
    assert rep.final_matrix.values.tobytes() == RearrangementMatrix(arr).values.tobytes()


def _move_start(case):
    """Row-major matrix and the split (pi, comp) one move test starts from.

    Every column holds distinct values, so each has exactly one ascending
    argsort; "tied-sums" columns hold 0..m-1, so complement sums tie;
    "wide-random" has a 10-column complement, wider than the kernel's loop.
    """
    rng = np.random.default_rng(11)
    m = 200
    if case == "tied-sums":
        arr = np.column_stack([rng.permutation(m) for _ in range(3)]).astype(np.float64)
    else:
        arr = rng.standard_normal((m, {"two-column-pi": 4, "wide-random": 11}.get(case, 3)))
    pi, comp = np.array([0]), np.arange(1, arr.shape[1])
    if case == "two-column-pi":
        pi, comp = np.array([0, 1]), np.array([2, 3])
    if case not in ("random", "wide-random"):
        _reference_move(arr, pi, comp)  # countermonotone along (pi, comp)
    if case in ("adjacent-swaps", "tied-sums", "two-column-pi"):
        o_pi = np.argsort(arr[:, pi].sum(axis=1))
        for i in (5, 60, 150):
            rows = o_pi[[i, i + 1]]
            arr[rows[::-1][:, None], comp] = arr[rows[:, None], comp]
    return arr, pi, comp


@pytest.mark.parametrize("case, warm_gate, tied", [
    ("countermonotone", True, False),  # no row moves
    ("adjacent-swaps", True, False),
    ("tied-sums", True, True),  # the tie rule
    ("random", False, False),  # the default argsort
    ("wide-random", False, False),  # the default argsort, 10-column complement sums
    ("two-column-pi", True, False),
])
def test_ordered_move_matches_reference_move_bit_for_bit(case, warm_gate, tied):
    arr, pi, comp = _move_start(case)
    m = arr.shape[0]
    keys = -arr[:, comp].sum(axis=1)
    along_pi = keys[np.argsort(arr[:, pi].sum(axis=1))]
    descents = np.count_nonzero(along_pi[1:] < along_pi[:-1])
    assert (descents <= m // _WARM_SORT_DESCENT_FRACTION) == warm_gate
    assert (descents == 0) == (case == "countermonotone")
    assert (np.unique(keys).size < m) == tied

    fitted = np.asfortranarray(arr)
    order = [np.argsort(fitted[:, j]) for j in range(arr.shape[1])]
    repeats = [np.unique(fitted[:, j]).size < m for j in range(arr.shape[1])]
    _ordered_move(fitted, list(fitted.T), order, repeats, pi, comp)
    _reference_move(arr, pi, comp)
    assert np.ascontiguousarray(fitted).tobytes() == arr.tobytes()
    for j, o in enumerate(order):
        assert np.array_equal(o, np.argsort(fitted[:, j]))


def _tie_heavy_start(kind, m, n, seed):
    """Column-major m x (n+1) start whose columns repeat values, as "integer"
    counts, a "grid" on multiples of 2^-7 or a repeating "table"; the last
    column is negated like a fit's target column."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        arr = rng.integers(-3, 4, size=(m, n + 1)).astype(np.float64)
    elif kind == "grid":
        arr = rng.integers(-128, 129, size=(m, n + 1)) / 128.0
    else:
        arr = rng.normal(size=5)[rng.integers(0, 5, size=(m, n + 1))]
    arr += 0.0  # no -0.0 beside +0.0 in a column
    arr[:, n] = -arr[:, n]
    return np.asfortranarray(arr)


@given(st.sampled_from(["integer", "grid", "table"]), st.integers(2, 40), st.integers(2, 6),
       st.integers(0, 2**16), st.sampled_from([1, _WARM_SORT_DESCENT_FRACTION, 10**9]))
@settings(max_examples=60, deadline=None)
def test_ordered_move_is_block_move_on_tie_heavy_starts(kind, m, n, seed, fraction):
    # Three passes over every canonical split, multi-column pi sides too,
    # with the hinted sort forced on (1), the default gate, or forced off
    # unless the hint already sorts (10**9).
    arr = _tie_heavy_start(kind, m, n, seed)
    ref = arr.copy(order="F")
    order = [np.argsort(arr[:, j]) for j in range(n + 1)]
    tied = [np.unique(arr[:, j]).size < m for j in range(n + 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(targetfit, "_WARM_SORT_DESCENT_FRACTION", fraction)
        for _ in range(3):
            for mask in range(1, 1 << n):
                pi, comp = _split_of_mask(mask, n + 1)
                _ordered_move(arr, list(arr.T), order, tied, pi, comp)
                _block_move(ref, list(ref.T), pi, comp)
                assert arr.tobytes() == ref.tobytes()
                for j, o in enumerate(order):
                    assert np.all(np.diff(arr[o, j]) >= 0)


def _gate_cases():
    wide = WIDE_THRESHOLDS
    tab = np.repeat([-2.0, -0.5, 0.0, 0.5, 3.0], 120)
    laws = [discretize_quantiles(TargetDistribution.normal(0.0, sd), 1000) for sd in (1.0, 1.2, 0.8)]
    return {
        "u2n": lambda: fit_sum_to_target(MarginSpec.uniform_symmetric(2), TargetDistribution.normal(),
                                         10**4, FitConfig(rng_seed=59), thresholds=wide),
        "n2u": lambda: fit_sum_to_target(MarginSpec.normal(2), TargetDistribution.uniform(-1.0, 1.0),
                                         10**4, FitConfig(rng_seed=59), thresholds=wide),
        "tie-heavy": lambda: fit_sum_to_target(
            MarginSpec.empirical(3, tab), TargetDistribution.empirical(np.repeat([-4.0, 0.0, 1.0, 3.0], 150)),
            600, FitConfig(rng_seed=3, max_passes=30), thresholds=wide),
        "spread": lambda: spread_dependence(*laws, FitConfig(rng_seed=1)),
    }


@pytest.mark.parametrize("case", sorted(_gate_cases()))
def test_the_sort_gate_changes_no_result(case, monkeypatch):
    # Always the hinted stable sort (1), or only when the hint already sorts (10**9).
    runs = []
    for fraction in (1, 10**9):
        monkeypatch.setattr(targetfit, "_WARM_SORT_DESCENT_FRACTION", fraction)
        runs.append(_gate_cases()[case]())
    (a, b), field = runs, "copula" if case == "spread" else "final_matrix"
    assert replace(a, **{field: None}) == replace(b, **{field: None})
    assert getattr(a, field).values.tobytes() == getattr(b, field).values.tobytes()


def _peak_arrays(run, m):
    """Traced peak of ``run()`` in arrays of m doubles, and its result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (8 * m), result


@pytest.mark.parametrize("margin_law, target_law", [("uniform", "normal"), ("normal", "uniform")])
def test_a_fit_holds_at_most_eleven_arrays_of_m_doubles(margin_law, target_law):
    # The matrix, its tracked orders and one move's working arrays, each
    # dropped once read.  Holding the unit grid, the walk's sorted copy of its
    # margins and every move temporary to the end, U->N peaked at 13.8 such
    # arrays and N->U at 14.1; before that, with a sorted copy of every
    # column and complement sums built on every move, at 18.8 and 18.1.
    margins, target = _LAWS[margin_law][0](2), _LAWS[target_law][1]
    def fit(m):
        return fit_sum_to_target(margins, target, m, FitConfig(rng_seed=59), thresholds=WIDE_THRESHOLDS)
    fit(100)  # lazy imports and caches stay out of the trace
    m = 10**5
    peak, rep = _peak_arrays(lambda: fit(m), m)
    assert rep.stop_reason == "settled"
    assert peak <= 11, f"peak of {peak:.2f} arrays of m doubles"


def test_spread_holds_at_most_fourteen_arrays_of_m_doubles():
    # Both start matrices, filled before either run, one run's tracked
    # orders and one move's working arrays.  Keeping the shuffled tables,
    # the negated second table, the sorted target and a stacked copy of each
    # start through both runs, spread peaked at 18.0 such arrays.
    m = 10**5
    fp, fg, fs = (discretize_quantiles(TargetDistribution.normal(0.0, sd), m)
                  for sd in _SPREAD_LAWS["compatible"])
    spread_dependence(fp[::1000], fg[::1000], fs[::1000])  # lazy imports stay out of the trace
    peak, res = _peak_arrays(lambda: spread_dependence(fp, fg, fs, FitConfig(rng_seed=1)), m)
    assert (res.start, res.stop_reason) == ("shuffled", "settled")
    assert peak <= 14, f"peak of {peak:.2f} arrays of m doubles"


@pytest.mark.parametrize("case", ["normal-walk", "merging-walk", "tie-heavy"])
def test_every_move_sees_each_columns_true_tie_flag(case, monkeypatch):
    # The walk reads its margins' ties again after every rescale, which may
    # merge two values; the tie-heavy fit repeats values in every column.
    real_move, moves = targetfit._ordered_move, []

    def spy(arr, cols, order, tied, pi, comp):
        for j in range(arr.shape[1]):
            assert tied[j] == bool(np.any(np.diff(np.sort(arr[:, j])) == 0)), (len(moves), j)
        moves.append(tied[:])
        real_move(arr, cols, order, tied, pi, comp)

    monkeypatch.setattr(targetfit, "_ordered_move", spy)
    if case == "normal-walk":
        rep, splits = fit_sum_to_target(MarginSpec.normal(2), TargetDistribution.uniform(-1.0, 1.0),
                                        2000, FitConfig(rng_seed=5), thresholds=WIDE_THRESHOLDS), 3
        passes = rep.iterations
        assert passes > 1  # moves after at least one rescale
    elif case == "merging-walk":
        # Both margin columns end in five values one ulp apart just below 2.
        # The target is wider than any arrangement of the margin sums, so the
        # first rescale multiplies by a ratio above 1 and carries the five into
        # a binade at least twice as coarse, where some of them round to one
        # value: a flag left at its first reading would stay False.
        grid = np.r_[np.linspace(-2.0, 1.0, 7), 2.0 - np.spacing(1.0) * np.arange(5, 0, -1)]
        arr = np.empty((grid.size, 3), order="F")
        arr[:, 0] = arr[:, 1] = grid
        arr[:, 2] = -np.linspace(-10.0, 10.0, grid.size)  # the negated target, descending
        _, _, passes, _ = targetfit._settle(arr, FitConfig(max_passes=2), np.random.default_rng(0),
                                            "the margins", walk=True)
        splits = 3
        assert moves[0] == [False] * 3 and moves[3] == [True, True, False]  # merged by the rescale
    else:
        rep, splits = _gate_cases()["tie-heavy"](), 7
        passes = rep.iterations
        assert all(all(flags) for flags in moves)
    assert len(moves) == splits * passes  # every split of every pass was checked


def test_tie_heavy_empirical_fit_is_deterministic_and_keeps_margins():
    m = 600
    tab = np.repeat([-2.0, -0.5, 0.0, 0.5, 3.0], m // 5)
    margins = MarginSpec.empirical(3, tab)
    target = TargetDistribution.empirical(np.repeat([-4.0, 0.0, 1.0, 3.0], m // 4))
    cfg = FitConfig(rng_seed=3, max_passes=30)
    r1 = fit_sum_to_target(margins, target, m, cfg, thresholds=WIDE_THRESHOLDS)
    r2 = fit_sum_to_target(margins, target, m, cfg, thresholds=WIDE_THRESHOLDS)
    assert replace(r1, final_matrix=None) == replace(r2, final_matrix=None)
    assert r1.final_matrix.values.tobytes() == r2.final_matrix.values.tobytes()
    final = r1.final_matrix.values
    for j in range(3):
        assert np.array_equal(np.sort(final[:, j]), tab)
    assert np.array_equal(np.sort(final[:, 3]), np.sort(-discretize_quantiles(target, m)))


def test_empirical_fit_runs_past_the_first_pass():
    m = 2000
    tab = discretize_quantiles(TargetDistribution.uniform(-2.0, 2.0), m)
    margins = MarginSpec.empirical(2, tab)
    target = TargetDistribution.normal()
    one = fit_sum_to_target(margins, target, m, FitConfig(max_passes=1),
                            thresholds=WIDE_THRESHOLDS)
    many = fit_sum_to_target(margins, target, m, FitConfig(max_passes=50),
                             thresholds=WIDE_THRESHOLDS)
    assert one.iterations == 1 and one.stop_reason == "max-passes"
    assert many.iterations > 1
    var_one = sample_variance(one.final_matrix.values.sum(axis=1))
    var_many = sample_variance(many.final_matrix.values.sum(axis=1))
    assert var_many <= var_one


def test_stop_reason_reports_settling_and_budget():
    margins, target = MarginSpec.normal(2), TargetDistribution.uniform(-1.0, 1.0)
    settled = fit_sum_to_target(margins, target, 300, thresholds=WIDE_THRESHOLDS)
    assert settled.stop_reason == "settled"
    assert settled.iterations < FitConfig().max_passes
    capped = fit_sum_to_target(margins, target, 300, FitConfig(max_passes=2),
                               thresholds=WIDE_THRESHOLDS)
    assert (capped.iterations, capped.stop_reason) == (2, "max-passes")


def test_discretize_uniform_small():
    grid = discretize_quantiles(TargetDistribution.uniform(-1.0, 1.0), 3)
    assert np.allclose(grid, [-0.5, 0.0, 0.5])


def test_discretize_normal_grid_variance():
    grid = discretize_quantiles(TargetDistribution.normal(), 10**6)
    assert grid.shape == (10**6,)
    assert np.all(np.diff(grid) >= 0)
    assert sample_variance(grid) == pytest.approx(1.0, abs=2e-3)


def test_margin_spec_validation():
    with pytest.raises(ValueError):
        MarginSpec.uniform_symmetric(1)
    with pytest.raises(ValueError):
        MarginSpec(family="gamma", n=3)
    with pytest.raises(ValueError):
        MarginSpec(family="empirical", n=3)
    with pytest.raises(ValueError):
        MarginSpec.empirical(2, [3.0, 1.0])
    # A NaN used to pass here and fail the fit naming the target table.
    for bad in ([np.nan, 1.0, 2.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValueError, match="empirical margin table has non-finite entries"):
            MarginSpec.empirical(2, bad)
    emp = MarginSpec.empirical(2, [0.0, 1.0, 2.0])
    assert emp.unit_law().table.tolist() == [0.0, 1.0, 2.0]
    # A fitted family used to keep a table and then ignore it without a word.
    for family in ("uniform-symmetric", "normal"):
        with pytest.raises(ValueError, match=f"{family} margins take no quantile table"):
            MarginSpec(family=family, n=2, table=np.array([5.0, 1.0, np.nan]))


def test_fit_config_refuses_float_counts():
    with pytest.raises(ValueError, match="max_passes must be a positive integer"):
        FitConfig(max_passes=50.0)
    with pytest.raises(ValueError, match="n_sim must be a positive integer"):
        FitConfig(n_sim=100.0)
    assert FitConfig(n_sim=np.int64(100), max_passes=np.int32(50)).max_passes == 50


@pytest.mark.parametrize("call, name", [
    (lambda: fit_sum_to_target(MarginSpec.normal(2), TargetDistribution.normal(), 50.5), "m"),
    (lambda: fit_sum_to_target(MarginSpec.normal(2), TargetDistribution.normal(), 1), "m"),
    (lambda: discretize_quantiles(TargetDistribution.normal(), 4.5), "m"),
    (lambda: MarginSpec.normal(2.5), "n"),  # accepted, the fit used to die inside range
])
def test_counts_are_refused_up_front_by_name(call, name):
    # A float m used to die inside numpy, naming no argument.
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()
    assert fit_sum_to_target(MarginSpec.normal(2), TargetDistribution.normal(), np.int64(50),
                             thresholds=WIDE_THRESHOLDS).final_matrix.m == 50


def test_a_directly_built_empirical_margin_checks_its_table():
    # Direct construction used to skip the table checks of MarginSpec.empirical.
    with pytest.raises(ValueError, match="empirical margin table has non-finite entries"):
        MarginSpec(family="empirical", n=2, table=np.array([np.nan, 1.0, 0.0]))
    with pytest.raises(ValueError, match="quantile table must be nondecreasing"):
        MarginSpec(family="empirical", n=2, table=[2.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="a vector of at least 2 values"):
        MarginSpec(family="empirical", n=2, table=np.zeros((2, 2)))
    tab = np.array([0.0, 1.0, 2.0])
    spec = MarginSpec(family="empirical", n=2, table=tab)
    tab[0] = -5.0  # the spec holds a read-only copy
    assert spec.table.tolist() == [0.0, 1.0, 2.0] and not spec.table.flags.writeable
    assert MarginSpec(family="empirical", n=2, table=[0, 1, 2]).table.dtype == np.float64


def test_fit_is_deterministic():
    # A fixed-scale fit shuffles its start with the seed; the normal walk
    # keeps its sorted start, so its seed reads nothing.
    fixed = (MarginSpec.uniform_symmetric(2), TargetDistribution.normal())
    walk = (MarginSpec.normal(2), TargetDistribution.uniform(-1.0, 1.0))
    runs = {(law, seed): fit_sum_to_target(*spec, 2000, FitConfig(rng_seed=seed),
                                           thresholds=WIDE_THRESHOLDS)
            for law, spec in (("fixed", fixed), ("walk", walk)) for seed in (5, 9)}
    again = fit_sum_to_target(*fixed, 2000, FitConfig(rng_seed=5), thresholds=WIDE_THRESHOLDS)
    for a, b in ((runs["fixed", 5], again), (runs["walk", 5], runs["walk", 9])):
        assert replace(a, final_matrix=None) == replace(b, final_matrix=None)
        assert a.final_matrix.values.tobytes() == b.final_matrix.values.tobytes()
    one, other = runs["fixed", 5].final_matrix.values, runs["fixed", 9].final_matrix.values
    assert one.tobytes() != other.tobytes()
    for j in range(3):
        assert np.array_equal(np.sort(one[:, j]), np.sort(other[:, j]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_empirical_fit_leaves_the_comonotone_stall(seed):
    # From sorted columns this compatible law settled at pass 2 with verdict "neither".
    m = 2000
    margins = MarginSpec.empirical(2, discretize_quantiles(TargetDistribution.normal(), m))
    rep = fit_sum_to_target(margins, TargetDistribution.normal(0.0, 1.8), m,
                            FitConfig(rng_seed=seed))
    assert rep.stop_reason == "settled" and rep.iterations > 2
    assert rep.verdict == "indistinguishable"


def test_fit_margins_stay_exactly_on_scaled_grid():
    margins = MarginSpec.uniform_symmetric(3)
    m = 1500
    rep = fit_sum_to_target(margins, TargetDistribution.normal(), m,
                            thresholds=WIDE_THRESHOLDS)
    unit = discretize_quantiles(TargetDistribution.uniform(-1.0, 1.0), m)
    for j in range(3):
        col = np.sort(rep.final_matrix.values[:, j])
        assert np.max(np.abs(col - rep.fitted_scale * unit)) == 0.0
        assert sample_variance(col) == pytest.approx(
            rep.fitted_scale**2 * sample_variance(unit), rel=1e-10
        )
    # the closing column carries the negated target quantiles untouched
    target_grid = discretize_quantiles(TargetDistribution.normal(), m)
    assert np.array_equal(np.sort(rep.final_matrix.values[:, 3]), np.sort(-target_grid))


def test_fit_report_distances_match_recomputation():
    margins = MarginSpec.normal(2)
    m = 1200
    rep = fit_sum_to_target(margins, TargetDistribution.uniform(-1.0, 1.0), m,
                            thresholds=WIDE_THRESHOLDS)
    sums = rep.final_matrix.values[:, :2].sum(axis=1)
    target = TargetDistribution.uniform(-1.0, 1.0)
    assert rep.ks == pytest.approx(ks_distance(sums, target), abs=1e-15)
    assert rep.w2 == pytest.approx(w2_distance(np.sort(sums), target), abs=1e-18)
    assert rep.verdict == "indistinguishable"
    assert rep.ks <= rep.ks_threshold and rep.w2 <= rep.w2_threshold


def test_fitted_scale_decreases_with_more_margins():
    m = 2000
    target = TargetDistribution.normal()
    q_max = np.max(np.abs(discretize_quantiles(target, m)))
    u_max = discretize_quantiles(TargetDistribution.uniform(-1.0, 1.0), m)[-1]
    scales = {}
    for n in (2, 3):
        rep = fit_sum_to_target(MarginSpec.uniform_symmetric(n), target, m,
                                thresholds=WIDE_THRESHOLDS)
        scales[n] = rep.fitted_scale
        # the support bound: n margins at a* just reach the largest target quantile
        assert scales[n] == q_max / (n * u_max)
    # more columns share the spread, so each needs less of it
    assert scales[3] < scales[2]
    assert scales[2] == pytest.approx(1.647, abs=5e-4)


def test_uniform_to_uniform_fit_takes_the_support_bound():
    # Two U[-1/2, 1/2] margins arranged comonotonically sum to the U[-1, 1]
    # grid exactly; a rescaling walk from a = 1.5 ran away past 1e15 here.
    rep = fit_sum_to_target(MarginSpec.uniform_symmetric(2),
                            TargetDistribution.uniform(-1.0, 1.0), 1000, FitConfig(rng_seed=1))
    assert rep.fitted_scale == 0.5
    assert rep.stop_reason == "settled"
    assert rep.verdict == "indistinguishable"


def test_fit_reports_degenerate_margin_sums():
    # A constant target has no variance, so the first recalibration scales
    # the normal margins to zero and the second pass finds constant sums.
    target = TargetDistribution.empirical(np.full(200, 0.7))
    rep = fit_sum_to_target(MarginSpec.normal(2), target, 200, thresholds=WIDE_THRESHOLDS)
    assert (rep.stop_reason, rep.iterations, rep.fitted_scale) == ("degenerate", 2, 0.0)


def test_empirical_margins_fit_without_rescaling():
    m = 400
    tab = discretize_quantiles(TargetDistribution.uniform(-2.0, 2.0), m)
    margins = MarginSpec.empirical(2, tab)
    rep = fit_sum_to_target(margins, TargetDistribution.normal(), m,
                            thresholds=WIDE_THRESHOLDS)
    assert rep.fitted_scale == 1.0
    assert np.array_equal(np.sort(rep.final_matrix.values[:, 0]), tab)
    # A table is a law, discretized at m like the other families: half as
    # many values fill m rows, each value twice.
    rep = fit_sum_to_target(MarginSpec.empirical(2, tab[::2]), TargetDistribution.normal(), m,
                            thresholds=WIDE_THRESHOLDS)
    assert rep.fitted_scale == 1.0
    assert np.array_equal(np.sort(rep.final_matrix.values[:, 0]), np.repeat(tab[::2], 2))


def test_spread_recovers_comonotone_join():
    # spread law built from comonotone assets with a monotone difference,
    # so a zero-residual join exists and is strict-countermonotone stable
    m = 64
    p = np.linspace(1.0, 3.0, m)
    g = 0.25 * p + 0.1
    s = p - g
    res = spread_dependence(p, g, s)
    assert res.residual_variance == pytest.approx(0.0, abs=1e-12)
    assert res.start == "given"  # the shuffled start cannot beat 0, and a tie keeps the given one
    assert (res.iterations, res.stop_reason) == (2, "settled")  # a second pass to settle
    rho = spearman(res.copula.values[:, 0], res.copula.values[:, 1])
    assert rho == pytest.approx(1.0, abs=1e-12)
    # margins come back intact
    assert np.array_equal(np.sort(res.copula.values[:, 0]), p)
    assert np.array_equal(np.sort(res.copula.values[:, 1]), np.sort(g))


def test_spread_matches_small_oracle():
    rng = np.random.default_rng(6)
    m = 5
    p = np.sort(rng.normal(size=m))
    g = np.sort(rng.normal(size=m))
    s = np.sort(rng.normal(scale=0.3, size=m))
    res = spread_dependence(p, g, s)
    oracle = brute_force_minimum(np.column_stack([p, -g, -s]))
    assert res.residual_variance == pytest.approx(oracle.min_variance, abs=1e-12)


def test_spread_leaves_the_given_start_stall_on_a_compatible_law():
    # Correlation 0.75 gives this spread exactly; block_ra2 from the sorted
    # tables stopped at a residual of 0.356.
    m = 1000
    fp, fg, fs = (discretize_quantiles(TargetDistribution.normal(0.0, sd), m)
                  for sd in (1.0, 1.2, 0.8))
    res = spread_dependence(fp, fg, fs, FitConfig(rng_seed=1))
    assert res.residual_variance < 1e-3
    assert (res.start, res.stop_reason) == ("shuffled", "settled")
    assert np.array_equal(np.sort(res.copula.values[:, 0]), fp)
    assert np.array_equal(np.sort(res.copula.values[:, 1]), fg)


# (fp, fg, fs) standard deviations: an exactly compatible law, the
# independent join's law and one no join reaches (sd(p - g) is at most 2).
_SPREAD_LAWS = {"compatible": (1.0, 1.2, 0.8), "independent": (1.0, 0.5, 1.25 ** 0.5),
                "incompatible": (1.0, 1.0, 3.0)}


@pytest.mark.parametrize("law", sorted(_SPREAD_LAWS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spread_is_no_worse_than_block_ra2_from_the_same_starts(law, seed):
    m = 1000
    fp, fg, fs = (discretize_quantiles(TargetDistribution.normal(0.0, sd), m)
                  for sd in _SPREAD_LAWS[law])
    res = spread_dependence(fp, fg, fs, FitConfig(rng_seed=seed))
    rng = np.random.default_rng(seed)  # the shuffle spread draws: column 0, then column 1
    starts = (np.column_stack([fp, -fg, -fs]),
              np.column_stack([rng.permutation(fp), -rng.permutation(fg), -fs]))
    best = min(block_ra2(X, BlockRaConfig(rng_seed=seed)).final_objective for X in starts)
    assert res.residual_variance <= 1.05 * best
    assert res.stop_reason == "settled"


def test_spread_reads_its_table_in_any_order():
    # The fixed target column is the spread table sorted and negated, so the
    # order it comes in cannot change the result.
    fp, fg, fs = (discretize_quantiles(TargetDistribution.normal(0.0, sd), 300)
                  for sd in _SPREAD_LAWS["compatible"])
    for seed in (0, 1):
        cfg = FitConfig(rng_seed=seed)
        res, rev = spread_dependence(fp, fg, fs, cfg), spread_dependence(fp, fg, fs[::-1], cfg)
        assert rev.copula.values.tobytes() == res.copula.values.tobytes()
        assert (rev.residual_variance, rev.start, rev.iterations, rev.stop_reason) == \
            (res.residual_variance, res.start, res.iterations, res.stop_reason)


def test_spread_refuses_a_table_that_is_not_a_vector():
    # A 3 x 2 table used to be read as six quantiles, leaving a residual of 0.3.
    with pytest.raises(ValueError, match="^fp_quantiles must be a vector"):
        spread_dependence(np.arange(6.0).reshape(3, 2), np.arange(6.0), np.arange(6.0))
    with pytest.raises(ValueError, match="^fs_quantiles must be a vector"):
        spread_dependence(np.arange(6.0), np.arange(6.0), np.arange(6.0)[:, None])


def test_spread_incompatible_law_leaves_residual():
    m = 32
    p = np.linspace(0.0, 1.0, m)
    g = np.linspace(0.0, 1.0, m)
    # spread spans 100 units while p - g spans at most 2: shape-infeasible
    s = np.linspace(-50.0, 50.0, m)
    res = spread_dependence(p, g, s)
    assert res.residual_variance > 100.0
    with pytest.raises(ValueError, match="length"):
        spread_dependence(p, g, s[:-1])
