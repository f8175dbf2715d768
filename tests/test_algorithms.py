"""Tests for the column-wise and block rearrangement algorithms."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from blockra import (
    BlockRaConfig,
    FitConfig,
    MarginSpec,
    McmcConfig,
    Partition,
    TargetDistribution,
    block_ra1,
    block_ra2,
    brute_force_minimum,
    countermonotone_rearrange,
    enumerate_starts,
    fit_sum_to_target,
    make_zero_sum_normal_matrix,
    mcmc_block_ra,
    multivariate_dependence_exact,
    multivariate_dependence_sampled,
    resolve_rate,
    sample_variance,
    spread_dependence,
    standard_ra,
)

from blockra import dependence
from blockra.algorithms import _pass_masks
from blockra.bench import _shared_values_start
from blockra.matrix import _block_move, _mask_columns

from conftest import (
    KNOWN_LIMIT_VARIANCES,
    START_TO_GLOBAL_MIN,
    START_TO_LOCAL_MIN,
    ref_spearman,
)


def _margins_preserved(before, after):
    a = np.sort(np.asarray(before, dtype=float), axis=0)
    b = np.sort(after.values, axis=0)
    return np.array_equal(a, b)


def test_standard_ra_fixed_at_columnwise_local_min(ra_stuck_4x4):
    # every column already countermonotone to the rest: no move possible
    start = sample_variance(np.asarray(ra_stuck_4x4, dtype=float).sum(axis=1))
    res = standard_ra(ra_stuck_4x4)
    assert res.final_objective == pytest.approx(start)
    assert res.rearrangements_applied == 0
    assert _margins_preserved(ra_stuck_4x4, res.final_matrix)


def test_block_ra2_escapes_columnwise_trap(ra_stuck_4x4):
    stuck = standard_ra(ra_stuck_4x4).final_objective
    res = block_ra2(ra_stuck_4x4, BlockRaConfig(rng_seed=0))
    assert res.final_objective < stuck - 1e-6
    assert _margins_preserved(ra_stuck_4x4, res.final_matrix)


def test_block_ra2_stops_at_block_local_min(local_min_4x4):
    res = block_ra2(local_min_4x4)
    assert res.final_objective == pytest.approx(0.04346, abs=1e-5)
    assert res.rearrangements_applied == 0
    assert res.sweeps == 1


def test_block_ra2_recognizes_complete_mix(complete_mix_4x4):
    res = block_ra2(complete_mix_4x4)
    assert res.final_objective == pytest.approx(0.0, abs=1e-24)
    assert res.rearrangements_applied == 0


def test_block_ra1_reaches_full_opposition_immediately(complete_mix_4x4):
    res = block_ra1(complete_mix_4x4)
    assert res.stop_reason == "dependence-threshold"
    rep = multivariate_dependence_exact(res.final_matrix)
    assert rep.rho == pytest.approx(-1.0, abs=1e-12)


def test_block_ra1_limit_depends_on_start():
    res_local = block_ra1(START_TO_LOCAL_MIN)
    res_global = block_ra1(START_TO_GLOBAL_MIN)
    assert res_local.final_objective == pytest.approx(0.04346, abs=1e-5)
    assert res_global.final_objective == pytest.approx(0.0, abs=1e-12)


def test_block_ra1_rechecks_the_exact_measure_without_its_report(monkeypatch):
    # The recheck reads only the report's rho, so the per-split table, which
    # only _canonical_columns builds, is never made.
    calls = []
    monkeypatch.setattr(dependence, "_canonical_columns", lambda n: calls.append(n))
    res = block_ra1(np.random.default_rng(0).normal(size=(20, 8)),
                    BlockRaConfig(rng_seed=0, rho_stop=-0.999))
    assert (res.stop_reason, res.sweeps) == ("dependence-threshold", 20)
    assert dependence.multivariate_dependence_exact(res.final_matrix).rho <= -0.999
    assert calls == []


def test_block_ra1_at_the_exact_cap_builds_no_per_split_table(monkeypatch):
    # Each recheck scores 2^19 - 1 splits; their table would take about 90 MB.
    calls = []
    monkeypatch.setattr(dependence, "_canonical_columns", lambda n: calls.append(n))
    X = np.random.default_rng(0).normal(size=(6, dependence.EXACT_PARTITION_CAP))
    tracemalloc.start()
    try:
        res = block_ra1(X, BlockRaConfig(max_sweeps=10, rng_seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.sweeps <= 10 and calls == []
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("n_sim", [None, 4])
def test_block_ra1_stalls_on_moves_that_only_reorder_ties(n_sim):
    # Entries 0..2: after a move or two the least-opposed split only
    # reorders rows whose block sums tie, leaving the variance where it is.
    # Such moves count toward the stall, so the run stops where block_ra2
    # ends instead of running to the 1000-iteration budget (full
    # enumeration) or into constant block sums (n_sim=4).
    for s in range(8):
        X = np.random.default_rng(s).integers(0, 3, size=(8, 6)).astype(float)
        res = block_ra1(X, BlockRaConfig(n_sim=n_sim, rng_seed=s))
        assert res.stop_reason == "no-improvement", s
        assert res.sweeps <= 12, s
        assert res.final_objective == block_ra2(X, BlockRaConfig(rng_seed=s)).final_objective, s
        if s == 0:
            assert res.final_objective == 0.2857142857142857


def test_block_ra1_stalls_on_a_rounding_cycle():
    # After standard_ra this 5x4 t1b start steps between two states whose
    # variances differ by about 6e-18.  Each downward step used to reset the
    # stall count, so the run went on to its 1,000-iteration budget.
    rng = np.random.default_rng([0, 8])
    X = _shared_values_start(5, 4, rng)
    res = block_ra1(standard_ra(X).final_matrix, BlockRaConfig(rng_seed=int(rng.integers(2**63))))
    assert res.stop_reason == "no-improvement"
    assert res.sweeps <= 25


# The partitions sampled for a pass are the split bitmasks of
# algorithms._pass_masks, decoded into (pi, complement) column tuples.
def _pass_partitions(n, n_sim, seed=0):
    splits = [_mask_columns(k, n) for k in _pass_masks(n, n_sim, np.random.default_rng(seed))]
    for pi, comp in splits:
        assert sorted(pi + comp) == list(range(n))
    return [pi for pi, _ in splits]


def test_sample_partitions_covering_order():
    # n_sim covering all 2^(n-1) - 1 splits gives the full enumeration in
    # binary-counter order, whatever the seed
    got = _pass_partitions(4, 7)
    assert got == [(0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2)]
    assert _pass_partitions(4, 7, seed=5) == got
    # last column always stays in the complement block
    assert all(3 not in pi for pi in got)


def test_sample_partitions_minimal_case():
    assert _pass_partitions(2, 1) == [(0,)]


def test_sample_partitions_random_regime_repeatable():
    a = _pass_partitions(11, 40, seed=7)
    assert _pass_partitions(11, 40, seed=7) == a
    for pi in a:
        assert 0 < len(pi) < 11
        assert 10 not in pi
    # the splits of one pass are distinct
    assert len(set(a)) == 40


def test_objective_trace_is_monotone(uniform_8x3):
    for algo in (standard_ra, block_ra1, block_ra2):
        res = algo(uniform_8x3, BlockRaConfig(rng_seed=3))
        trace = np.asarray(res.objective_trace)
        assert trace.size >= 1
        assert np.all(np.diff(trace) <= 1e-15)


def test_runs_are_deterministic(uniform_8x3):
    cfg = BlockRaConfig(rng_seed=11)
    r1 = block_ra2(uniform_8x3, cfg)
    r2 = block_ra2(uniform_8x3, cfg)
    assert np.array_equal(r1.final_matrix.values, r2.final_matrix.values)
    assert r1.final_objective == r2.final_objective
    assert r1.sweeps == r2.sweeps


def test_block_ra2_finds_known_limits_from_spread_starts(local_min_4x4):
    rng = np.random.default_rng(0)
    base = np.asarray(local_min_4x4, dtype=float)
    seen = set()
    for _ in range(40):
        X = np.column_stack([rng.permutation(base[:, j]) for j in range(4)])
        v = block_ra2(X, BlockRaConfig(rng_seed=1)).final_objective
        seen.add(round(v, 4))
    assert seen <= {round(v, 4) for v in KNOWN_LIMIT_VARIANCES}
    assert len(seen) >= 2


def test_config_validation():
    with pytest.raises(ValueError):
        BlockRaConfig(rho_stop=0.5)
    with pytest.raises(ValueError):
        BlockRaConfig(rho_stop=-1.5)
    with pytest.raises(ValueError):
        BlockRaConfig(n_sim=0)
    with pytest.raises(ValueError):
        BlockRaConfig(max_sweeps=0)
    with pytest.raises(ValueError, match="max_sweeps must be a positive integer"):
        BlockRaConfig(max_sweeps=1e3)
    with pytest.raises(ValueError, match="n_sim must be a positive integer"):
        BlockRaConfig(n_sim=100.0)
    assert BlockRaConfig(n_sim=np.int64(100), max_sweeps=np.int32(10)).resolve_n_sim(12) == 100
    with pytest.raises(ValueError):
        BlockRaConfig(improvement_tol=-1.0)
    with pytest.raises(ValueError):
        BlockRaConfig(improvement_tol=float("nan"))


@pytest.mark.parametrize("config", [BlockRaConfig, FitConfig, McmcConfig])
@pytest.mark.parametrize("seed", [1.5, -1, "7", None])
def test_configs_refuse_a_seed_that_is_not_a_nonnegative_integer(config, seed):
    # Such seeds used to fail inside numpy, in a message that named no field.
    with pytest.raises(ValueError, match="rng_seed must be a nonnegative integer"):
        config(rng_seed=seed)
    assert config(rng_seed=np.uint64(2**64 - 1)).rng_seed == 2**64 - 1


def test_partition_complement_roundtrip():
    p = Partition.from_mask(0b01010, 5)
    assert p.pi == (1, 3)
    assert p.complement() == (0, 2, 4)


# Reference drivers: the countermonotone move written out from
# lexsort-based counter_permutation, with Partition objects and np.ix_,
# and the bitmask partition draws.  The library kernel must match them bit
# for bit.

def _ref_counter_permutation(target, block_sums):
    sigma = np.empty(target.size, dtype=np.intp)
    sigma[np.lexsort((-block_sums, target))] = np.argsort(-block_sums, kind="stable")
    return sigma


def _ref_move(arr, pi_cols, comp_cols):
    s_pi = arr[:, list(pi_cols)].sum(axis=1)
    s_bar = arr[:, list(comp_cols)].sum(axis=1)
    sigma = _ref_counter_permutation(s_pi, s_bar)
    if np.array_equal(sigma, np.arange(arr.shape[0])):
        return False
    new_block = arr[np.ix_(sigma, comp_cols)]
    if np.array_equal(new_block, arr[:, list(comp_cols)]):
        return False
    arr[:, list(comp_cols)] = new_block
    return True


def _ref_partitions(n, n_sim, rng):
    full = (1 << (n - 1)) - 1
    if n_sim >= full:
        return [Partition.from_mask(mask, n) for mask in range(1, full + 1)]
    seen, out = set(), []
    while len(out) < n_sim:
        bits = rng.integers(0, 2, size=n - 1)
        mask = sum(1 << int(j) for j in np.flatnonzero(bits))
        if mask == 0 or mask in seen:
            continue
        seen.add(mask)
        out.append(Partition.from_mask(mask, n))
    return out


def _var(arr):
    return float(arr.sum(axis=1).var(ddof=1))


def _ref_standard_ra(X, cfg):
    arr = np.array(X, dtype=float)
    n = arr.shape[1]
    trace, applied = [_var(arr)], 0
    for sweep in range(1, cfg.max_sweeps + 1):
        changed = False
        for j in range(n):
            if _ref_move(arr, [i for i in range(n) if i != j], [j]):
                applied += 1
                changed = True
        trace.append(_var(arr))
        if not changed:
            return arr, tuple(trace), sweep, applied, "no-improvement"
    return arr, tuple(trace), cfg.max_sweeps, applied, "max-iterations"


def _ref_block_ra2(X, cfg):
    arr = np.array(X, dtype=float)
    n = arr.shape[1]
    n_sim = cfg.resolve_n_sim(n)
    rng = np.random.default_rng(cfg.rng_seed)
    trace, applied = [_var(arr)], 0
    for sweep in range(1, cfg.max_sweeps + 1):
        for part in _ref_partitions(n, n_sim, rng):
            if _ref_move(arr, part.pi, part.complement()):
                applied += 1
        trace.append(_var(arr))
        if trace[-2] - trace[-1] < max(cfg.improvement_tol * trace[-1], 1e-15):
            return arr, tuple(trace), sweep, applied, "no-improvement"
    return arr, tuple(trace), cfg.max_sweeps, applied, "max-iterations"


def _ref_score(s_pi, total):
    # A split with a constant block sum scores -1: no reordering changes its variance.
    s_bar = total - s_pi
    return -1.0 if np.ptp(s_pi) == 0 or np.ptp(s_bar) == 0 else ref_spearman(s_pi, s_bar)


def _ref_rho(arr):
    n = arr.shape[1]
    total = arr.sum(axis=1)
    vals = []
    for mask in range(1, 1 << (n - 1)):
        vals.append(_ref_score(arr[:, list(Partition.from_mask(mask, n).pi)].sum(axis=1), total))
    return math.fsum(vals) / len(vals)


def _ref_rho_sampled(arr, n_samples, seed):
    # iid fair column indicators, redrawn while one block is empty
    n = arr.shape[1]
    rng = np.random.default_rng(seed)
    total = arr.sum(axis=1)
    vals = []
    while len(vals) < n_samples:
        indicator = rng.integers(0, 2, size=n)
        if 0 < indicator.sum() < n:
            vals.append(_ref_score(arr[:, np.flatnonzero(indicator)].sum(axis=1), total))
    return math.fsum(vals) / n_samples


def _ref_block_ra1(X, cfg):
    arr = np.array(X, dtype=float)
    n = arr.shape[1]
    n_sim = cfg.resolve_n_sim(n)
    full = n_sim >= (1 << (n - 1)) - 1
    rng = np.random.default_rng(cfg.rng_seed)
    trace, applied, flat = [_var(arr)], 0, 0
    for it in range(1, cfg.max_sweeps + 1):
        parts = _ref_partitions(n, n_sim, rng)
        total = arr.sum(axis=1)
        phis = [_ref_score(arr[:, list(p.pi)].sum(axis=1), total) for p in parts]
        best = parts[int(np.argmax(phis))]
        changed = _ref_move(arr, best.pi, best.complement())
        applied += changed
        trace.append(_var(arr))
        # A move that only reorders rows with tied block sums, or a step of a
        # rounding cycle, leaves the variance at or above the lowest seen so
        # far and counts toward the stall like a no-op.
        flat = flat + 1 if trace[-1] >= min(trace[:-1]) else 0
        stalled = flat >= 10 or (full and not changed)
        if it % 10 == 0 or not changed or stalled:
            if n <= 20:
                rho = _ref_rho(arr)
            else:
                rho = _ref_rho_sampled(arr, n_sim, int(rng.integers(0, 2**63 - 1)))
            if rho <= cfg.rho_stop:
                return arr, tuple(trace), it, applied, "dependence-threshold"
            if stalled:
                return arr, tuple(trace), it, applied, "no-improvement"
    return arr, tuple(trace), cfg.max_sweeps, applied, "max-iterations"


def _kernel_start(kind, m, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.standard_normal((m, n))
    if kind == "tie-heavy":  # block sums and split scores tie all over
        return rng.integers(0, 3, size=(m, n)).astype(float)
    if kind == "zero-sum":  # t3b's start: rows summing to zero, columns shuffled
        base = make_zero_sum_normal_matrix(m, n, rng_seed=seed).values
        return np.column_stack([rng.permutation(base[:, j]) for j in range(n)])
    u = rng.uniform(size=m)
    return np.column_stack([u] + [rng.permutation(u) for _ in range(n - 1)])


@pytest.mark.parametrize("kind", ["shared-values", "normal", "tie-heavy", "zero-sum"])
# block_ra2 screens the full passes of (10, 8) and (10, 10).  n = 21 is past
# the exact-enumeration cap: block_ra1 rechecks with the sampled measure there.
@pytest.mark.parametrize("m, n, n_sim", [(8, 4, None), (10, 8, None), (10, 10, None), (10, 11, 40),
                                         (30, 12, 64), (16, 21, 32)])
def test_split_kernel_matches_reference_move(kind, m, n, n_sim):
    X = _kernel_start(kind, m, n, seed=m * n)
    cases = [
        (standard_ra, _ref_standard_ra, BlockRaConfig()),
        (block_ra2, _ref_block_ra2, BlockRaConfig(n_sim=n_sim, rng_seed=5)),
        (block_ra1, _ref_block_ra1, BlockRaConfig(n_sim=n_sim, rng_seed=5, max_sweeps=12)),
    ]
    for algo, ref, cfg in cases:
        res = algo(X, cfg)
        arr, trace, sweeps, applied, reason = ref(X, cfg)
        assert np.array_equal(res.final_matrix.values, arr), algo.__name__
        assert res.objective_trace == trace, algo.__name__
        assert (res.sweeps, res.rearrangements_applied) == (sweeps, applied), algo.__name__
        assert res.stop_reason == reason, algo.__name__


@pytest.mark.parametrize("s, n_sim", [(29, None), (12, 4)])
def test_block_ra1_scores_constant_block_sums_as_finished(s, n_sim):
    # These runs reach splits whose block sums are constant.  Such a split
    # scores -1, as a countermonotone one does, where it used to end the run
    # in an error with no stop reason.
    X = np.random.default_rng(s).integers(0, 3, size=(8, 6)).astype(float)
    cfg = BlockRaConfig(n_sim=n_sim, rng_seed=s)
    res = block_ra1(X, cfg)
    arr, trace, sweeps, applied, reason = _ref_block_ra1(X, cfg)
    assert np.array_equal(res.final_matrix.values, arr)
    assert res.objective_trace == trace
    assert (res.sweeps, res.rearrangements_applied) == (sweeps, applied)
    assert res.stop_reason == reason in ("dependence-threshold", "no-improvement")


def test_resolve_n_sim_counts_the_splits_a_pass_scores():
    assert BlockRaConfig(n_sim=1000).resolve_n_sim(4) == 7
    assert BlockRaConfig(n_sim=5).resolve_n_sim(4) == 5
    assert BlockRaConfig().resolve_n_sim(4) == 7
    assert BlockRaConfig().resolve_n_sim(12) == 512
    # n_sim past the split count still runs every split once per pass
    X = np.random.default_rng(6).normal(size=(6, 4))
    for algo in (block_ra1, block_ra2):
        a = algo(X, BlockRaConfig(n_sim=1000, rng_seed=2))
        b = algo(X, BlockRaConfig(n_sim=7, rng_seed=2))
        assert replace(a, final_matrix=None) == replace(b, final_matrix=None)
        assert np.array_equal(a.final_matrix.values, b.final_matrix.values)


@pytest.mark.parametrize("algo", [standard_ra, block_ra1, block_ra2])
def test_overflowing_row_sums_rejected_up_front(algo):
    # Finite entries whose row sums overflow must fail up front, not run to
    # the sweep budget or stop with a NaN objective.
    X = np.full((3, 3), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="row 0 sums to inf"):
            algo(X)



def test_overflowing_row_sum_variance_rejected_up_front():
    # Finite row sums whose squared deviations overflow: each run used to go
    # on to report an infinite objective, block_ra2 after all 1000 sweeps and
    # the fit after all its passes, with a verdict.
    X = np.random.default_rng(0).normal(size=(6, 4)) * 3e155
    q = np.linspace(-1, 1, 50) * 1e300
    calls = [lambda: standard_ra(X), lambda: block_ra1(X), lambda: block_ra2(X),
             lambda: spread_dependence(q, q, q / 2),
             lambda: fit_sum_to_target(MarginSpec.empirical(2, q), TargetDistribution.normal(), 50,
                                       FitConfig(max_passes=50)),
             lambda: mcmc_block_ra(X),
             # Every other public entry point that takes a matrix: the matrix
             # type refuses it where each builds its input.
             lambda: countermonotone_rearrange(X, Partition((0, 1), 4)),
             lambda: resolve_rate(X), lambda: brute_force_minimum(X),
             lambda: multivariate_dependence_exact(X),
             lambda: multivariate_dependence_sampled(X, 5, 0), lambda: enumerate_starts(X)]
    for call in calls:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="row-sum variance overflows"):
                call()
        assert not seen, [str(w.message) for w in seen]


_OPTIMIZED_REFUSALS = """
import json
import numpy as np
from blockra import (MarginSpec, TargetDistribution, brute_force_minimum, fit_sum_to_target,
                     spread_dependence)

def pair(c):
    return np.array([[c, -c, c, -c], [-c, c, -c, c], [1, 2, 3, 4], [0.5, 0.1, 0.2, 0.3]])

q = np.linspace(-1, 1, 50) * 1e307
calls = [lambda: brute_force_minimum(np.random.default_rng(0).random((5, 4)) * 1e300),
         lambda: brute_force_minimum(pair(1e308)), lambda: brute_force_minimum(pair(1e8)),
         lambda: fit_sum_to_target(MarginSpec.normal(2), TargetDistribution.normal(0, 1e300), 2000),
         lambda: spread_dependence(q, q, q)]
refusals = []
for call in calls:
    try:
        call()
        refusals.append(None)
    except ValueError as exc:
        refusals.append(str(exc))
print(json.dumps({"debug": __debug__, "refusals": refusals}))
"""


def test_refusals_hold_under_python_O():
    # python -O strips assert statements, and -W error makes any warning
    # fail the call, so each refusal here is a named ValueError of its own.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-W", "error", "-c", _OPTIMIZED_REFUSALS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["debug"] is False
    expected = ["the row-sum variance overflows: rescale the matrix",
                "the pair scores overflow", "the pair scores drift",
                "the row-sum variance overflows: rescale the margins or target law",
                "the row-sum variance overflows: rescale the quantile tables"]
    for got, want in zip(out["refusals"], expected, strict=True):
        assert got is not None and got.startswith(want), (got, want)


def _reference_block_ra2(X, cfg):
    # The block_ra2 pass loop with every split decoded by Partition.from_mask.
    arr, n = X.copy(), X.shape[1]
    n_sim, rng = cfg.resolve_n_sim(n), np.random.default_rng(cfg.rng_seed)
    trace = [sample_variance(arr.sum(axis=1))]
    for _ in range(cfg.max_sweeps):
        for mask in _pass_masks(n, n_sim, rng):
            p = Partition.from_mask(mask, n)
            _block_move(arr, list(arr.T), np.array(p.pi, dtype=np.intp),
                        np.array(p.complement(), dtype=np.intp))
        trace.append(sample_variance(arr.sum(axis=1)))
        if trace[-2] - trace[-1] < max(cfg.improvement_tol * trace[-1], 1e-15):
            break
    return arr, tuple(trace)


@pytest.mark.parametrize("n, n_sim", [(11, 1023), (12, 2047), (12, 300)])
def test_block_ra2_past_ten_columns_matches_a_per_split_decode(n, n_sim):
    # Full passes over 11 and 12 columns and a sampled pass over 12.
    X = np.random.default_rng(n + n_sim).normal(size=(6, n))
    cfg = BlockRaConfig(n_sim=n_sim, rng_seed=3, max_sweeps=4)
    res = block_ra2(X, cfg)
    arr, trace = _reference_block_ra2(X, cfg)
    assert res.final_matrix.values.tobytes() == arr.tobytes()
    assert np.array(res.objective_trace).tobytes() == np.array(trace).tobytes()

# Pass sizes around full coverage (n = 3, 4), many redraws (5, 15), the
# default 512 at n = 12, masks at the int64 limit (n = 64) and past it.
_DRAW_CASES = [(3, 3), (4, 6), (4, 7), (5, 15), (12, 512), (64, 24), (65, 40), (70, 16)]


@pytest.mark.parametrize("n, n_sim", _DRAW_CASES)
def test_pass_masks_match_the_row_by_row_draws(n, n_sim):
    # Reference: one row of n-1 fair bits per draw, redrawn when empty or
    # seen.  The batched draws must give the same masks in the same order
    # and leave the generator where the row loop leaves it.
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if n_sim >= (1 << (n - 1)) - 1:
            ref = list(range(1, 1 << (n - 1)))
        else:
            ref = []
            while len(ref) < n_sim:
                bits = ref_rng.integers(0, 2, size=n - 1)
                mask = sum(1 << int(j) for j in np.flatnonzero(bits))
                if mask and mask not in ref:
                    ref.append(mask)
        assert list(_pass_masks(n, n_sim, rng)) == ref, seed
        assert rng.random() == ref_rng.random(), seed


@pytest.mark.parametrize("n, n_samples", _DRAW_CASES)
def test_sampled_measure_scores_the_row_by_row_draws(monkeypatch, n, n_samples):
    # Reference: one indicator row of n fair bits per draw, kept when both
    # blocks are nonempty.  The measure must score those masks, in order,
    # and leave its generator where the row loop leaves it.
    generators, scored = [], []
    default_rng, split_spearman = np.random.default_rng, dependence._split_spearman
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: generators.append(default_rng(seed)) or generators[-1])
    monkeypatch.setattr(dependence, "_split_spearman",
                        lambda arr, masks: scored.append(list(masks)) or split_spearman(arr, masks))
    X = default_rng(n).normal(size=(5, n))
    for seed in range(20):
        ref_rng, ref = default_rng(seed), []
        while len(ref) < n_samples:
            indicator = ref_rng.integers(0, 2, size=n)
            if 0 < indicator.sum() < n:
                ref.append(sum(1 << int(j) for j in np.flatnonzero(indicator)))
        dependence.multivariate_dependence_sampled(X, n_samples, rng_seed=seed)
        assert scored[-1] == ref, seed
        assert generators[-1].random() == ref_rng.random(), seed


@pytest.mark.parametrize("algo", [block_ra1, block_ra2])
def test_block_algorithms_run_past_int64_masks(algo):
    # 69 free columns: every drawn mask is wider than an int64.
    X = np.random.default_rng(70).normal(size=(6, 70))
    res = algo(X, BlockRaConfig(n_sim=8, rng_seed=1))
    assert res.stop_reason in ("dependence-threshold", "no-improvement")
    assert _margins_preserved(X, res.final_matrix)
    assert res.final_objective <= sample_variance(X.sum(axis=1))
