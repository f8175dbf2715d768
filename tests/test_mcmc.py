"""Tests for the Metropolis arrangement search."""

import itertools
import tracemalloc

import numpy as np
import pytest

from blockra import (
    McmcConfig,
    ObjectiveSpec,
    RearrangementMatrix,
    mcmc_block_ra,
    propose_permutation,
    resolve_rate,
)
from blockra.matrix import _block_sums, _split_of_mask, counter_permutation
from blockra import mcmc
from blockra.mcmc import _chain_draws, _draw_canonical_mask, _gumbel_sample

from conftest import SIGMA_CM_LOCAL_MIN, UNIFORM_8X3


def test_gumbel_inverse_cdf_formula():
    class FixedRng:
        def random(self, size=None):
            return np.asarray(0.25) if size is None else np.full(size, 0.25)

    z = _gumbel_sample(2.0, FixedRng())
    assert z == pytest.approx(-np.log(-np.log(0.25)) / 2.0)
    assert _gumbel_sample(2.0, FixedRng(), 3).shape == (3,)
    with pytest.raises(ValueError):
        _gumbel_sample(0.0, np.random.default_rng(0))


def test_gumbel_median_scaling():
    rng = np.random.default_rng(4)
    draws = _gumbel_sample(5.0, rng, 200_000)
    assert np.median(draws) == pytest.approx(-np.log(np.log(2.0)) / 5.0, abs=5e-3)


def test_proposal_degenerates_to_countermonotone_at_high_rate():
    rng = np.random.default_rng(0)
    s_pi = np.array([0.3, -1.2, 0.9, 0.0, 2.4])
    block_sorted = np.arange(5.0)
    # pattern[i] indexes into the ascending block values, same convention
    # as the deterministic kernel; vanishing noise must reproduce it
    pattern = propose_permutation(s_pi, 1e9, rng)
    assert np.array_equal(pattern, counter_permutation(s_pi, block_sorted))


def test_proposal_uniform_on_constant_sums():
    rng = np.random.default_rng(1)
    seen = {tuple(propose_permutation(np.zeros(3), 1.0, rng)) for _ in range(400)}
    assert len(seen) == 6


def test_chain_absorbs_from_block_local_min(local_min_4x4):
    trace = mcmc_block_ra(local_min_4x4, McmcConfig(rng_seed=3))
    assert trace.absorbed_at is not None
    assert trace.best_objective <= 1e-14
    rows = trace.best_matrix.values.sum(axis=1)
    assert rows.var(ddof=1) == pytest.approx(trace.best_objective, abs=1e-20)


def test_chain_absorbs_immediately_on_complete_mix(complete_mix_4x4):
    trace = mcmc_block_ra(complete_mix_4x4, McmcConfig(rng_seed=0))
    assert trace.absorbed_at == 0
    # no iterations ran, the start itself absorbs
    assert trace.objective_per_iter.size == 0
    assert trace.best_objective == pytest.approx(0.0, abs=1e-24)


def test_chain_preserves_margins_and_tracks_best():
    X = UNIFORM_8X3
    trace = mcmc_block_ra(X, McmcConfig(n_iter=500, rng_seed=7))
    assert np.array_equal(
        np.sort(trace.best_matrix.values, axis=0), np.sort(X, axis=0)
    )
    assert trace.best_objective <= trace.objective_per_iter.min() + 1e-18
    assert trace.accepted.dtype == bool


def test_chain_deterministic():
    cfg = McmcConfig(n_iter=300, rng_seed=12)
    t1 = mcmc_block_ra(UNIFORM_8X3, cfg)
    t2 = mcmc_block_ra(UNIFORM_8X3, cfg)
    assert np.array_equal(t1.objective_per_iter, t2.objective_per_iter)
    assert np.array_equal(t1.best_matrix.values, t2.best_matrix.values)


def test_resolve_rate_cases(local_min_4x4):
    assert resolve_rate(local_min_4x4, McmcConfig(r=3.5)) == 3.5
    mat = RearrangementMatrix(local_min_4x4)
    sd = float(mat.values.sum(axis=1).std(ddof=1))
    assert resolve_rate(local_min_4x4) == pytest.approx(5.0 / sd)
    # degenerate start: all row sums equal, rate snaps effectively rigid
    flat = np.array([[1.0, -1.0], [2.0, -2.0], [0.5, -0.5]])
    assert resolve_rate(flat) == 1e12


def test_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(r=-1.0)
    with pytest.raises(ValueError):
        McmcConfig(n_iter=0)
    with pytest.raises(ValueError):
        McmcConfig(absorb_tol=-1e-9)
    with pytest.raises(ValueError):
        McmcConfig(absorb_tol=float("nan"))


def test_objective_variance_and_expected_convex(uniform_8x3):
    for spec, of_sums in ((ObjectiveSpec.variance(), lambda s: s.var(ddof=1)),
                          (ObjectiveSpec.expected_convex(np.square), lambda s: np.mean(s**2))):
        trace = mcmc_block_ra(uniform_8x3, McmcConfig(objective=spec, n_iter=200, rng_seed=1))
        assert trace.best_objective == pytest.approx(of_sums(trace.best_matrix.values.sum(axis=1)))
    with pytest.raises(ValueError):
        ObjectiveSpec.expected_convex(None)
    with pytest.raises(ValueError):
        ObjectiveSpec.expected_convex(2.0)


def test_a_spec_with_f_minimizes_the_mean_of_f(uniform_8x3):
    # ObjectiveSpec(f=...) used to keep kind "variance" and minimize the variance.
    spec = ObjectiveSpec(f=np.square)
    assert spec == ObjectiveSpec.expected_convex(np.square) != ObjectiveSpec.variance()
    assert (spec.kind, ObjectiveSpec().kind) == ("expected-convex", "variance")
    s = uniform_8x3.sum(axis=1)
    assert spec(s) == float(np.mean(s**2)) and ObjectiveSpec()(s) == float(s.var(ddof=1))
    got = mcmc_block_ra(uniform_8x3, McmcConfig(objective=spec, n_iter=200, rng_seed=1))
    ref = mcmc_block_ra(uniform_8x3, McmcConfig(objective=ObjectiveSpec.expected_convex(np.square),
                                                n_iter=200, rng_seed=1))
    assert got.objective_per_iter.tobytes() == ref.objective_per_iter.tobytes()
    assert np.array_equal(got.accepted, ref.accepted)
    assert got.best_matrix.values.tobytes() == ref.best_matrix.values.tobytes()
    best_sums = got.best_matrix.values.sum(axis=1)
    assert got.best_objective == pytest.approx(np.mean(best_sums**2))
    assert got.best_objective > 1.0 > best_sums.var(ddof=1)  # the mean of s^2, not the variance


# The chain as it stood before its iteration was trimmed, kept verbatim (with
# numpy's own var) as the reference the trimmed chain must match bit for bit.
def _ref_gumbel_sample(r, rng, size=None):
    u = rng.random(size)
    u = np.maximum(u, np.finfo(np.float64).tiny)
    return -np.log(-np.log(u)) / r


def _ref_propose_permutation(s_pi, r, rng):
    s_pi = np.asarray(s_pi, dtype=np.float64)
    m = s_pi.size
    if m == 1:
        return np.zeros(1, dtype=np.intp)
    w = _ref_gumbel_sample(r, rng, m) - s_pi
    slots = np.empty(m, dtype=np.intp)
    slots[np.argsort(w, kind="stable")] = np.arange(m)
    return slots


def _ref_objective_of_sums(s, spec):
    if spec.kind == "variance":
        return float(s.var(ddof=1))
    return float(np.mean(spec.f(s)))


def _ref_draw_canonical_mask(n, rng):
    width = n - 1
    if width <= 62:
        return int(rng.integers(1, (1 << width)))
    while True:
        bits = rng.integers(0, 2, size=width)
        mask = 0
        for j in np.flatnonzero(bits):
            mask |= 1 << int(j)
        if mask:
            return mask


def _ref_mcmc(X, cfg):
    mat = RearrangementMatrix(X)
    arr = np.array(mat.values, copy=True)
    m, n = arr.shape
    rng = np.random.default_rng(cfg.rng_seed)
    spec = cfg.objective

    s_cur = arr.sum(axis=1)
    f_cur = _ref_objective_of_sums(s_cur, spec)
    best_f = f_cur
    best_arr = arr.copy()

    rate = resolve_rate(mat, cfg)
    objectives = np.empty(cfg.n_iter, dtype=np.float64)
    accepted = np.zeros(cfg.n_iter, dtype=bool)
    absorbed_at = 0 if f_cur <= cfg.absorb_tol else None
    for it in range(1, cfg.n_iter + 1 if absorbed_at is None else 1):
        pi, comp = _split_of_mask(_ref_draw_canonical_mask(n, rng), n)
        s_pi = _block_sums(arr, pi)
        s_bar = s_cur - s_pi
        slots = _ref_propose_permutation(s_pi, rate, rng)
        order_block = np.argsort(s_bar, kind="stable")
        sigma = order_block[slots]
        s_new = s_pi + s_bar[sigma]
        f_prop = _ref_objective_of_sums(s_new, spec)
        u = rng.random()
        accept = f_prop <= 0 or u * f_prop < f_cur
        if accept:
            arr[:, comp] = arr[sigma][:, comp]
            s_cur = s_new
            f_cur = f_prop
            accepted[it - 1] = True
            if f_cur < best_f:
                best_f = f_cur
                best_arr = arr.copy()
        objectives[it - 1] = f_cur
        if f_cur <= cfg.absorb_tol:
            absorbed_at = it
            break

    n_done = cfg.n_iter if absorbed_at is None else absorbed_at
    return objectives[:n_done], accepted[:n_done], best_f, best_arr, absorbed_at


_REF_STARTS = {
    "8x3-shared-values": (lambda: UNIFORM_8X3, {}),
    "20x6-normal": (lambda: np.random.default_rng(6).normal(size=(20, 6)), {}),
    "tie-heavy-integer": (
        lambda: np.random.default_rng(9).integers(0, 3, size=(12, 5)).astype(float), {}),
    "expected-convex": (
        lambda: np.random.default_rng(2).normal(size=(10, 4)),
        {"objective": ObjectiveSpec.expected_convex(np.square)}),
    "fixed-rate": (lambda: np.random.default_rng(4).random((9, 4)), {"r": 0.75}),
    "absorbing": (lambda: np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]), {}),
    "3x70-wide-mask": (lambda: np.random.default_rng(70).normal(size=(3, 70)), {"n_iter": 300}),
    # 39-bit masks come from numpy's 64-bit bounded draw: every block replays.
    "4x40-replayed-masks": (lambda: np.random.default_rng(40).normal(size=(4, 40)), {"n_iter": 300}),
    "absorbs-mid-block": (lambda: SIGMA_CM_LOCAL_MIN, {}),
    # The word budget caps each block at a few iterations.
    "3000x3-capped-blocks": (lambda: np.random.default_rng(30).normal(size=(3000, 3)), {"n_iter": 40}),
}


@pytest.mark.parametrize("name", sorted(_REF_STARTS))
def test_chain_matches_the_reference_loop_bit_for_bit(name):
    make, overrides = _REF_STARTS[name]
    X = make()
    cfg = McmcConfig(**{"n_iter": 2000, "rng_seed": 11, **overrides})
    objectives, accepted, best_f, best_arr, absorbed_at = _ref_mcmc(X, cfg)
    trace = mcmc_block_ra(X, cfg)
    if name == "absorbs-mid-block":
        assert 1 < absorbed_at < 2 * (mcmc._BLOCK_WORDS // (2 * X.shape[0] + 3))
    if name == "3000x3-capped-blocks":
        assert 2 * (mcmc._BLOCK_WORDS // (2 * X.shape[0] + 3)) < cfg.n_iter
    assert trace.objective_per_iter.tobytes() == objectives.tobytes()
    assert np.array_equal(trace.accepted, accepted)
    assert float.hex(trace.best_objective) == float.hex(best_f)
    assert trace.best_matrix.values.tobytes() == best_arr.tobytes()
    assert trace.absorbed_at == absorbed_at
    assert accepted.any() or absorbed_at == 0


@pytest.mark.parametrize("r", [1e-3, 0.75, 5.0, 1e9])
def test_gumbel_sample_matches_the_reference_bit_for_bit(r):
    for seed, size in enumerate((None, 1, 7, 300)):
        got = _gumbel_sample(r, np.random.default_rng(seed), size)
        ref = _ref_gumbel_sample(r, np.random.default_rng(seed), size)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    class ZeroRng:  # u = 0 is clipped to the smallest normal double
        def random(self, size=None):
            return 0.0 if size is None else np.zeros(size)

    assert _gumbel_sample(r, ZeroRng()) == _ref_gumbel_sample(r, ZeroRng())
    assert _gumbel_sample(r, ZeroRng(), 3).tobytes() == _ref_gumbel_sample(r, ZeroRng(), 3).tobytes()


@pytest.mark.parametrize("n", [64, 70, 130])
def test_wide_canonical_mask_matches_the_bit_loop(n):
    for seed in range(8):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert _draw_canonical_mask(n, rng) == _ref_draw_canonical_mask(n, ref_rng)
        assert rng.random() == ref_rng.random()  # the same draws were consumed


def _replay_draws(rng, m, n, rate, count):
    masks, noise, uniforms = [], [], []
    for _ in range(count):
        masks.append(_draw_canonical_mask(n, rng))
        noise.append(_gumbel_sample(rate, rng, m))
        uniforms.append(rng.random())
    return masks, np.array(noise), uniforms


def _assert_same_draws(got, ref, rng, ref_rng):
    assert got[0] == ref[0]
    assert got[1].tobytes() == ref[1].tobytes()
    assert [float.hex(u) for u in got[2]] == [float.hex(u) for u in ref[2]]
    state, ref_state = rng.bit_generator.state, ref_rng.bit_generator.state
    assert state["state"] == ref_state["state"]
    assert state["has_uint32"] == ref_state["has_uint32"]
    if state["has_uint32"]:  # else the buffered half word is never read
        assert state["uinteger"] == ref_state["uinteger"]


@pytest.mark.parametrize("n", range(2, 35))
def test_chain_draws_match_the_replay_bit_for_bit(n):
    for m, seed in itertools.product((2, 3, 8, 20), range(3)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for count in (2, 6, 64):  # consecutive blocks
            got = _chain_draws(rng, m, n, 0.75, count)
            _assert_same_draws(got, _replay_draws(ref_rng, m, n, 0.75, count), rng, ref_rng)
        assert rng.integers(1 << 40) == ref_rng.integers(1 << 40)


def test_chain_draws_replay_a_rejected_mask(monkeypatch):
    # At n = 18 numpy redraws a 32-bit half whose product with 2^17 - 1 has
    # low bits below 32768; seed 705 meets one at iteration 105.
    words = np.random.default_rng(705).bit_generator.random_raw(256 * 7).reshape(256, 7)[:, 0]
    halves = np.column_stack((words & 0xFFFFFFFF, words >> np.uint64(32))).ravel()
    low = halves * np.uint64((1 << 17) - 1) & 0xFFFFFFFF
    assert np.flatnonzero(low < 32768).tolist() == [105]
    calls = []
    monkeypatch.setattr(mcmc, "_draw_canonical_mask",
                        lambda n, rng: calls.append(n) or _draw_canonical_mask(n, rng))
    rng, ref_rng = np.random.default_rng(705), np.random.default_rng(705)
    replayed = []
    for count in (100, 100, 100):  # the second block holds the rejection
        got = _chain_draws(rng, 2, 18, 0.75, count)
        _assert_same_draws(got, _replay_draws(ref_rng, 2, 18, 0.75, count), rng, ref_rng)
        replayed.append(len(calls))
    # The redraw leaves a half word buffered; the third block starts from it
    # without a replay and buffers the last high half again.
    assert replayed == [0, 100, 100]
    assert rng.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("n", range(2, 35))
def test_chain_draws_from_a_buffered_half_match_the_replay(n, monkeypatch):
    calls = []
    monkeypatch.setattr(mcmc, "_draw_canonical_mask",
                        lambda n, rng: calls.append(n) or _draw_canonical_mask(n, rng))
    for m, seed in itertools.product((2, 3, 8, 20), range(3)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for g in (rng, ref_rng):
            g.integers(1 << 20)  # a 32-bit draw buffers the high half of its word
        assert rng.bit_generator.state["has_uint32"] == 1
        for count in (2, 6, 64):  # consecutive blocks
            got = _chain_draws(rng, m, n, 0.75, count)
            _assert_same_draws(got, _replay_draws(ref_rng, m, n, 0.75, count), rng, ref_rng)
        assert rng.integers(1 << 40) == ref_rng.integers(1 << 40)
    if n <= 33:  # none of these blocks holds a rejected multiply, so none replays
        assert calls == []


def test_capped_blocks_keep_the_draws_small():
    # Uncapped, 400 iterations at m = 3000 would draw about 19 MB of words and noise.
    X = np.random.default_rng(30).normal(size=(3000, 3))
    tracemalloc.start()
    try:
        mcmc_block_ra(X, McmcConfig(n_iter=400, rng_seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_chain_draws_replay_other_bit_generators():
    for n in (2, 5):
        rng = np.random.Generator(np.random.MT19937(3))
        ref_rng = np.random.Generator(np.random.MT19937(3))
        got, ref = _chain_draws(rng, 3, n, 0.75, 8), _replay_draws(ref_rng, 3, n, 0.75, 8)
        assert got[0] == ref[0] and got[2] == ref[2]
        assert got[1].tobytes() == ref[1].tobytes()
        assert rng.random() == ref_rng.random()
