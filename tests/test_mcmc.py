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
from blockra.matrix import _block_sums, _mask_columns, counter_permutation, sample_variance
from blockra import mcmc
from blockra.mcmc import _chain_draws, _gumbel_sample

from conftest import SIGMA_CM_LOCAL_MIN, START_TO_LOCAL_MIN, UNIFORM_8X3


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
    # The 16x12 start moves blocks of up to 11 columns.
    for X in (UNIFORM_8X3, np.random.default_rng(16).normal(size=(16, 12))):
        trace = mcmc_block_ra(X, McmcConfig(n_iter=500, rng_seed=7))
        assert np.array_equal(
            np.sort(trace.best_matrix.values, axis=0), np.sort(X, axis=0)
        )
        # best_objective is best_matrix's own; the per-iteration objectives
        # come from the chain's running row sums, which drift in the last bits.
        assert trace.best_objective == sample_variance(trace.best_matrix.values.sum(axis=1))
        assert trace.best_objective <= trace.objective_per_iter.min() * (1 + 1e-12)
        assert trace.accepted.dtype == bool


def _cancelling_rows(c):
    return np.array([[c, -c, c, -c], [-c, c, -c, c], [1.0, 2.0, 3.0, 4.0], [0.5, 0.1, 0.2, 0.3]])


@pytest.mark.parametrize("c", [1e10, 1e12, 1e14, 1e15, 1e16, 1e17])
def test_chain_reports_its_best_matrixs_own_objective(c, monkeypatch):
    # The two c-rows cancel in every row sum, but the chain's running row
    # sums lose the small rows' bits as c grows: it used to report 1.1869 at
    # c = 1e15, where the returned matrix's own variance is 1.4993, and 0 at
    # c = 1e17 with an absorption at iteration 2, where it is 3.8225.  Ranked
    # by those sums, it also returned 1.4993 at c = 1e15 and 3.84 at 1e16
    # after visiting states of own variance 1.4681 and 2.8958.
    X = _cancelling_rows(c)
    cfg = McmcConfig(n_iter=2000, rng_seed=0)
    visited = [sample_variance(X.sum(axis=1))]  # every state's own variance, the start's first
    permute_rows = mcmc._permute_rows

    def permute_and_record(cols, idx, sigma):
        permute_rows(cols, idx, sigma)
        visited.append(sample_variance(np.column_stack(cols).sum(axis=1)))

    monkeypatch.setattr(mcmc, "_permute_rows", permute_and_record)
    trace = mcmc_block_ra(X, cfg)
    own = sample_variance(trace.best_matrix.values.sum(axis=1))
    assert float.hex(trace.best_objective) == float.hex(own)
    assert trace.absorbed_at is None or own <= cfg.absorb_tol
    assert len(visited) == trace.accepted.sum() + 1
    assert own == min(visited)


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


def test_resolve_rate_refuses_a_start_whose_row_sum_spread_overflows():
    # The rate used to resolve to 0.0 here (infinite noise), after two
    # RuntimeWarnings, and the convex chain then accepted every proposal.
    X = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]])
    cfg = McmcConfig(objective=ObjectiveSpec(lambda s: np.abs(s) * 1e-10), n_iter=50)
    for run in (resolve_rate, mcmc_block_ra):
        with pytest.raises(ValueError, match="the row-sum variance overflows"):
            run(X, cfg)
    assert resolve_rate(X, McmcConfig(r=2.0)) == 2.0  # an explicit rate reads no spread


def test_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(r=-1.0)
    with pytest.raises(ValueError):
        McmcConfig(n_iter=0)
    with pytest.raises(ValueError, match="n_iter must be a positive integer"):
        McmcConfig(n_iter=1e4)
    assert McmcConfig(n_iter=np.int64(10)).n_iter == 10
    with pytest.raises(ValueError):
        McmcConfig(absorb_tol=-1e-9)
    with pytest.raises(ValueError):
        McmcConfig(absorb_tol=float("nan"))


def test_objective_variance_and_expected_convex(uniform_8x3):
    for spec, of_sums in ((ObjectiveSpec(), lambda s: s.var(ddof=1)),
                          (ObjectiveSpec(np.square), lambda s: np.mean(s**2))):
        trace = mcmc_block_ra(uniform_8x3, McmcConfig(objective=spec, n_iter=200, rng_seed=1))
        assert trace.best_objective == pytest.approx(of_sums(trace.best_matrix.values.sum(axis=1)))
    assert McmcConfig().objective == ObjectiveSpec()
    # A non-callable f used to be accepted here and fail inside the chain.
    for bad in (2.0, "square"):
        with pytest.raises(ValueError, match="needs a function f"):
            ObjectiveSpec(bad)


def test_a_spec_with_f_minimizes_the_mean_of_f(uniform_8x3):
    # ObjectiveSpec(f=...) used to keep kind "variance" and minimize the variance.
    spec = ObjectiveSpec(f=np.square)
    assert spec == ObjectiveSpec(np.square) != ObjectiveSpec()
    assert (spec.kind, ObjectiveSpec().kind) == ("expected-convex", "variance")
    s = uniform_8x3.sum(axis=1)
    assert spec(s) == float(np.mean(s**2)) and ObjectiveSpec()(s) == float(s.var(ddof=1))
    got = mcmc_block_ra(uniform_8x3, McmcConfig(objective=spec, n_iter=200, rng_seed=1))
    ref = mcmc_block_ra(uniform_8x3, McmcConfig(objective=ObjectiveSpec(np.square),
                                                n_iter=200, rng_seed=1))
    assert got.objective_per_iter.tobytes() == ref.objective_per_iter.tobytes()
    assert np.array_equal(got.accepted, ref.accepted)
    assert got.best_matrix.values.tobytes() == ref.best_matrix.values.tobytes()
    best_sums = got.best_matrix.values.sum(axis=1)
    assert got.best_objective == pytest.approx(np.mean(best_sums**2))
    assert got.best_objective > 1.0 > best_sums.var(ddof=1)  # the mean of s^2, not the variance


# The chain as it stood before its iteration was trimmed, kept verbatim (with
# numpy's own var) as the reference the trimmed chain must match bit for bit.
# Its randomness follows the chain's block contract with its own generator calls.
def _ref_gumbel_sample(r, rng, size=None):
    u = rng.random(size)
    u = np.maximum(u, np.finfo(np.float64).tiny)
    return -np.log(-np.log(u)) / r


def _ref_propose_permutation(s_pi, noise):
    s_pi = np.asarray(s_pi, dtype=np.float64)
    m = s_pi.size
    if m == 1:
        return np.zeros(1, dtype=np.intp)
    w = noise - s_pi
    slots = np.empty(m, dtype=np.intp)
    slots[np.argsort(w, kind="stable")] = np.arange(m)
    return slots


def _ref_objective_of_sums(s, spec):
    if spec.kind == "variance":
        return float(s.var(ddof=1))
    return float(np.mean(spec.f(s)))


def _ref_draw_canonical_mask(n, rng):
    width = n - 1
    while True:
        bits = rng.integers(0, 2, size=width)
        mask = 0
        for j in np.flatnonzero(bits):
            mask |= 1 << int(j)
        if mask:
            return mask


def _replay_draws(rng, m, n, rate, count):
    # count iterations' masks, then their noise, then their uniforms.
    if n - 1 <= 62:
        masks = [int(k) for k in rng.integers(1, 1 << (n - 1), size=count)]
    else:
        masks = [_ref_draw_canonical_mask(n, rng) for _ in range(count)]
    return masks, _ref_gumbel_sample(rate, rng, (count, m)), rng.random(count).tolist()


def _ref_block_draws(rng, m, n, rate):
    # A whole block of 2^14 // (m + 2) iterations.
    return list(zip(*_replay_draws(rng, m, n, rate, max(1, (1 << 14) // (m + 2)))))


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
    draws = []
    for it in range(1, cfg.n_iter + 1 if absorbed_at is None else 1):
        if not draws:
            draws = _ref_block_draws(rng, m, n, rate)
        mask, noise, u = draws.pop(0)
        pi, comp = _mask_columns(mask, n)
        s_pi = _block_sums(list(arr.T), pi)
        s_bar = s_cur - s_pi
        slots = _ref_propose_permutation(s_pi, noise)
        order_block = np.argsort(s_bar, kind="stable")
        sigma = order_block[slots]
        s_new = s_pi + s_bar[sigma]
        f_prop = _ref_objective_of_sums(s_new, spec)
        accept = f_prop <= 0 or u * f_prop < f_cur
        if accept:
            arr[:, comp] = arr[sigma][:, comp]
            s_cur = s_new
            f_cur = f_prop
            if f_cur <= cfg.absorb_tol:  # an absorption is confirmed on the state's own row sums
                s_cur = arr.sum(axis=1)
                f_cur = _ref_objective_of_sums(s_cur, spec)
            accepted[it - 1] = True
            if f_cur < best_f:
                best_f = f_cur
                best_arr = arr.copy()
        objectives[it - 1] = f_cur
        if f_cur <= cfg.absorb_tol:
            absorbed_at = it
            break

    n_done = cfg.n_iter if absorbed_at is None else absorbed_at
    # The reported best is the objective of the best state's own row sums.
    best_f = _ref_objective_of_sums(best_arr.sum(axis=1), spec)
    return objectives[:n_done], accepted[:n_done], best_f, best_arr, absorbed_at


_REF_STARTS = {
    "8x3-shared-values": (lambda: UNIFORM_8X3, {}),
    "20x6-normal": (lambda: np.random.default_rng(6).normal(size=(20, 6)), {}),
    "tie-heavy-integer": (
        lambda: np.random.default_rng(9).integers(0, 3, size=(12, 5)).astype(float), {}),
    "expected-convex": (
        lambda: np.random.default_rng(2).normal(size=(10, 4)),
        {"objective": ObjectiveSpec(np.square)}),
    "fixed-rate": (lambda: np.random.default_rng(4).random((9, 4)), {"r": 0.75}),
    "absorbing": (lambda: np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]), {}),
    # 62-bit masks, the widest from rng.integers; 63 bits and more are rows of fair bits.
    "3x63-widest-bounded-mask": (
        lambda: np.random.default_rng(63).normal(size=(3, 63)), {"n_iter": 300}),
    "3x64-narrowest-bit-rows": (
        lambda: np.random.default_rng(64).normal(size=(3, 64)), {"n_iter": 300}),
    "3x70-wide-mask": (lambda: np.random.default_rng(70).normal(size=(3, 70)), {"n_iter": 300}),
    # 39-bit masks: numpy's bounded draw takes whole 64-bit words above 32 bits.
    "4x40-replayed-masks": (lambda: np.random.default_rng(40).normal(size=(4, 40)), {"n_iter": 300}),
    "absorbs-mid-block": (lambda: SIGMA_CM_LOCAL_MIN, {}),
    # The word budget caps each block at 5 iterations.
    "3000x3-capped-blocks": (lambda: np.random.default_rng(30).normal(size=(3000, 3)), {"n_iter": 40}),
    # Blocks of up to 11 columns, added a column at a time, while a row-major
    # sum over 8 or more columns adds pairwise, in another order.
    "16x12-normal": (lambda: np.random.default_rng(16).normal(size=(16, 12)), {}),
}


@pytest.mark.parametrize("name", sorted(_REF_STARTS))
def test_chain_matches_the_reference_loop_bit_for_bit(name):
    make, overrides = _REF_STARTS[name]
    X = make()
    cfg = McmcConfig(**{"n_iter": 2000, "rng_seed": 11, **overrides})
    objectives, accepted, best_f, best_arr, absorbed_at = _ref_mcmc(X, cfg)
    trace = mcmc_block_ra(X, cfg)
    if name == "absorbs-mid-block":
        assert 1 < absorbed_at < mcmc._BLOCK_WORDS // (X.shape[0] + 2)
    if name == "3000x3-capped-blocks":
        assert mcmc._BLOCK_WORDS // (X.shape[0] + 2) == 5
    assert trace.objective_per_iter.tobytes() == objectives.tobytes()
    assert np.array_equal(trace.accepted, accepted)
    assert float.hex(trace.best_objective) == float.hex(best_f)
    assert trace.best_matrix.values.tobytes() == best_arr.tobytes()
    assert trace.absorbed_at == absorbed_at
    assert accepted.any() or absorbed_at == 0


@pytest.mark.parametrize("name", sorted(_REF_STARTS) + ["cli-golden", "cancelling"])
def test_only_a_start_that_cancels_rescores_every_accepted_state(name, monkeypatch):
    # An ordinary start reads its own row sums only to confirm an absorption,
    # as the reference loop does; the rows that cancel at c = 1e15 rescore
    # every accepted state.
    if name in _REF_STARTS:
        make, overrides = _REF_STARTS[name]
        X, cfg = make(), McmcConfig(**{"n_iter": 2000, "rng_seed": 11, **overrides})
    elif name == "cli-golden":  # the chain of the golden mcmc report in tests/test_cli.py
        X, cfg = START_TO_LOCAL_MIN, McmcConfig(n_iter=300, rng_seed=2)
    else:
        X, cfg = _cancelling_rows(1e15), McmcConfig(n_iter=2000, rng_seed=0)
    calls = []
    row_sums = mcmc._row_sums
    monkeypatch.setattr(mcmc, "_row_sums", lambda arr: calls.append(1) or row_sums(arr))
    trace = mcmc_block_ra(X, cfg)
    if name == "cancelling":
        assert len(calls) == trace.accepted.sum() > 0
    else:
        assert len(calls) == (trace.absorbed_at not in (None, 0))


def test_resolve_rate_keeps_the_bits_of_numpys_std():
    # The reference loop calls resolve_rate itself, so the rate's bits are checked here.
    for make, _ in _REF_STARTS.values():
        X = make()
        sd = float(X.sum(axis=1).std(ddof=1))
        assert float.hex(resolve_rate(X)) == float.hex(5.0 / sd if sd > 0 else 1e12)


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


def _assert_same_draws(got, ref, rng, ref_rng):
    assert got[0] == ref[0]
    assert got[1].tobytes() == ref[1].tobytes()
    assert [float.hex(u) for u in got[2]] == [float.hex(u) for u in ref[2]]
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


@pytest.mark.parametrize("n", [*range(2, 35), 63, 64, 70])
def test_chain_draws_match_the_replay_bit_for_bit(n):
    for m, seed in itertools.product((2, 3, 8, 20), range(3)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for count in (2, 6, 64):  # consecutive blocks
            got = _chain_draws(rng, m, n, 0.75, count)
            _assert_same_draws(got, _replay_draws(ref_rng, m, n, 0.75, count), rng, ref_rng)
        assert rng.integers(1 << 40) == ref_rng.integers(1 << 40)


@pytest.mark.parametrize("n", range(2, 35))
def test_chain_draws_from_a_buffered_half_match_the_replay(n):
    for m, seed in itertools.product((2, 3, 8, 20), range(3)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for g in (rng, ref_rng):
            g.integers(1 << 20)  # a 32-bit draw buffers the high half of its word
        assert rng.bit_generator.state["has_uint32"] == 1
        for count in (2, 6, 64):  # consecutive blocks
            got = _chain_draws(rng, m, n, 0.75, count)
            _assert_same_draws(got, _replay_draws(ref_rng, m, n, 0.75, count), rng, ref_rng)
        assert rng.integers(1 << 40) == ref_rng.integers(1 << 40)


class _CountingRng:
    """A real generator whose method calls are counted by name."""

    def __init__(self, rng):
        self.rng, self.calls = rng, {}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)
        return call


@pytest.mark.parametrize("n", [64, 70])
def test_a_wide_chain_block_draws_its_masks_in_one_call(n):
    # Masks past 63 bits used to cost one generator call each (3,276 a block at m = 3).
    m = 3
    count = mcmc._BLOCK_WORDS // (m + 2)
    rng, ref_rng = _CountingRng(np.random.default_rng(5)), np.random.default_rng(5)
    got = _chain_draws(rng, m, n, 0.75, count)
    assert rng.calls == {"integers": 1, "random": 2}
    _assert_same_draws(got, _replay_draws(ref_rng, m, n, 0.75, count), rng.rng, ref_rng)


def test_chain_refuses_a_negative_objective():
    # The chain targets 1/f. A sign-changing f used to pass for "absorbed" at
    # its first negative proposal (absorbed_at=3, best -0.084 on this start).
    X = np.random.default_rng(2).normal(size=(10, 4))
    shifted = ObjectiveSpec(lambda s: s**2 - 1.0)
    with pytest.raises(ValueError, match="objective < 0 at iteration 3: the chain targets 1/f"):
        mcmc_block_ra(X, McmcConfig(objective=shifted, rng_seed=1))
    with pytest.raises(ValueError, match="objective < 0 at the start"):
        mcmc_block_ra(X, McmcConfig(objective=ObjectiveSpec(lambda s: s**2 - 100.0)))
    # Zero stays a valid, absorbing objective.
    trace = mcmc_block_ra(X, McmcConfig(objective=ObjectiveSpec(lambda s: 0.0 * s), rng_seed=1))
    assert trace.absorbed_at == 0 and trace.best_objective == 0.0


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
    for n in (2, 5, 70):
        rng = np.random.Generator(np.random.MT19937(3))
        ref_rng = np.random.Generator(np.random.MT19937(3))
        got, ref = _chain_draws(rng, 3, n, 0.75, 8), _replay_draws(ref_rng, 3, n, 0.75, 8)
        _assert_same_draws(got, ref, rng, ref_rng)
        assert rng.random() == ref_rng.random()


def test_a_shorter_chain_is_a_prefix_of_a_longer_one():
    # Every block is drawn whole, so the chain's length never shifts its draws.
    for X, seed in ((UNIFORM_8X3, 5), (np.random.default_rng(30).normal(size=(3000, 3)), 2)):
        block = mcmc._BLOCK_WORDS // (X.shape[0] + 2)  # 1638 and 5 iterations
        full = mcmc_block_ra(X, McmcConfig(n_iter=2 * block + 3, rng_seed=seed))
        assert full.absorbed_at is None
        for k in (3, block - 1, block + 1):
            part = mcmc_block_ra(X, McmcConfig(n_iter=k, rng_seed=seed))
            assert part.objective_per_iter.tobytes() == full.objective_per_iter[:k].tobytes()
            assert part.accepted.tobytes() == full.accepted[:k].tobytes()
