"""Tests for the Metropolis arrangement search."""

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
from blockra.matrix import counter_permutation
from blockra.mcmc import _gumbel_sample

from conftest import UNIFORM_8X3


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


def test_objective_variance_and_expected_convex(uniform_8x3):
    for spec, of_sums in ((ObjectiveSpec.variance(), lambda s: s.var(ddof=1)),
                          (ObjectiveSpec.expected_convex(np.square), lambda s: np.mean(s**2))):
        trace = mcmc_block_ra(uniform_8x3, McmcConfig(objective=spec, n_iter=200, rng_seed=1))
        assert trace.best_objective == pytest.approx(of_sums(trace.best_matrix.values.sum(axis=1)))
    with pytest.raises(ValueError):
        ObjectiveSpec(kind="expected-convex")
    with pytest.raises(ValueError):
        ObjectiveSpec(kind="cubic")
