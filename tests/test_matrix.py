"""Core container, ranking, and countermonotone primitives."""

import warnings

import numpy as np
import pytest

from blockra.algorithms import BlockRaConfig
from blockra.dependence import _midranks
from blockra.gof import TargetDistribution
from blockra.matrix import (
    Partition,
    RearrangementMatrix,
    _mask_columns,
    counter_permutation,
    countermonotone_rearrange,
    read_matrix_csv,
    sample_variance,
    write_matrix_csv,
)
from blockra.mcmc import McmcConfig, propose_permutation
from blockra.targetfit import discretize_quantiles

from conftest import SIGMA_CM_LOCAL_MIN, COMPLETE_MIX


def test_local_min_row_sums_and_variance(local_min_4x4):
    s = local_min_4x4.sum(axis=1)
    assert np.allclose(s, [-0.2609, -0.0719, 0.1961, 0.1367], atol=1e-12)
    assert sample_variance(s) == pytest.approx(0.04346, abs=1e-4)


def test_complete_mix_variance_zero(complete_mix_4x4):
    assert sample_variance(complete_mix_4x4.sum(axis=1)) == pytest.approx(0.0, abs=1e-12)


def test_sample_variance_uses_m_minus_one():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert sample_variance(v) == pytest.approx(np.var(v, ddof=1))


class _NoNoise:
    """Generator stand-in whose uniforms are all exp(-1): every Gumbel draw is exactly 0."""

    def random(self, size=None):
        return np.full(size, np.exp(-1.0))


def _stable_first_ranks(v):
    # Without noise propose_permutation ranks -s_pi, here v, breaking ties by position.
    return propose_permutation(-np.asarray(v, dtype=float), 1.0, _NoNoise()) + 1


def test_propose_permutation_on_one_value_draws_nothing():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert propose_permutation(np.array([3.0]), 1.0, rng).tolist() == [0]
    assert rng.bit_generator.state == state


def _midranks_of(v):
    row = np.asarray(v, dtype=float)[None, :]
    order = row.argsort(axis=1)
    return _midranks(np.take_along_axis(row, order, axis=1), order)[0]


def test_midranks_tie_policies():
    assert np.array_equal(_midranks_of([3, 1, 3]), [2.5, 1.0, 2.5])
    assert np.array_equal(_stable_first_ranks([3, 1, 3]), [2, 1, 3])


def test_midranks_distinct_values_agree():
    v = np.array([0.4, -1.2, 3.3, 0.0])
    assert np.array_equal(_midranks_of(v), _stable_first_ranks(v))


def test_counter_permutation_opposes_sums():
    rng = np.random.default_rng(7)
    s_pi = rng.normal(size=30)
    s_bar = rng.normal(size=30)
    sigma = counter_permutation(s_pi, s_bar)
    assert sorted(sigma) == list(range(30))
    # pairing is countermonotone: largest target gets smallest block sum
    order = np.argsort(s_pi)
    assert np.all(np.diff(s_bar[sigma][order]) <= 0)
    assert sample_variance(s_pi + s_bar[sigma]) <= sample_variance(s_pi + s_bar) + 1e-15


def test_counter_permutation_tied_targets_keep_current_order():
    # Two tied targets: the block values they already hold stay in relative order.
    sigma = counter_permutation(np.array([1.0, 1.0, 0.0]), np.array([5.0, 7.0, 6.0]))
    assert np.array_equal(sigma, [0, 2, 1])


def test_counter_permutation_all_tied_is_identity():
    sigma = counter_permutation(np.zeros(4), np.array([3.0, 1.0, 2.0, 0.0]))
    assert np.array_equal(sigma, np.arange(4))


def test_countermonotone_rearrange_never_increases_variance(ra_stuck_4x4):
    before = sample_variance(ra_stuck_4x4.sum(axis=1))
    for mask in range(1, 8):
        pi = Partition.from_mask(mask, 4)
        out = countermonotone_rearrange(ra_stuck_4x4, pi)
        assert sample_variance(out.values.sum(axis=1)) <= before + 1e-12


def test_countermonotone_rearrange_preserves_margins(local_min_4x4):
    pi = Partition.from_mask(0b011, 4)
    out = countermonotone_rearrange(local_min_4x4, pi)
    for j in range(4):
        assert np.array_equal(np.sort(out.values[:, j]), np.sort(local_min_4x4[:, j]))


def test_matrix_validates_shape():
    with pytest.raises(ValueError):
        RearrangementMatrix(np.ones(3))
    with pytest.raises(ValueError):
        RearrangementMatrix(np.array([[np.nan, 1.0], [0.0, 2.0]]))


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 4)) * np.pi
    path = tmp_path / "mat.csv"
    write_matrix_csv(X, path)
    back = read_matrix_csv(path)
    assert np.array_equal(back.values, X)
    assert open(path).readline().count(",") == 3  # no header row


@pytest.mark.parametrize("X", [
    [[0.0, -0.0, 5e-324], [1e308, -1e308, 1 / 3]],
    np.arange(12).reshape(4, 3),
], ids=["signed-zeros-subnormal-extremes", "integers"])
def test_csv_rows_are_17_digit_joins_byte_for_byte(tmp_path, X):
    # Any lossless format passes the round trip; this pins the bytes themselves.
    path = tmp_path / "mat.csv"
    write_matrix_csv(X, path)
    rows = np.asarray(X, dtype=np.float64)
    assert path.read_bytes() == "".join(",".join("%.17g" % x for x in row) + "\n" for row in rows).encode()


def test_partition_complement_and_mask():
    pi = Partition.from_mask(0b101, 4)
    assert tuple(pi.pi) == (0, 2)
    assert tuple(pi.complement()) == (1, 3)
    assert Partition.from_mask(0b111, 4).pi == (0, 1, 2)  # the largest mask


@pytest.mark.parametrize("mask", [0, -1, 0b100, 0b101])
def test_partition_from_mask_rejects_masks_outside_the_split_range(mask):
    # n = 3 has the splits 0b01, 0b10 and 0b11 over its first two columns
    with pytest.raises(ValueError, match="no split"):
        Partition.from_mask(mask, 3)
    with pytest.raises(ValueError, match="no split"):  # and n = 0 has none
        Partition.from_mask(mask, 0)


@pytest.mark.parametrize("build, name", [
    (lambda: Partition((0,), 2.9), "n_columns"),  # used to become a 2-column split
    (lambda: Partition((0.7, 1), 3), "pi index"),  # used to become the split (0, 1)
    (lambda: Partition.from_mask(1, 2.5), "n_columns"),  # used to die inside <<
    (lambda: Partition.from_mask(1.5, 3), "mask"),
])
def test_partition_refuses_non_integer_counts_and_indices_by_name(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        build()
    assert Partition((np.int64(1),), np.int32(3)) == Partition((1,), 3)
    assert Partition.from_mask(np.int64(1), np.int8(3)) == Partition((0,), 3)


@pytest.mark.parametrize("build, message", [
    (lambda: BlockRaConfig(max_sweeps=True), "max_sweeps must be a positive integer"),  # ran one sweep
    (lambda: Partition((True,), 3), "pi index must be an integer"),  # became the split (1,)
    (lambda: McmcConfig(rng_seed=False), "rng_seed must be a nonnegative integer"),
    (lambda: discretize_quantiles(TargetDistribution.normal(), True), "m must be a positive integer"),
], ids=["BlockRaConfig", "Partition", "McmcConfig", "discretize_quantiles"])
def test_counts_refuse_bools_by_name(build, message):
    # bool is an Integral, but a flag is never a count, an index or a seed.
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("n", range(2, 10))
def test_split_of_mask_decodes_canonical_and_column_masks(n):
    full = (1 << n) - 1
    expected = {k: Partition.from_mask(k, n) for k in range(1, 1 << (n - 1))}
    for j in range(n):  # standard_ra's column j against the rest
        expected[full - (1 << j)] = Partition([i for i in range(n) if i != j], n)
    for k, part in expected.items():
        assert _mask_columns(k, n) == (part.pi, part.complement()), k
        assert _mask_columns(k, n) is _mask_columns(k, n)


def test_shared_margins_fixtures_agree():
    for j in range(4):
        assert np.array_equal(
            np.sort(SIGMA_CM_LOCAL_MIN[:, j]), np.sort(COMPLETE_MIX[:, j])
        )


def test_countermonotone_rearrange_rejects_an_overflowing_variance():
    # Finite row sums whose variance overflows: the move used to warn twice
    # and check its variance as inf <= inf.
    X = np.random.default_rng(0).normal(size=(6, 4)) * 3e155
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="row-sum variance overflows"):
            countermonotone_rearrange(X, Partition((0, 1), 4))
    assert not seen, [str(w.message) for w in seen]
