"""Spearman correlation and the partition-minimum dependence measure."""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from blockra import dependence
from blockra.algorithms import BlockRaConfig, block_ra1
from blockra.bench import enumerate_starts
from blockra.dependence import (
    DependenceReport,
    _split_spearman,
    multivariate_dependence_exact,
    multivariate_dependence_sampled,
    spearman,
)
from blockra.matrix import Partition

from conftest import ref_spearman


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


def test_split_scores_repr_is_the_built_dicts(ra_stuck_4x4):
    scores = multivariate_dependence_exact(ra_stuck_4x4).per_partition
    assert repr(scores) == repr(dict(scores.items()))


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
    # Reference per-split loop: Spearman of each split's two block sums, or
    # -1 where one of them is constant.
    total = arr.sum(axis=1)
    values = []
    for pi in pis:
        s_pi = arr[:, list(pi)].sum(axis=1)
        s_bar = total - s_pi
        constant = np.ptp(s_pi) == 0 or np.ptp(s_bar) == 0
        values.append(-1.0 if constant else ref_spearman(s_pi, s_bar))
    return values


def _ref_canonical(cols, n):
    # A split is named by its block without the last column: a first block
    # holding column n - 1 gives way to its complement.
    part = Partition(cols, n)
    return part.complement() if n - 1 in part.pi else part.pi


def _ref_report(X, masks, mode):
    # Both reports as they were built before they shared one builder: the
    # exact keys from the canonical partitions, the sampled worst split
    # through Partition and its complement.
    n = X.shape[1]
    values, constant = _split_spearman(X, masks)
    keys = [_ref_canonical([j for j in range(n) if mask >> j & 1], n) for mask in masks]
    worst = int(np.argmax(values))
    return DependenceReport(
        rho=math.fsum(values) / len(keys),
        mode=mode,
        partitions_evaluated=len(keys),
        constant_splits=constant,
        worst_partition=keys[worst],
        worst_value=float(values[worst]),
        per_partition=dict(zip(keys, values.tolist())) if mode == "exact" else None,
    )


def _drawn_masks(n, n_samples, rng_seed):
    # The sampled measure's draws, one indicator row at a time.
    rng, masks = np.random.default_rng(rng_seed), []
    while len(masks) < n_samples:
        indicator = rng.integers(0, 2, size=n)
        if 0 < indicator.sum() < n:
            masks.append(sum(1 << int(j) for j in np.flatnonzero(indicator)))
    return masks


def _assert_same_report(got, ref):
    assert float.hex(got.rho) == float.hex(ref.rho)
    assert float.hex(got.worst_value) == float.hex(ref.worst_value)
    assert got == ref


@pytest.mark.parametrize("kind", ["normal", "tie-heavy", "cancelling-columns"])
@pytest.mark.parametrize("n", range(2, 13))
def test_reports_match_the_partition_built_reference(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    if kind == "normal":
        X = rng.normal(size=(9, n))
    else:  # ties everywhere; tied maxima make the first worst split the one named
        X = rng.integers(0, 3, size=(8, n)).astype(float)
    if kind == "cancelling-columns":  # columns 0 and n - 1 cancel: constant block sums
        X[:, -1] = -X[:, 0]
    exact = multivariate_dependence_exact(X)
    _assert_same_report(exact, _ref_report(X, range(1, 1 << (n - 1)), "exact"))
    for seed in range(3):
        sampled = multivariate_dependence_sampled(X, 40, rng_seed=seed)
        _assert_same_report(sampled, _ref_report(X, _drawn_masks(n, 40, seed), "sampled"))
    if kind == "cancelling-columns" and n > 2:
        assert exact.constant_splits > 0


@pytest.mark.parametrize("n", [dependence.EXACT_PARTITION_CAP, 70])
def test_reports_match_the_partition_built_reference_when_wide(n):
    rng = np.random.default_rng(n)
    if n == dependence.EXACT_PARTITION_CAP:  # a normal start and an integer one
        starts = [rng.normal(size=(6, n)), rng.integers(0, 3, size=(6, n)).astype(float)]
    else:
        starts = [rng.integers(0, 3, size=(6, n)).astype(float)]
    for X in starts:
        sampled = multivariate_dependence_sampled(X, 300, rng_seed=n)
        _assert_same_report(sampled, _ref_report(X, _drawn_masks(n, 300, n), "sampled"))
        if n > dependence.EXACT_PARTITION_CAP:
            continue
        # At the cap the reference names a strided sample of the 2^19 - 1 splits.
        exact = multivariate_dependence_exact(X)
        values, constant = _split_spearman(X, range(1, 1 << (n - 1)))
        worst = int(np.argmax(values))
        assert list(exact.per_partition.values()) == values.tolist()
        keys = list(exact.per_partition)
        probe = list(range(0, len(keys), 4099)) + [worst, len(keys) - 1]
        assert [keys[k] for k in probe] == [Partition.from_mask(k + 1, n).pi for k in probe]
        assert (exact.worst_partition, exact.worst_value) == (Partition.from_mask(worst + 1, n).pi,
                                                              float(values[worst]))
        assert float.hex(exact.rho) == float.hex(math.fsum(values) / len(values))
        assert exact.constant_splits == constant


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
    assert sampled.worst_partition == _ref_canonical(drawn[first_max], n)


@pytest.mark.parametrize("source", ["list", "generator"])
@pytest.mark.parametrize("per_chunk, count", [(4, 3), (4, 4), (4, 5), (4, 11), (1, 5)])
def test_chunk_boundaries_match_per_split_loop(monkeypatch, per_chunk, count, source):
    # Splits below, at and one above a chunk, several chunks, and chunks of
    # one split; the tie-heavy rows send some pairs to spearman mid-chunk.
    m, n = 10, 5
    monkeypatch.setattr(dependence, "_CHUNK_CELLS", per_chunk * m)
    rng = np.random.default_rng(per_chunk * 100 + count)
    X = rng.normal(size=(m, n))
    X[:4] = rng.integers(0, 3, size=(4, n))
    pis = [np.flatnonzero(rng.integers(0, 2, size=n - 1)) for _ in range(4 * count)]
    pis = [pi for pi in pis if pi.size][:count]
    assert len(pis) == count
    ref = np.array(_ref_split_values(X, pis))
    masks = [sum(1 << int(j) for j in pi) for pi in pis]
    got, constant = _split_spearman(X, masks if source == "list" else (mask for mask in masks))
    assert constant == 0
    assert got.dtype == np.float64
    assert got.tobytes() == ref.tobytes()


def test_exact_measure_is_chunk_size_independent(monkeypatch):
    X = np.random.default_rng(6).integers(0, 4, size=(9, 6)).astype(float)
    whole = multivariate_dependence_exact(X)
    for cells in (9, 27, 31 * 9):  # one split a chunk, three, exactly all 31
        monkeypatch.setattr(dependence, "_CHUNK_CELLS", cells)
        assert multivariate_dependence_exact(X) == whole


@pytest.mark.parametrize("measure", ["exact", "sampled", "block_ra1"])
def test_constant_block_sums_name_the_split(measure):
    # Columns 0 and 1 cancel, so split (0, 1) has constant block sums.  No
    # reordering of its complement rows can change the row-sum variance, so
    # it scores -1, as a countermonotone split does, and is counted.
    x = np.array([0.3, -1.2, 0.8, 2.0, -0.4, 1.1])
    rng = np.random.default_rng(9)
    X = np.column_stack([x, -x, rng.normal(size=6), rng.normal(size=6)])
    if measure == "block_ra1":  # used to end in an error, with no stop reason
        assert block_ra1(X, BlockRaConfig(rng_seed=0)).stop_reason == "dependence-threshold"
        return
    if measure == "exact":
        report = multivariate_dependence_exact(X)
        pis = list(report.per_partition)
    else:
        report = multivariate_dependence_sampled(X, 200, rng_seed=1)
        draws, pis = np.random.default_rng(1), []
        while len(pis) < 200:
            indicator = draws.integers(0, 2, size=4)
            if 0 < indicator.sum() < 4:
                pis.append(_ref_canonical(np.flatnonzero(indicator).tolist(), 4))
    ref = _ref_split_values(X, pis)
    assert report.constant_splits == pis.count((0, 1)) > 0
    assert report.rho == math.fsum(ref) / len(ref)


def test_spearman_keeps_its_own_constant_message():
    with pytest.raises(ValueError, match="undefined Spearman: first input is constant"):
        spearman(np.ones(4), np.arange(4.0))


@pytest.mark.parametrize("x, y", [([np.nan, 1.0, 2.0], [1.0, 2.0, 3.0]),
                                  ([1.0, 2.0, 3.0], [3.0, np.nan, 1.0]),
                                  ([np.nan] * 3, [1.0, 2.0, 3.0]),
                                  ([np.nan, 1.0, 2.0], [1.0, 1.0, 1.0]),
                                  ([1.0, 1.0, 1.0], [3.0, np.nan, 1.0])])
def test_spearman_rejects_nan(x, y):
    # NaN used to rank as the largest value: the first case returned -0.5.
    # It is checked before constancy, so the last two name the NaN.
    with pytest.raises(ValueError, match="^spearman: NaN has no rank$"):
        spearman(x, y)


@pytest.mark.parametrize("x, y, message", [
    ([1.0, 2.0, 3.0], [1.0, 2.0], "spearman expects two vectors of equal length"),
    ([[1.0, 2.0]], [[2.0, 1.0]], "spearman expects two vectors of equal length"),
    ([1.0], [2.0], "spearman needs at least 2 observations"),
    (np.arange(4.0), np.ones(4), "undefined Spearman: second input is constant"),
    ([np.inf] * 3, [1.0, 2.0, 3.0], "undefined Spearman: first input is constant"),
    ([1.0, 2.0, 3.0], [-np.inf] * 3, "undefined Spearman: second input is constant"),
    ([0.0, -0.0], [1.0, 2.0], "undefined Spearman: first input is constant"),
])
def test_spearman_errors_keep_their_messages(x, y, message):
    # An all-inf input is constant although its ptp is NaN, and -0.0 == 0.0.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        spearman(x, y)


def test_spearman_matches_the_per_vector_reference_on_long_tied_vectors():
    # At m = 10^6 an einsum cross term no longer rounds like np.dot.
    rng = np.random.default_rng(6)
    x = rng.integers(0, 1000, size=10**6).astype(float)
    y = x + rng.integers(0, 3, size=10**6)
    z = rng.normal(size=10**6)
    for a, b in ((x, y), (z, x)):
        assert float.hex(spearman(a, b)) == float.hex(ref_spearman(a, b))


@pytest.mark.parametrize("kind", ["integer", "rounded-normal", "constant-block"])
@pytest.mark.parametrize("n", range(4, dependence.EXACT_PARTITION_CAP + 1))
def test_split_scores_match_the_per_vector_reference(n, kind):
    # Entries 0..2 tie nearly every block sum, entries rounded to 0.1 tie some
    # and nearly tie others, and cancelling columns 0 and n - 1 make the block
    # sums of split top - 2 (columns 1..n-2 against 0 and n - 1) constant.  Up
    # to about 512 splits a start, strided over the canonical range, and the
    # last two.
    rng = np.random.default_rng([n, len(kind)])
    if kind == "rounded-normal":
        X = np.round(rng.normal(size=(8, n)), 1)
    else:
        X = rng.integers(0, 3, size=(6, n)).astype(float)
    if kind == "constant-block":
        X[:, -1] = -X[:, 0]
    top = 1 << (n - 1)
    masks = list(range(1, top - 2, max(1, top // 512))) + [top - 2, top - 1]
    scores, constant = _split_spearman(X, masks)
    ref = np.array(_ref_split_values(X, [Partition.from_mask(mask, n).pi for mask in masks]))
    assert scores.tobytes() == ref.tobytes()
    if kind == "constant-block":
        assert constant > 0


def test_exact_measure_at_the_partition_cap():
    n = dependence.EXACT_PARTITION_CAP
    X = np.random.default_rng(20).normal(size=(6, n))
    report = multivariate_dependence_exact(X)
    assert report.partitions_evaluated == len(report.per_partition) == (1 << (n - 1)) - 1
    keys = list(report.per_partition)
    values = list(report.per_partition.values())
    first_max = values.index(max(values))
    assert values.count(max(values)) > 1  # m = 6 ties the maximum, so order decides
    assert (report.worst_partition, report.worst_value) == (keys[first_max], values[first_max])
    assert report.rho == math.fsum(values) / len(values)
    # Spot-check splits across the enumeration against the per-split loop.
    probe = keys[:: 4099] + [keys[-1]]
    assert [report.per_partition[k] for k in probe] == _ref_split_values(X, probe)


def test_per_partition_is_built_on_first_read(monkeypatch):
    calls = []
    canonical = dependence._canonical_columns
    monkeypatch.setattr(dependence, "_canonical_columns", lambda n: calls.append(n) or canonical(n))
    X = np.random.default_rng(5).normal(size=(7, 6))
    report = multivariate_dependence_exact(X)
    assert calls == []
    assert len(report.per_partition) == report.partitions_evaluated == 31
    assert calls == []
    keys = list(report.per_partition)
    assert calls == [6]
    assert keys == list(canonical(6))
    assert list(report.per_partition.values()) == _split_spearman(X, range(1, 32))[0].tolist()
    assert calls == [6]


def test_per_partition_whole_reads_go_to_the_table(monkeypatch):
    # The Mapping mixins would read values(), items() and == one key at a time.
    X = np.random.default_rng(7).normal(size=(7, 6))
    table = dict(multivariate_dependence_exact(X).per_partition)
    scores = multivariate_dependence_exact(X).per_partition
    calls = []
    getitem = dependence._SplitScores.__getitem__
    monkeypatch.setattr(dependence._SplitScores, "__getitem__",
                        lambda self, key: calls.append(key) or getitem(self, key))
    assert list(scores.values()) == list(table.values())
    assert list(scores.items()) == list(table.items())
    assert scores == table and table == scores and scores == multivariate_dependence_exact(X).per_partition
    assert scores != {**table, (0,): 2.0} and scores != list(table)
    assert calls == []


def test_per_partition_is_read_only():
    X = np.random.default_rng(6).normal(size=(7, 5))
    report = multivariate_dependence_exact(X)
    with pytest.raises(TypeError):
        report.per_partition[(0,)] = 0.0
    assert report.rho == math.fsum(report.per_partition.values()) / len(report.per_partition)


def test_exact_measure_at_the_cap_holds_no_per_split_table():
    # The 2^19 - 1 key tuples and their dict take about 90 MB; the scores 4 MB.
    X = np.random.default_rng(20).normal(size=(6, dependence.EXACT_PARTITION_CAP))
    tracemalloc.start()
    try:
        report = multivariate_dependence_exact(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.partitions_evaluated == (1 << (dependence.EXACT_PARTITION_CAP - 1)) - 1
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("args, name", [
    ((3.5, 0), "n_samples"),
    ((0, 0), "n_samples"),
    ((3, -1), "rng_seed"),
    ((3, 0.5), "rng_seed"),
])
def test_sampled_measure_refuses_bad_counts_by_name(args, name):
    X = np.random.default_rng(0).normal(size=(6, 4))
    with pytest.raises(ValueError, match=f"^{name} must be "):
        multivariate_dependence_sampled(X, *args)
    assert multivariate_dependence_sampled(X, np.int64(3), np.uint8(0)).rho == \
        multivariate_dependence_sampled(X, 3, 0).rho
