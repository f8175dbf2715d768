"""Tests for the replicated benchmark harness and the start census."""

import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest

from blockra import enumerate_starts, run_table_benchmark
from blockra.bench import BenchCell, _aggregate, _run_replicate


def test_tcomp_single_cell_small():
    rep = run_table_benchmark("tcomp", replicates=10, rng_seed=1, m=10, n=4)
    assert rep.table == "tcomp" and rep.replicates == 10
    (cell,) = rep.cells
    assert (cell.m, cell.n, cell.replicates) == (10, 4, 10)
    assert 0.0 <= cell.mean_v_bra < cell.mean_v_ra
    assert cell.se_v_ra > 0.0 and cell.se_v_bra >= 0.0
    # tcomp has no oracle, so no gap columns
    assert cell.mean_gap_ra is None and cell.mean_gap_bra is None


def test_t1b_cell_reports_oracle_gaps():
    rep = run_table_benchmark("t1b", replicates=10, rng_seed=2, m=4, n=4)
    (cell,) = rep.cells
    assert cell.mean_gap_ra is not None and cell.mean_gap_bra is not None
    # gaps measure distance above the exact minimum
    assert cell.mean_gap_ra >= 0.0 and cell.mean_gap_bra >= 0.0
    assert cell.mean_gap_bra <= cell.mean_gap_ra
    assert cell.se_gap_ra is not None and cell.se_gap_ra >= 0.0


def test_t3b_known_minimum_cell():
    rep = run_table_benchmark("t3b", replicates=10, rng_seed=3, n=4)
    (cell,) = rep.cells
    assert cell.m == 10
    # zero-sum construction: the true minimum is 0, means sit above it
    assert cell.mean_v_bra >= 0.0
    assert cell.mean_v_bra < cell.mean_v_ra


@pytest.mark.parametrize("table, given, m, n", [("t1b", {"m": 4}, 4, 4), ("t3b", {"n": 6}, 10, 6)])
def test_a_single_cell_takes_its_tables_default_size(table, given, m, n):
    # t1b fills in n = 4 and t3b m = 10.
    assert (run_table_benchmark(table, replicates=10, rng_seed=1, **given)
            == run_table_benchmark(table, replicates=10, rng_seed=1, m=m, n=n))


def test_benchmark_determinism_and_jobs_merge():
    a = run_table_benchmark("tcomp", replicates=10, rng_seed=7, m=8, n=3)
    b = run_table_benchmark("tcomp", replicates=10, rng_seed=7, m=8, n=3)
    c = run_table_benchmark("tcomp", replicates=10, rng_seed=7, m=8, n=3, jobs=2)
    assert a.cells == b.cells == c.cells


def test_benchmark_validation():
    with pytest.raises(ValueError, match="unknown table"):
        run_table_benchmark("t9", replicates=10)
    with pytest.raises(ValueError, match="replicates"):
        run_table_benchmark("tcomp", replicates=5, m=10, n=4)
    with pytest.raises(ValueError, match="budget"):
        run_table_benchmark("t1b", replicates=10, m=9, n=4)
    with pytest.raises(ValueError):
        run_table_benchmark("tcomp", replicates=10, m=10)  # n missing


def test_enumerate_starts_small_grid():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 3))
    census = enumerate_starts(X)
    assert census.starts == 36  # (3!)^2 column orderings, first column fixed
    assert sum(count for _, count in census.limits) == 36
    values = [v for v, _ in census.limits]
    assert values == sorted(values)
    with pytest.raises(ValueError, match="refuse"):
        enumerate_starts(np.zeros((6, 4)))


def test_enumerate_starts_refuses_non_integer_decimals_up_front():
    # 1.5 used to run block_ra2 from the first start, then die inside round.
    X = np.random.default_rng(0).normal(size=(3, 3))
    with pytest.raises(ValueError, match="^decimals must be an integer$"):
        enumerate_starts(X, decimals=1.5)
    assert enumerate_starts(X, decimals=np.int64(-1)).limits == ((0.0, 36),)


@pytest.mark.parametrize("kwargs, name", [
    (dict(m=4.5, n=3), "m"),  # used to run and report the 4-row cell
    (dict(m=4, n=3.0), "n"),
    (dict(m=4, n=3, replicates=10.0), "replicates"),
    (dict(m=4, n=3, jobs=2.0), "jobs"),
    (dict(m=4, n=3, rng_seed=-1), "rng_seed"),
])
def test_benchmark_refuses_bad_counts_by_name(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        run_table_benchmark("tcomp", **{"replicates": 10, **kwargs})


def test_benchmark_takes_numpy_integers():
    rep = run_table_benchmark("tcomp", replicates=np.int64(10), rng_seed=np.uint8(1),
                              m=np.int32(8), n=np.int64(3), jobs=np.int8(1))
    assert rep.cells == run_table_benchmark("tcomp", replicates=10, rng_seed=1, m=8, n=3).cells


@pytest.mark.parametrize("table, m, n", [("tcomp", 10, 4), ("t1b", 4, 4)])
def test_aggregate_keeps_the_mean_and_se_of_each_stage_bit_for_bit(table, m, n):
    rows = [_run_replicate((table, m, n, 11, rep)) for rep in range(12)]
    v_ra, v_bra = np.array([r[1] for r in rows]), np.array([r[2] for r in rows])
    k = len(rows)
    expect = BenchCell(m, n, k, float(v_ra.mean()), float(v_bra.mean()),
                       float(v_ra.std(ddof=1) / math.sqrt(k)), float(v_bra.std(ddof=1) / math.sqrt(k)))
    if table == "t1b":
        gap_ra = v_ra - np.array([r[3] for r in rows])
        gap_bra = v_bra - np.array([r[3] for r in rows])
        expect = dataclasses.replace(
            expect, mean_gap_ra=float(gap_ra.mean()), mean_gap_bra=float(gap_bra.mean()),
            se_gap_ra=float(gap_ra.std(ddof=1) / math.sqrt(k)),
            se_gap_bra=float(gap_bra.std(ddof=1) / math.sqrt(k)))
    assert _aggregate(table, m, n, rows[::-1]) == expect  # merged back into replicate order


def test_tall_inputs_are_refused_by_the_budget_and_the_cap():
    # (1000!)^2 and more: both refusals used to die on Python's 4,300-digit
    # limit for printing an integer.
    with pytest.raises(ValueError, match="budget") as err:
        run_table_benchmark("t1b", 10, m=1000, n=4)
    assert "digits" not in str(err.value)
    with pytest.raises(ValueError, match="refuse") as err:
        enumerate_starts(np.zeros((1000, 3)))
    assert "digits" not in str(err.value)


def test_the_pool_starts_no_more_workers_than_chunks(monkeypatch):
    # jobs=5000 used to ask the pool for 5,000 workers, each forked at the
    # first submit.
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    rep = run_table_benchmark("tcomp", replicates=10, rng_seed=7, m=8, n=3, jobs=5000)
    assert all(w <= 2 for w in asked)  # 10 replicates make 2 chunks of 8
    assert rep.cells == run_table_benchmark("tcomp", replicates=10, rng_seed=7, m=8, n=3).cells
