"""End-to-end tests of the command line entry point, run in process."""

import json

import numpy as np
import pytest

from blockra import (
    TargetDistribution,
    __version__,
    discretize_quantiles,
    read_matrix_csv,
    write_matrix_csv,
)
from blockra.cli import main

from conftest import COMPLETE_MIX, SIGMA_CM_LOCAL_MIN


@pytest.fixture
def matrix_file(tmp_path):
    def _write(values, name="input.csv"):
        path = tmp_path / name
        write_matrix_csv(np.asarray(values, dtype=float), path)
        return str(path)

    return _write


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_measure_exact_on_local_min(matrix_file, capsys):
    code, doc = _run(capsys, ["measure", "--input", matrix_file(SIGMA_CM_LOCAL_MIN)])
    assert code == 0
    assert doc["rho"] == pytest.approx(-1.0, abs=1e-12)
    assert doc["mode"] == "exact"
    assert doc["verb"] == "measure"
    assert doc["version"] == __version__
    # result keys precede bookkeeping keys
    keys = list(doc)
    assert keys.index("rho") < keys.index("verb") < keys.index("config")


def test_bra2_on_complete_mix(matrix_file, capsys):
    code, doc = _run(capsys, ["bra2", "--input", matrix_file(COMPLETE_MIX), "--seed", "0"])
    assert code == 0
    assert doc["final_objective"] == pytest.approx(0.0, abs=1e-24)
    assert doc["rearrangements_applied"] == 0
    assert doc["config"]["rng_seed"] == 0
    assert doc["config"]["n_sim_resolved"] >= 1


def test_reruns_are_bit_identical(matrix_file, capsys):
    path = matrix_file(SIGMA_CM_LOCAL_MIN)
    code1 = main(["bra2", "--input", path, "--seed", "11"])
    out1 = capsys.readouterr().out
    code2 = main(["bra2", "--input", path, "--seed", "11"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_file_and_trace(matrix_file, tmp_path, capsys):
    out = tmp_path / "run.json"
    trace = tmp_path / "trace.csv"
    code = main([
        "mcmc", "--input", matrix_file(SIGMA_CM_LOCAL_MIN),
        "--seed", "3", "--iterations", "500",
        "--out", str(out), "--trace-out", str(trace),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["best_objective"] <= 1e-12
    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,objective,accepted"
    assert lines[1].startswith("0,")
    assert len(lines) == doc["iterations"] + 2  # header + start row


def test_census_mode(matrix_file, capsys):
    rng = np.random.default_rng(0)
    code, doc = _run(capsys, [
        "bra2", "--input", matrix_file(rng.normal(size=(3, 3))),
        "--enumerate-starts",
    ])
    assert code == 0
    assert doc["starts"] == 36
    assert sum(b["starts"] for b in doc["limits"]) == 36


def test_oracle_modes(capsys, matrix_file):
    code, doc = _run(capsys, ["oracle", "--mode", "haus", "--m", "4", "--n", "3"])
    assert code == 0
    # total 30 over 4 rows: two rows at 7, two at 8, variance 1/3
    assert doc["min_variance"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    code, doc = _run(capsys, ["oracle", "--mode", "brute",
                              "--input", matrix_file(SIGMA_CM_LOCAL_MIN)])
    assert code == 0
    assert doc["min_variance"] == pytest.approx(0.0, abs=1e-12)
    # missing shape for haus is a usage error
    assert main(["oracle", "--mode", "haus"]) == 2
    capsys.readouterr()


def test_thresholds_verb(capsys):
    code, doc = _run(capsys, [
        "thresholds", "--test", "ks", "--target", "normal",
        "--m", "200", "--reps", "11", "--seed", "0",
    ])
    assert code == 0
    assert 0.0 < doc["threshold"] < 1.0


def test_usage_errors_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["measure"]) == 2  # --input is required
    capsys.readouterr()
    assert main(["bra2", "--input", "x.csv", "--seed", "-1"]) == 2
    capsys.readouterr()


def test_runtime_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "absent.csv")
    assert main(["measure", "--input", missing]) == 1
    err = capsys.readouterr().err
    assert "absent.csv" in err


def test_gof_verb_against_perfect_sample(tmp_path, capsys):
    from blockra import TargetDistribution, discretize_quantiles

    sums = discretize_quantiles(TargetDistribution.normal(), 2000)
    path = tmp_path / "sums.csv"
    np.savetxt(path, sums)
    code, doc = _run(capsys, [
        "gof", "--input", str(path), "--target", "normal",
        "--ks-asymptotic", "--reps", "11",
    ])
    assert code == 0
    assert doc["ks_ok"] is True
    assert doc["d_ks"] < 1e-3


def test_overflowing_row_sums_exit_1(matrix_file, capsys):
    path = matrix_file(np.full((3, 3), 1e308))
    assert main(["bra2", "--input", path, "--seed", "0"]) == 1
    assert "row 0 sums to inf" in capsys.readouterr().err


def test_fit_sum_reports_degenerate_margin_sums(capsys):
    # At m = 255 the two uniform margins pair off into constant sums, which
    # leaves no margin-sum variance to recalibrate the scale against.
    code, doc = _run(capsys, ["fit-sum", "--margins", "uniform", "--target", "uniform",
                              "--m", "255", "--seed", "1"])
    assert code == 0
    assert doc["stop_reason"] == "degenerate"
    assert doc["fitted_scale"] == 1.5


def test_fit_sum_reruns_bit_identical_and_keeps_margins(tmp_path, capsys):
    m = 500
    outs = []
    for k in range(2):
        csv_path = tmp_path / "fit.csv"
        code = main(["fit-sum", "--margins", "uniform", "--n", "2", "--target", "normal",
                     "--m", str(m), "--seed", "5", "--matrix-out", str(csv_path)])
        assert code == 0
        outs.append((capsys.readouterr().out, csv_path.read_bytes()))
    assert outs[0] == outs[1]
    doc = json.loads(outs[0][0])
    assert doc["verb"] == "fit-sum"
    assert doc["stop_reason"] in ("settled", "max-passes")
    assert 1 <= doc["iterations"] <= doc["config"]["max_passes"]
    final = read_matrix_csv(tmp_path / "fit.csv").values
    assert final.shape == (m, 3)
    unit = discretize_quantiles(TargetDistribution.uniform(-1.0, 1.0), m)
    for j in range(2):
        assert np.array_equal(np.sort(final[:, j]), doc["fitted_scale"] * unit)
    target = discretize_quantiles(TargetDistribution.normal(0.0, 1.0), m)
    assert np.array_equal(np.sort(final[:, 2]), np.sort(-target))
