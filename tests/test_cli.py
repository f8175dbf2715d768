"""End-to-end tests of the command line entry point, run in process."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from blockra import (
    BlockRaConfig,
    FitConfig,
    McmcConfig,
    TargetDistribution,
    __version__,
    block_ra2,
    discretize_quantiles,
    mcmc_block_ra,
    read_matrix_csv,
    sample_variance,
    spearman,
    write_matrix_csv,
)
from blockra import cli
from blockra.cli import main
from blockra.oracle import make_zero_sum_normal_matrix

from conftest import (
    COMPLETE_MIX,
    RA_STUCK,
    SIGMA_CM_LOCAL_MIN,
    START_TO_GLOBAL_MIN,
    START_TO_LOCAL_MIN,
)


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


@pytest.mark.parametrize("verb", ["bra2", "mcmc"])
def test_trace_csv_matches_the_result(verb, matrix_file, tmp_path, capsys):
    path = matrix_file(START_TO_LOCAL_MIN)
    trace = tmp_path / "trace.csv"
    code, doc = _run(capsys, [verb, "--input", path, "--seed", "5", "--trace-out", str(trace)])
    assert code == 0
    mat = read_matrix_csv(path)
    if verb == "bra2":
        objectives = list(block_ra2(mat, BlockRaConfig(rng_seed=5)).objective_trace)
        accepted = [0] + [int(b < a) for a, b in zip(objectives, objectives[1:])]
    else:
        chain = mcmc_block_ra(mat, McmcConfig(rng_seed=5))
        objectives = [sample_variance(mat.values.sum(axis=1)), *chain.objective_per_iter]
        accepted = [0, *chain.accepted.astype(int)]
    assert 0 in accepted[1:] and 1 in accepted[1:]  # the case tells the two apart
    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,objective,accepted"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(objectives)))
    assert [float(r[1]) for r in rows] == objectives
    assert [int(r[2]) for r in rows] == accepted
    assert float(rows[0][1]) == doc["start_objective"]
    expect = "iter,objective,accepted\n" + "".join(
        f"{k},{obj:.17g},{acc}\n" for k, (obj, acc) in enumerate(zip(objectives, accepted)))
    assert trace.read_bytes() == expect.encode()  # the writer's bytes, not just its values


def test_mcmc_absorbing_start_runs_no_iteration(matrix_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, doc = _run(capsys, ["mcmc", "--input", matrix_file(COMPLETE_MIX),
                              "--trace-out", str(trace)])
    assert code == 0
    assert (doc["iterations"], doc["acceptance_rate"], doc["absorbed_at"]) == (0, 0.0, 0)
    assert trace.read_text().splitlines() == [
        "iter,objective,accepted", f"0,{doc['start_objective']:.17g},0"]


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


@pytest.mark.parametrize("verb", ["bra1", "bra2"])
def test_n_sim_resolved_counts_the_splits_that_ran(verb, matrix_file, capsys):
    # A 6x4 matrix has 7 canonical splits; asking for 1000 runs those 7.
    path = matrix_file(np.random.default_rng(6).normal(size=(6, 4)))
    code, doc = _run(capsys, [verb, "--input", path, "--n-sim", "1000"])
    assert code == 0
    assert doc["config"]["n_sim"] == 1000
    assert doc["config"]["n_sim_resolved"] == 7


@pytest.mark.parametrize("flag", ["--matrix-out", "--trace-out"])
def test_census_rejects_output_flags(flag, matrix_file, tmp_path, capsys):
    # The census writes no matrix or trace, so asking for one is a usage error.
    target = tmp_path / "out.csv"
    path = matrix_file(np.random.default_rng(0).normal(size=(3, 3)))
    assert main(["bra2", "--input", path, "--enumerate-starts", flag, str(target)]) == 2
    assert "--enumerate-starts" in capsys.readouterr().err
    assert not target.exists()


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
    # options an algorithm never reads are not offered
    assert main(["ra", "--input", "x.csv", "--n-sim", "5"]) == 2
    capsys.readouterr()
    assert main(["bra1", "--input", "x.csv", "--improvement-tol", "1e-9"]) == 2
    capsys.readouterr()
    assert main(["fit-sum", "--margins", "normal", "--target", "uniform", "--m", "50",
                 "--initial-scale", "0.8"]) == 2
    capsys.readouterr()
    assert main(["bench", "--table", "t2b"]) == 2
    assert "invalid choice: 't2b' (choose from 'tcomp', 't1b', 't3b')" in capsys.readouterr().err


def test_bad_inputs_exit_2(matrix_file, tmp_path, capsys):
    path = matrix_file(SIGMA_CM_LOCAL_MIN)
    assert main(["bra2", "--input", path, "--seed", "1.5"]) == 2
    assert "not an integer" in capsys.readouterr().err
    column, two_columns, short = (tmp_path / name for name in ("col.csv", "two.csv", "short.csv"))
    np.savetxt(column, np.linspace(-1.0, 1.0, 8))
    np.savetxt(two_columns, np.ones((8, 2)), delimiter=",")
    np.savetxt(short, np.linspace(-1.0, 1.0, 7))
    assert main(["spread", "--fp", str(two_columns), "--fg", str(column), "--fs", str(column)]) == 2
    assert "--fp must be a single-column CSV" in capsys.readouterr().err
    assert main(["spread", "--fp", str(column), "--fg", str(column), "--fs", str(short)]) == 2
    assert "fp=8 fg=8 fs=7" in capsys.readouterr().err
    assert main(["oracle", "--mode", "brute"]) == 2
    assert "needs --input" in capsys.readouterr().err


def _same_margins(a, b):
    return np.array_equal(np.sort(a, axis=0), np.sort(b, axis=0))


@pytest.mark.parametrize("argv", [
    ["mcmc", "--input", "{local}", "--seed", "2", "--iterations", "300"],
    ["oracle", "--mode", "brute", "--input", "{local}"],
    ["oracle", "--mode", "haus", "--m", "5", "--n", "3"],
    ["oracle", "--mode", "zerosum", "--m", "5", "--n", "3", "--seed", "2"],
])
def test_matrix_out_reads_back_with_the_margins(argv, matrix_file, tmp_path, capsys):
    local = matrix_file(START_TO_LOCAL_MIN)
    out = tmp_path / "out.csv"
    code, doc = _run(capsys, [a.format(local=local) for a in argv] + ["--matrix-out", str(out)])
    assert code == 0
    got = read_matrix_csv(out).values
    if argv[0] == "mcmc" or argv[2] == "brute":
        assert _same_margins(got, START_TO_LOCAL_MIN)
        best = doc["best_objective" if argv[0] == "mcmc" else "min_variance"]
        assert sample_variance(got.sum(axis=1)) == pytest.approx(best, abs=1e-12)
    elif argv[2] == "haus":
        assert _same_margins(got, np.tile(np.arange(1.0, 6.0)[:, None], (1, 3)))
    else:
        assert got.tobytes() == make_zero_sum_normal_matrix(5, 3, rng_seed=2).values.tobytes()


def test_emit_joint_writes_the_fitted_pair(tmp_path, capsys):
    full, joint = tmp_path / "full.csv", tmp_path / "joint.csv"
    assert main(["fit-sum", "--margins", "normal", "--target", "uniform", "--m", "200",
                 "--seed", "1", "--matrix-out", str(full), "--emit-joint", str(joint)]) == 0
    capsys.readouterr()
    assert read_matrix_csv(joint).values.tobytes() == read_matrix_csv(full).values[:, :2].tobytes()

    tables = {}
    for name, sigma in (("fp", 1.0), ("fg", 0.5), ("fs", 1.25 ** 0.5)):
        tables[name] = discretize_quantiles(TargetDistribution.normal(0.0, sigma), 40)
        np.savetxt(tmp_path / f"{name}.csv", tables[name])
    code, doc = _run(capsys, ["spread", "--fp", str(tmp_path / "fp.csv"),
                              "--fg", str(tmp_path / "fg.csv"), "--fs", str(tmp_path / "fs.csv"),
                              "--emit-joint", str(joint)])
    assert code == 0
    pair = read_matrix_csv(joint).values
    assert pair.shape == (40, 2) and doc["rows"] == 40
    assert _same_margins(pair, np.column_stack([tables["fp"], tables["fg"]]))
    assert doc["rho_joint"] == spearman(pair[:, 0], pair[:, 1])


def test_runtime_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "absent.csv")
    assert main(["measure", "--input", missing]) == 1
    err = capsys.readouterr().err
    assert "absent.csv" in err
    # The asymptotic KS level used to divide by sqrt(0) first.
    values = tmp_path / "v.csv"
    np.savetxt(values, np.linspace(-1.0, 1.0, 50))
    assert main(["gof", "--input", str(values), "--target", "normal", "--m", "0",
                 "--ks-asymptotic"]) == 1
    assert capsys.readouterr().err.strip() == "error: m must be positive"


def test_gof_refuses_a_non_finite_sum(tmp_path, capsys, monkeypatch):
    # It used to print "d_ks": NaN, which is not JSON, and exit 0, and then
    # to simulate the thresholds before refusing the sample.
    simulated = []
    real = cli.default_thresholds
    monkeypatch.setattr(cli, "default_thresholds",
                        lambda *a, **k: simulated.append(a) or real(*a, **k))
    path = tmp_path / "nan.csv"
    path.write_text("0.1\n-0.4\nnan\n0.9\n0.2\n")
    assert main(["gof", "--input", str(path), "--target", "normal", "--reps", "11"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "finite" in err
    assert simulated == []


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


def test_nan_tolerances_exit_1(matrix_file, capsys):
    # A NaN tolerance would never stop a pass; it is refused before the run.
    path = matrix_file(np.ones((3, 3)))
    assert main(["bra2", "--input", path, "--improvement-tol", "nan"]) == 1
    assert "improvement_tol" in capsys.readouterr().err
    assert main(["mcmc", "--input", path, "--absorb-tol", "nan"]) == 1
    assert "absorb_tol" in capsys.readouterr().err


def test_overflowing_row_sums_exit_1(matrix_file, capsys):
    path = matrix_file(np.full((3, 3), 1e308))
    assert main(["bra2", "--input", path, "--seed", "0"]) == 1
    assert "row 0 sums to inf" in capsys.readouterr().err
    # Finite row sums whose variance overflows used to print Infinity.
    path = matrix_file(np.random.default_rng(0).normal(size=(6, 4)) * 3e155)
    assert main(["bra2", "--input", path, "--seed", "0"]) == 1
    assert "row-sum variance overflows" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["measure", "mcmc", "ra", "bra1", "bra2", "oracle --mode brute"])
def test_overflowing_row_sum_variance_exits_1_without_warnings(matrix_file, capsys, verb):
    # measure used to print "row_sum_variance": Infinity, mcmc leaked a
    # RuntimeWarning and oracle exited on its bookkeeping assertion.
    path = matrix_file(np.random.default_rng(0).normal(size=(6, 4)) * 3e155)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main([*verb.split(), "--input", path]) == 1
    assert not seen, [str(w.message) for w in seen]
    assert "row-sum variance overflows" in capsys.readouterr().err


def test_oracle_refuses_overflowing_pair_scores_with_exit_1(matrix_file, capsys):
    c = 1e308
    path = matrix_file(np.array([[c, -c, c, -c], [-c, c, -c, c], [1, 2, 3, 4], [0.5, 0.1, 0.2, 0.3]]))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["oracle", "--input", path]) == 1
    assert not seen, [str(w.message) for w in seen]
    assert "the pair scores overflow" in capsys.readouterr().err


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


# ------------------------------------------------------------ golden reports

# Every verb on small fixed inputs, run in a directory holding the files
# that _write_golden_inputs makes.  The reports recorded from them live in
# tests/data/cli_reports.json.
GOLDEN_CASES = {
    "ra": ["ra", "--input", "stuck.csv", "--max-sweeps", "50",
           "--matrix-out", "ra.csv", "--trace-out", "ra_trace.csv"],
    "bra1": ["bra1", "--input", "local.csv", "--seed", "3", "--rho-stop", "-0.99"],
    "bra2": ["bra2", "--input", "global.csv", "--seed", "5", "--n-sim", "3",
             "--improvement-tol", "1e-10"],
    "bra2-census": ["bra2", "--input", "small3.csv", "--enumerate-starts", "--seed", "1"],
    "mcmc": ["mcmc", "--input", "local.csv", "--seed", "2", "--iterations", "300"],
    "oracle-brute": ["oracle", "--mode", "brute", "--input", "global.csv"],
    "oracle-haus": ["oracle", "--mode", "haus", "--m", "5", "--n", "3"],
    "oracle-zerosum": ["oracle", "--mode", "zerosum", "--m", "5", "--n", "3", "--seed", "2"],
    "measure-exact": ["measure", "--input", "stuck.csv", "--mode", "exact"],
    "measure-sampled": ["measure", "--input", "wide.csv", "--mode", "sampled",
                        "--n-samples", "40", "--seed", "4"],
    "fit-sum": ["fit-sum", "--margins", "uniform", "--target", "normal", "--m", "500",
                "--seed", "5"],
    "spread": ["spread", "--fp", "fp.csv", "--fg", "fg.csv", "--fs", "fs.csv",
               "--seed", "1", "--max-passes", "200"],
    "gof": ["gof", "--input", "sums.csv", "--target", "normal", "--reps", "11", "--seed", "2"],
    "thresholds": ["thresholds", "--test", "w2", "--target", "uniform", "--m", "200",
                   "--reps", "11", "--seed", "1"],
    "bench": ["bench", "--table", "t1b", "--replicates", "10", "--m", "4", "--n", "4"],
}

# The options of each verb under their JSON names: a report's config may
# echo any of them on top of the keys recorded in the golden file.
_REARRANGE_OPTIONS = {"input", "max_sweeps", "matrix_out", "trace_out"}
VERB_OPTIONS = {
    "ra": _REARRANGE_OPTIONS,
    "bra1": _REARRANGE_OPTIONS | {"n_sim", "rho_stop", "rng_seed"},
    "bra2": _REARRANGE_OPTIONS | {"n_sim", "improvement_tol", "rng_seed", "enumerate_starts"},
    "mcmc": {"input", "rng_seed", "n_iter", "r", "absorb_tol", "matrix_out", "trace_out"},
    "oracle": {"mode", "input", "max_arrangements", "m", "n", "rng_seed", "matrix_out"},
    "measure": {"input", "mode", "n_samples", "rng_seed"},
    "fit-sum": {"margins", "n", "target", "m", "rng_seed", "n_sim", "rel_tol", "max_passes",
                "matrix_out", "emit_joint"},
    "spread": {"fp", "fg", "fs", "rng_seed", "max_passes", "emit_joint"},
    "gof": {"input", "target", "m", "ks_asymptotic", "reps", "rng_seed"},
    "thresholds": {"test", "target", "m", "reps", "rng_seed"},
    "bench": {"table", "replicates", "rng_seed", "m", "n", "jobs"},
}

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "cli_reports.json"


def _write_golden_inputs(directory: Path) -> None:
    for name, values in (
        ("stuck.csv", RA_STUCK),
        ("local.csv", START_TO_LOCAL_MIN),
        ("global.csv", START_TO_GLOBAL_MIN),
        ("small3.csv", np.random.default_rng(0).normal(size=(3, 3))),
        ("wide.csv", np.random.default_rng(1).normal(size=(10, 6))),
    ):
        write_matrix_csv(values, directory / name)
    for name, sigma in (("fp.csv", 1.0), ("fg.csv", 0.5), ("fs.csv", 1.25 ** 0.5)):
        np.savetxt(directory / name, discretize_quantiles(TargetDistribution.normal(0.0, sigma), 40))
    np.savetxt(directory / "sums.csv", np.random.default_rng(2).normal(size=300))


def golden_reports() -> dict:
    """Run every golden case in the working directory; case id -> parsed JSON report."""
    _write_golden_inputs(Path("."))
    reports = {}
    for case, argv in GOLDEN_CASES.items():
        assert main(argv + ["--out", "report.json"]) == 0, case
        reports[case] = json.loads(Path("report.json").read_text())
    return reports


def _assert_golden(got: dict) -> None:
    """The reports ``got`` (case id -> parsed JSON) read the recorded values."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(got) == sorted(golden)
    for case, expected in golden.items():
        report = dict(got[case])
        config = report.pop("config")
        expected_config = expected["config"]
        assert report == {k: v for k, v in expected.items() if k != "config"}, case
        assert list(report) == [k for k in expected if k != "config"], case  # key order too
        for key, value in expected_config.items():
            assert key in config and config[key] == value, (case, key)
        extra = set(config) - set(expected_config)
        assert extra <= VERB_OPTIONS[report["verb"]], (case, sorted(extra))


def test_verb_reports_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _assert_golden(golden_reports())


try:
    from numpy._core._multiarray_umath import __cpu_features__ as _CPU_FEATURES
except ImportError:
    _CPU_FEATURES = {}
_AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


@pytest.mark.skipif(not all(_CPU_FEATURES.get(f) for f in _AVX512),
                    reason="numpy reports no AVX-512 dispatch to turn off")
def test_verb_reports_do_not_depend_on_the_cpu_dispatch(tmp_path):
    # numpy's default argsort orders tied keys by the SIMD kernel it picks;
    # with AVX-512 dispatch turned off every verb must still print the
    # recorded report.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_AVX512))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "tests"), env.get("PYTHONPATH")]))
    code = ("import json, pathlib, test_cli; "
            "pathlib.Path('reports.json').write_text(json.dumps(test_cli.golden_reports()))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _assert_golden(json.loads((tmp_path / "reports.json").read_text()))


_EVERY_FLAG = {  # verb -> (library call, flags setting every config field it offers, its config)
    "ra": ("standard_ra", ["--max-sweeps", "7"], BlockRaConfig(max_sweeps=7)),
    "bra1": ("block_ra1", ["--max-sweeps", "7", "--n-sim", "3", "--rho-stop", "-0.5",
                           "--seed", "9"],
             BlockRaConfig(max_sweeps=7, n_sim=3, rho_stop=-0.5, rng_seed=9)),
    "bra2": ("block_ra2", ["--max-sweeps", "7", "--n-sim", "3", "--improvement-tol", "1e-6",
                           "--seed", "9"],
             BlockRaConfig(max_sweeps=7, n_sim=3, improvement_tol=1e-6, rng_seed=9)),
    "mcmc": ("mcmc_block_ra", ["--iterations", "50", "--rate", "2.5", "--absorb-tol", "1e-3",
                               "--seed", "9"],
             McmcConfig(n_iter=50, r=2.5, absorb_tol=1e-3, rng_seed=9)),
    "fit-sum": ("fit_sum_to_target", ["--margins", "uniform", "--target", "normal", "--m", "50",
                                      "--n-sim", "1", "--rel-tol", "1e-4", "--max-passes", "7",
                                      "--seed", "9"],
                FitConfig(n_sim=1, rel_tol=1e-4, max_passes=7, rng_seed=9)),
    "spread": ("spread_dependence", ["--fp", "fp.csv", "--fg", "fg.csv", "--fs", "fs.csv",
                                     "--max-passes", "7", "--seed", "9"],
               FitConfig(max_passes=7, rng_seed=9)),
}


@pytest.mark.parametrize("verb", sorted(_EVERY_FLAG))
def test_every_config_flag_reaches_its_config(verb, tmp_path, monkeypatch, capsys):
    call, flags, expected = _EVERY_FLAG[verb]
    # The flags cover every config field the verb offers, each off its default.
    offered = VERB_OPTIONS[verb] & {f.name for f in dataclasses.fields(expected)}
    assert {f.name for f in dataclasses.fields(expected)
            if getattr(expected, f.name) != f.default} == offered
    monkeypatch.chdir(tmp_path)
    _write_golden_inputs(tmp_path)
    seen = []

    def record(*args):
        seen.append(args[-1])
        raise RuntimeError("recorded")

    monkeypatch.setattr(cli, call, record)
    inputs = [] if verb in ("fit-sum", "spread") else ["--input", "local.csv"]
    assert main([verb, *inputs, *flags]) == 1
    assert capsys.readouterr().err == "error: recorded\n"
    assert seen == [expected]


def test_the_cli_starts_without_scipy_or_a_process_pool():
    # Verbs that never touch a normal law or a pool load neither.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, blockra.cli; print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('scipy', 'multiprocessing') or m.startswith('concurrent.futures')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
