"""Smoke tests of the scripts under scripts/, run as subprocesses."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_fits_settles_both_cases_at_small_m():
    out = _run("run_fits.py", "--m", "2000")
    lines = out.splitlines()
    assert len(lines) == 2
    assert all("stop=settled" in line for line in lines), out


def test_run_fits_prints_the_same_lines_from_worker_processes():
    def results(out):  # each line less its seconds and peak RSS
        return [re.sub(r"\(\d+s, peak RSS [\d.]+ MB\)$", "", line) for line in out.splitlines()]

    inline = results(_run("run_fits.py", "--m", "2000", "--jobs", "1"))
    assert len(inline) == 2 and inline[0].startswith("U[-a,a]^2 -> N(0,1)"), inline
    assert results(_run("run_fits.py", "--m", "2000", "--jobs", "2")) == inline


def test_run_tables_prints_all_three_tables():
    out = _run("run_tables.py", "--replicates", "10")
    titles = [line.split()[0] for line in out.splitlines() if "replicates" in line]
    assert titles == ["tcomp", "t1b", "t3b"], out
    # one row per cell: 4 + 4 + 3
    assert sum(line.startswith("(") for line in out.splitlines()) == 11, out


def test_census_starts_reads_a_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0.1,0.5,0.9\n0.4,0.2,0.3\n0.7,0.8,0.6\n")
    out = _run("census_starts.py", "--input", str(path))
    # 3! ** 2 starts with the first column fixed sorted
    assert out.splitlines()[0].startswith("36 starts, "), out
    counts = [int(line.split(": ")[1].split()[0]) for line in out.splitlines()[1:]]
    assert sum(counts) == 36, out
