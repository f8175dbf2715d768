#!/usr/bin/env python3
"""blockra benchmark: one workload per run, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload's fixed job list with tracing off, as many
times as fit in ``--seconds``, and reports the end-to-end metrics.
``--trace 1`` runs the workload once untraced, then every workload once with
spans around the calls into each module, then the layer probes, and reports
the per-layer metrics and the tracing overhead.  Either way every job's output
is checked, a digest of the outputs is printed, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, provenance and (traced) spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Recorder, patched, spans_to_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Cap BLAS threads at the cores this process may use; set before numpy loads.
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

SETUP_REPEATS = 5
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "quality": "1/decade"}
# Named figures printed beside the end-to-end metrics (see perfbench/README.md).
FIGURE_UNITS = {"bra_over_ra": "ratio", "bra_gap": "variance", "fit_ks_ratio": "ratio",
                "fit_w2_ratio": "ratio", "search_obj_log10": "log10", "failed_frac": "ratio"}
def quality_of(ratio: float) -> float:
    """One over the decades by which a headline ratio lies below 1.

    The ratios vary by orders of magnitude from seed to seed (block stages
    drive some variances to nearly 0), so their decades are what stays
    steady across inputs.  Lower is better; a ratio at or above 1 reads as
    1000, far worse than any working result.
    """
    return 1.0 / max(-math.log10(ratio), 1e-3)


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("tables", "fit", "search"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring time; the job list runs round(seconds / its nominal length) times, at least once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, print 'ready' and exit (used to time set-up)")
    return p.parse_args()


def digest_of(items: list) -> str:
    """sha256 over the exact values (floats as hex) of a workload's outputs."""
    def enc(v):
        if isinstance(v, float):
            return float.hex(v)
        if isinstance(v, (tuple, list)):
            return "(" + ",".join(enc(x) for x in v) + ")"
        if hasattr(v, "item"):  # numpy scalar
            return enc(v.item())
        return repr(v)

    return hashlib.sha256("\n".join(enc(v) for v in items).encode()).hexdigest()


def run_pass(workload, tracing: bool) -> dict:
    """Time the workload's job list once, then check every job's output."""
    rec = Recorder(tracing)
    results, errors = {}, {}
    t0 = time.perf_counter()
    with patched(rec, workload.TARGETS):
        for job, fn in workload.jobs():
            rec.job = job
            try:
                results[job] = fn(results)
            except Exception:  # a job that raises counts as failed; keep going
                errors[job] = traceback.format_exc()
    wall = time.perf_counter() - t0
    for job, result in results.items():
        try:
            problems = workload.check(job, result, [s for s in rec.spans if s.job == job])
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            errors[job] = "\n".join(problems)
    for job, msg in errors.items():
        print(f"FAILED {workload.name}/{job}: {msg}", file=sys.stderr)
    out = {"wall": wall, "recorder": rec, "attempted": len(workload.jobs()), "failed": len(errors)}
    if not errors:
        out["figures"], out["headline"], items = workload.summary(results, rec.spans)
        out["digest"] = digest_of(items)
    return out


def measure_setup(workload: str, seed: int) -> list:
    """Wall time from spawning a fresh interpreter to its inputs being ready.

    One untimed child first loads the interpreter and libraries into the
    page cache, as any run after the first finds them.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
        if line.strip() != b"ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child exited with {child.returncode}")
    return times[1:]


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    src = sorted((ROOT / "src" / "blockra").glob("*.py"))
    h = hashlib.sha256()
    for f in src:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = None
    try:
        cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                    if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
    }


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "blockra" / "__init__.py").is_file():
        print(f"error: no blockra sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    record = {"workload": args.workload, "trace": args.trace, "provenance": provenance(args.seed)}
    if args.trace:
        record.update(traced(workload, args.seed))
    else:
        record.update(untraced(workload, args.seed, args.seconds))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans))
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"provenance {json.dumps(record['provenance'])}")
    print(f"digest {args.workload} {record['digest']}")
    for line in record["listing"]:
        print(line)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def untraced(workload, seed: int, seconds: float) -> dict:
    setup_times = measure_setup(workload.name, seed)
    # The pass count follows from --seconds and the workload's nominal pass
    # length, not from the clock, so it is the same on every run and commit.
    passes = [run_pass(workload, tracing=False)
              for _ in range(max(1, round(seconds / workload.PASS_SECONDS)))]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = sorted({p.get("digest") for p in passes}, key=str)
    walls = [p["wall"] for p in passes]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": quality_of(passes[0]["headline"]) if "headline" in passes[0] else None,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    figures = dict(passes[0].get("figures") or {}, failed_frac=failed / attempted)
    listing = [f"{workload.name} {k} {v['value']!r} {v['unit']}" for k, v in metrics.items()]
    listing.append(f"{workload.name} quality is 1/-log10({workload.HEADLINE})")
    listing += [f"{workload.name} {k} {v!r} {FIGURE_UNITS[k]}" for k, v in figures.items()]
    listing.append(f"{workload.name} passes {len(walls)} walls_s {walls!r} setup_s {setup_times!r}")
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "figures": figures,
        "digest": digests[0] if len(digests) == 1 else f"MISMATCH {digests}",
        "walls_s": walls,
        "setup_times_s": setup_times,
        "listing": listing,
    }


def traced(workload, seed: int) -> dict:
    import layers
    from workloads import WORKLOADS

    # The other workloads run first so the process is warm when the own
    # workload runs untraced and then traced; their difference is the overhead.
    runs = {}
    for name, cls in WORKLOADS.items():
        if name != workload.name:
            other = cls()
            other.setup(seed)
            runs[name] = run_pass(other, tracing=True)
    plain = run_pass(workload, tracing=False)
    runs[workload.name] = run_pass(workload, tracing=True)
    values = layers.span_metrics({name: r["recorder"] for name, r in runs.items()})
    values.update(layers.probes())
    values["trace.overhead_s"] = runs[workload.name]["wall"] - plain["wall"]
    problems = layers.check_complete(values)
    for msg in problems:
        print(msg, file=sys.stderr)
    everything = [plain, *runs.values()]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    metrics = {k: {"value": values[k], "unit": layers.CATALOGUE[k][0]}
               for k in layers.CATALOGUE if k in values}
    same = plain.get("digest") is not None and plain.get("digest") == runs[workload.name].get("digest")
    listing = [
        f"layer {k} {m['value']!r} {m['unit']} moves {layers.CATALOGUE[k][3]} on {layers.CATALOGUE[k][2]}"
        for k, m in metrics.items()
    ]
    listing.append(f"trace overhead on {workload.name}: traced {runs[workload.name]['wall']!r} s"
                   f" - untraced {plain['wall']!r} s = {values['trace.overhead_s']!r} s")
    return {
        "correct": failed == 0 and not problems and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": plain.get("digest"),
        "traced_walls_s": {name: r["wall"] for name, r in runs.items()},
        "untraced_wall_s": plain["wall"],
        "spans": {name: spans_to_json(r["recorder"].spans) for name, r in runs.items()},
        "listing": listing,
    }


if __name__ == "__main__":
    sys.exit(main())
