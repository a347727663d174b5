"""Benchmark command: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Runs workload W of the ``wtgp`` checkout this file sits in, in
``ROUNDS`` fresh worker processes one after another (a closed loop with
one client, no worker threads, one BLAS thread).  Each worker sets up,
runs one untimed warm-up job, then timed jobs until its share of S
seconds is used, and checks every job's outputs.  The last line printed
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of a traced run with ``--trace 1``.

``--workload all`` runs the four workloads one after another and prints
every end-to-end metric of each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("search", "trend", "mc", "exact")
ROUNDS = 3
DEADLINE_S = 170.0  # every run ends within 180 s

END_TO_END = {
    "setup_s": "s",
    "job_s_p50": "s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MB",
}


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Run the worker rounds; returns (result dict, error message)."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    started = time.monotonic()
    first_job = 0
    rounds = []
    for r in range(ROUNDS):
        left = DEADLINE_S - (time.monotonic() - started)
        if left <= 0:
            return None, "out of time"
        spawned = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--budget", repr(seconds / ROUNDS), "--first-job", str(first_job),
            "--round", str(r), "--trace", str(trace),
            "--spawned", repr(spawned), "--out-dir", str(OUT),
        ]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            return None, f"round {r} did not finish within {left:.0f} s"
        if proc.returncode != 0:
            return None, f"round {r} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        rounds.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        first_job = rounds[-1]["next_job"]
    if not any(r["job_times"] for r in rounds):
        errors = "\n".join(e for r in rounds for e in r["errors"])
        return None, f"no timed job completed:\n{errors[-4000:]}"
    return rounds, None


def end_to_end(rounds) -> dict:
    times = [t for r in rounds for t in r["job_times"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "job_s_p50": statistics.median(times),
        "jobs_per_s": len(times) / sum(times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(rounds) -> dict:
    from spans import PER_LAYER

    jobs = [m for r in rounds for m in r["per_layer"]]
    out = {}
    for name, unit in PER_LAYER.items():
        vals = [j[name] for j in jobs]
        if isinstance(vals[0], list):  # (work, time) pairs pool over the run
            num = sum(v[0] for v in vals)
            den = sum(v[1] for v in vals)
            value = num / den if den > 0.0 else 0.0
        else:  # per-job figures: the median job
            value = statistics.median(vals)
        out[name] = {"value": value, "unit": unit}
    return out


def summary(workload: str, seed: int, rounds, trace: int) -> dict:
    errors = [e for r in rounds for e in r["errors"]]
    failures = [f for r in rounds for f in r["failures"]]
    for msg in errors:
        sys.stderr.write(f"perfbench: {workload}: job failed: {msg}\n")
    for msg in failures:
        sys.stderr.write(f"perfbench: {workload}: check failed: {msg}\n")
    known = {op: msg for r in rounds for op, msg in r["known"].items()}
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    e2e = end_to_end(rounds)
    jobs = sum(len(r["job_times"]) for r in rounds)
    print(f"# workload={workload} seed={seed} trace={trace} rounds={len(rounds)} "
          f"timed_jobs={jobs} attempted={attempted} failed={failed}")
    for op, msg in known.items():
        print(f"#   known fault, counted in failed: {op}: {msg}")
    for name, m in e2e.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    metrics = per_layer(rounds) if trace else e2e
    if trace:
        for name, m in metrics.items():
            print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    # a job that raised has no checked outputs
    return {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "wtgp" / "__init__.py").is_file():
        return fail(f"no wtgp sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(HERE))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        rounds, err = run_workload(name, args.seed, args.seconds, args.trace)
        if err:
            return fail(f"{name}: {err}")
        results[name] = summary(name, args.seed, rounds, args.trace)
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
