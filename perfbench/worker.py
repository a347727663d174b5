"""One workload process: set up, run jobs for a time budget, check them.

Started by ``run.py`` with one BLAS thread; prints one JSON object as its
last line of output.  Set-up is the time from the parent's spawn call to
the first timed job: starting the interpreter, importing ``wtgp`` from
the checkout's ``src``, writing the seeded inputs and one untimed warm-up
job.  Job times exclude the output checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOBS_PER_BATCH = 8
MAX_ERRORS = 20  # messages kept; a job that raises at once may repeat many times


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="timed seconds")
    parser.add_argument("--first-job", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True, help="parent's monotonic clock at spawn")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import wtgp.cli  # the import is part of set-up

    from spans import Tracer, job_metrics
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(wtgp)
    out_dir = Path(args.out_dir)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=out_dir) as tmp:
        wl = WORKLOADS[args.workload](wtgp, args.seed, Path(tmp))
        wl.setup()
        pending = [wl.make_job((0, args.first_job + i)) for i in range(JOBS_PER_BATCH)]
        warm = wl.make_job((1, args.round))

        attempted = 0  # operations, ``wl.operations`` per job
        failed = 0  # operations that raised or hit a known fault
        errors: list[str] = []  # jobs that raised, the first MAX_ERRORS
        failures: list[str] = []  # output checks that did not hold
        known: dict[str, str] = {}  # known fault per operation, first message

        def attempt(job, label, key=None):
            """Run one job (timed, traced under ``key``), then check it."""
            nonlocal attempted, failed
            attempted += wl.operations
            if tracer is not None:
                tracer.job = key
            t0 = time.perf_counter()
            try:
                out = wl.run(job)
            except Exception as exc:  # one failed job must not end the run
                if len(errors) < MAX_ERRORS:
                    errors.append(f"{label}: {type(exc).__name__}: {exc}")
                failed += wl.operations
                return time.perf_counter() - t0, False
            finally:
                if tracer is not None:
                    tracer.job = None
            dt = time.perf_counter() - t0
            result = wl.check(job, out)
            failures.extend(f"{label}: {msg}" for msg in result)
            failed += len(result.known)
            for op, msg in result.known.items():
                known.setdefault(op, msg)
            return dt, True

        # set-up ends with the warm-up job; its check's time is outside
        # setup_s, its result counts like any job's
        warm_start = time.monotonic()
        warm_s, _ = attempt(warm, "warm-up")
        setup_s = warm_start + warm_s - args.spawned

        times: list[float] = []
        per_layer: list[dict] = []
        timed = 0.0
        k = args.first_job
        # stop at the job count whose total lands nearest the budget
        while k == args.first_job or timed * (1.0 + 0.5 / (k - args.first_job)) < args.budget:
            if not pending:
                pending = [wl.make_job((0, k + i)) for i in range(JOBS_PER_BATCH)]
            dt, ok = attempt(pending.pop(0), f"job {k}", key=k)
            timed += dt
            if ok:
                times.append(dt)
            if tracer is not None:
                per_layer.append(job_metrics(tracer.counts.pop(k, {})))
            k += 1
        if tracer is not None:
            tracer.write(out_dir / f"trace-{args.workload}-s{args.seed}-r{args.round}.jsonl")

    result = {
        "setup_s": setup_s,
        "job_times": times,
        "next_job": k,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "known": known,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_layer": per_layer,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
