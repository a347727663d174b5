"""Timings and results of the regions searches, for one tree or a parent/change pair.

    python tools/bench_regions.py measure --tree DIR --out FILE
    python tools/bench_regions.py compare --parent DIR --change DIR --out FILE \\
        [--pairs 12 --side-pairs 6 --seed 2201 --seconds 20]

``measure`` imports ``wtgp`` from ``DIR/src`` and the search workload's
fixtures from ``DIR/perfbench`` and records, in one process with one BLAS
thread:

* per fixture, the ``regions._score`` calls and the rows they scored
  over the whole search (``work``);
* per-call microseconds of ``regions._score`` and ``regions._gradient``:
  the first ladder call and the first gradient call of each search
  fixture (near-zero ``wt_capacity`` and ``gp_capacity``, the sd05 SD-WT
  and pd3 PD-IR-WT sweeps, search settings, search seed 0) are captured
  with their arguments and replayed;
* the same per-call microseconds, the search's seconds and its peak
  ``tracemalloc`` MB on non-binary GP models at the default |U| =
  |X||Z| + 1 (``gp_capacity`` of a point-to-point law's analogous model
  and an SD-GP sweep, |X| = |Z| = 3 and 4, ``default_rng(22 + n)``),
  where a cost that grows faster than |U| would show;
* criterion 05's 33-direction sweep and its delta-0.02 oracle (seconds,
  oracle points/s, Hausdorff distance), criterion 04's oracle, and the
  near-zero ``gp_capacity`` (seconds);
* every support (value, r1, r2) and capacity (value, raw value) of those
  runs and of 15 random models (``default_rng(100 + i)``: SD-WT, SD-GP
  and PD-IR-WT sweeps of 9 directions, ``gp_capacity`` of a
  point-to-point law's analogous model).

The replayed calls pass the arguments the tree's own searches passed, so
the script runs unchanged on trees whose private signatures differ.

``compare`` runs ``measure`` on both trees in fresh processes, takes the
largest |change - parent| of every recorded value, then runs alternating
``perfbench/run.py`` pairs from each tree (``--pairs`` on search,
``--side-pairs`` on trend, mc and exact), removing every ``__pycache__``
under the tree before each run.  Last it times, in two alternating
rounds, acceptance criterion 05 alone and the whole test suite of each
tree, and writes it all to one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPLAYS = 200


def _load(tree: Path):
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads  # noqa: E402  (perfbench's fixtures)

    from wtgp import channels, regions  # noqa: E402

    return regions, channels, workloads


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _captured(regions, run):
    """The first ladder ``_score`` call and the first ``_gradient`` call of
    ``run()``, with their arguments, run's result, and the ``_score`` calls
    of the whole run and the rows they scored."""
    calls = {"_score": [], "_gradient": []}
    originals = {name: getattr(regions, name) for name in calls}
    work = {"score_calls": 0, "rows_scored": 0}

    def spy(name):
        def wrapped(*args, **kwargs):
            if len(calls[name]) < 2:
                calls[name].append((args, kwargs))
            if name == "_score":
                work["score_calls"] += 1
                work["rows_scored"] += len(args[2])  # theta
            return originals[name](*args, **kwargs)

        return wrapped

    for name in calls:
        setattr(regions, name, spy(name))
    try:
        result = run()
    finally:
        for name, fn in originals.items():
            setattr(regions, name, fn)
    # the first _score call scores the starts, the second is the first ladder
    return {"_score": calls["_score"][1], "_gradient": calls["_gradient"][0]}, result, work


def _traced(run):
    """run() under ``tracemalloc``: its result, seconds and peak traced MB."""
    tracemalloc.start()
    try:
        out, secs = _timed(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, secs, peak / 2**20


def _sd_law(rng, n: int) -> np.ndarray:
    """n-ary semi-deterministic law: y1 = f(x), (y2, z) Dirichlet rows."""
    f = rng.integers(0, n, size=n)
    law = np.zeros((n, n, n, n))
    for x, row in enumerate(rng.dirichlet(np.ones(n * n), size=n)):
        law[x, f[x]] = row.reshape(n, n)
    return law


def _per_call_us(fn, args, kwargs) -> dict:
    times = []
    for _ in range(REPLAYS):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    rows = next(len(a) for a in args if isinstance(a, np.ndarray) and a.ndim == 2)  # theta
    return {"rows": rows, "median_us": round(1e6 * statistics.median(times), 2)}


def _supports(region) -> list:
    return [[s.value, s.r1, s.r2] for s in region.supports]


def _capacity(res) -> list:
    return [res.value, res.raw_value]


def measure(tree: Path) -> dict:
    regions, channels, wl = _load(tree)
    from wtgp.pmf import FinitePmf

    params = regions.SearchParams(**wl.SEARCH_PARAMS)
    values: dict[str, list] = {}
    per_call: dict[str, dict] = {}

    def analogous(model, achiever):
        p_x = np.asarray(achiever.dist.mass).sum(axis=0)
        return channels.analogous_gpbc(model, FinitePmf(p_x @ model.law.sum(axis=(1, 2))))

    work: dict[str, dict] = {}

    near = channels.WiretapModel(law=wl.near_zero_law())
    calls, wt, work["near-zero:wt_capacity"] = _captured(
        regions, lambda: regions.wt_capacity(near, params)
    )
    values["near-zero:wt_capacity"] = _capacity(wt)
    fixtures = {"near-zero:wt_capacity": calls}
    near_gp = analogous(near, wt.achiever)
    calls, gp, work["near-zero:gp_capacity"] = _captured(
        regions, lambda: regions.gp_capacity(near_gp, params)
    )
    values["near-zero:gp_capacity"] = _capacity(gp)
    fixtures["near-zero:gp_capacity"] = calls
    for name, (family, law, informed) in wl.REGIONS.items():
        model = channels.WiretapModel(law=law, informed_receiver=informed)
        calls, region, work[f"{name}:{family}"] = _captured(
            regions, lambda: regions.region_frontier(family, model, params)
        )
        values[f"{name}:{family}"] = _supports(region)
        fixtures[f"{name}:{family}"] = calls
    for fixture, calls in fixtures.items():
        for fn_name, (args, kwargs) in calls.items():
            per_call[f"{fixture}:{fn_name}"] = _per_call_us(
                getattr(regions, fn_name), args, kwargs
            )
    larger = {}
    for n in (3, 4):
        rng = np.random.default_rng(22 + n)
        p2p = rng.dirichlet(np.ones(n * n), size=n).reshape(n, n, 1, n)
        p2p_gp = channels.analogous_gpbc(channels.WiretapModel(law=p2p))
        sd_gp = channels.analogous_gpbc(channels.WiretapModel(law=_sd_law(rng, n)))
        runs = {
            f"gp{n}:gp_capacity": lambda: regions.gp_capacity(p2p_gp, params),
            f"sdgp{n}:SD-GP": lambda: regions.region_frontier("SD-GP", sd_gp, params),
        }
        for name, run in runs.items():
            (calls, result, work[name]), secs, peak = _traced(lambda: _captured(regions, run))
            is_region = hasattr(result, "supports")
            values[name] = _supports(result) if is_region else _capacity(result)
            larger[name] = {
                "u_size": regions.default_u_size(p2p_gp),
                "search_s": round(secs, 4),
                "peak_traced_mb": round(peak, 2),
                **{f"{fn}_us": _per_call_us(getattr(regions, fn), *c) for fn, c in calls.items()},
            }

    known = channels.analogous_gpbc(
        channels.WiretapModel(law=wl.KNOWN_FAULT["law"], informed_receiver=True)
    )
    _, region, work["known-fault:PD-IR-GP"] = _captured(
        regions, lambda: regions.region_frontier("PD-IR-GP", known, params)
    )
    values["known-fault:PD-IR-GP"] = _supports(region)

    gp_s = [_timed(regions.gp_capacity, near_gp, params)[1] for _ in range(5)]

    c05 = channels.WiretapModel(law=wl.random_sd_law(np.random.default_rng(0)))
    dirs = regions.sweep_directions(33)
    sweeps = [_timed(regions.region_frontier, "SD-WT", c05, None, dirs) for _ in range(3)]
    _, sweep, work["criterion-05:sweep"] = _captured(
        regions, lambda: regions.region_frontier("SD-WT", c05, None, dirs)
    )
    oracle, oracle_s = _timed(regions.brute_force_oracle, c05, "SD-WT", delta=0.02, directions=dirs)
    values["criterion-05:sweep"] = _supports(sweep)
    values["criterion-05:oracle"] = _supports(oracle)
    hd = regions.hausdorff_distance(
        [(p.r1, p.r2) for p in sweep.boundary], [(s.r1, s.r2) for s in oracle.supports]
    )
    bsc = wl.bsc
    c04 = channels.WiretapModel(law=np.einsum("xa,xc->xac", bsc(0.1), bsc(0.2))[:, :, None, :])
    o4, o4_s = _timed(regions.brute_force_oracle, c04, delta=0.02, u_size=3)
    values["criterion-04:oracle"] = [o4.value]

    rparams = regions.SearchParams(restarts=8, capacity_restarts=16, max_passes=200)
    rdirs = regions.sweep_directions(9)
    t0 = time.perf_counter()
    for i in range(15):
        rng = np.random.default_rng(100 + i)
        sd = channels.WiretapModel(law=wl.random_sd_law(rng))
        pd = channels.WiretapModel(law=wl.random_pd_law(rng), informed_receiver=True)
        p2p = channels.WiretapModel(law=rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 1, 2))
        for family, model in [
            ("SD-WT", sd), ("SD-GP", channels.analogous_gpbc(sd)), ("PD-IR-WT", pd)
        ]:
            region = regions.region_frontier(family, model, rparams, rdirs)
            values[f"random-{i}:{family}"] = _supports(region)
        p2p_gp = channels.analogous_gpbc(p2p)
        values[f"random-{i}:gp_capacity"] = _capacity(regions.gp_capacity(p2p_gp, rparams))
    random_s = time.perf_counter() - t0

    return {
        "work": work,
        "per_call": per_call,
        "non_binary": larger,
        "near_zero_gp_capacity": {
            "median_s": round(statistics.median(gp_s), 4),
            "runs_s": [round(t, 4) for t in gp_s],
            "budget_exhausted": gp.metadata["budget_exhausted"],
        },
        "criterion_05": {
            "sweep_s": round(min(t for _, t in sweeps), 4),
            "unconverged": sweep.metadata["unconverged_directions"],
            "oracle_s": round(oracle_s, 3),
            "oracle_points": oracle.grid_points,
            "oracle_points_per_s": round(oracle.grid_points / oracle_s),
            "hausdorff": hd,
        },
        "criterion_04_oracle_s": round(o4_s, 3),
        "random_models_s": round(random_s, 3),
        "values": values,
    }


def _largest_differences(parent: dict, change: dict) -> dict:
    """Largest |change - parent| per key: of the support values or
    capacities, and of the supports' vertices (r1, r2) apart."""
    out = {}
    for key, a in parent.items():
        d = np.abs(np.asarray(change[key], dtype=np.float64) - np.asarray(a, dtype=np.float64))
        if d.ndim == 2:  # supports: (value, r1, r2) rows
            out[key] = {"value": float(d[:, 0].max()), "vertex": float(d[:, 1:].max())}
        else:
            out[key] = {"value": float(d.max())}
    return out


def _clear_caches(tree: Path) -> None:
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)


def _perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    _clear_caches(tree)
    cmd = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return {"exit_status": proc.returncode, **result}


def _summary(runs: dict, better: dict) -> dict:
    out = {}
    for side in ("parent", "change"):
        rs = runs[side]
        out[side] = {
            "correct_all": all(r.get("correct", False) for r in rs),
            "attempted": sum(r.get("attempted", 0) for r in rs),
            "failed": sum(r.get("failed", 0) for r in rs),
            "exit_status": [r["exit_status"] for r in rs],
        }
        for metric in better:
            vals = [r["metrics"][metric]["value"] for r in rs]
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            out[side][metric] = {
                "median": round(float(med), 4), "q1": round(float(q1), 4),
                "q3": round(float(q3), 4), "runs": [round(v, 4) for v in vals],
            }
    for metric, direction in better.items():
        pairs = zip(runs["parent"], runs["change"])
        sign = -1.0 if direction == "lower" else 1.0
        out.setdefault("change_better_pairs", {})[metric] = sum(
            sign * (c["metrics"][metric]["value"] - p["metrics"][metric]["value"]) > 0.0
            for p, c in pairs
        )
    return out


def alternating_pairs(trees: dict, plan, seed: int, seconds: float) -> dict:
    """``perfbench/run.py`` pairs, parent and change: ``count`` pairs of each
    ``(workload, count)`` in ``plan`` at seeds ``seed``, ``seed + 1``, ...,
    with the side that runs first alternating from pair to pair."""
    better = {
        "setup_s": "lower", "job_s_p50": "lower", "jobs_per_s": "higher", "peak_rss_mb": "lower"
    }
    pairs: dict[str, dict] = {}
    i = 0
    for workload, count in plan:
        runs: dict[str, list] = {"parent": [], "change": []}
        seeds, first = [], []
        for k in range(count):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_perfbench(trees[side], workload, seed + k, seconds))
            seeds.append(seed + k)
            first.append(order[0])
            i += 1
        if count:
            pairs[workload] = {"pairs": count, "seeds": seeds, "first_side": first,
                               **_summary(runs, better)}
    return pairs


def machine() -> dict:
    return {
        "processor": platform.processor() or platform.machine(),
        "vcpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def compare(args) -> dict:
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    measured = {}
    for side, tree in trees.items():
        _clear_caches(tree)
        proc = subprocess.run(
            [sys.executable, __file__, "measure", "--tree", str(tree)],
            capture_output=True, text=True, env=env, check=True,
        )
        measured[side] = json.loads(proc.stdout)
    diffs = _largest_differences(measured["parent"]["values"], measured["change"]["values"])
    plan = [("search", args.pairs)] + [(w, args.side_pairs) for w in ("trend", "mc", "exact")]
    pairs = alternating_pairs(trees, plan, args.seed, args.seconds)
    return {
        "machine": machine(),
        "measure": measured,
        "largest_difference": {
            "value": max(d["value"] for d in diffs.values()),
            "vertex": max(d.get("vertex", 0.0) for d in diffs.values()),
            "above_1e-12": {k: d for k, d in diffs.items() if max(d.values()) > 1e-12},
            "per_key": diffs,
        },
        "perfbench": {"command": "python3 perfbench/run.py --workload W --seed S --seconds "
                      f"{args.seconds:g} --trace 0", "workloads": pairs},
        "pytest": _pytest_walls(trees, PYTEST_RUNS),
    }


PYTEST_RUNS = {
    "criterion_05": ["tests/test_acceptance.py::test_criterion_05_region_frontier"],
    "tier1": ["--continue-on-collection-errors"],
}


def _pytest_walls(trees: dict, runs: dict) -> dict:
    """Wall seconds and the summary line of each ``runs`` entry (name: pytest
    arguments) per tree, two rounds with the first tree alternating."""
    out = {name: {"parent": [], "change": []} for name in runs}
    for r in range(2):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            tree = trees[side]
            env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
            for name, extra in runs.items():
                _clear_caches(tree)
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *extra],
                    cwd=tree, capture_output=True, text=True, env=env,
                )
                lines = proc.stdout.strip().splitlines()
                out[name][side].append({
                    "wall_s": round(time.perf_counter() - t0, 2),
                    "exit_status": proc.returncode,
                    "summary": lines[-1] if lines else "",
                })
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    m = sub.add_parser("measure")
    m.add_argument("--tree", required=True)
    m.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--pairs", type=int, default=12)
    c.add_argument("--side-pairs", type=int, default=6)
    c.add_argument("--seed", type=int, default=2201)
    c.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    doc = measure(Path(args.tree).resolve()) if args.command == "measure" else compare(args)
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
