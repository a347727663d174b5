"""Decode-table and Monte Carlo stage timings, for one tree or a parent/change pair.

    python tools/bench_mc.py measure --tree DIR [--reps 5] [--out FILE]
    python tools/bench_mc.py compare --parent DIR --change DIR --out FILE \\
        [--rounds 3 --pairs 10 --side-pairs 3 --claim mc --seed 2301 --seconds 20]

``measure`` imports ``wtgp`` from ``DIR/src`` and the ``mc`` and ``trend``
fixtures from ``DIR/perfbench`` and, in one process with one BLAS
thread, counts each fixture's trials the way ``wtgp simulate --mc``
does: per blocklength, one codebook (seed 99) and its decode tables, then
``codes._mc_batches`` over the fixture's trials in its batches, at
trial seed 5, with the two views of a trend run.  It records:

* ``decode_table_s``: per blocklength, the seconds of the public
  ``superposition_code`` call that builds both decode tables (median of
  ``--reps`` calls on the same codebook);
* ``counting_s``: the seconds of the counting alone, summed over the
  blocklengths (median of ``--reps`` untraced runs, and every run);
* ``stage_us_per_block``: one traced run split into stages, in
  microseconds per trial block.  The tree's ``_trial_block_rng``,
  ``_skip_uniforms``, ``_letter_draws`` and ``_mc_draws`` are wrapped, and
  the block generator they return is wrapped in a proxy that times its
  ``integers``, ``random`` and ``bit_generator.random_raw``.  The stages
  are "block generator", "integer draws", "channel words" (drawn or
  skipped), "letter decisions", the untimed gap before the channel words
  ("codeword gather"), the gap after the last letter decision up to the
  yield ("flat indices and decode"), the counter's time between yields
  ("view counts") and the time from a block's request to its generator
  ("setup": per-call tables in the first block, loop arithmetic after).
  Any other gap goes to "other".  The proxies
  cost about a microsecond a call, so the stages add up to a little more
  than ``counting_s``;
* ``digest``: a sha256 of every count array, so two trees that count
  the same trials show the same digest.

Only names both stream versions share are wrapped, so the script runs
unchanged on trees whose kernels differ.

``compare`` runs ``measure`` ``--rounds`` times per tree in fresh
processes, alternating which tree goes first, checks that the digests
agree, then runs alternating ``perfbench/run.py`` pairs from each tree
(``--pairs`` on the ``--claim`` workload, ``--side-pairs`` on the other
three), removing every ``__pycache__`` under the tree before each run.
Last it times, in two alternating rounds, acceptance criterion 09 alone
and the whole test suite of each tree, and writes it all to one JSON
file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench_regions import _clear_caches, _pytest_walls, alternating_pairs, machine

TRIAL_SEED = 5
CODE_SEED = 99
VIEWS = [("m1", "m2", "mh1", "mh2"), ("m1", "m2", "z")]
STAGES = (
    "setup", "block generator", "integer draws", "codeword gather", "channel words",
    "letter decisions", "flat indices and decode", "view counts", "other",
)


def _load(tree: Path):
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads  # noqa: E402  (perfbench's fixtures)

    from wtgp import channels, codes, pmf  # noqa: E402

    return codes, channels, pmf, workloads


class _Timeline:
    """(stage, start, end) of every outermost wrapped call, in order."""

    def __init__(self) -> None:
        self.events: list[tuple[str, float, float]] = []
        self.depth = 0

    def timed(self, stage: str, fn):
        def wrapped(*args, **kwargs):
            self.depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                if not self.depth:
                    self.events.append((stage, t0, time.perf_counter()))

        return wrapped

    def mark(self, stage: str) -> None:
        t = time.perf_counter()
        self.events.append((stage, t, t))


class _TimedBitGenerator:
    def __init__(self, bg, line: _Timeline) -> None:
        self._bg = bg
        self.random_raw = line.timed("channel words", bg.random_raw)
        self.advance = bg.advance

    @property
    def state(self):
        return self._bg.state


class _TimedGenerator:
    def __init__(self, rng, line: _Timeline) -> None:
        self.rng = rng
        self.integers = line.timed("integer draws", rng.integers)
        self.random = line.timed("channel words", rng.random)
        self.bit_generator = _TimedBitGenerator(rng.bit_generator, line)


def _traced(codes, run) -> tuple[dict, int]:
    """Run ``run()`` with the counter's stages wrapped; stage seconds and blocks."""
    line = _Timeline()
    names = ("_trial_block_rng", "_skip_uniforms", "_letter_draws", "_mc_draws")
    originals = {name: getattr(codes, name) for name in names}
    block_rng = line.timed("block generator", originals["_trial_block_rng"])

    def draws(*args, **kwargs):
        gen = originals["_mc_draws"](*args, **kwargs)
        while True:
            line.mark("next")
            try:
                item = next(gen)
            except StopIteration:
                return
            line.mark("yield")
            yield item

    def timed_block_rng(seed, block, *reused):
        # a tree that moves one generator from block to block passes it back
        inner = [r.rng if isinstance(r, _TimedGenerator) else r for r in reused]
        return _TimedGenerator(block_rng(seed, block, *inner), line)

    codes._trial_block_rng = timed_block_rng
    codes._skip_uniforms = line.timed("channel words", originals["_skip_uniforms"])
    codes._letter_draws = line.timed("letter decisions", originals["_letter_draws"])
    codes._mc_draws = draws
    try:
        run(line)
    finally:
        for name, fn in originals.items():
            setattr(codes, name, fn)
    return _stages(line.events)


def _stages(events) -> tuple[dict, int]:
    """Seconds per stage; a gap between two events goes to the stage its
    neighbours name (see the module docstring)."""
    out = dict.fromkeys(STAGES, 0.0)
    blocks = 0
    for (prev, _, end), (stage, start, stop) in zip(events, events[1:]):
        if stage not in ("next", "yield", "done"):
            out[stage] += stop - start
        gap = start - end
        if prev == "next":
            gap_stage = "setup"
        elif stage == "channel words" and prev in ("integer draws", "channel words"):
            gap_stage = "codeword gather"
        elif stage == "yield":
            gap_stage = "flat indices and decode"
            blocks += 1
        elif prev in ("yield", "done"):
            gap_stage = "view counts"
        else:
            gap_stage = "other"
        out[gap_stage] += gap
    return out, blocks


def _fixture(codes, channels, pmf, cls, reps: int):
    """The fixture's model, its code per blocklength, and the median
    seconds of ``superposition_code`` per blocklength."""
    model = channels.WiretapModel(law=cls.law, informed_receiver=cls.informed)
    p_ux = np.asarray(cls.sim["p_ux"], dtype=np.float64)
    joint = pmf.JointPmf([pmf.Axis("u", p_ux.shape[0]), pmf.Axis("x", p_ux.shape[1])], p_ux)
    rates = codes.CodeRates(**cls.sim["rates"])
    built, table_s = [], {}
    for n in cls.sim["n_list"]:
        cb = codes.sample_codebook(joint, n, rates, CODE_SEED)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            code = codes.superposition_code(cb, model, cls.sim["eps"])
            times.append(time.perf_counter() - t0)
        built.append(code)
        table_s[str(n)] = round(statistics.median(times), 5)
    return model, built, table_s


def measure(tree: Path, reps: int) -> dict:
    codes, channels, pmf, wl = _load(tree)
    out = {}
    for cls in (wl.MonteCarlo, wl.Trend):
        model, built, table_s = _fixture(codes, channels, pmf, cls, reps)
        per = cls.trials // cls.sim["batches"]
        edges = range(0, per * cls.sim["batches"] + 1, per)

        def run(line=None):
            digest = hashlib.sha256()
            for code in built:
                for counts in codes._mc_batches(code, model, edges, TRIAL_SEED, VIEWS):
                    if line is not None:  # a traced run leaves out the hashing
                        line.mark("done")
                        continue
                    for c in counts:
                        digest.update(c.astype("<i8").tobytes())
            return digest.hexdigest()

        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            digest = run()
            times.append(time.perf_counter() - t0)
        stages, blocks = _traced(codes, run)
        out[cls.name] = {
            "n_list": cls.sim["n_list"],
            "trials": per * cls.sim["batches"],
            "blocks": blocks,
            "decode_table_s": table_s,
            "counting_s": round(statistics.median(times), 4),
            "counting_runs_s": [round(t, 4) for t in times],
            "stage_us_per_block": {k: round(1e6 * v / blocks, 2) for k, v in stages.items()},
            "digest": digest,
        }
    return out


def compare(args) -> dict:
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    measured: dict[str, list] = {"parent": [], "change": []}
    for r in range(args.rounds):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            _clear_caches(trees[side])
            proc = subprocess.run(
                [sys.executable, __file__, "measure", "--tree", str(trees[side]),
                 "--reps", str(args.reps)],
                capture_output=True, text=True, env=env, check=True,
            )
            measured[side].append(json.loads(proc.stdout))
    summary = {}
    for fixture in measured["parent"][0]:
        summary[fixture] = {
            "same_counts": len({m[fixture]["digest"] for ms in measured.values() for m in ms}) == 1,
            **{
                side: {
                    "decode_table_s": {
                        n: statistics.median(m[fixture]["decode_table_s"][n] for m in ms)
                        for n in ms[0][fixture]["decode_table_s"]
                    },
                    "counting_s": statistics.median(m[fixture]["counting_s"] for m in ms),
                    "stage_us_per_block": {
                        stage: statistics.median(m[fixture]["stage_us_per_block"][stage] for m in ms)
                        for stage in STAGES
                    },
                }
                for side, ms in measured.items()
            },
        }
    plan = [(args.claim, args.pairs)] + [
        (w, args.side_pairs) for w in ("mc", "trend", "search", "exact") if w != args.claim
    ]
    return {
        "machine": machine(),
        "measure": {"summary": summary, "rounds": measured},
        "perfbench": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds "
            f"{args.seconds:g} --trace 0",
            "workloads": alternating_pairs(trees, plan, args.seed, args.seconds),
        },
        "pytest": _pytest_walls(trees, PYTEST_RUNS),
    }


PYTEST_RUNS = {
    "criterion_09": ["tests/test_acceptance.py::test_criterion_09_blocklength_trend"],
    "tier1": ["--continue-on-collection-errors"],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    m = sub.add_parser("measure")
    m.add_argument("--tree", required=True)
    m.add_argument("--reps", type=int, default=5)
    m.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--rounds", type=int, default=3)
    c.add_argument("--reps", type=int, default=5)
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--side-pairs", type=int, default=3)
    c.add_argument("--claim", choices=("mc", "trend", "search", "exact"), default="mc")
    c.add_argument("--seed", type=int, default=2301)
    c.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    doc = measure(Path(args.tree).resolve(), args.reps) if args.command == "measure" else compare(args)
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
