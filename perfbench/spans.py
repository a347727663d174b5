"""Span tracing of ``wtgp`` from outside the program.

``Tracer.install`` replaces public functions of the ``wtgp`` modules, in
every ``wtgp`` module namespace that holds them, and the public methods
of the pmf classes, with wrappers that record one span per call: name,
layer (the defining module), start, end, parent span and job.  Counts of
work and of search outcomes are read only from the public arguments and
results of those calls.  Spans stay in memory and are written out when
the run ends.

A layer's self time is the duration of its spans minus the time their
child spans cover.  ``job_metrics`` turns one job's counters into the
per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("cli", "channels", "regions", "codes", "divergence", "pmf")

# public functions traced per module; each is replaced in every wtgp
# module that imported it by name
FUNCTIONS = {
    "cli": ("main",),
    "channels": (
        "load_model",
        "model_from_dict",
        "model_to_dict",
        "analogous_gpbc",
        "default_state_dist",
        "classify",
    ),
    "regions": (
        "wt_capacity",
        "gp_capacity",
        "region_frontier",
        "brute_force_oracle",
        "eval_rate_bounds",
        "rate_bounds_from_joint",
        "single_letter_joint",
        "region_to_dict",
    ),
    "codes": (
        "sample_codebook",
        "superposition_code",
        "induced_joint",
        "simulate_trend",
        "error_probability",
        "effective_secrecy",
        "message_state_tv",
        "tv_to_target",
        "reliability_identity_residual",
        "secrecy_identity_residual",
        "gp_collapse_residual",
        "induce_gp_code",
        "multiletter_converse_gap",
        "random_gp_code",
    ),
    "divergence": (
        "total_variation",
        "relative_entropy",
        "entropy",
        "conditional_entropy",
        "mutual_information",
        "conditional_mutual_information",
    ),
}

# public methods traced per pmf class
METHODS = {
    "FinitePmf": ("__init__",),
    "JointPmf": ("__init__", "reordered", "marginalize", "single", "condition"),
    "StochasticKernel": ("__init__", "compose_with_input"),
}

# spans of these codes functions make up codes.identities_s
IDENTITIES = {
    "error_probability",
    "effective_secrecy",
    "message_state_tv",
    "tv_to_target",
    "reliability_identity_residual",
    "secrecy_identity_residual",
    "gp_collapse_residual",
    "induce_gp_code",
    "multiletter_converse_gap",
}


def _mass_cells(obj) -> int:
    for attr in ("mass", "rows"):
        arr = getattr(obj, attr, None)
        if arr is not None:
            return int(arr.size)
    return 0


class Tracer:
    """Collects spans and per-job counters while ``job`` is set."""

    def __init__(self) -> None:
        self.job = None  # spans are recorded only while a job id is set
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, start, child time]
        self._identity_depth = 0
        self.counts: dict = defaultdict(lambda: defaultdict(float))

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        modules = {name: getattr(package, name) for name in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, names in FUNCTIONS.items():
            for name in names:
                orig = getattr(modules[layer], name)
                wrapped = self._wrap(layer, name, orig)
                for ns in namespaces:
                    if getattr(ns, name, None) is orig:
                        setattr(ns, name, wrapped)
        for cls_name, names in METHODS.items():
            cls = getattr(modules["pmf"], cls_name)
            for name in names:
                label = f"{cls_name}.{name}"
                setattr(cls, name, self._wrap("pmf", label, getattr(cls, name)))

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            return tracer._call(layer, name, fn, count, args, kwargs)

        return wrapper

    # -- span bookkeeping -------------------------------------------------

    def _call(self, layer, name, fn, count, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children point at it
        parent = self._stack[-1][0] if self._stack else None
        identity = layer == "codes" and name in IDENTITIES
        self._identity_depth += identity
        frame = [span_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._identity_depth -= identity
            dur = end - frame[1]
            if self._stack:
                self._stack[-1][2] += dur
            self.spans[span_id] = (name, layer, frame[1], end, parent, self.job)
            c = self.counts[self.job]
            c[f"{layer}.self_s"] += dur - frame[2]
            if name == "simulate_trend":
                c["mc_s"] += dur - frame[2]
            if identity and self._identity_depth == 0:
                c["identities_s"] += dur
        if count is not None:
            count(c, dur, args, kwargs, result, self._identity_depth > 0)
        return result

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, start, end, parent, job) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# per-call counters, read from public arguments and results only
# ---------------------------------------------------------------------------


def _count_capacity(c, dur, args, kwargs, res, nested):
    c["capacity_s"] += dur
    c["search_s"] += dur
    c["searches"] += 1
    c["exhausted"] += bool(res.metadata["budget_exhausted"])
    c["restarts"] += res.metadata["restarts"]
    c["samples"] += 1
    c["unconverged"] += not res.converged


def _count_frontier(c, dur, args, kwargs, res, nested):
    meta = res.metadata
    c["frontier_s"] += dur
    c["search_s"] += dur
    c["directions"] += meta["directions"]
    c["searches"] += 1
    c["exhausted"] += bool(meta["budget_exhausted"])
    c["restarts"] += meta["restarts"] * meta["directions"]
    c["samples"] += len(res.supports)
    c["unconverged"] += sum(not s.converged for s in res.supports)


def _count_oracle(c, dur, args, kwargs, res, nested):
    c["oracle_s"] += dur
    c["oracle_points"] += res.grid_points


def _count_codebook(c, dur, args, kwargs, res, nested):
    c["codebook_s"] += dur


def _count_decode(c, dur, args, kwargs, code, nested):
    cb = code.codebook
    c["decode_table_s"] += dur
    c["decode_entries"] += code.obs1_size**code.n * (
        cb.m1_size * cb.w1_size * cb.m2_size * cb.w2_size
    ) + code.y2_size**code.n * (cb.m2_size * cb.w2_size)


def _count_induced(c, dur, args, kwargs, ij, nested):
    if ij.mode != "exact":
        return
    code = args[0] if args else kwargs["code"]
    n = code.n
    outputs = code.y1_size**n * code.y2_size**n
    if code.side == "gp":
        branches = int((code.encoder_table > 0).sum())
    elif code.codebook is not None:
        cb = code.codebook
        branches = cb.m1_size * cb.w1_size * cb.m2_size * cb.w2_size
        outputs *= code.z_size**n
    else:
        branches = int((code.encoder_table > 0).sum())
        outputs *= code.z_size**n
    c["exact_s"] += dur
    c["exact_terms"] += branches * outputs
    c["exact_enumerations"] += 1
    if nested:
        c["identities_s"] -= dur


def _count_trend(c, dur, args, kwargs, rows, nested):
    c["mc_trials"] += sum(r["trials"] for r in rows)


def _count_divergence_cells(c, dur, args, kwargs, res, nested):
    c["divergence_cells"] += _mass_cells(args[0] if args else next(iter(kwargs.values())))


def _count_pmf_cells(c, dur, args, kwargs, res, nested):
    c["pmf_cells"] += _mass_cells(args[0])


_COUNTERS = {
    "wt_capacity": _count_capacity,
    "gp_capacity": _count_capacity,
    "region_frontier": _count_frontier,
    "brute_force_oracle": _count_oracle,
    "sample_codebook": _count_codebook,
    "superposition_code": _count_decode,
    "induced_joint": _count_induced,
    "simulate_trend": _count_trend,
    **{name: _count_divergence_cells for name in FUNCTIONS["divergence"]},
    **{f"{cls}.{m}": _count_pmf_cells for cls, ms in METHODS.items() for m in ms},
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "regions.capacity_s": "s",
    "regions.frontier_direction_s": "s",
    "regions.restarts_per_s": "restarts/s",
    "regions.exhausted_share": "ratio",
    "regions.unconverged_share": "ratio",
    "regions.oracle_points_per_s": "points/s",
    "codes.codebook_s": "s",
    "codes.decode_table_s": "s",
    "codes.decode_entries_per_s": "entries/s",
    "codes.mc_s": "s",
    "codes.mc_trials_per_s": "trials/s",
    "codes.exact_s": "s",
    "codes.exact_terms_per_s": "terms/s",
    "codes.exact_enumerations": "count",
    "codes.identities_s": "s",
    "divergence.self_s": "s",
    "divergence.cells_per_s": "cells/s",
    "pmf.self_s": "s",
    "pmf.cells_per_s": "cells/s",
    "channels.self_s": "s",
    "cli.self_s": "s",
}


def job_metrics(c: dict) -> dict:
    """Per-layer figures of one job from its counters.

    Time figures are per job; rates and shares are returned as
    (numerator, denominator) pairs so that runs can pool them.
    """
    c = defaultdict(float, c)
    return {
        "regions.capacity_s": c["capacity_s"],
        "regions.frontier_direction_s": (c["frontier_s"], c["directions"]),
        "regions.restarts_per_s": (c["restarts"], c["search_s"]),
        "regions.exhausted_share": (c["exhausted"], c["searches"]),
        "regions.unconverged_share": (c["unconverged"], c["samples"]),
        "regions.oracle_points_per_s": (c["oracle_points"], c["oracle_s"]),
        "codes.codebook_s": c["codebook_s"],
        "codes.decode_table_s": c["decode_table_s"],
        "codes.decode_entries_per_s": (c["decode_entries"], c["decode_table_s"]),
        "codes.mc_s": c["mc_s"],
        "codes.mc_trials_per_s": (c["mc_trials"], c["mc_s"]),
        "codes.exact_s": c["exact_s"],
        "codes.exact_terms_per_s": (c["exact_terms"], c["exact_s"]),
        "codes.exact_enumerations": c["exact_enumerations"],
        "codes.identities_s": c["identities_s"],
        "divergence.self_s": c["divergence.self_s"],
        "divergence.cells_per_s": (c["divergence_cells"], c["divergence.self_s"]),
        "pmf.self_s": c["pmf.self_s"],
        "pmf.cells_per_s": (c["pmf_cells"], c["pmf.self_s"]),
        "channels.self_s": c["channels.self_s"],
        "cli.self_s": c["cli.self_s"],
    }
