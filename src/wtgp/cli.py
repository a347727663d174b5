"""Command-line front end.

Subcommands: ``capacity`` (single-letter search), ``region`` (frontier
sweep), ``transform`` (wiretap model to its analogous GP model),
``simulate`` (blocklength trend metrics), and ``compare`` (matched-joint
family residuals plus small-code exact identities).

Settings precedence is flags > ``--params`` JSON file > built-in
defaults.  Every params key of every subcommand is checked against one
table (``_PARAMS``) after the layers are merged: an unknown key or a
value outside its key's domain is a channel-format error naming the key,
and a ``p_ux`` or ``--qz`` pmf that does not sum to 1 is a row-sum error.
All artifacts are deterministic functions of their inputs: sorted JSON
keys, full-precision floats, no timestamps.  Failures print one JSON
object to stderr with a stable ``code`` and exit with that error class's
status.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .channels import (
    GpModel,
    WiretapModel,
    _is_finite,
    _is_int,
    analogous_gpbc,
    default_state_dist,
    load_model,
    model_to_dict,
)
from .codes import (
    CodeRates,
    SimParams,
    effective_secrecy,
    error_probability,
    gp_collapse_residual,
    induced_joint,
    reliability_identity_residual,
    sample_codebook,
    secrecy_identity_residual,
    simulate_trend,
    superposition_code,
    tv_to_target,
)
from .errors import ChannelFormatError, RowSumError, WtgpError
from .pmf import Axis, FinitePmf, JointPmf, check_rows
from .regions import (
    FAMILIES,
    SearchParams,
    aux_from_array,
    aux_to_dict,
    default_u_size,
    export_region,
    gp_capacity,
    rate_bounds_from_joint,
    region_frontier,
    region_to_dict,
    single_letter_joint,
    wt_capacity,
)

def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n"


def _emit(doc: dict, out: str | None) -> None:
    text = _dump(doc)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ChannelFormatError(f"cannot read {what} {path} as JSON: {exc}") from None


def _is_number(v) -> bool:
    return _is_finite(v) and v >= 0


def _is_vector(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))


_AN_INT = ("an integer >= 1", _is_int)
_A_NUMBER = ("a finite number >= 0", _is_number)

# every params key of every subcommand: (what it must be, test); a
# subcommand accepts exactly the keys of its defaults
_PARAMS = {
    "restarts": _AN_INT,
    "capacity_restarts": _AN_INT,
    "max_passes": _AN_INT,
    "n": _AN_INT,
    "trials": _AN_INT,
    "budget": _AN_INT,
    "table_budget": _AN_INT,
    # batch standard errors use ddof = 1
    "batches": ("an integer >= 2", lambda v: _is_int(v, 2)),
    "directions": ("an integer >= 2", lambda v: _is_int(v, 2)),
    # the Monte Carlo trial stream keys Philox with the seed's 64 bits
    "seed": ("an integer in [0, 2**64)", lambda v: _is_int(v, 0) and v < 1 << 64),
    "u_size": ("null or an integer >= 1", lambda v: v is None or _is_int(v)),
    "tol": _A_NUMBER,
    "eps": _A_NUMBER,
    "c12": _A_NUMBER,
    "n_list": (
        "a non-empty list of integers >= 1",
        lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(_is_int, v)),
    ),
    "mode": ("'mc' or 'exact'", lambda v: v in ("mc", "exact")),
    "rates": (
        "an object with r1 and optionally r2, rt1, rt2, each a finite number >= 0",
        lambda v: isinstance(v, dict)
        and "r1" in v
        and set(v) <= {"r1", "r2", "rt1", "rt2"}
        and all(map(_is_number, v.values())),
    ),
    "p_ux": (
        "a non-empty rectangular 2-d list of finite numbers >= 0",
        lambda v: isinstance(v, list)
        and len(v) > 0
        and all(_is_vector(row) and len(row) == len(v[0]) for row in v),
    ),
}


def _params(args, defaults: dict, **flags) -> dict:
    """Defaults, then the ``--params`` file, then the flags given; all checked."""
    cfg = dict(defaults)
    if args.params:
        doc = _read_json(args.params, "params file")
        if not isinstance(doc, dict):
            raise ChannelFormatError("params file must hold a JSON object")
        unknown = set(doc) - set(defaults)
        if unknown:
            raise ChannelFormatError(
                f"unknown params keys {sorted(unknown)}; allowed: {sorted(defaults)}"
            )
        cfg.update(doc)
    flags["seed"] = args.seed
    cfg.update((k, v) for k, v in flags.items() if v is not None)
    for key, value in cfg.items():
        what, ok = _PARAMS[key]
        if not ok(value):
            raise ChannelFormatError(f"param {key!r} must be {what}, got {value!r}")
    if "batches" in cfg and cfg["trials"] < cfg["batches"]:
        raise ChannelFormatError(
            f"param 'trials' must be >= batches ({cfg['batches']}), got {cfg['trials']}"
        )
    return cfg


def _pmf_array(value, what: str) -> np.ndarray:
    """``value`` as an array, refused unless it sums to 1 (never rescaled)."""
    arr = np.asarray(value, dtype=np.float64)
    check_rows(arr, 0, what, error=RowSumError)
    return arr


def _resolve_qz(arg: str | None, model: WiretapModel | GpModel) -> FinitePmf:
    if arg is None or arg == "induced":
        if isinstance(model, GpModel):
            return model.state_dist
        return default_state_dist(model)
    if arg == "uniform":
        return FinitePmf.uniform(model.z_size)
    doc = _read_json(arg, "state pmf file")
    vec = doc.get("dist") if isinstance(doc, dict) else doc
    if not _is_vector(vec) or len(vec) != model.z_size:
        raise ChannelFormatError(
            f"state pmf file {arg} must hold a list or {{'dist': [...]}} of "
            f"{model.z_size} finite numbers >= 0, got {vec!r}"
        )
    return FinitePmf(_pmf_array(vec, f"state pmf file {arg}"))


# ---------------------------------------------------------------------------
# subcommand runners; each returns (document, exit status)
# ---------------------------------------------------------------------------


def _run_capacity(args) -> tuple[dict, int]:
    model = load_model(args.channel)
    params = SearchParams(**_params(args, dataclasses.asdict(SearchParams())))
    if isinstance(model, WiretapModel):
        res = wt_capacity(model, params)
        kind = "wiretap"
    else:
        res = gp_capacity(model, params)
        kind = "gp"
    doc = {
        "command": "capacity",
        "kind": kind,
        "informed": model.informed_receiver,
        "value": res.value,
        "raw_value": res.raw_value,
        "converged": res.converged,
        "achiever": aux_to_dict(res.achiever),
        "metadata": res.metadata,
    }
    _emit(doc, args.out)
    return doc, 0


def _run_region(args) -> tuple[dict, int]:
    model = load_model(args.channel)
    params = SearchParams(**_params(args, dataclasses.asdict(SearchParams())))
    region = region_frontier(args.family, model, params)
    doc = {"command": "region", **region_to_dict(region)}
    if args.out and args.out.endswith(".csv"):
        out = Path(args.out)
        export_region(region, out, out.with_suffix(".json"))
        return doc, 0
    _emit(doc, args.out)
    return doc, 0


def _run_transform(args) -> tuple[dict, int]:
    model = load_model(args.channel)
    if not isinstance(model, WiretapModel):
        raise ChannelFormatError("transform starts from a wiretap model")
    q_z = _resolve_qz(args.qz, model)
    gp = analogous_gpbc(model, q_z)
    doc = model_to_dict(gp)
    _emit(doc, args.out)
    return doc, 0


def _run_simulate(args) -> tuple[dict, int]:
    model = load_model(args.channel)
    if not isinstance(model, WiretapModel):
        raise ChannelFormatError("simulate runs wiretap-side codes")
    cfg = _params(
        args,
        {**dataclasses.asdict(SimParams()), "mode": "mc", "rates": None, "p_ux": None},
        mode="exact" if args.exact else "mc" if args.mc is not None else None,
        trials=args.mc,
    )
    mode = cfg.pop("mode")
    rates = CodeRates(**cfg.pop("rates"))
    arr = _pmf_array(cfg.pop("p_ux"), "param 'p_ux'")
    p_ux = JointPmf([Axis("u", arr.shape[0]), Axis("x", arr.shape[1])], arr)
    params = SimParams(**{**cfg, "n_list": tuple(cfg["n_list"])})
    q_z = _resolve_qz(args.qz, model)
    if mode == "mc":
        results = simulate_trend(model, p_ux, rates, params, q_z)
    else:
        results = []
        for n in params.n_list:
            cb = sample_codebook(p_ux, n, rates, params.seed)
            code = superposition_code(cb, model, params.eps, params.table_budget)
            ij = induced_joint(code, model, mode="exact", budget=params.budget)
            sec = effective_secrecy(ij, q_z)
            results.append(
                {
                    "n": n,
                    "error_probability": error_probability(ij),
                    "effective_secrecy": sec.total,
                    "leakage": sec.leakage,
                    "stealth": sec.stealth,
                    "tv_to_target": tv_to_target(ij, q_z),
                    "message_sizes": [code.m1_size, code.m2_size],
                    "seed": params.seed,
                }
            )
    doc = {
        "command": "simulate",
        "mode": mode,
        "eps": float(params.eps),
        "results": results,
    }
    _emit(doc, args.out)
    return doc, 0


def _run_compare(args) -> tuple[dict, int]:
    model = load_model(args.channel)
    if not isinstance(model, WiretapModel):
        raise ChannelFormatError("compare starts from a wiretap model")
    cfg = _params(
        args,
        {
            "u_size": None,
            "c12": 0.1,
            "n": 1,
            "eps": 0.5,
            "rates": {"r1": 1.0, "rt1": 1.0},
            "seed": 0,
        },
    )
    seed = cfg["seed"]
    u_size = cfg["u_size"] or default_u_size(model)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(9,)))
    theta = rng.dirichlet(np.ones(u_size * model.x_size))
    aux = aux_from_array("wiretap", theta, u_size, model.x_size)
    joint = single_letter_joint(model, aux)

    table = []
    worst = 0.0
    pairs = [
        ("SD-WT", "SD-GP", None),
        ("PD-IR-WT", "PD-IR-GP", None),
        ("PD-IR-WT-COOP", "PD-IR-GP-COOP", cfg["c12"]),
    ]
    for fam_wt, fam_gp, coop in pairs:
        a = rate_bounds_from_joint(fam_wt, joint, coop)
        b = rate_bounds_from_joint(fam_gp, joint, coop)
        resid = max(
            abs(a.r1 - b.r1),
            abs(a.r2 - b.r2),
            abs((a.r_sum or 0.0) - (b.r_sum or 0.0)),
        )
        worst = max(worst, resid)
        table.append(
            {
                "families": [fam_wt, fam_gp],
                "r1": a.r1,
                "r2": a.r2,
                "r_sum": a.r_sum,
                "residual": resid,
            }
        )

    q_z = _resolve_qz(args.qz, model)
    cb = sample_codebook(aux.dist, cfg["n"], CodeRates(**cfg["rates"]), seed)
    code = superposition_code(cb, model, cfg["eps"])
    ij = induced_joint(code, model, mode="exact")
    rel = reliability_identity_residual(ij)
    sec = secrecy_identity_residual(ij, q_z)
    collapse, full_tv, collapsed_tv = gp_collapse_residual(code, model, q_z)
    ok = (
        worst == 0.0
        and rel <= 1e-12
        and sec <= 1e-10
        and collapse <= 1e-12
    )
    doc = {
        "command": "compare",
        "family_table": table,
        "code_identities": {
            "n": cfg["n"],
            "reliability_residual": rel,
            "secrecy_split_residual": sec,
            "gp_collapse_residual": collapse,
            "full_joint_tv": full_tv,
            "message_state_tv": collapsed_tv,
        },
        "pass": bool(ok),
    }
    _emit(doc, args.out)
    return doc, 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: each ``parse_args`` call starts from
    a fresh namespace, so no value carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="wtgp",
        description="finite-alphabet wiretap and Gelfand-Pinsker workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, qz: bool = False) -> None:
        sp.add_argument("--channel", required=True, help="channel model JSON file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--params", default=None, help="JSON file with extra settings")
        sp.add_argument("--out", default=None, help="artifact path (stdout if absent)")
        if qz:
            sp.add_argument(
                "--qz",
                default=None,
                help="state pmf: a JSON file, 'uniform', or 'induced' (default)",
            )

    cap = sub.add_parser("capacity", help="single-letter capacity search")
    common(cap)
    cap.set_defaults(func=_run_capacity)

    reg = sub.add_parser("region", help="frontier of an achievable-rate family")
    common(reg)
    reg.add_argument("--family", required=True, choices=sorted(FAMILIES))
    reg.set_defaults(func=_run_region)

    tra = sub.add_parser("transform", help="wiretap model to its analogous GP model")
    tra.add_argument("--channel", required=True)
    tra.add_argument("--qz", default=None)
    tra.add_argument("--out", default=None)
    tra.set_defaults(func=_run_transform)

    sim = sub.add_parser("simulate", help="blocklength trend metrics")
    common(sim, qz=True)
    mode = sim.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact enumeration")
    mode.add_argument("--mc", type=int, metavar="TRIALS", help="Monte Carlo trials")
    sim.set_defaults(func=_run_simulate)

    cmp_ = sub.add_parser(
        "compare", help="family-equality table and exact code identities"
    )
    common(cmp_, qz=True)
    cmp_.set_defaults(func=_run_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _, status = args.func(args)
    except WtgpError as exc:
        sys.stderr.write(
            _dump({"error": {"code": exc.code, "message": str(exc)}})
        )
        return exc.exit_status
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(_dump({"error": {"code": "error", "message": str(exc)}}))
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
