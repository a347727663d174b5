"""Command-line front end.

Subcommands: ``capacity`` (single-letter search), ``region`` (frontier
sweep), ``transform`` (wiretap model to its analogous GP model),
``simulate`` (blocklength trend metrics), and ``compare`` (matched-joint
family residuals plus small-code exact identities).

Settings precedence is flags > ``--params`` JSON file > built-in
defaults; unknown keys in a params file are rejected.  All artifacts are
deterministic functions of their inputs: sorted JSON keys, full-precision
floats, no timestamps.  Failures print one JSON object to stderr with a
stable ``code`` and exit with that error class's status.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .channels import (
    GpModel,
    WiretapModel,
    analogous_gpbc,
    default_state_dist,
    load_model,
    model_to_dict,
)
from .codes import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_TABLE_BUDGET,
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
from .errors import ChannelFormatError, WtgpError
from .pmf import Axis, FinitePmf, JointPmf
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

_SEARCH_KEYS = tuple(f.name for f in dataclasses.fields(SearchParams))
_SIM_KEYS = (
    "n_list",
    "eps",
    "trials",
    "batches",
    "mode",
    "budget",
    "table_budget",
    "rates",
    "p_ux",
    "seed",
)
_COMPARE_KEYS = ("u_size", "c12", "n", "eps", "rates", "seed")


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


def _load_params(path: str | None, allowed: tuple[str, ...], defaults: dict) -> dict:
    cfg = dict(defaults)
    if path:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ChannelFormatError(f"params file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ChannelFormatError("params file must hold a JSON object")
        unknown = set(doc) - set(allowed)
        if unknown:
            raise ChannelFormatError(
                f"unknown params keys {sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        cfg.update(doc)
    return cfg


def _resolve_qz(arg: str | None, model: WiretapModel | GpModel) -> FinitePmf:
    if arg is None or arg == "induced":
        if isinstance(model, GpModel):
            return model.state_dist
        return default_state_dist(model)
    if arg == "uniform":
        return FinitePmf.uniform(model.z_size)
    try:
        doc = json.loads(Path(arg).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"state pmf file is not valid JSON: {exc}") from exc
    vec = doc.get("dist") if isinstance(doc, dict) else doc
    if not isinstance(vec, list):
        raise ChannelFormatError("state pmf file must hold a list or {'dist': [...]}")
    pmf = FinitePmf(np.asarray(vec, dtype=np.float64))
    if pmf.alphabet_size != model.z_size:
        raise ChannelFormatError(
            f"state pmf has {pmf.alphabet_size} letters, model z-size is {model.z_size}"
        )
    return pmf


# the least value of each integer search setting; u_size may also be null
_SEARCH_INT_MIN = {
    "restarts": 1,
    "capacity_restarts": 1,
    "max_passes": 1,
    "directions": 2,
    "seed": 0,
    "u_size": 1,
}


def _search_params(args) -> SearchParams:
    cfg = _load_params(
        args.params, _SEARCH_KEYS, dataclasses.asdict(SearchParams())
    )
    if args.seed is not None:
        cfg["seed"] = args.seed
    for key, low in _SEARCH_INT_MIN.items():
        v = cfg[key]
        if key == "u_size" and v is None:
            continue
        if isinstance(v, bool) or not isinstance(v, int) or v < low:
            extra = " or null" if key == "u_size" else ""
            raise ChannelFormatError(
                f"search param {key!r} must be an integer >= {low}{extra}, got {v!r}"
            )
    tol = cfg["tol"]
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol < math.inf:
        raise ChannelFormatError(
            f"search param 'tol' must be a finite number >= 0, got {tol!r}"
        )
    return SearchParams(**{k: cfg[k] for k in _SEARCH_KEYS})


def _rates_from_cfg(raw) -> CodeRates:
    if not isinstance(raw, dict) or not set(raw) <= {"r1", "r2", "rt1", "rt2"}:
        raise ChannelFormatError(
            "rates must be an object with keys among r1, r2, rt1, rt2"
        )
    return CodeRates(**{k: float(v) for k, v in raw.items()})


# ---------------------------------------------------------------------------
# subcommand runners; each returns (document, exit status)
# ---------------------------------------------------------------------------


def _run_capacity(args) -> tuple[dict, int]:
    model = load_model(args.channel)
    params = _search_params(args)
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
    params = _search_params(args)
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
    defaults = {
        "n_list": [2, 4, 6, 8],
        "eps": 0.2,
        "trials": 100_000,
        "batches": 10,
        "mode": "mc",
        "budget": DEFAULT_ENUM_BUDGET,
        "table_budget": DEFAULT_TABLE_BUDGET,
        "rates": None,
        "p_ux": None,
        "seed": 0,
    }
    cfg = _load_params(args.params, _SIM_KEYS, defaults)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.exact:
        cfg["mode"] = "exact"
    if args.mc is not None:
        cfg["mode"] = "mc"
        cfg["trials"] = args.mc
    if cfg["rates"] is None or cfg["p_ux"] is None:
        raise ChannelFormatError("simulate needs 'rates' and 'p_ux' in the params file")
    rates = _rates_from_cfg(cfg["rates"])
    arr = np.asarray(cfg["p_ux"], dtype=np.float64)
    if arr.ndim != 2:
        raise ChannelFormatError("p_ux must be a 2-d nested list over (u, x)")
    p_ux = JointPmf([Axis("u", arr.shape[0]), Axis("x", arr.shape[1])], arr)
    q_z = _resolve_qz(args.qz, model)
    if cfg["mode"] == "mc":
        results = simulate_trend(
            model,
            p_ux,
            rates,
            SimParams(
                n_list=tuple(int(n) for n in cfg["n_list"]),
                eps=float(cfg["eps"]),
                trials=int(cfg["trials"]),
                batches=int(cfg["batches"]),
                seed=int(cfg["seed"]),
                table_budget=int(cfg["table_budget"]),
                budget=int(cfg["budget"]),
            ),
            q_z,
        )
    else:
        results = []
        for n in cfg["n_list"]:
            cb = sample_codebook(p_ux, int(n), rates, int(cfg["seed"]))
            code = superposition_code(
                cb, model, float(cfg["eps"]), int(cfg["table_budget"])
            )
            ij = induced_joint(code, model, mode="exact", budget=int(cfg["budget"]))
            sec = effective_secrecy(ij, q_z)
            results.append(
                {
                    "n": int(n),
                    "error_probability": error_probability(ij),
                    "effective_secrecy": sec.total,
                    "leakage": sec.leakage,
                    "stealth": sec.stealth,
                    "tv_to_target": tv_to_target(ij, q_z),
                    "message_sizes": [code.m1_size, code.m2_size],
                    "seed": int(cfg["seed"]),
                }
            )
    doc = {
        "command": "simulate",
        "mode": cfg["mode"],
        "eps": float(cfg["eps"]),
        "results": results,
    }
    _emit(doc, args.out)
    return doc, 0


def _run_compare(args) -> tuple[dict, int]:
    model = load_model(args.channel)
    if not isinstance(model, WiretapModel):
        raise ChannelFormatError("compare starts from a wiretap model")
    defaults = {
        "u_size": None,
        "c12": 0.1,
        "n": 1,
        "eps": 0.5,
        "rates": {"r1": 1.0, "rt1": 1.0},
        "seed": 0,
    }
    cfg = _load_params(args.params, _COMPARE_KEYS, defaults)
    if args.seed is not None:
        cfg["seed"] = args.seed
    seed = int(cfg["seed"])
    u_size = int(cfg["u_size"] or default_u_size(model))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(9,)))
    theta = rng.dirichlet(np.ones(u_size * model.x_size))
    aux = aux_from_array("wiretap", theta, u_size, model.x_size)
    joint = single_letter_joint(model, aux)

    table = []
    worst = 0.0
    pairs = [
        ("SD-WT", "SD-GP", None),
        ("PD-IR-WT", "PD-IR-GP", None),
        ("PD-IR-WT-COOP", "PD-IR-GP-COOP", float(cfg["c12"])),
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
    rates = _rates_from_cfg(cfg["rates"])
    cb = sample_codebook(aux.dist, int(cfg["n"]), rates, seed)
    code = superposition_code(cb, model, float(cfg["eps"]))
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
            "n": int(cfg["n"]),
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


def build_parser() -> argparse.ArgumentParser:
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
