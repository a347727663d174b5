"""The benchmark's four workloads: seeded inputs, one job, its checks.

A job goes through ``wtgp.cli.main`` in-process where a subcommand
covers it, and through the library calls that subcommand makes where it
does not.  ``run`` is the timed part; ``check`` compares the job's
outputs with the independent computations in ``reference`` and is not
timed.  Every input is drawn from the workload seed and the job index.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref


def bsc(p: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def wiretap_doc(law: np.ndarray, informed: bool = False) -> dict:
    """Channel file of a wiretap law indexed [x][y1][y2][z]."""
    xs, y1s, y2s, zs = law.shape
    return {
        "kind": "wiretap",
        "alphabets": {"x": xs, "y1": y1s, "y2": y2s, "z": zs},
        "law": law.tolist(),
        "informed_receiver": informed,
    }


def analogous_gp_law(law: np.ndarray) -> np.ndarray:
    """q(y1, y2 | x, z) = p(y1, y2, z | x) / p(z | x), indexed (x, z, y1, y2);
    cells with p(z | x) = 0 are uniform."""
    p_zx = law.sum(axis=(1, 2))  # (x, z)
    out = np.transpose(law, (0, 3, 1, 2)).copy()
    ny = law.shape[1] * law.shape[2]
    for x in range(law.shape[0]):
        for z in range(law.shape[3]):
            out[x, z] = out[x, z] / p_zx[x, z] if p_zx[x, z] > 0.0 else 1.0 / ny
    return out


class Failures(list):
    """Failed output checks of one job, as readable messages.

    ``known`` maps an operation to the message of a check that fails on it
    because of a known fault of the program; such an operation counts as
    failed, not as a wrong output."""

    def __init__(self) -> None:
        super().__init__()
        self.known: dict[str, str] = {}

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)

    def known_fault(self, op: str, ok: bool, what: str) -> None:
        if not ok:
            self.known.setdefault(op, what)


class Workload:
    name = ""
    wid = 0
    operations = 1  # operations in one job, the unit of `attempted`

    def __init__(self, wtgp, seed: int, workdir: Path) -> None:
        self.wtgp = wtgp
        self.seed = int(seed)
        self.dir = workdir

    def rng(self, key: tuple) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.wid, *key))
        )

    def cli(self, *argv: str) -> None:
        # looked up on each call, so a traced run goes through the wrapper
        status = self.wtgp.cli.main([str(a) for a in argv])
        if status != 0:
            raise RuntimeError(f"wtgp {argv[0]} exited with status {status}")

    def setup(self) -> None:
        """Shared input files of every job."""

    def make_job(self, key: tuple) -> dict:
        raise NotImplementedError

    def run(self, job: dict):
        raise NotImplementedError

    def check(self, job: dict, out) -> Failures:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# search: capacities, the analogy transform, a region sweep, a grid oracle
# ---------------------------------------------------------------------------

SEARCH_PARAMS = {"capacity_restarts": 16, "restarts": 8, "max_passes": 200, "directions": 3}
ORACLE = {"u_size": 3, "delta": 0.05}
RANDOM_ACHIEVERS = 64


def random_sd_law(rng) -> np.ndarray:
    """Binary semi-deterministic model: y1 = f(x), (y2, z) Dirichlet rows."""
    f = rng.integers(0, 2, size=2)
    rows = rng.dirichlet(np.ones(4), size=2)
    law = np.zeros((2, 2, 2, 2))
    for x in range(2):
        law[x, f[x]] = rows[x].reshape(2, 2)
    return law


def random_pd_law(rng) -> np.ndarray:
    """Binary physically-degraded model: p(y1, z | x) B(y2 | y1)."""
    a = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)  # (x, y1, z)
    b = rng.dirichlet(np.ones(2), size=2)  # (y1, y2)
    return np.einsum("xaz,ab->xabz", a, b)


def near_zero_law() -> np.ndarray:
    """Binary point-to-point model with near-zero wiretap and GP
    capacities (the second Dirichlet draw of ``default_rng(5)``), on which
    ``gp_capacity`` runs to ``max_passes``."""
    rng = np.random.default_rng(5)
    rng.dirichlet(np.ones(4), size=2)
    return rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 1, 2)


# fixed models of the search workload; the seed draws the BSC pair of each
# job and every search seed.  family, law, informed receiver:
REGIONS = {
    # criterion 05's random semi-deterministic fixture
    "sd05": ("SD-WT", random_sd_law(np.random.default_rng(0)), False),
    "pd3": ("PD-IR-WT", random_pd_law(np.random.default_rng(3)), True),
}
CAPACITY_FIXTURES = {"near-zero": near_zero_law()}

# An operation kept although it fails every time: PD-IR-GP on the
# analogous GP model of the random PD informed model from
# ``default_rng(17)``, with search seed 0.  Its R2-axis support comes back
# 0 with ``converged`` set, while random achievers reach about 0.011.
# Inputs and seeds are fixed, so every search job fails it alike.
KNOWN_FAULT = {"law": random_pd_law(np.random.default_rng(17)), "search_seed": 0, "check_seed": 0}


class Search(Workload):
    name = "search"
    wid = 1
    # the capacity pipelines, the region sweeps, the oracle, the known fault
    operations = len(CAPACITY_FIXTURES) + 1 + len(REGIONS) + 1 + 1

    def setup(self) -> None:
        self.params = write_json(self.dir / "search.json", SEARCH_PARAMS)
        self.fixed = {
            name: write_json(self.dir / f"{name}.json", wiretap_doc(law, informed))
            for name, (_, law, informed) in REGIONS.items()
        }
        for name, law in CAPACITY_FIXTURES.items():
            self.fixed[name] = write_json(self.dir / f"{name}.json", wiretap_doc(law))
        pd = write_json(self.dir / "known-pd.json", wiretap_doc(KNOWN_FAULT["law"], True))
        self.known_gp = str(self.dir / "known-gp.json")
        self.cli("transform", "--channel", pd, "--out", self.known_gp)
        self.known_floor = None  # the fault's random-achiever floor, filled by the first check

    def make_job(self, key: tuple) -> dict:
        rng = self.rng(key)
        tag = "-".join(map(str, key))
        p1 = float(rng.uniform(0.02, 0.2))
        p2 = p1 + float(rng.uniform(0.05, 0.25))
        bsc_law = np.einsum("xa,xc->xac", bsc(p1), bsc(p2))[:, :, None, :]
        return {
            "tag": tag,
            "p1": p1,
            "p2": p2,
            "laws": {"bsc": bsc_law, **CAPACITY_FIXTURES},
            "search_seed": int(rng.integers(1 << 31)),
            "check_seed": int(rng.integers(1 << 31)),
            "files": {"bsc": write_json(self.dir / f"bsc-{tag}.json", wiretap_doc(bsc_law)), **self.fixed},
        }

    def run(self, job: dict) -> dict:
        tag, seed = job["tag"], job["search_seed"]
        search = ["--params", self.params, "--seed", seed]
        out = {}
        for name, law in job["laws"].items():
            wt_out = self.dir / f"cap-{name}-{tag}.json"
            self.cli("capacity", "--channel", job["files"][name], *search, "--out", wt_out)
            # state law for the analogous GP model: Z-marginal of the
            # wiretap achiever's input
            p_x = np.asarray(read_json(wt_out)["achiever"]["mass"]).sum(axis=0)
            qz = write_json(self.dir / f"qz-{name}-{tag}.json", (p_x @ law.sum(axis=(1, 2))).tolist())
            gp = self.dir / f"gp-{name}-{tag}.json"
            self.cli("transform", "--channel", job["files"][name], "--qz", qz, "--out", gp)
            gp_out = self.dir / f"capgp-{name}-{tag}.json"
            self.cli("capacity", "--channel", gp, *search, "--out", gp_out)
            out[name] = (wt_out, gp, gp_out)
        for name, (family, _, _) in REGIONS.items():
            region_out = self.dir / f"frontier-{name}-{tag}.json"
            self.cli("region", "--channel", job["files"][name], "--family", family, *search, "--out", region_out)
            out[name] = region_out
        model = self.wtgp.channels.load_model(job["files"]["bsc"])
        out["oracle"] = self.wtgp.regions.brute_force_oracle(model, **ORACLE).value
        out["known"] = self.dir / f"frontier-known-{tag}.json"
        self.cli(
            "region", "--channel", self.known_gp, "--family", "PD-IR-GP", "--params", self.params,
            "--seed", KNOWN_FAULT["search_seed"], "--out", out["known"],
        )
        return out

    def check(self, job: dict, out: dict) -> Failures:
        fail = Failures()
        for name, law in job["laws"].items():
            wt_path, gp_path, gp_out = out[name]
            wt, gp_cap, gp_model = read_json(wt_path), read_json(gp_out), read_json(gp_path)
            p_ux = np.asarray(wt["achiever"]["mass"])
            # stored value against the achiever, scored by our own entropies
            mine = ref.secrecy_objective(ref.wiretap_joint(p_ux, law))
            fail.expect(abs(mine - wt["raw_value"]) <= 1e-9, f"{name}: wiretap value {wt['raw_value']} vs achiever {mine}")
            q_z = p_ux.sum(axis=0) @ law.sum(axis=(1, 2))
            gp_law = analogous_gp_law(law)
            fail.expect(
                np.abs(np.asarray(gp_model["law"]) - gp_law).max() <= 1e-12
                and np.abs(np.asarray(gp_model["state_dist"]) - q_z).max() <= 1e-12,
                f"{name}: transform output differs from the analogous GP law",
            )
            rows = np.asarray(gp_cap["achiever"]["rows"])
            mine = ref.secrecy_objective(ref.gp_joint(q_z, rows, gp_law))
            fail.expect(abs(mine - gp_cap["raw_value"]) <= 1e-9, f"{name}: GP value {gp_cap['raw_value']} vs achiever {mine}")
            # the analogy: a good wiretap code induces a good GP code
            fail.expect(gp_cap["value"] >= wt["value"] - 1e-6, f"{name}: GP capacity {gp_cap['value']} < wiretap {wt['value']}")
            if name == "bsc":
                closed = ref.degraded_bsc_secrecy_capacity(job["p1"], job["p2"])
                fail.expect(abs(wt["value"] - closed) <= 1e-3, f"bsc: capacity {wt['value']} vs h(p2)-h(p1) = {closed}")
                fail.expect(wt["value"] >= out["oracle"] - 1e-3, f"bsc: search {wt['value']} below grid oracle {out['oracle']}")
        rng = np.random.default_rng(job["check_seed"])
        for name, (family, law, _) in REGIONS.items():
            region = read_json(out[name])
            floor = self._floor(family, law, region, rng)
            self._check_region(family, law, region, floor, fail)
        # the known fault: every check but the floor must hold
        region = read_json(out["known"])
        law = KNOWN_FAULT["law"]
        gp_law, q_z = analogous_gp_law(law), law.sum(axis=(1, 2)).mean(axis=0)
        gp_model = read_json(self.known_gp)
        fail.expect(
            np.abs(np.asarray(gp_model["law"]) - gp_law).max() <= 1e-12
            and np.abs(np.asarray(gp_model["state_dist"]) - q_z).max() <= 1e-12,
            "known-fault model: transform output differs from the analogous GP law",
        )
        if self.known_floor is None:
            self.known_floor = self._floor(
                "PD-IR-GP", gp_law, region, np.random.default_rng(KNOWN_FAULT["check_seed"]), q_z
            )
        self._check_region("PD-IR-GP", gp_law, region, self.known_floor, fail, q_z, known=True)
        return fail

    @staticmethod
    def _floor(family: str, law: np.ndarray, region: dict, rng, q_z=None) -> list[float]:
        """Best support value per direction of a set of random achievers."""
        kind = "SD" if family == "SD-WT" else "PD-IR"
        directions = [(s["lambda1"], s["lambda2"]) for s in region["supports"]]
        return ref.random_achiever_best(
            kind, law, region["metadata"]["u_size"], directions, rng, RANDOM_ACHIEVERS, q_z=q_z
        )

    @staticmethod
    def _check_region(
        family: str, law: np.ndarray, region: dict, floor, fail: Failures, q_z=None, known=False
    ) -> None:
        """Each support sample against its stored achiever, and against the
        best of a set of random achievers, all scored by our own code.
        With ``known``, a support below the floor is the sweep's known
        fault."""
        kind = "SD" if family == "SD-WT" else "PD-IR"
        for d, s in enumerate(region["supports"]):
            if q_z is None:
                joint = ref.wiretap_joint(np.asarray(s["achiever"]["mass"]), law)
            else:
                joint = ref.gp_joint(q_z, np.asarray(s["achiever"]["rows"]), law)
            r1, r2, rs = ref.family_bounds(kind, joint)
            lam1, lam2 = s["lambda1"], s["lambda2"]
            value = ref.support_value(r1, r2, rs, lam1, lam2)
            point = (s["r1"], s["r2"])
            fail.expect(
                abs(value - s["support_value"]) <= 1e-9
                and abs(lam1 * point[0] + lam2 * point[1] - value) <= 1e-9
                and ref.in_region(point, r1, r2, rs, 1e-9),
                f"{family} direction {d}: stored support {s['support_value']} at {point} "
                f"vs recomputed {value} with bounds {(r1, r2, rs)}",
            )
            above = s["support_value"] >= floor[d] - 1e-9
            what = f"{family} direction {d}: support {s['support_value']} below random achievers' {floor[d]}"
            if known:
                fail.known_fault(family, above, what)
            else:
                fail.expect(above, what)


# ---------------------------------------------------------------------------
# trend and mc: `wtgp simulate --mc` on superposition codes
# ---------------------------------------------------------------------------

class Simulate(Workload):
    """``wtgp simulate --mc`` with a fresh codebook seed per job."""

    law: np.ndarray
    informed: bool
    sim: dict
    q_z: np.ndarray | None = None
    trials: int
    decoder_samples = 64

    def setup(self) -> None:
        self.channel = write_json(self.dir / "channel.json", wiretap_doc(self.law, self.informed))
        self.params = write_json(self.dir / "sim.json", self.sim)
        if self.q_z is None:
            self.q_z = self.law.sum(axis=(1, 2)).mean(axis=0)
        self.qz = write_json(self.dir / "qz.json", {"dist": self.q_z.tolist()})
        self.codes = []
        self._capture_codes()

    def _capture_codes(self) -> None:
        """Keep every BlockCode that ``superposition_code`` returns.

        ``simulate_trend`` builds its codes internally and the checks need
        the decode tables the Monte Carlo run used.  The hook costs one
        Python call per blocklength; in a traced run it wraps the traced
        function.
        """
        codes_api = self.wtgp.codes
        inner = codes_api.superposition_code

        def hook(*args, **kwargs):
            code = inner(*args, **kwargs)
            self.codes.append(code)
            return code

        codes_api.superposition_code = hook

    def make_job(self, key: tuple) -> dict:
        rng = self.rng(key)
        tag = "-".join(map(str, key))
        return {
            "tag": tag,
            "code_seed": int(rng.integers(1 << 31)),
            "check_seed": int(rng.integers(1 << 31)),
        }

    def run(self, job: dict):
        self.codes.clear()
        out = self.dir / f"trend-{job['tag']}.json"
        self.cli(
            "simulate", "--channel", self.channel, "--params", self.params,
            "--mc", self.trials, "--qz", self.qz, "--seed", job["code_seed"], "--out", out,
        )
        return out, list(self.codes)

    def check(self, job: dict, out) -> Failures:
        path, codes = out
        fail = Failures()
        rows = read_json(path)["results"]
        fail.expect(
            [r["n"] for r in rows] == self.sim["n_list"] and len(codes) == len(rows),
            "simulate did not report every blocklength",
        )
        rng = np.random.default_rng(job["check_seed"])
        p_ux = np.asarray(self.sim["p_ux"])
        codes_api = self.wtgp.codes
        rates = codes_api.CodeRates(**self.sim["rates"])
        joint_ux = self.wtgp.pmf.JointPmf(
            [self.wtgp.pmf.Axis("u", p_ux.shape[0]), self.wtgp.pmf.Axis("x", p_ux.shape[1])], p_ux
        )
        for row, code in zip(rows, codes):
            n = row["n"]
            cb = codes_api.sample_codebook(joint_ux, n, rates, job["code_seed"])
            fail.expect(
                np.array_equal(cb.inner, code.codebook.inner)
                and np.array_equal(cb.outer, code.codebook.outer),
                f"n={n}: regenerated codebook differs from the simulated one",
            )
            self._check_decoder(cb.inner, cb.outer, code, rng, fail)
            exact = ref.exact_error_probability(cb.outer, self.law, self.informed, code.dec1, code.dec2)
            se = math.sqrt(exact * (1.0 - exact) / row["trials"])
            fail.expect(
                abs(row["error_probability"] - exact) <= 5.0 * se,
                f"n={n}: Monte Carlo error probability {row['error_probability']} vs exact {exact} (se {se:.2e})",
            )
            fail.expect(
                row["leakage"] >= 0.0
                and row["stealth"] >= 0.0
                and row["effective_secrecy"] >= row["leakage"] + row["stealth"] - 1e-10,
                f"n={n}: secrecy split broken: {row}",
            )
        return fail

    def _check_decoder(self, inner, outer, code, rng, fail: Failures) -> None:
        """Decode tables against our own typicality decoder on a sample of
        channel outputs of random codewords and of uniform observations."""
        n = outer.shape[-1]
        xs = self.law.shape[0]
        p_ux = np.asarray(self.sim["p_ux"])
        obs1_rows, y2_rows = ref.receiver_laws(self.law, self.informed)
        c1, l1, c2, l2 = ref.superposition_candidates(inner, outer, xs)
        for dec, cands, labels, rows_o, ref_joint, base_c in (
            (code.dec1, c1, l1, obs1_rows, p_ux[:, :, None] * obs1_rows[None], p_ux.size),
            (code.dec2, c2, l2, y2_rows, np.einsum("ux,xk->uk", p_ux, y2_rows), p_ux.shape[0]),
        ):
            base_o = rows_o.shape[1]
            half = self.decoder_samples // 2
            drawn = outer.reshape(-1, n)[rng.integers(outer.reshape(-1, n).shape[0], size=half)]
            cum = np.cumsum(rows_o, axis=1)
            sent = (rng.random((half, n, 1)) > cum[drawn][:, :, :-1]).sum(axis=2)
            uniform = rng.integers(base_o, size=(half, n))
            obs = np.vstack([sent, uniform])
            mine, ties = ref.letter_typical_decode(cands, labels, base_c, obs, base_o, ref_joint, code.eps)
            flat = obs @ (base_o ** np.arange(n - 1, -1, -1))
            differ = (mine != dec[flat]) & ~ties
            fail.expect(
                not differ.any(),
                f"n={n}: decode table disagrees with the typicality decoder "
                f"on {int(differ.sum())} of {len(obs)} observations",
            )


def staggered_law() -> np.ndarray:
    """Informed ternary staggered-support fixture: Y1 = Y2 = X, binary Z."""
    pz = np.array([[0.75, 0.25], [0.5, 0.5], [0.25, 0.75]])
    law = np.zeros((3, 3, 3, 2))
    for x in range(3):
        law[x, x, x, :] = pz[x]
    return law


class Trend(Simulate):
    name = "trend"
    wid = 2
    law = staggered_law()
    informed = True
    trials = 100_000
    sim = {
        "n_list": [2, 4, 6],
        "eps": 32.0,
        "batches": 10,
        "rates": {"r1": 0.125, "r2": 0.125, "rt1": 0.375, "rt2": 0.375},
        "p_ux": [[0.3, 0.2, 0.0], [0.0, 0.2, 0.3]],
    }
    q_z = np.array([0.3, 0.4, 0.3]) @ np.array([[0.75, 0.25], [0.5, 0.5], [0.25, 0.75]])


class MonteCarlo(Simulate):
    name = "mc"
    wid = 3
    law = np.einsum("xa,xc->xac", bsc(0.1), bsc(0.25))[:, :, None, :]
    informed = False
    trials = 1_000_000
    sim = {
        "n_list": [8, 10],
        "eps": 1.1,
        "batches": 10,
        "rates": {"r1": 0.2, "rt1": 0.1},
        "p_ux": [[0.5, 0.5]],
    }


# ---------------------------------------------------------------------------
# exact: the code-identity half of `wtgp compare`, plus a converse gap
# ---------------------------------------------------------------------------

EXACT_N = 5
EXACT_RATES = {"r1": 0.2, "r2": 0.2, "rt1": 0.2}
EXACT_EPS = 0.5
CONVERSE = {"n": 3, "m1_size": 2}


def broadcast_law() -> np.ndarray:
    zch = np.array([[0.8, 0.2], [0.3, 0.7]])
    return np.einsum("xa,xb,xc->xabc", bsc(0.1), bsc(0.3), zch)


class Exact(Workload):
    name = "exact"
    wid = 4
    law = broadcast_law()

    def setup(self) -> None:
        api = self.wtgp
        self.model = api.channels.WiretapModel(law=self.law)
        self.q_z = api.channels.default_state_dist(self.model)
        pp = np.einsum("xa,xc->xac", bsc(0.1), bsc(0.25))[:, :, None, :]
        self.gp_model = api.channels.analogous_gpbc(api.channels.WiretapModel(law=pp))
        self.rates = api.codes.CodeRates(**EXACT_RATES)

    def make_job(self, key: tuple) -> dict:
        rng = self.rng(key)
        u_size = self.law.shape[0] + 1
        return {
            "p_ux": rng.dirichlet(np.ones(u_size * self.law.shape[0])).reshape(u_size, -1),
            "code_seed": int(rng.integers(1 << 31)),
            "gp_seed": int(rng.integers(1 << 31)),
            "check_seed": int(rng.integers(1 << 31)),
        }

    def run(self, job: dict) -> dict:
        api = self.wtgp
        codes = api.codes
        p_ux = api.pmf.JointPmf(
            [api.pmf.Axis("u", job["p_ux"].shape[0]), api.pmf.Axis("x", job["p_ux"].shape[1])],
            job["p_ux"],
        )
        cb = codes.sample_codebook(p_ux, EXACT_N, self.rates, job["code_seed"])
        code = codes.superposition_code(cb, self.model, EXACT_EPS)
        ij = codes.induced_joint(code, self.model, mode="exact")
        out = {
            "code": code,
            "error_probability": codes.error_probability(ij),
            "reliability": codes.reliability_identity_residual(ij),
            "secrecy": codes.secrecy_identity_residual(ij, self.q_z),
            "tv_to_target": codes.tv_to_target(ij, self.q_z),
        }
        out["collapse"], out["full_tv"], out["message_state_tv"] = codes.gp_collapse_residual(
            code, self.model, self.q_z
        )
        gp_code = codes.random_gp_code(self.gp_model, CONVERSE["n"], CONVERSE["m1_size"], job["gp_seed"])
        out["converse_gap"] = codes.multiletter_converse_gap(gp_code, self.gp_model).gap
        return out

    def check(self, job: dict, out: dict) -> Failures:
        fail = Failures()
        # the tolerances `wtgp compare` gates on
        fail.expect(out["reliability"] <= 1e-12, f"reliability residual {out['reliability']}")
        fail.expect(out["secrecy"] <= 1e-10, f"secrecy split residual {out['secrecy']}")
        fail.expect(out["collapse"] <= 1e-12, f"GP collapse residual {out['collapse']}")
        code = out["code"]
        outer = code.codebook.outer
        q_z = self.law.sum(axis=(1, 2)).mean(axis=0)
        tv = ref.message_state_tv(ref.message_state_joint(outer, self.law), q_z)
        fail.expect(abs(tv - out["message_state_tv"]) <= 1e-12, f"message-state TV {out['message_state_tv']} vs enumerated {tv}")
        pe = ref.exact_error_probability(outer, self.law, False, code.dec1, code.dec2)
        fail.expect(abs(pe - out["error_probability"]) <= 1e-12, f"error probability {out['error_probability']} vs branch sum {pe}")
        fail.expect(out["tv_to_target"] >= pe - 1e-12, f"TV to target {out['tv_to_target']} below the error probability {pe}")
        fail.expect(out["converse_gap"] >= -1e-9, f"converse gap {out['converse_gap']}")
        return fail


WORKLOADS = {w.name: w for w in (Search, Trend, MonteCarlo, Exact)}
