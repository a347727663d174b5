"""End-to-end CLI runs: artifacts, determinism, and error statuses."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import wtgp
from wtgp import cli
from wtgp.channels import WiretapModel, model_to_dict
from wtgp.cli import main
from wtgp.errors import NumericalError
from wtgp.regions import hausdorff_distance


def bsc(p):
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def pp_channel(tmp_path):
    law = np.einsum("xa,xc->xac", bsc(0.1), bsc(0.25))[:, :, None, :]
    return write_json(tmp_path / "pp.json", model_to_dict(WiretapModel(law=law)))


@pytest.fixture
def sd_channel(tmp_path):
    law = np.zeros((2, 2, 2, 2))
    law[0, 0] = [[0.4, 0.3], [0.2, 0.1]]
    law[1, 1] = [[0.1, 0.2], [0.3, 0.4]]
    return write_json(tmp_path / "sd.json", model_to_dict(WiretapModel(law=law)))


@pytest.fixture
def product_channel(tmp_path):
    zch = np.array([[0.9, 0.1], [0.3, 0.7]])
    law = np.einsum("xa,xb,xc->xabc", bsc(0.1), bsc(0.3), zch)
    return write_json(tmp_path / "prod.json", model_to_dict(WiretapModel(law=law)))


@pytest.fixture
def quick_search(tmp_path):
    return write_json(
        tmp_path / "search.json",
        {"restarts": 6, "capacity_restarts": 8, "directions": 9},
    )


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestCapacity:
    def test_wiretap_document(self, capsys, pp_channel, quick_search):
        status, out, err = run(
            capsys, "capacity", "--channel", pp_channel, "--params", quick_search
        )
        assert status == 0 and err == ""
        doc = json.loads(out)
        assert doc["command"] == "capacity"
        assert doc["kind"] == "wiretap"
        assert 0.0 <= doc["value"] <= 1.0
        assert doc["achiever"]["side"] == "wiretap"

    def test_deterministic_stdout(self, capsys, pp_channel, quick_search):
        _, a, _ = run(
            capsys, "capacity", "--channel", pp_channel, "--params", quick_search
        )
        _, b, _ = run(
            capsys, "capacity", "--channel", pp_channel, "--params", quick_search
        )
        assert a == b

    def test_out_file_matches_stdout(self, capsys, tmp_path, pp_channel, quick_search):
        _, out, _ = run(
            capsys, "capacity", "--channel", pp_channel, "--params", quick_search
        )
        art = tmp_path / "cap.json"
        status, silent, _ = run(
            capsys, "capacity", "--channel", pp_channel, "--params", quick_search,
            "--out", str(art),
        )
        assert status == 0 and silent == ""
        assert art.read_text() == out

    def test_gp_model(self, capsys, tmp_path, quick_search):
        law = np.zeros((2, 2, 2, 1))
        for x in range(2):
            for z in range(2):
                law[x, z, x ^ z, 0] = 1.0
        doc = {
            "kind": "gp",
            "alphabets": {"x": 2, "y1": 2, "y2": 1, "z": 2},
            "state_dist": [0.5, 0.5],
            "law": law.tolist(),
        }
        path = write_json(tmp_path / "gp.json", doc)
        status, out, _ = run(
            capsys, "capacity", "--channel", path, "--params", quick_search
        )
        assert status == 0
        got = json.loads(out)
        assert got["kind"] == "gp"
        assert abs(got["value"] - 1.0) <= 1e-3

    def test_point_to_point_required(self, capsys, tmp_path, quick_search):
        # criterion 05's random semi-deterministic fixture: y2 has size 2
        rng = np.random.default_rng(0)
        f = rng.integers(0, 2, size=2)
        rows = rng.dirichlet(np.ones(4), size=2)
        law = np.zeros((2, 2, 2, 2))
        for x in range(2):
            law[x, f[x]] = rows[x].reshape(2, 2)
        path = write_json(tmp_path / "sd05.json", model_to_dict(WiretapModel(law=law)))
        status, out, err = run(
            capsys, "capacity", "--channel", path, "--params", quick_search
        )
        assert status == 4 and out == ""
        assert json.loads(err)["error"]["code"] == "classification"


class TestRegion:
    def test_csv_artifact_with_sidecar(self, capsys, tmp_path, sd_channel,
                                       quick_search):
        art = tmp_path / "region.csv"
        status, out, _ = run(
            capsys, "region", "--channel", sd_channel, "--family", "SD-WT",
            "--params", quick_search, "--out", str(art),
        )
        assert status == 0
        lines = art.read_text().splitlines()
        assert lines[0] == "lambda1,lambda2,support_value,R1,R2"
        assert len(lines) == 10  # header + the 9 requested directions
        sidecar = json.loads((tmp_path / "region.json").read_text())
        assert sidecar["family"] == "SD-WT"

    def test_byte_identical_reruns(self, capsys, tmp_path, sd_channel, quick_search):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for art in (a, b):
            run(
                capsys, "region", "--channel", sd_channel, "--family", "SD-WT",
                "--params", quick_search, "--out", str(art),
            )
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_blas_and_simd_kernels_agree_within_tolerance(self, tmp_path):
        # artifacts are byte-identical only on one machine with one numpy/BLAS
        # build: the OpenBLAS kernel and numpy's SIMD dispatch move floats in
        # the last bits.  Across these kernels support values have differed by
        # about 5e-13 at most, so 1e-10 bounds rounding noise, not a change
        # in what the search finds.
        rng = np.random.default_rng(0)  # criterion 05's random SD fixture
        f, rows = rng.integers(0, 2, size=2), rng.dirichlet(np.ones(4), size=2)
        law = np.zeros((2, 2, 2, 2))
        for x in range(2):
            law[x, f[x]] = rows[x].reshape(2, 2)
        channel = write_json(tmp_path / "sd.json", model_to_dict(WiretapModel(law=law)))
        params = write_json(
            tmp_path / "search.json", {"restarts": 8, "max_passes": 200, "directions": 9}
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(wtgp.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        base = dict(os.environ, PYTHONPATH=path)
        base.pop("OPENBLAS_CORETYPE", None)
        docs = []
        for tag, extra in [
            ("auto", {}),
            ("prescott", {"OPENBLAS_CORETYPE": "Prescott"}),
            ("no-avx512", {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"}),
        ]:
            out = tmp_path / f"reg_{tag}.csv"
            subprocess.run(
                [sys.executable, "-m", "wtgp.cli", "region", "--channel", channel,
                 "--params", params, "--family", "SD-WT", "--out", str(out)],
                env={**base, **extra}, check=True, capture_output=True,
            )
            docs.append(json.loads(out.with_suffix(".json").read_text(encoding="utf-8")))
        ref = docs[0]
        for doc in docs[1:]:
            for s, t in zip(ref["supports"], doc["supports"], strict=True):
                assert abs(s["support_value"] - t["support_value"]) <= 1e-10
            pts = [[(b["r1"], b["r2"]) for b in d["boundary"]] for d in (ref, doc)]
            assert hausdorff_distance(*pts) <= 1e-10

    def test_family_needs_matching_class(self, capsys, pp_channel, quick_search):
        status, out, err = run(
            capsys, "region", "--channel", pp_channel, "--family", "SD-WT",
            "--params", quick_search,
        )
        assert status == 4
        assert json.loads(err)["error"]["code"] == "classification"


class TestTransform:
    def test_analogous_model_document(self, capsys, product_channel):
        status, out, _ = run(capsys, "transform", "--channel", product_channel)
        assert status == 0
        doc = json.loads(out)
        assert doc["kind"] == "gp"
        # default state: the z-marginal under a uniform input
        expect = np.array([0.9, 0.1]) * 0.5 + np.array([0.3, 0.7]) * 0.5
        np.testing.assert_allclose(doc["state_dist"], expect, atol=1e-15)

    def test_qz_uniform_and_file(self, capsys, tmp_path, product_channel):
        _, out, _ = run(
            capsys, "transform", "--channel", product_channel, "--qz", "uniform"
        )
        np.testing.assert_allclose(json.loads(out)["state_dist"], [0.5, 0.5])
        qz = write_json(tmp_path / "qz.json", {"dist": [0.9, 0.1]})
        _, out, _ = run(capsys, "transform", "--channel", product_channel, "--qz", qz)
        np.testing.assert_allclose(json.loads(out)["state_dist"], [0.9, 0.1])

    def test_qz_length_checked(self, capsys, tmp_path, product_channel):
        qz = write_json(tmp_path / "qz.json", [0.5, 0.25, 0.25])
        status, _, err = run(
            capsys, "transform", "--channel", product_channel, "--qz", qz
        )
        assert status == 5
        assert json.loads(err)["error"]["code"] == "channel-format"

    def test_rejects_gp_input(self, capsys, tmp_path):
        doc = {
            "kind": "gp",
            "alphabets": {"x": 2, "y1": 2, "y2": 1, "z": 1},
            "state_dist": [1.0],
            "law": bsc(0.1).reshape(2, 1, 2, 1).tolist(),
        }
        path = write_json(tmp_path / "gp.json", doc)
        status, _, err = run(capsys, "transform", "--channel", path)
        assert status == 5


class TestSimulate:
    def sim_params(self, tmp_path, **extra):
        doc = {
            "n_list": [1, 2],
            "eps": 0.3,
            "rates": {"r1": 0.5, "rt1": 0.5, "r2": 0.5, "rt2": 0.5},
            "p_ux": [[0.4, 0.1], [0.1, 0.4]],
            **extra,
        }
        return write_json(tmp_path / "sim.json", doc)

    def test_exact_mode(self, capsys, tmp_path, product_channel):
        params = self.sim_params(tmp_path)
        status, out, _ = run(
            capsys, "simulate", "--channel", product_channel, "--params", params,
            "--exact",
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["mode"] == "exact"
        assert [row["n"] for row in doc["results"]] == [1, 2]
        for row in doc["results"]:
            assert 0.0 <= row["error_probability"] <= 1.0
            assert row["effective_secrecy"] >= -1e-12
            assert row["tv_to_target"] >= 0.0

    def test_mc_mode_and_seed_flag(self, capsys, tmp_path, product_channel):
        params = self.sim_params(tmp_path)
        status, out, _ = run(
            capsys, "simulate", "--channel", product_channel, "--params", params,
            "--mc", "4000", "--seed", "3",
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["mode"] == "mc"
        row = doc["results"][0]
        assert row["trials"] == 4000 and row["seed"] == 3
        assert "error_probability_se" in row

    def test_deterministic_artifacts(self, capsys, tmp_path, product_channel):
        params = self.sim_params(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for art in (a, b):
            status, _, _ = run(
                capsys, "simulate", "--channel", product_channel, "--params", params,
                "--mc", "2000", "--out", str(art),
            )
            assert status == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("mode", [["--exact"], ["--mc", "2000"]])
    def test_table_budget_from_params(self, capsys, tmp_path, product_channel, mode):
        # at n = 2 each receiver's decode table has 2**2 = 4 entries
        for budget, status in ((3, 3), (4, 0)):
            params = self.sim_params(tmp_path, table_budget=budget)
            got, _, err = run(
                capsys, "simulate", "--channel", product_channel, "--params", params,
                *mode,
            )
            assert got == status
            if status:
                assert json.loads(err)["error"]["code"] == "resource"

    def test_mc_views_within_budget(self, capsys, tmp_path, product_channel):
        # at n = 2 both counted views, (m1, m2, mh1, mh2) and (m1, m2, z^2),
        # have 2 * 2 * 4 = 16 cells
        for budget, status in ((15, 3), (16, 0)):
            params = self.sim_params(tmp_path, budget=budget)
            got, _, err = run(
                capsys, "simulate", "--channel", product_channel, "--params", params,
                "--mc", "2000",
            )
            assert got == status
            if status:
                error = json.loads(err)["error"]
                assert error["code"] == "resource"
                assert error["message"] == "Monte Carlo view needs 16 cells, budget is 15"

    def test_missing_design_is_rejected(self, capsys, tmp_path, product_channel):
        params = write_json(tmp_path / "bad.json", {"n_list": [1]})
        status, _, err = run(
            capsys, "simulate", "--channel", product_channel, "--params", params
        )
        assert status == 5
        assert json.loads(err)["error"]["code"] == "channel-format"

    def test_unknown_params_key_is_rejected(self, capsys, tmp_path, product_channel):
        params = self.sim_params(tmp_path, trails=5)
        status, _, err = run(
            capsys, "simulate", "--channel", product_channel, "--params", params
        )
        assert status == 5
        assert "trails" in json.loads(err)["error"]["message"]


class TestCompare:
    def test_identities_pass(self, capsys, tmp_path, product_channel):
        status, out, _ = run(capsys, "compare", "--channel", product_channel)
        assert status == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        for row in doc["family_table"]:
            assert row["residual"] == 0.0
        ids = doc["code_identities"]
        assert ids["reliability_residual"] <= 1e-12
        assert ids["secrecy_split_residual"] <= 1e-10
        assert ids["gp_collapse_residual"] <= 1e-12

    def test_seed_changes_the_probe(self, capsys, product_channel):
        _, a, _ = run(capsys, "compare", "--channel", product_channel, "--seed", "1")
        _, b, _ = run(capsys, "compare", "--channel", product_channel, "--seed", "2")
        assert a != b
        assert json.loads(a)["pass"] and json.loads(b)["pass"]


class TestErrorReporting:
    def test_missing_channel_file(self, capsys, tmp_path):
        status, _, err = run(
            capsys, "capacity", "--channel", str(tmp_path / "nope.json")
        )
        assert status == 5
        assert json.loads(err)["error"]["code"] == "channel-format"

    def test_invalid_channel_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        status, _, err = run(capsys, "capacity", "--channel", str(path))
        assert status == 5

    def test_row_sum_status(self, capsys, tmp_path):
        law = np.einsum("xa,xc->xac", bsc(0.1), bsc(0.25))[:, :, None, :]
        doc = model_to_dict(WiretapModel(law=law))
        doc["law"][0][0][0][0] = 0.7  # break a row sum
        path = write_json(tmp_path / "bad.json", doc)
        status, _, err = run(capsys, "capacity", "--channel", str(path))
        assert status == 6
        assert json.loads(err)["error"]["code"] == "row-sum"

    def test_search_params_unknown_key(self, capsys, pp_channel, tmp_path):
        params = write_json(tmp_path / "p.json", {"restart": 4})
        status, _, err = run(
            capsys, "capacity", "--channel", pp_channel, "--params", params
        )
        assert status == 5
        assert "restart" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("key", ["step0", "ladder", "fd_eps"])
    def test_search_step_constants_are_not_params(self, capsys, pp_channel, tmp_path, key):
        params = write_json(tmp_path / "p.json", {key: 1})
        status, _, err = run(
            capsys, "capacity", "--channel", pp_channel, "--params", params
        )
        assert status == 5
        assert key in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "doc",
        [
            {"restarts": 0},
            {"restarts": True},
            {"capacity_restarts": 2.5},
            {"max_passes": -1},
            {"max_passes": "10"},
            {"directions": 1},
            {"tol": "x"},
            {"tol": -1e-9},
            {"tol": float("inf")},
            {"tol": float("nan")},
            {"tol": False},
            {"seed": -1},
            {"seed": 1.0},
            {"u_size": 0},
            {"u_size": 1.5},
        ],
    )
    def test_search_params_out_of_domain(self, capsys, pp_channel, tmp_path, doc):
        # refused with the channel-format status before any search runs
        params = write_json(tmp_path / "p.json", doc)
        status, _, err = run(
            capsys, "capacity", "--channel", pp_channel, "--params", params
        )
        assert status == 5
        error = json.loads(err)["error"]
        assert error["code"] == "channel-format"
        (key,) = doc
        assert key in error["message"]

    def test_search_seed_flag_checked(self, capsys, sd_channel):
        status, _, err = run(
            capsys, "region", "--channel", sd_channel, "--family", "SD-WT", "--seed", "-1"
        )
        assert status == 5
        assert json.loads(err)["error"]["code"] == "channel-format"

    def test_search_params_at_their_least_values(self, capsys, pp_channel, tmp_path):
        doc = {
            "restarts": 1, "capacity_restarts": 1, "max_passes": 1, "directions": 2,
            "tol": 0, "seed": 0, "u_size": None,
        }
        params = write_json(tmp_path / "p.json", doc)
        status, out, _ = run(
            capsys, "capacity", "--channel", pp_channel, "--params", params
        )
        assert status == 0
        assert json.loads(out)["metadata"]["restarts"] == 1

    def test_numerical_status(self, capsys, monkeypatch, product_channel):
        def broken(*args, **kwargs):
            raise NumericalError("total variation residual 3e-09, tolerance 1e-12")

        monkeypatch.setattr(cli, "gp_collapse_residual", broken)
        status, _, err = run(capsys, "compare", "--channel", product_channel)
        assert status == 8
        doc = json.loads(err)["error"]
        assert doc["code"] == "numerical"
        assert "3e-09" in doc["message"]
