"""Malformed CLI inputs end on the typed JSON error contract.

Every params key of every subcommand is drawn with values outside its
domain: each run exits 5 with one ``channel-format`` error naming the key
on stderr, and nothing on stdout.  The least value of every key passes
the checks, malformed ``--qz`` files exit 5, and a ``--qz`` or ``p_ux``
pmf that does not sum to 1 exits 6.  Channel documents round-trip
through ``model_to_dict`` and ``model_from_dict``.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtgp.channels import (
    GpModel,
    WiretapModel,
    analogous_gpbc,
    model_from_dict,
    model_to_dict,
)
from wtgp.cli import main
from wtgp.pmf import FinitePmf

# derandomized, so that the suite draws the same examples on every run
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


def bsc(p):
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([str(a) for a in argv])
    return status, out.getvalue(), err.getvalue()


def refused(status, out, err, code):
    """The run printed nothing and one JSON error with ``code``; its message."""
    assert status == {"channel-format": 5, "row-sum": 6}[code] and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == code
    return error["message"]


@pytest.fixture(scope="module")
def channels(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-inputs")
    sd = np.zeros((2, 2, 2, 2))
    sd[0, 0] = [[0.4, 0.3], [0.2, 0.1]]
    sd[1, 1] = [[0.1, 0.2], [0.3, 0.4]]
    laws = {
        "pp": np.einsum("xa,xc->xac", bsc(0.1), bsc(0.25))[:, :, None, :],
        "sd": sd,
    }
    paths = {"dir": root}
    for name, law in laws.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(model_to_dict(WiretapModel(law=law))))
    return paths


# each subcommand's channel and flags, and params it needs besides the key
COMMANDS = {
    "capacity": ("pp", [], {}),
    "region": ("sd", ["--family", "SD-WT"], {}),
    "simulate": ("pp", [], {"rates": {"r1": 0.5}, "p_ux": [[0.5, 0.5]]}),
    "compare": ("pp", [], {}),
}
SEARCH_KEYS = ["restarts", "capacity_restarts", "max_passes", "directions", "tol", "seed", "u_size"]
KEYS = {
    "capacity": SEARCH_KEYS,
    "region": SEARCH_KEYS,
    "simulate": [
        "n_list", "eps", "trials", "batches", "mode", "budget", "table_budget",
        "rates", "p_ux", "seed",
    ],
    "compare": ["u_size", "c12", "n", "eps", "rates", "seed"],
}

# values of the wrong type for every key (None is the one value u_size takes)
WRONG_TYPE = st.one_of(
    st.booleans(),
    st.text(max_size=4).filter(lambda s: s not in ("mc", "exact")),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def bad_int(least):
    return st.one_of(
        WRONG_TYPE,
        st.none(),
        st.integers(max_value=least - 1),
        st.floats(),  # integral floats such as 2.0 too: an integer is asked
        st.lists(st.integers(least, 5), min_size=1, max_size=2),
    )


BAD_NUMBER = st.one_of(
    WRONG_TYPE,
    st.none(),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-300),
    NON_FINITE,
    st.just(10**400),  # no float holds it
    st.lists(st.floats(0, 1), min_size=1, max_size=2),
)
NOT_A_LIST = st.one_of(WRONG_TYPE, st.none(), st.integers(), st.floats())
BAD = {
    "restarts": bad_int(1),
    "capacity_restarts": bad_int(1),
    "max_passes": bad_int(1),
    "n": bad_int(1),
    "trials": bad_int(1),
    "budget": bad_int(1),
    "table_budget": bad_int(1),
    "directions": bad_int(2),
    "batches": bad_int(2),
    "seed": bad_int(0),
    "u_size": bad_int(1).filter(lambda v: v is not None),
    "tol": BAD_NUMBER,
    "eps": BAD_NUMBER,
    "c12": BAD_NUMBER,
    "n_list": st.one_of(
        NOT_A_LIST,
        st.just([]),
        st.lists(bad_int(1), min_size=1, max_size=3),
        st.lists(st.integers(1, 4), min_size=1, max_size=2).map(lambda v: [v]),
    ),
    "mode": st.one_of(WRONG_TYPE, st.none(), st.integers(), st.just(["mc"])),
    "rates": st.one_of(
        NOT_A_LIST,
        st.just([0.5]),
        st.just({}),
        st.just({"r2": 0.5}),
        st.just({"r1": 0.5, "r3": 0.5}),
        BAD_NUMBER.map(lambda v: {"r1": v}),
        BAD_NUMBER.map(lambda v: {"r1": 0.5, "rt2": v}),
    ),
    "p_ux": st.one_of(
        NOT_A_LIST,
        st.just([]),
        st.just([[]]),
        st.just([0.5, 0.5]),
        st.just([[0.5], [0.25, 0.25]]),
        st.just([[[0.5, 0.5]]]),
        BAD_NUMBER.map(lambda v: [[v, 0.5]]),
    ),
}


@pytest.mark.parametrize(
    "command, key", [(c, k) for c, keys in KEYS.items() for k in keys]
)
@PROPERTY
@given(data=st.data())
def test_malformed_param_is_refused(channels, command, key, data):
    channel, flags, base = COMMANDS[command]
    value = data.draw(BAD[key], label=key)
    params = channels["dir"] / f"{command}-{key}.json"
    params.write_text(json.dumps({**base, key: value}))
    message = refused(
        *run(command, "--channel", channels[channel], *flags, "--params", params),
        "channel-format",
    )
    assert message.startswith(f"param {key!r} ")


@pytest.mark.parametrize(
    "command, flags, key",
    [
        ("simulate", ["--mc", "0"], "trials"),
        ("simulate", ["--mc", "9"], "trials"),  # fewer trials than the 10 batches
        ("simulate", ["--seed", "-1"], "seed"),
        ("compare", ["--seed", "-1"], "seed"),
        ("capacity", ["--seed", "-1"], "seed"),
    ],
)
def test_malformed_flag_is_refused(channels, command, flags, key):
    channel, extra, base = COMMANDS[command]
    params = channels["dir"] / f"{command}-flags.json"
    params.write_text(json.dumps(base))
    message = refused(
        *run(command, "--channel", channels[channel], *extra, "--params", params, *flags),
        "channel-format",
    )
    assert message.startswith(f"param {key!r} ")


LEAST_SIM = {
    "n_list": [1], "eps": 0, "trials": 2, "batches": 2, "seed": 0,
    "rates": {"r1": 0}, "p_ux": [[0, 1]],
}


@pytest.mark.parametrize(
    "command, doc",
    [
        (
            "region",
            {
                "restarts": 1, "capacity_restarts": 1, "max_passes": 1,
                "directions": 2, "tol": 0, "seed": 0, "u_size": 1,
            },
        ),
        ("simulate", {**LEAST_SIM, "mode": "mc"}),
        ("simulate", {**LEAST_SIM, "mode": "exact"}),
        (
            "compare",
            {"u_size": 1, "c12": 0, "n": 1, "eps": 0, "rates": {"r1": 0}, "seed": 0},
        ),
    ],
)
def test_params_at_their_least_values(channels, command, doc):
    channel, flags, _ = COMMANDS[command]
    params = channels["dir"] / f"{command}-least.json"
    params.write_text(json.dumps(doc))
    status, out, err = run(command, "--channel", channels[channel], *flags, "--params", params)
    assert status == 0 and err == ""
    assert json.loads(out)["command"] == command


@pytest.mark.parametrize("mode", ["mc", "exact"])
def test_least_budgets_reach_the_library(channels, mode):
    # a budget of 1 passes the checks; the decode tables then exceed it
    params = channels["dir"] / "simulate-budgets.json"
    params.write_text(json.dumps({**LEAST_SIM, "mode": mode, "budget": 1, "table_budget": 1}))
    status, out, err = run("simulate", "--channel", channels["pp"], "--params", params)
    assert status == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "resource"


# --qz files for the 2-letter state of the point-to-point channel
MALFORMED_QZ = st.one_of(
    NOT_A_LIST,
    NOT_A_LIST.map(lambda v: {"dist": v}),
    st.just({"state": [0.5, 0.5]}),
    st.just([]),
    st.just([1.0]),
    st.just([0.5, 0.25, 0.25]),
    st.just([[0.5, 0.5]]),
    st.tuples(BAD_NUMBER, st.floats(0, 1)).map(list),
    st.tuples(st.floats(0, 1), BAD_NUMBER).map(lambda v: {"dist": list(v)}),
)


@PROPERTY
@given(doc=MALFORMED_QZ)
def test_malformed_qz_file_is_refused(channels, doc):
    qz = channels["dir"] / "qz-bad.json"
    qz.write_text(json.dumps(doc))
    message = refused(
        *run("transform", "--channel", channels["pp"], "--qz", qz), "channel-format"
    )
    assert str(qz) in message


@pytest.mark.parametrize("text", [None, "", "[0.5, 0.5", "{dist: [0.5, 0.5]}"])
def test_unreadable_qz_file_is_refused(channels, text):
    qz = channels["dir"] / "qz-unreadable.json"
    qz.unlink(missing_ok=True)
    if text is not None:
        qz.write_text(text)
    message = refused(
        *run("transform", "--channel", channels["pp"], "--qz", qz), "channel-format"
    )
    assert str(qz) in message


OFF_SUM = st.one_of(
    st.tuples(st.floats(0, 1.5), st.floats(0, 1.5)).filter(
        lambda v: abs(v[0] + v[1] - 1.0) > 1e-9
    ),
    st.just((1e308, 1e308)),  # the sum overflows
)


@PROPERTY
@given(dist=OFF_SUM, wrapped=st.booleans())
def test_qz_off_sum_is_a_row_sum_error(channels, dist, wrapped):
    qz = channels["dir"] / "qz-sum.json"
    qz.write_text(json.dumps({"dist": list(dist)} if wrapped else list(dist)))
    refused(*run("transform", "--channel", channels["pp"], "--qz", qz), "row-sum")


@PROPERTY
@given(row=OFF_SUM, mode=st.sampled_from(["mc", "exact"]))
def test_p_ux_off_sum_is_a_row_sum_error(channels, row, mode):
    params = channels["dir"] / "simulate-sum.json"
    params.write_text(json.dumps({**LEAST_SIM, "mode": mode, "p_ux": [list(row)]}))
    message = refused(
        *run("simulate", "--channel", channels["pp"], "--params", params), "row-sum"
    )
    assert "p_ux" in message


def test_qz_within_tolerance_is_not_rescaled(channels):
    dist = [0.3, 0.7 + 5e-13]
    qz = channels["dir"] / "qz-near.json"
    qz.write_text(json.dumps(dist))
    status, out, _ = run("transform", "--channel", channels["pp"], "--qz", qz)
    assert status == 0
    assert json.loads(out)["state_dist"] == dist


def pmfs(rng, rows, cells, sparse):
    mass = rng.dirichlet(np.ones(cells), size=rows)
    if sparse:
        mass[rng.random(mass.shape) < 0.3] = 0.0
        for r in np.flatnonzero(mass.sum(axis=1) == 0.0):
            mass[r, rng.integers(cells)] = 1.0
        mass /= mass.sum(axis=1, keepdims=True)
    return mass


@st.composite
def models(draw):
    """Wiretap models, their analogous GP models (with filled cells when
    the law is sparse) and GP models drawn directly; alphabets of 1-3."""
    nx, ny1, ny2, nz = draw(st.tuples(*[st.integers(1, 3)] * 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sparse = draw(st.booleans())
    flags = {
        "informed_receiver": draw(st.booleans()),
        "coop_capacity": draw(st.none() | st.floats(0, 2)),
    }
    kind = draw(st.sampled_from(["wiretap", "analogous", "gp"]))
    if kind == "gp":
        law = pmfs(rng, nx * nz, ny1 * ny2, sparse).reshape(nx, nz, ny1, ny2)
        q_z = FinitePmf(pmfs(rng, 1, nz, sparse)[0])
        return GpModel(state_dist=q_z, law=law, **flags)
    law = pmfs(rng, nx, ny1 * ny2 * nz, sparse).reshape(nx, ny1, ny2, nz)
    model = WiretapModel(law=law, **flags)
    return model if kind == "wiretap" else analogous_gpbc(model)


@PROPERTY
@given(model=models())
def test_channel_documents_round_trip(model):
    back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert type(back) is type(model)
    assert back.informed_receiver == model.informed_receiver
    assert back.coop_capacity == model.coop_capacity
    # loading divides each row by its sum, which is 1 within a few ulp
    np.testing.assert_allclose(back.law, model.law, rtol=4 * np.finfo(float).eps, atol=0)
    if isinstance(model, GpModel):
        assert back.filled_cells == model.filled_cells
        np.testing.assert_allclose(
            back.state_dist.mass, model.state_dist.mass, rtol=4 * np.finfo(float).eps, atol=0
        )
