"""Wiretap and Gelfand-Pinsker channel models.

A wiretap broadcast model is a memoryless law p(y1, y2, z | x): receiver 1
gets y1 (and also z when ``informed_receiver`` is set), receiver 2 gets
y2, the eavesdropper gets z.  A GP broadcast model is an i.i.d. state
distribution q(z) together with a law q(y1, y2 | x, z) whose state is
known non-causally at the encoder.  Point-to-point versions are the same
objects with a singleton y2 alphabet.

``analogous_gpbc`` carries a wiretap model to the GP side with
q(y1, y2 | x, z) = p(y1, y2, z | x) / p(z | x); cells with p(z | x) = 0
are uniform-filled and flagged on the returned model.  ``classify``
detects the semi-deterministic (y1 a function of the channel input cell)
and physically-degraded (law = receiver-1 factor times a degrading kernel
y1 -> y2) structures that the rate-region families require.

File format: a channel JSON object with fields ``kind`` ("wiretap" or
"gp"), ``alphabets`` (named sizes), ``law`` (nested lists, wiretap order
[x][y1][y2][z], GP order [x][z][y1][y2]), ``state_dist`` (GP only),
optional ``informed_receiver`` (true or false), ``coop_capacity`` (null
or a finite number >= 0) and, for GP, ``filled_cells`` ([x, z] pairs).
File rows (``law`` and ``state_dist``) must sum to 1 within 1e-9 and
are then rescaled exactly; a model built in code is checked at
``pmf.NORMALIZATION_TOL`` (1e-12) and never rescaled.  Both checks are
``pmf.check_rows``.  Arrays of anything but numbers are rejected,
non-finite and negative entries with their cell coordinates.  Every
field is checked, never cast, so a malformed one is a channel-format
error naming it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .errors import (
    AlphabetMismatchError,
    ChannelFormatError,
    RowSumError,
    ShapeError,
)
from .pmf import FinitePmf, check_rows

ROW_SUM_TOL = 1e-9
SD_TOL = 1e-12
PD_RESIDUAL_TOL = 1e-9


def _check_law(law: np.ndarray, row_axes: int, what: str) -> np.ndarray:
    """Validate a conditional law whose leading ``row_axes`` axes index rows."""
    law = np.ascontiguousarray(law, dtype=np.float64)
    check_rows(law, row_axes, what)
    law.setflags(write=False)
    return law


@dataclasses.dataclass(frozen=True)
class WiretapModel:
    """Memoryless wiretap broadcast channel p(y1, y2, z | x)."""

    law: np.ndarray  # shape (x, y1, y2, z)
    informed_receiver: bool = False
    coop_capacity: float | None = None

    def __post_init__(self) -> None:
        law = np.asarray(self.law, dtype=np.float64)
        if law.ndim != 4:
            raise ShapeError(f"wiretap law must be 4-d (x,y1,y2,z), got {law.shape}")
        object.__setattr__(self, "law", _check_law(law, 1, "wiretap law"))
        if self.coop_capacity is not None and not (float(self.coop_capacity) >= 0.0):
            raise ValueError("coop_capacity must be >= 0")

    @property
    def x_size(self) -> int:
        return self.law.shape[0]

    @property
    def y1_size(self) -> int:
        return self.law.shape[1]

    @property
    def y2_size(self) -> int:
        return self.law.shape[2]

    @property
    def z_size(self) -> int:
        return self.law.shape[3]

    @property
    def point_to_point(self) -> bool:
        return self.y2_size == 1

    def z_given_x(self) -> np.ndarray:
        """Marginal p(z | x), shape (x, z)."""
        return self.law.sum(axis=(1, 2))


@dataclasses.dataclass(frozen=True)
class GpModel:
    """State-dependent channel q(y1, y2 | x, z) with i.i.d. state q(z)."""

    state_dist: FinitePmf
    law: np.ndarray  # shape (x, z, y1, y2)
    informed_receiver: bool = False
    coop_capacity: float | None = None
    filled_cells: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        law = np.asarray(self.law, dtype=np.float64)
        if law.ndim != 4:
            raise ShapeError(f"gp law must be 4-d (x,z,y1,y2), got {law.shape}")
        if self.state_dist.alphabet_size != law.shape[1]:
            raise ShapeError(
                f"state alphabet {self.state_dist.alphabet_size} != law z-size "
                f"{law.shape[1]}"
            )
        object.__setattr__(self, "law", _check_law(law, 2, "gp law"))
        object.__setattr__(
            self,
            "filled_cells",
            tuple((int(a), int(b)) for a, b in self.filled_cells),
        )
        if self.coop_capacity is not None and not (float(self.coop_capacity) >= 0.0):
            raise ValueError("coop_capacity must be >= 0")

    @property
    def x_size(self) -> int:
        return self.law.shape[0]

    @property
    def z_size(self) -> int:
        return self.law.shape[1]

    @property
    def y1_size(self) -> int:
        return self.law.shape[2]

    @property
    def y2_size(self) -> int:
        return self.law.shape[3]

    @property
    def point_to_point(self) -> bool:
        return self.y2_size == 1


@dataclasses.dataclass(frozen=True)
class ClassFlags:
    """Structural classification of a model.

    ``deterministic_map`` gives the forced y1 per input cell when
    ``semi_deterministic``; ``degrading_kernel`` is the extracted
    p(y2 | y1) factor when ``physically_degraded`` (its rows at y1 values
    unreachable under the law are uniform-filled).
    """

    semi_deterministic: bool
    deterministic_map: np.ndarray | None
    physically_degraded: bool
    degrading_kernel: np.ndarray | None
    pd_residual: float
    sd_tol: float = SD_TOL
    pd_tol: float = PD_RESIDUAL_TOL


def _y1_given_cell(model: WiretapModel | GpModel) -> np.ndarray:
    """p(y1 | input cell): (x, y1) for wiretap, (x, z, y1) for GP."""
    if isinstance(model, WiretapModel):
        return model.law.sum(axis=(2, 3))
    return model.law.sum(axis=3)


def classify(model: WiretapModel | GpModel) -> ClassFlags:
    y1_cond = _y1_given_cell(model)
    rows = y1_cond.reshape(-1, y1_cond.shape[-1])
    det = bool(np.all(rows.max(axis=1) >= 1.0 - SD_TOL))
    det_map = None
    if det:
        det_map = rows.argmax(axis=1).reshape(y1_cond.shape[:-1]).astype(np.int64)
        det_map.setflags(write=False)

    # Physically degraded: law = (receiver-1 factor) * B(y2 | y1).  The
    # factor is forced by marginalizing y2 out, so one least-squares pass
    # over B suffices; the factorization residual decides the flag.
    if isinstance(model, WiretapModel):
        full = np.moveaxis(model.law, 2, 3)  # (x, y1, z, y2)
        lead = full.reshape(-1, model.y1_size, model.z_size, model.y2_size)
        a = lead.sum(axis=3)  # forced factor over (cell, y1, z)
        y2_size = model.y2_size
    else:
        lead = model.law.reshape(-1, 1, model.y1_size, model.y2_size)
        lead = np.moveaxis(lead, 2, 1)  # (cell, y1, 1, y2)
        a = lead.sum(axis=3)
        y2_size = model.y2_size
    y1_size = lead.shape[1]
    num = np.einsum("cyk,cyko->yo", a, lead)
    den = np.einsum("cyk,cyk->y", a, a)
    kernel = np.full((y1_size, y2_size), 1.0 / y2_size)
    reachable = den > 0.0
    kernel[reachable] = num[reachable] / den[reachable, None]
    residual = float(np.max(np.abs(lead - a[..., None] * kernel[None, :, None, :])))
    pd = residual <= PD_RESIDUAL_TOL
    deg = None
    if pd:
        kernel = np.clip(kernel, 0.0, None)
        row_sums = kernel.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > ROW_SUM_TOL:
            pd = False
        else:
            kernel = kernel / row_sums[:, None]
            deg = kernel
            deg.setflags(write=False)
    return ClassFlags(
        semi_deterministic=det,
        deterministic_map=det_map,
        physically_degraded=pd,
        degrading_kernel=deg,
        pd_residual=residual,
    )


def default_state_dist(model: WiretapModel) -> FinitePmf:
    """Z-marginal of the wiretap law under the uniform input."""
    return FinitePmf(model.z_given_x().mean(axis=0))


def analogous_gpbc(model: WiretapModel, q_z: FinitePmf | None = None) -> GpModel:
    """GP-side analogue: q(y1, y2 | x, z) = p(y1, y2, z | x) / p(z | x).

    Cells (x, z) with p(z | x) = 0 are uniform-filled and flagged in the
    returned model's ``filled_cells``.
    """
    if q_z is None:
        q_z = default_state_dist(model)
    if q_z.alphabet_size != model.z_size:
        raise ShapeError(
            f"q_z alphabet {q_z.alphabet_size} != z alphabet {model.z_size}"
        )
    p_zx = model.z_given_x()  # (x, z)
    law = np.transpose(model.law, (0, 3, 1, 2)).copy()  # (x, z, y1, y2)
    filled = []
    ny = model.y1_size * model.y2_size
    for x in range(model.x_size):
        for z in range(model.z_size):
            if p_zx[x, z] > 0.0:
                law[x, z] /= p_zx[x, z]
            else:
                law[x, z] = 1.0 / ny
                filled.append((x, z))
    return GpModel(
        state_dist=q_z,
        law=law,
        informed_receiver=model.informed_receiver,
        coop_capacity=model.coop_capacity,
        filled_cells=tuple(filled),
    )


def informed_lift(model: WiretapModel | GpModel) -> WiretapModel | GpModel:
    """Fold the state into receiver 1's output alphabet: y1' = (y1, z).

    The lifted model is evaluated as an ordinary (uninformed) model; the
    pair index is y1 * |Z| + z.  Marginalizing the lifted receiver-1
    output back over z recovers the original law.
    """
    if isinstance(model, WiretapModel):
        nx, ny1, ny2, nz = model.law.shape
        lifted = np.zeros((nx, ny1 * nz, ny2, nz))
        for z in range(nz):
            lifted[:, z::nz, :, z] = model.law[:, :, :, z]
        return WiretapModel(
            law=lifted,
            informed_receiver=False,
            coop_capacity=model.coop_capacity,
        )
    nx, nz, ny1, ny2 = model.law.shape
    lifted = np.zeros((nx, nz, ny1 * nz, ny2))
    for z in range(nz):
        lifted[:, z, z::nz, :] = model.law[:, z, :, :]
    return GpModel(
        state_dist=model.state_dist,
        law=lifted,
        informed_receiver=False,
        coop_capacity=model.coop_capacity,
        filled_cells=model.filled_cells,
    )


# ---------------------------------------------------------------------------
# channel JSON files
# ---------------------------------------------------------------------------

_WT_ALPHABET_ORDER = ("x", "y1", "y2", "z")
_GP_ALPHABET_ORDER = ("x", "z", "y1", "y2")


def _load_rows(raw, shape, what: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=object)
    except ValueError as exc:
        raise ChannelFormatError(f"{what} is not a numeric array: {exc}") from None
    for cell, v in np.ndenumerate(arr):
        if not _is_finite(v):
            raise ChannelFormatError(f"{what} entry at cell {cell} is not a finite number: {v!r}")
    if arr.shape != shape:
        raise AlphabetMismatchError(
            f"{what} has shape {arr.shape}, alphabets require {shape}"
        )
    arr = arr.astype(np.float64)
    if (arr < 0.0).any():
        cell = tuple(int(i) for i in np.argwhere(arr < 0.0)[0])
        raise ChannelFormatError(f"{what} has a negative entry at cell {cell}")
    return arr


def _is_int(v, least: int = 1) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def _is_finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _normalize_rows(arr: np.ndarray, row_axes: int, what: str) -> np.ndarray:
    sums = check_rows(arr, row_axes, what, ROW_SUM_TOL, RowSumError)
    return (arr.reshape(sums.size, -1) / sums[:, None]).reshape(arr.shape)


def model_from_dict(doc: dict) -> WiretapModel | GpModel:
    if not isinstance(doc, dict):
        raise ChannelFormatError("channel document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("wiretap", "gp"):
        raise ChannelFormatError(f"kind must be 'wiretap' or 'gp', got {kind!r}")
    alphabets = doc.get("alphabets")
    if not isinstance(alphabets, dict):
        raise ChannelFormatError("missing 'alphabets' object")
    order = _WT_ALPHABET_ORDER if kind == "wiretap" else _GP_ALPHABET_ORDER
    missing = [k for k in order if k not in alphabets]
    if missing:
        raise ChannelFormatError(f"alphabets missing sizes for {missing}")
    sizes = {k: alphabets[k] for k in order}
    for k, v in sizes.items():
        if not _is_int(v, 1):
            raise ChannelFormatError(f"alphabet size '{k}' must be an integer >= 1, got {v!r}")
    informed = doc.get("informed_receiver", False)
    if not isinstance(informed, bool):
        raise ChannelFormatError(f"informed_receiver must be true or false, got {informed!r}")
    coop = doc.get("coop_capacity")
    if coop is not None:
        if not (_is_finite(coop) and coop >= 0):
            raise ChannelFormatError(
                f"coop_capacity must be null or a finite number >= 0, got {coop!r}"
            )
        coop = float(coop)
    if "law" not in doc:
        raise ChannelFormatError("missing 'law'")
    if kind == "wiretap":
        shape = (sizes["x"], sizes["y1"], sizes["y2"], sizes["z"])
        law = _normalize_rows(_load_rows(doc["law"], shape, "law"), 1, "law")
        return WiretapModel(law=law, informed_receiver=informed, coop_capacity=coop)
    shape = (sizes["x"], sizes["z"], sizes["y1"], sizes["y2"])
    law = _normalize_rows(_load_rows(doc["law"], shape, "law"), 2, "law")
    if "state_dist" not in doc:
        raise ChannelFormatError("gp channel requires 'state_dist'")
    sd = _load_rows(doc["state_dist"], (sizes["z"],), "state_dist")
    sd = _normalize_rows(sd, 0, "state_dist")
    filled = doc.get("filled_cells", [])
    if not isinstance(filled, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(_is_int(v, 0) for v in c)
        and c[0] < sizes["x"] and c[1] < sizes["z"]
        for c in filled
    ):
        raise ChannelFormatError(
            f"filled_cells must be a list of [x, z] cells within the alphabets, got {filled!r}"
        )
    return GpModel(
        state_dist=FinitePmf(sd),
        law=law,
        informed_receiver=informed,
        coop_capacity=coop,
        filled_cells=filled,
    )


def model_to_dict(model: WiretapModel | GpModel) -> dict:
    if isinstance(model, WiretapModel):
        doc: dict[str, Any] = {
            "kind": "wiretap",
            "alphabets": {
                "x": model.x_size,
                "y1": model.y1_size,
                "y2": model.y2_size,
                "z": model.z_size,
            },
            "law": model.law.tolist(),
            "informed_receiver": model.informed_receiver,
        }
    else:
        doc = {
            "kind": "gp",
            "alphabets": {
                "x": model.x_size,
                "z": model.z_size,
                "y1": model.y1_size,
                "y2": model.y2_size,
            },
            "state_dist": model.state_dist.mass.tolist(),
            "law": model.law.tolist(),
            "informed_receiver": model.informed_receiver,
        }
        if model.filled_cells:
            doc["filled_cells"] = [list(c) for c in model.filled_cells]
    if model.coop_capacity is not None:
        doc["coop_capacity"] = model.coop_capacity
    return doc


def load_model(path: str | Path) -> WiretapModel | GpModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ChannelFormatError(f"cannot read channel file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"channel file {path} is not valid JSON: {exc}") from None
    return model_from_dict(doc)


def save_model(model: WiretapModel | GpModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")
