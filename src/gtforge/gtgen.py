"""Ground-truth record generation: the end-to-end pipeline step.

Takes one ego log and any number of target logs (same projected plane),
optional per-vehicle clock corrections, and a stamp list; interpolates all
logs, forms each target's relative state in the ego frame, attaches the
vehicle-footprint corners and, when a noise model plus scenario envelope
are supplied, the dataset-level covariance bounds.

Records are held as a RecordSet: one array per column, one row per
(stamp, target), with the bounds stored once. They serialize to JSON Lines,
one record per line, keys in fixed order (t, target_id, x, y, vx, vy, psi,
bbox, pos_bound, vel_bound, yaw_var), floats with 9 significant digits.
Identical inputs produce bit-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Mapping, Sequence

import numpy as np

from ._util import fmt_float, opened, positive
from .egokin import RelativeState, relative_state
from .errors import ParseError, ZoneMismatch
from .resample import build_interpolant
from .trajlog import ClockModel, Trajectory, apply_clock_model
from .uncert import (
    DEFAULT_CONVENTION,
    CovBound2,
    NoiseModel,
    ScenarioEnvelope,
    position_bound,
    velocity_bound,
    yaw_variance,
)


@dataclass(frozen=True)
class VehicleGeometry:
    """Footprint of a target vehicle.

    ref_to_center is the offset from the positioning reference point to the
    footprint center, in the vehicle frame (x forward, y left).
    """

    length: float
    width: float
    ref_to_center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        positive("length", self.length)
        positive("width", self.width)
        try:
            ox, oy = self.ref_to_center
            finite = math.isfinite(ox) and math.isfinite(oy)
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise ValueError(
                f"ref_to_center must be two finite numbers, got {self.ref_to_center!r}"
            )
        object.__setattr__(self, "ref_to_center", (float(ox), float(oy)))


@dataclass(frozen=True, eq=False)
class RecordSet:
    """Ground-truth records as columns, sorted by (t, target_id).

    Row i is one target observed in the ego frame at stamp t[i]: x, y, vx,
    vy, psi as in RelativeState, and bbox[i] its four footprint corners in
    canonical order front-left, front-right, rear-right, rear-left, so bbox
    has shape (n, 4, 2). The three bounds are dataset-level constants,
    either all present (noise model supplied) or all None.
    """

    t: np.ndarray
    target_id: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    psi: np.ndarray
    bbox: np.ndarray
    pos_bound: CovBound2 | None = None
    vel_bound: CovBound2 | None = None
    yaw_var: float | None = None

    def __post_init__(self) -> None:
        if self.bbox.shape != (len(self), 4, 2):
            raise ValueError(f"bbox must have shape (n, 4, 2), got {self.bbox.shape}")
        bounds = (self.pos_bound, self.vel_bound, self.yaw_var)
        if any(b is None for b in bounds) != all(b is None for b in bounds):
            raise ValueError("bounds must be attached together or not at all")

    def __len__(self) -> int:
        return len(self.t)


# Corner offsets from the footprint center in the target frame, canonical
# order FL, FR, RR, RL.
_CORNER_SIGNS = np.array(((1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)))


def bbox_footprint(rel: RelativeState, geom: VehicleGeometry) -> np.ndarray:
    """Footprint corners in the ego frame for a target at rel.

    Shape (4, 2) for a scalar state, (n, 4, 2) for n states.
    """
    c = np.cos(rel.psi)[..., None]
    s = np.sin(rel.psi)[..., None]
    ox, oy = geom.ref_to_center
    bx = ox + _CORNER_SIGNS[:, 0] * (0.5 * geom.length)
    by = oy + _CORNER_SIGNS[:, 1] * (0.5 * geom.width)
    x = np.asarray(rel.x)[..., None]
    y = np.asarray(rel.y)[..., None]
    return np.stack((x + bx * c - by * s, y + bx * s + by * c), axis=-1)


def make_stamps(rate: float, t0: float, t1: float) -> np.ndarray:
    """Evenly spaced stamps at the given rate starting at t0, within [t0, t1].

    A last stamp that rounding puts past t1 is clamped to t1.
    """
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be positive, got {rate}")
    if t1 < t0:
        raise ValueError(f"empty window: [{t0}, {t1}]")
    count = int(math.floor((t1 - t0) * rate + 1e-9))
    return np.minimum(t0 + np.arange(count + 1) / rate, t1)


def read_stamps(source: str | Path | IO[str]) -> np.ndarray:
    """Stamp file: one float per line, blank lines ignored."""
    values = []
    with opened(source) as stream:
        for line_no, line in enumerate(stream, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad stamp {text!r}", line_no)
            if not math.isfinite(value):
                raise ParseError(f"stamp must be finite, got {text!r}", line_no)
            values.append(value)
    if not values:
        raise ParseError("stamp file has no values", line=1)
    return np.array(values)


def _geometry_for(
    geometry: VehicleGeometry | Mapping[str, VehicleGeometry], target_id: str
) -> VehicleGeometry:
    if isinstance(geometry, VehicleGeometry):
        return geometry
    try:
        return geometry[target_id]
    except KeyError:
        raise ValueError(f"no geometry given for target {target_id!r}")


def _check_zones(trajectories: Sequence[Trajectory]) -> None:
    zones = {t.zone for t in trajectories if t.zone is not None}
    if len(zones) > 1:
        raise ZoneMismatch(
            f"trajectories live in different UTM zones: {sorted(zones)}"
        )
    hemis = {t.hemisphere for t in trajectories if t.hemisphere is not None}
    if len(hemis) > 1:
        raise ZoneMismatch(
            f"trajectories live in different hemispheres: {sorted(hemis)}"
        )


def generate_records(
    ego: Trajectory,
    targets: Sequence[Trajectory],
    stamps,
    geometry: VehicleGeometry | Mapping[str, VehicleGeometry],
    clocks: Mapping[str, ClockModel] | None = None,
    noise: NoiseModel | None = None,
    envelope: ScenarioEnvelope | None = None,
    convention: str = DEFAULT_CONVENTION,
) -> RecordSet:
    """Produce ground-truth records for every (stamp, target) pair.

    Clock corrections are applied per vehicle id before interpolation.
    Every stamp must lie in every trajectory's support (OutOfSupport names
    the offenders otherwise). Bounds are dataset-level constants computed
    once from noise + envelope; passing only one of the two is an error.
    Records come back sorted by (t, target_id).
    """
    if not targets:
        raise ValueError("need at least one target trajectory")
    ids = [t.vehicle_id for t in targets]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate target ids: {ids}")
    if ego.vehicle_id in ids:
        raise ValueError(f"ego id {ego.vehicle_id!r} also appears as a target")
    if noise is not None and envelope is None:
        raise ValueError("a noise model needs a scenario envelope to form bounds")
    if envelope is not None and noise is None:
        raise ValueError("a scenario envelope needs a noise model to form bounds")
    _check_zones([ego, *targets])
    if clocks:
        ego, *targets = [
            apply_clock_model(traj, clocks[traj.vehicle_id])
            if traj.vehicle_id in clocks else traj
            for traj in (ego, *targets)
        ]

    stamp_arr = np.sort(np.asarray(stamps, dtype=float).ravel())
    if stamp_arr.size == 0:
        raise ValueError("no stamps given")

    ego_states = build_interpolant(ego).states_at(stamp_arr)
    bounds = {}
    if noise is not None:
        assert envelope is not None
        bounds = {
            "pos_bound": position_bound(noise, envelope, convention),
            "vel_bound": velocity_bound(noise, envelope, convention),
            "yaw_var": yaw_variance(noise),
        }

    rels = []
    boxes = []
    for target in targets:
        rel = relative_state(ego_states, build_interpolant(target).states_at(stamp_arr))
        rels.append(rel)
        boxes.append(bbox_footprint(rel, _geometry_for(geometry, target.vehicle_id)))
    t = np.tile(stamp_arr, len(targets))
    target_id = np.repeat(ids, stamp_arr.size)
    order = np.lexsort((target_id, t))
    return RecordSet(
        t[order],
        target_id[order],
        *(np.concatenate(column)[order] for column in zip(*rels)),
        bbox=np.concatenate(boxes)[order],
        **bounds,
    )


_ROW_FORMAT = (
    '{"t": %.9g, "target_id": %s, "x": %.9g, "y": %.9g, "vx": %.9g, '
    '"vy": %.9g, "psi": %.9g, "bbox": [[%.9g, %.9g], [%.9g, %.9g], '
    "[%.9g, %.9g], [%.9g, %.9g]]"
)


def _cov_json(cov: CovBound2) -> str:
    f = fmt_float
    return f'{{"a": {f(cov.a)}, "b": {f(cov.b)}, "c": {f(cov.c)}}}'


def record_to_json(records: RecordSet) -> Iterator[str]:
    """Each record as one JSON Lines row: fixed key order, floats at 9
    significant digits, newline included. Rows are formatted lazily.

    Refuses non-finite values, which JSON cannot carry. The bounds suffix
    is formatted once, since the bounds are dataset constants.
    """
    corners = records.bbox.reshape(-1, 8).T
    columns = [records.t, records.x, records.y, records.vx, records.vy, records.psi]
    for name, column in zip(("t", "x", "y", "vx", "vy", "psi", "bbox"), [*columns, corners]):
        if not np.isfinite(column).all():
            raise ValueError(f"cannot serialize non-finite {name} values")
    tail = "}\n"
    if records.pos_bound is not None:
        tail = (
            f', "pos_bound": {_cov_json(records.pos_bound)}, '
            f'"vel_bound": {_cov_json(records.vel_bound)}, '
            f'"yaw_var": {fmt_float(records.yaw_var)}}}\n'
        )
    row_format = _ROW_FORMAT + tail
    ids = records.target_id.tolist()
    quoted = {name: json.dumps(name) for name in set(ids)}
    t, *state = (column.tolist() for column in columns)
    rows = zip(t, [quoted[name] for name in ids], *state, *corners.tolist())
    return (row_format % row for row in rows)


def write_records_jsonl(records: RecordSet, dest: str | Path | IO[str]) -> None:
    with opened(dest, "w") as stream:
        stream.writelines(record_to_json(records))


# The types json gives a JSON number; bool is neither, so test the type.
_NUMBER = {int, float}


def read_records_jsonl(source: str | Path | IO[str]) -> RecordSet:
    """Parse records written by write_records_jsonl; errors name the line.

    Values must be JSON numbers and target_id a JSON string. The bounds are
    built from the first record, and every other record must repeat them.
    """
    rows: list[list[float]] = []
    ids: list[str] = []
    lines: list[int] = []
    first = bounds = None
    with opened(source) as stream:
        for line_no, line in enumerate(stream, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                data = json.loads(text)
            except (json.JSONDecodeError, RecursionError) as err:
                raise ParseError(f"invalid JSON: {err}", line_no)
            try:
                (ax, ay), (bx, by), (cx, cy), (dx, dy) = data["bbox"]
                row = [data["t"], data["x"], data["y"], data["vx"], data["vy"], data["psi"],
                       ax, ay, bx, by, cx, cy, dx, dy]
                kinds = set(map(type, row))
                raw = None
                if "pos_bound" in data:
                    raw = (data["pos_bound"], data["vel_bound"], data["yaw_var"])
                    if not rows:
                        bounds = (CovBound2(**raw[0]), CovBound2(**raw[1]), float(raw[2]))
                if rows and raw != first:
                    raise ValueError("bounds differ from the first record's")
                if raw:
                    kinds.update(map(type, [*raw[0].values(), *raw[1].values(), raw[2]]))
                if not kinds <= _NUMBER:
                    names = sorted(kind.__name__ for kind in kinds - _NUMBER)
                    raise ValueError(f"values must be JSON numbers, got {names}")
                # An int past the float range fails here, naming its line.
                if int in kinds:
                    row = [float(v) for v in row]
                target_id = data["target_id"]
                if not isinstance(target_id, str):
                    raise ValueError(f"target_id must be a JSON string, got {target_id!r}")
                ids.append(target_id)
            except (KeyError, TypeError, ValueError, OverflowError) as err:
                raise ParseError(f"bad record: {err}", line_no)
            first = raw
            rows.append(row)
            lines.append(line_no)
    table = np.array(rows, dtype=float).reshape(-1, 14)
    psi = table[:, 5]
    bad = ~np.isfinite(table).all(axis=1) | ~(psi > -math.pi) | (psi > math.pi)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(
            "bad record: values must be finite and psi in (-pi, pi], got "
            f"{table[i, :6].tolist()}",
            lines[i],
        )
    t, x, y, vx, vy, psi = table[:, :6].T
    return RecordSet(
        t, np.array(ids, dtype=str), x, y, vx, vy, psi,
        table[:, 6:].reshape(-1, 4, 2), *(bounds or (None, None, None)),
    )
