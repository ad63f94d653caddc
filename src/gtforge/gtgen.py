"""Ground-truth record generation: the end-to-end pipeline step.

Takes one ego log and any number of target logs (same projected plane,
already retimed) and a stamp list; interpolates all logs, forms each
target's relative state in the ego frame, attaches the vehicle-footprint
corners and, when given, the dataset-level bounds: None or the tuple
(position, velocity, yaw_var), which the caller forms from a noise model
and a scenario envelope.

Records are held as a RecordSet: one array per column, one row per
(stamp, target), with the bounds stored once. They serialize to JSON Lines,
one record per line, keys in fixed order (t, target_id, x, y, vx, vy, psi,
bbox, pos_bound, vel_bound, yaw_var), floats with 9 significant digits.
Identical inputs produce bit-identical files.

Logs in different UTM zones or hemispheres, and other inconsistent
arguments, raise ValueError; a malformed stamp or records file raises
ParseError naming the file and its line; a log too short to interpolate,
stamps outside the logs and a missing ego yaw rate raise GtForgeError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._util import fmt_float, opened, positive
from .egokin import RelativeState, relative_state
from .errors import GtForgeError, ParseError
from .resample import build_interpolant
from .trajlog import Trajectory
from .trajlog import apply_clock_model  # noqa: F401 unused; perfbench probes this binding
from .uncert import CovBound2


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
        if not all(map(math.isfinite, self.ref_to_center)):
            raise ValueError(f"ref_to_center must be finite, got {self.ref_to_center!r}")


@dataclass(frozen=True, eq=False)
class RecordSet:
    """Ground-truth records as columns, sorted by (t, target_id).

    Row i is one target observed in the ego frame at stamp t[i]: x, y, vx,
    vy, psi as in RelativeState, and bbox[i] its four footprint corners in
    canonical order front-left, front-right, rear-right, rear-left, so bbox
    has shape (n, 4, 2). bounds is None or the dataset-level constants
    (position, velocity, yaw_var) that every record carries.
    """

    t: np.ndarray
    target_id: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    psi: np.ndarray
    bbox: np.ndarray
    bounds: tuple[CovBound2, CovBound2, float] | None = None

    def __post_init__(self) -> None:
        if self.bbox.shape != (len(self), 4, 2):
            raise ValueError(f"bbox must have shape (n, 4, 2), got {self.bbox.shape}")

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

    A last stamp that rounding puts past t1 is clamped to t1. More than
    2**59 stamps, synth.RunSpec's limit, are refused before any is made.
    """
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be positive, got {rate}")
    if t1 < t0:
        raise ValueError(f"empty window: [{t0}, {t1}]")
    span = (t1 - t0) * rate + 1e-9
    if span >= 2**59:
        raise ValueError(f"rate {rate:g} Hz over [{t0:g}, {t1:g}] gives more than 2**59 stamps")
    count = int(math.floor(span))
    return np.minimum(t0 + np.arange(count + 1) / rate, t1)


def read_stamps(source: str | Path) -> np.ndarray:
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
    """ValueError naming every log with its zone (or hemisphere) unless
    the logs that carry one all share it."""
    for name, what in (("zone", "UTM zones"), ("hemisphere", "hemispheres")):
        tags = {t.vehicle_id: getattr(t, name) for t in trajectories}
        tags = {vid: tag for vid, tag in tags.items() if tag is not None}
        if len(set(tags.values())) > 1:
            raise ValueError(f"trajectories live in different {what}: {tags}")


def generate_records(
    ego: Trajectory,
    targets: Sequence[Trajectory],
    stamps,
    geometry: VehicleGeometry | Mapping[str, VehicleGeometry],
    bounds: tuple[CovBound2, CovBound2, float] | None = None,
) -> RecordSet:
    """Produce ground-truth records for every (stamp, target) pair.

    The logs come already retimed. Every stamp must lie in every
    trajectory's support (a GtForgeError names the offenders otherwise).
    bounds, None or (position, velocity, yaw_var), is attached to every
    record as given; it needs a logged ego yaw rate, and a GtForgeError
    names an ego without one. The logs are interpolated in (ego, *targets)
    order, so the first that fails is the one reported. Records come back
    sorted by (t, target_id).
    """
    if not targets:
        raise ValueError("need at least one target trajectory")
    ids = [t.vehicle_id for t in targets]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate target ids: {ids}")
    if ego.vehicle_id in ids:
        raise ValueError(f"ego id {ego.vehicle_id!r} also appears as a target")
    if bounds is not None and not ego.has_yaw_rate:
        raise GtForgeError(f"ego {ego.vehicle_id!r} has no yaw rate; bounds need a logged one")
    _check_zones([ego, *targets])

    stamp_arr = np.sort(np.asarray(stamps, dtype=float).ravel())
    if stamp_arr.size == 0:
        raise ValueError("no stamps given")

    ego_states, *target_states = [
        build_interpolant(traj).states_at(stamp_arr) for traj in [ego, *targets]
    ]

    rels = []
    boxes = []
    for target, states in zip(targets, target_states):
        rel = relative_state(ego_states, states)
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
        bounds=bounds,
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
    if records.bounds is not None:
        position, velocity, yaw_var = records.bounds
        tail = (
            f', "pos_bound": {_cov_json(position)}, "vel_bound": {_cov_json(velocity)}, '
            f'"yaw_var": {fmt_float(yaw_var)}}}\n'
        )
    row_format = _ROW_FORMAT + tail
    ids = records.target_id.tolist()
    quoted = {name: json.dumps(name) for name in set(ids)}
    t, *state = (column.tolist() for column in columns)
    rows = zip(t, [quoted[name] for name in ids], *state, *corners.tolist())
    return (row_format % row for row in rows)


def write_records_jsonl(records: RecordSet, dest: str | Path) -> None:
    """Write records as JSON Lines; a refused RecordSet leaves dest as it was."""
    rows = record_to_json(records)  # checks every value before dest is opened
    with opened(dest, "w") as stream:
        stream.writelines(rows)


def read_records_jsonl(source: str | Path) -> RecordSet:
    """Parse records written by write_records_jsonl; errors name the line.

    Values must be JSON numbers, each read as a float, and target_id a JSON
    string. The bounds are built from the first record, and every other
    record must repeat them.
    """
    rows: list[list[float]] = []
    ids: list[str] = []
    lines: list[int] = []
    first = bounds = None
    decode = json.JSONDecoder(parse_int=float).decode  # one decoder, -0 read as -0.0
    with opened(source) as stream:
        for line_no, line in enumerate(stream, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                data = decode(text)
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
                        if not (math.isfinite(bounds[2]) and bounds[2] >= 0.0):
                            raise ValueError(f"yaw_var must be >= 0 and finite, got {raw[2]}")
                if rows and raw != first:
                    raise ValueError("bounds differ from the first record's")
                if raw:
                    kinds.update(map(type, [*raw[0].values(), *raw[1].values(), raw[2]]))
                if kinds != {float}:
                    names = sorted(kind.__name__ for kind in kinds - {float})
                    raise ValueError(f"values must be JSON numbers, got {names}")
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
        bad = ~np.isfinite(table)
        bad[:, 5] = ~(psi > -math.pi) | (psi > math.pi)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), 14)  # first bad value, row by row
            name = f"bbox[{j // 2 - 3}][{j % 2}]" if j > 5 else "t x y vx vy psi".split()[j]
            rule = "be in (-pi, pi]" if j == 5 else "be finite"
            raise ParseError(f"bad record: {name} must {rule}, got {table[i, j]}", lines[i])
    t, x, y, vx, vy, psi = table[:, :6].T
    return RecordSet(
        t, np.array(ids, dtype=str), x, y, vx, vy, psi,
        table[:, 6:].reshape(-1, 4, 2), bounds,
    )
