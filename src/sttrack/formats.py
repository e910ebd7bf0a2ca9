"""JSONL interchange formats.

Every output file starts with a header object carrying the schema version,
the file kind, the fully resolved configuration, a version string, and a
creation timestamp. The timestamp and the version (from `git describe
--dirty`, so it differs between a clean checkout and an edited tree of one
commit) say when and from what a file was written, not what it holds;
`normalized_digest` hashes a file with both removed so byte-level
determinism checks can ignore them. It also reads the metrics file that
`sttrack eval` writes, which is one indented JSON document with the header
under "header" rather than JSONL. Readers raise `FormatError` naming the
file and the 1-based line of a line that is not JSON, of a header whose
config lacks `frames` (or `dt`, where the reader needs it), of a detections
header whose `frames` or `dt` differs from its ground truth's, or of a row
whose frame is outside the header's frame count, that lacks a key, whose
`frame`, id or `provenance` is not a JSON integer, whose `provenance` is
below -1, or whose decoding fails on a value of the wrong type.

Row schemas (one JSON object per line after the header):
  ground_truth: frame, object_id, class, cx, cy, cz, w, l, h, heading,
                state {px, py, vx, vy, ax, ay}
  detections:   frame, id, class, cx, cy, cz, w, l, h, heading, conf,
                appearance [...], motion [...], provenance (-1 = false pos.)
  tracks:       frame, track_id, class, cx, cy, cz, w, l, h, heading, conf,
                state {px, py, vx, vy, ax, ay}
"""

from __future__ import annotations

import datetime
import functools
import hashlib
import json
import subprocess
from pathlib import Path

from . import __version__
from .core import Box7, ClassId, Detection, StateVector
from .metrics import EvalBox
from .runtime import TrackerOutput
from .sim import FALSE_POSITIVE, GtTrack, Scenario

SCHEMA_VERSION = 1

KINDS = ("ground_truth", "detections", "tracks")


class FormatError(ValueError):
    pass


@functools.cache
def version_string() -> str:
    """`git describe` of the source tree, looked up once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).parent,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


def make_header(kind: str, config: dict) -> dict:
    if kind not in KINDS and kind != "metrics":
        raise FormatError(f"unknown file kind: {kind!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "version": version_string(),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config,
    }


# `json.dumps(obj, sort_keys=True)` builds this same encoder on every call.
_encode = json.JSONEncoder(sort_keys=True).encode


def write_jsonl(path, kind: str, config: dict, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(_encode(make_header(kind, config)) + "\n")
        for row in rows:
            f.write(_encode(row) + "\n")


def read_jsonl(path, expected_kind: str | None = None) -> tuple[dict, list[dict]]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = _parse_line(path, 1, lines[0])
    if header.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(
            f"{path}: schema_version {header.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    if expected_kind is not None and header.get("kind") != expected_kind:
        raise FormatError(
            f"{path}: kind {header.get('kind')!r}, expected {expected_kind!r}"
        )
    return header, [
        _parse_line(path, line, text) for line, text in enumerate(lines[1:], start=2)
    ]


def _parse_line(path: Path, line: int, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{line}: {exc.msg} at column {exc.colno}") from None


def normalized_digest(path) -> str:
    """Content hash with the header's timestamp and version removed."""
    with open(path) as f:
        text = f.read()
    lines = text.splitlines()
    try:
        header = json.loads(lines[0])
        body = "\n".join(lines[1:])
    except json.JSONDecodeError:  # one JSON document, not JSONL: a metrics file
        doc = json.loads(text)
        header = doc.pop("header")
        body = json.dumps(doc, sort_keys=True)
    header.pop("created", None)
    header.pop("version", None)
    payload = json.dumps(header, sort_keys=True) + "\n" + body
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --- row encoders/decoders ---------------------------------------------------


def _box_fields(box: Box7) -> dict:
    return {
        "cx": box.center[0],
        "cy": box.center[1],
        "cz": box.center[2],
        "w": box.size[0],
        "l": box.size[1],
        "h": box.size[2],
        "heading": box.heading,
    }


def _box_from_row(row: dict) -> Box7:
    return Box7(
        (row["cx"], row["cy"], row["cz"]),
        (row["w"], row["l"], row["h"]),
        row["heading"],
    )


def _state_fields(state: StateVector) -> dict:
    return {
        "px": state.position[0],
        "py": state.position[1],
        "vx": state.velocity[0],
        "vy": state.velocity[1],
        "ax": state.acceleration[0],
        "ay": state.acceleration[1],
    }


def _state_from_row(row: dict) -> StateVector:
    return StateVector(
        (row["px"], row["py"]), (row["vx"], row["vy"]), (row["ax"], row["ay"])
    )


def scenario_rows(scenario: Scenario) -> tuple[list[dict], list[dict]]:
    gt_rows = []
    for k in range(scenario.frames):
        for track in scenario.gt_tracks:
            gt_rows.append(
                {
                    "frame": k,
                    "object_id": track.object_id,
                    "class": track.class_id.value,
                    **_box_fields(track.boxes[k]),
                    "state": _state_fields(track.states[k]),
                }
            )
    det_rows = []
    for k in range(scenario.frames):
        for det, prov in zip(scenario.detections[k], scenario.provenance[k]):
            det_rows.append(
                {
                    "frame": k,
                    "id": det.detection_id,
                    "class": det.class_id.value,
                    **_box_fields(det.box),
                    "conf": det.confidence,
                    "appearance": list(det.appearance),
                    "motion": list(det.motion),
                    "provenance": prov,
                }
            )
    return gt_rows, det_rows


def write_scenario(out_dir, name: str, scenario: Scenario, config: dict) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    gt_rows, det_rows = scenario_rows(scenario)
    meta = dict(config)
    meta["frames"] = scenario.frames
    meta["dt"] = scenario.dt
    gt_path = out_dir / f"{name}.gt.jsonl"
    det_path = out_dir / f"{name}.det.jsonl"
    write_jsonl(gt_path, "ground_truth", meta, gt_rows)
    write_jsonl(det_path, "detections", meta, det_rows)
    return gt_path, det_path


def _header_config(path, header: dict, key: str):
    """`header["config"][key]`; a header without it raises FormatError on
    line 1."""
    config = header.get("config")
    if not isinstance(config, dict) or key not in config:
        raise FormatError(f"{path}:1: header config lacks {key!r}")
    return config[key]


def _frames(path, header: dict) -> int:
    frames = _header_config(path, header, "frames")
    if type(frames) is not int or frames < 0:
        raise FormatError(
            f"{path}:1: header config frames must be an int >= 0, got {frames!r}"
        )
    return frames


def _int_field(row: dict, key: str) -> int:
    """`row[key]`, which must be a JSON integer (not a bool, float or string)."""
    value = row[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be int, not {type(value).__name__}")
    return value


def _per_frame(path, rows: list[dict], frames: int, decode) -> list[list]:
    """`decode(row)` of every row, grouped by the row's frame. A row whose
    frame is outside [0, frames), that lacks a key or whose values have the
    wrong type (a `frame` that is not an integer among them) raises
    FormatError naming the file and the row's 1-based line (the header is
    line 1)."""
    out: list[list] = [[] for _ in range(frames)]
    line = 1
    try:
        for line, row in enumerate(rows, start=2):
            k = _int_field(row, "frame")
            if not 0 <= k < frames:
                raise ValueError(f"frame {k} outside [0, {frames})")
            out[k].append(decode(row))
    except KeyError as exc:
        raise FormatError(f"{path}:{line}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}:{line}: {exc}") from None
    return out


def _detection_from_row(row: dict) -> Detection:
    return Detection(
        box=_box_from_row(row),
        appearance=tuple(row["appearance"]),
        motion=tuple(row["motion"]),
        confidence=row["conf"],
        frame_index=row["frame"],
        detection_id=_int_field(row, "id"),
        class_id=ClassId(row["class"]),
    )


def _labelled_detection_from_row(row: dict) -> tuple[Detection, int]:
    """A detection and its provenance: the object id, or -1 for a false
    positive."""
    provenance = _int_field(row, "provenance")
    if provenance < FALSE_POSITIVE:
        raise ValueError(f"provenance must be >= {FALSE_POSITIVE}, got {provenance}")
    return _detection_from_row(row), provenance


def _eval_box_from_row(row: dict, ident: str) -> EvalBox:
    return EvalBox(
        ident=_int_field(row, ident),
        class_id=ClassId(row["class"]),
        box=_box_from_row(row),
        state=_state_from_row(row["state"]),
    )


def read_detections(det_path) -> tuple[dict, tuple[tuple[Detection, ...], ...]]:
    """Detections file to its header and per-frame detections; the header's
    config holds the scene's `frames` and `dt`, both checked here."""
    header, rows = read_jsonl(det_path, "detections")
    frames = _frames(det_path, header)
    _header_config(det_path, header, "dt")
    detections = _per_frame(det_path, rows, frames, _detection_from_row)
    return header, tuple(map(tuple, detections))


def read_scenario(gt_path, det_path) -> Scenario:
    """Ground truth and detections of one scene; the two headers must agree
    on `frames` and `dt`."""
    gt_header, gt_rows = read_jsonl(gt_path, "ground_truth")
    det_header, det_rows = read_jsonl(det_path, "detections")
    frames = _frames(gt_path, gt_header)
    dt = _header_config(gt_path, gt_header, "dt")
    for key, gt_value, det_value in (
        ("frames", frames, _frames(det_path, det_header)),
        ("dt", dt, _header_config(det_path, det_header, "dt")),
    ):
        if det_value != gt_value:
            raise FormatError(
                f"{det_path}:1: header config {key} {det_value!r} differs from"
                f" {gt_value!r} in {gt_path}"
            )

    by_object: dict[int, list[EvalBox]] = {}
    for frame in _per_frame(
        gt_path, gt_rows, frames, lambda r: _eval_box_from_row(r, "object_id")
    ):
        for label in frame:
            by_object.setdefault(label.ident, []).append(label)
    gt_tracks = []
    for oid in sorted(by_object):
        labels = by_object[oid]
        if len(labels) != frames:
            raise FormatError(
                f"{gt_path}: object {oid}: {len(labels)} rows for {frames} frames"
            )
        gt_tracks.append(
            GtTrack(
                object_id=oid,
                class_id=labels[0].class_id,
                boxes=tuple(label.box for label in labels),
                states=tuple(label.state for label in labels),
            )
        )

    labelled = _per_frame(det_path, det_rows, frames, _labelled_detection_from_row)
    return Scenario(
        frames=frames,
        dt=dt,
        gt_tracks=tuple(gt_tracks),
        detections=tuple(tuple(det for det, _ in frame) for frame in labelled),
        provenance=tuple(tuple(prov for _, prov in frame) for frame in labelled),
    )


def tracker_rows(output: TrackerOutput) -> list[dict]:
    rows = []
    for frame_rows in output.frames:
        for r in frame_rows:
            rows.append(
                {
                    "frame": r.frame,
                    "track_id": r.track_id,
                    "class": r.class_id.value,
                    **_box_fields(r.box),
                    "conf": r.confidence,
                    "state": _state_fields(r.state),
                }
            )
    return rows


def write_tracker_output(path, output: TrackerOutput, config: dict, frames: int) -> None:
    meta = dict(config)
    meta["frames"] = frames
    write_jsonl(path, "tracks", meta, tracker_rows(output))


def read_pred_frames(path) -> tuple[dict, list[list[EvalBox]]]:
    """Tracks file to per-frame evaluation boxes."""
    header, rows = read_jsonl(path, "tracks")
    frames = _frames(path, header)
    return header, _per_frame(path, rows, frames, lambda r: _eval_box_from_row(r, "track_id"))


def read_label_frames(path) -> tuple[dict, list[list[EvalBox]]]:
    """Ground-truth file to per-frame evaluation boxes."""
    header, rows = read_jsonl(path, "ground_truth")
    frames = _frames(path, header)
    return header, _per_frame(path, rows, frames, lambda r: _eval_box_from_row(r, "object_id"))
