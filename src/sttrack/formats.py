"""JSONL interchange formats.

Every output file starts with a header object carrying the schema version,
the file kind, the fully resolved configuration, a version string, and a
creation timestamp. The timestamp and the version (from `git describe
--dirty`, so it differs between a clean checkout and an edited tree of one
commit) say when and from what a file was written, not what it holds;
`normalized_digest` hashes a file with both removed so byte-level
determinism checks can ignore them. It also reads the metrics file that
`sttrack eval` writes, which is one indented JSON document with the header
under "header" rather than JSONL.

Readers parse each line with `orjson`, which gives the same objects as
`json.loads` (types, key order and float bits) at about a fifth of the cost;
a line it rejects is parsed again with `json`, so `NaN`, `Infinity` and
`1e400` reach the row checks and a malformed line keeps `json`'s message.
Writers spell each row as `json.dumps(row, sort_keys=True)` does, straight
from the columns the program holds (ground truth, detections and tracker
output), without building the row: each kind's line is one `%`-template with
its keys in sorted order, filled a block of rows at a time. Ints go in with
`%d`; one `orjson` call spells a block's floats, as `json` does (both write a
float's shortest round-trip digits), and `json` spells again the few that
`orjson` writes otherwise: NaN and the infinities (`null`), and floats that
`json` writes in exponent form (`1e-05`, `1e+16`). Headers are written with
`json`.

Row schemas (one JSON object per line after the header):
  ground_truth: frame, object_id, class, cx, cy, cz, w, l, h, heading,
                state {px, py, vx, vy, ax, ay}
  detections:   frame, id, class, cx, cy, cz, w, l, h, heading, conf,
                appearance [...], motion [...], provenance (-1 = false pos.)
  tracks:       frame, track_id, class, cx, cy, cz, w, l, h, heading, conf,
                state {px, py, vx, vy, ax, ay}

One key list per row part (`_BOX_KEYS`, `_STATE_KEYS`) drives the writers
and the readers. Readers raise `FormatError` naming the file and 1-based
line (the header is line 1) of a line that is not UTF-8 or not JSON; of a
header config without an int `frames` >= 0 or (where needed) a number
`dt` > 0; of a detections header whose `frames` or `dt` differs from its
ground truth's; and of a row's first broken rule, in this order for all kinds:
  - the row is an object;
  - `frame` is a 64-bit JSON integer (`orjson` reads one outside [-2**63,
    2**64) as a float) in [0, frames); the id (`object_id`, `id`,
    `track_id`) is one too, unique within its frame;
  - the box keys and (detections and tracks) `conf` are present, are JSON
    numbers (not bools or strings) and fit a float (an integer past 1.8e308,
    which only `json` reads, does not); `conf` is in [0, 1];
  - `class` is "vehicle" or "pedestrian";
  - sizes are finite and > 0, then the center and the heading are finite;
  - ground truth and tracks: `state` is an object whose keys are present,
    are numbers that fit a float, and are finite;
  - detections: `provenance` is a 64-bit JSON integer >= -1; then
    `appearance`, then `motion`, is a list of numbers that fit a float, as
    long as line 2's, and finite.
A ground-truth object without one row in every frame names its file.

The checks run over whole columns (a type set per key, one array comparison
per bound, one set for repeats) and the numbers go into float64 arrays, so an
integer-valued number reads as a float; headings outside (-pi, pi] are
normalized as `Box7` does. Ids stay Python ints, as 64-bit JSON integers
reach 2**64 - 1. When a check fails, the reader finds the file's first bad
row and raises the message the rules give that row. Ground-truth and tracks
files become a `metrics.EvalTable` grouped by frame, detections files one
`core.Detections` table per frame; each frame keeps its rows in file order.
The writers take detections and tracker output as the same columns.
"""

from __future__ import annotations

import datetime
import functools
import hashlib
import itertools
import json
import math
import operator
import subprocess
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import orjson

from . import __version__
from .core import ClassId, Detections, normalize_heading
from .metrics import EvalTable
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


def write_jsonl(path, kind: str, config: dict, blocks) -> None:
    """A `kind` file: its header line, then `blocks`, each the bytes of whole
    rows' lines (see `_lines`)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(_encode(make_header(kind, config)).encode() + b"\n")
        f.writelines(blocks)


def read_jsonl(path, expected_kind: str | None = None) -> tuple[dict, list[dict]]:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    lines = path.read_bytes().splitlines()
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


def _parse_line(path: Path, line: int, text: bytes):
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        pass
    # What orjson rejects: NaN, Infinity and numbers beyond the float range,
    # which reach the row checks as `json` reads them; lone surrogate escapes,
    # which `json` accepts; malformed lines, which keep `json`'s message; and
    # lines that are not UTF-8.
    try:
        return json.loads(text.decode())
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}:{line}: not UTF-8: {exc.reason} at byte {exc.start + 1}"
        ) from None
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


# --- row parts: one key list each for the writers and the readers ------------

_BOX_KEYS = ("cx", "cy", "cz", "w", "l", "h", "heading")
_STATE_KEYS = ("px", "py", "vx", "vy", "ax", "ay")
_SCORED_KEYS = (*_BOX_KEYS, "conf")  # detections and tracks rows
_box_values = operator.itemgetter(*_BOX_KEYS)
_NUMBERS = frozenset((int, float))  # what `json.loads` makes of a JSON number
_CLASSES = {c.value: c for c in ClassId}


# --- rows: one checker for every kind ----------------------------------------


class _RowError(Exception):
    """A column check's first failing row, as `(index, message)`: the index
    counts rows after the header from 0."""


def _fail_where(bad, message) -> None:
    """Raise _RowError at the first row where `bad` (one flag per row)
    holds, if any, with `message(row index)`."""
    hits = np.flatnonzero(bad)
    if hits.size:
        i = int(hits[0])
        raise _RowError(i, message(i))


def _check_types(values: list, types, name: str, kind: str) -> None:
    """Raise _RowError at the first of `values` whose type is not one of
    `types`: "<name> must be <kind>, not <its type>"."""
    if not types.issuperset(map(type, values)):
        _fail_where(
            [type(v) not in types for v in values],
            lambda i: f"{name} must be {kind}, not {type(values[i]).__name__}",
        )


def _column(rows: list[dict], key: str, types=None, kind: str = "") -> list:
    """The values at `key` of `rows`, each present and (with `types`) of
    one of `types`."""
    try:
        values = list(map(operator.itemgetter(key), rows))
    except KeyError:
        _fail_where([key not in row for row in rows], lambda i: f"missing key {key!r}")
    if types is not None:
        _check_types(values, types, key, kind)
    return values


def _float_items(values: list, names) -> np.ndarray:
    """The items of `values` (one sequence per row) as one flat float64
    array; `names` names a row's items in errors, in order. Each item is a
    JSON number, then fits a float."""
    flat = list(itertools.chain.from_iterable(values))
    if not _NUMBERS.issuperset(map(type, flat)):  # rows may differ in length: pad with a number
        for name, column in zip(names, itertools.zip_longest(*values, fillvalue=0)):
            _check_types(column, _NUMBERS, name, "int or float")
    try:
        return np.array(flat, dtype=float)
    except OverflowError:  # an integer beyond the float range, which only json reads
        _fail_where(list(map(_overflows, values)), lambda i: "int too large to convert to float")
        raise


def _overflows(numbers) -> bool:
    try:
        list(map(float, numbers))
    except OverflowError:
        return True
    return False


def _number_array(rows: list, keys: tuple, label: str = "{}") -> np.ndarray:
    """The values at `keys` of each of `rows` (dicts), as an (N, len(keys))
    float64 array; `label` names a key in errors. Each key is present in
    every row, then each value is a JSON number, then fits a float."""
    try:
        values = list(map(operator.itemgetter(*keys), rows))
    except KeyError:
        for key in keys:
            _column(rows, key)
        raise
    return _float_items(values, map(label.format, keys)).reshape(len(rows), len(keys))


def _in_range(values: list, low, high, message) -> None:
    """Raise _RowError at the first of `values` outside [low, high), with
    `message(value)`."""
    if values and not (min(values) >= low and max(values) < high):
        _fail_where([not low <= v < high for v in values], lambda i: message(values[i]))


def _finite(values: np.ndarray, message) -> np.ndarray:
    """`values` (one row per file row), if finite; else raise _RowError at its
    first row that is not, with `message(i, j, v)` of its first non-finite
    `v`, at `j`, in row `i`."""
    bad = ~np.isfinite(values)

    def first(i: int) -> str:
        j = int(bad[i].argmax())
        return message(i, j, float(values[i, j]))

    _fail_where(bad.any(axis=1), first)
    return values


def _state_tail(rows: list) -> tuple[np.ndarray]:
    """The (N, 6) states of ground-truth or tracks rows."""
    states = _number_array(_column(rows, "state", {dict}, "an object"), _STATE_KEYS, "state.{}")
    return (_finite(states, lambda i, j, v: f"non-finite state component: {v!r}"),)


def _feature_array(rows: list, key: str) -> np.ndarray:
    """The lists at `key` of detections rows as an (N, width) array: JSON
    numbers, as many as line 2's, finite."""
    values = _column(rows, key, {list}, "a list")
    flat = _float_items(values, map(f"{key}[{{}}]".format, itertools.count()))
    widths = list(map(len, values))
    if len(set(widths)) > 1:
        _fail_where(
            [n != widths[0] for n in widths],
            lambda i: f"{key} has {widths[i]} values, line 2 has {widths[0]}",
        )
    features = flat.reshape(len(rows), widths[0] if rows else 0)
    return _finite(features, lambda i, j, v: f"{key}[{j}] must be finite, got {v!r}")


def _detection_tail(rows: list) -> tuple[list, np.ndarray, np.ndarray]:
    """The provenance, (N, d_a) appearance and (N, d_m) motion of detections
    rows."""
    provenance = _column(rows, "provenance", {int}, "int")
    bound = f"provenance must be >= {FALSE_POSITIVE}, got {{}}"
    _in_range(provenance, FALSE_POSITIVE, math.inf, bound.format)
    return provenance, _feature_array(rows, "appearance"), _feature_array(rows, "motion")


# Each kind's id key, number keys and checks after the shared ones.
_KIND_ROWS = {
    "ground_truth": ("object_id", _BOX_KEYS, _state_tail),
    "detections": ("id", _SCORED_KEYS, _detection_tail),
    "tracks": ("track_id", _SCORED_KEYS, _state_tail),
}


def _columns(rows: list, frames: int, kind: str) -> tuple:
    """The frames, ids, classes, (N, len(number keys)) numbers and tail
    columns of a `kind` file's rows, in file order. The checks run one column
    at a time in the order of the rules (see the module docstring); the first
    check that fails raises _RowError at the first row it rejects."""
    ident, keys, tail = _KIND_ROWS[kind]
    _check_types(rows, {dict}, "row", "an object")
    frame = _column(rows, "frame", {int}, "int")
    _in_range(frame, 0, frames, f"frame {{}} outside [0, {frames})".format)
    ids = _column(rows, ident, {int}, "int")
    pairs = list(zip(frame, ids))
    if len(set(pairs)) < len(pairs):
        first: dict[tuple[int, int], int] = {}
        _fail_where(
            [first.setdefault(pair, i) != i for i, pair in enumerate(pairs)],
            lambda i: f"{ident} {ids[i]} repeats in frame {frame[i]}",
        )
    values = _number_array(rows, keys)
    if "conf" in keys:
        conf = values[:, 7]
        _fail_where(
            ~((conf >= 0) & (conf <= 1)),
            lambda i: f"conf must be in [0, 1], got {rows[i]['conf']!r}",
        )
    names = _column(rows, "class")
    try:
        classes = [_CLASSES[name] for name in names]
    except (KeyError, TypeError):  # an unknown name, or a list or object
        _fail_where(
            [type(name) is not str or name not in _CLASSES for name in names],
            lambda i: f"class must be one of {', '.join(_CLASSES)}, got {names[i]!r}",
        )
    size = values[:, 3:6]
    _fail_where(
        ~((size > 0.0) & (size < math.inf)).all(axis=1),
        lambda i: f"box sizes must be strictly positive, got {_box_values(rows[i])[3:6]}",
    )
    _finite(values[:, :3], lambda i, j, v: f"non-finite box center: {_box_values(rows[i])[:3]}")
    _finite(values[:, 6:7], lambda i, j, v: f"non-finite heading: {v}")
    heading = values[:, 6]
    for i in np.flatnonzero(~((heading > -math.pi) & (heading <= math.pi))).tolist():
        heading[i] = normalize_heading(float(heading[i]))  # as `Box7` does
    return frame, ids, classes, values, *tail(rows)


def _read_rows(path, kind: str, frames: int, rows: list) -> tuple:
    """Frame offsets (length frames + 1), then `_columns`' columns after the
    frames, grouped by frame with each frame's rows in file order. When a
    check fails, the rows before the row it rejects are checked again until
    they pass (each pass fails at a later check): the row rejected last is
    the first bad row, and its error names the first rule that row breaks."""
    try:
        frame, *columns = _columns(rows, frames, kind)
    except _RowError as error:
        index, message = error.args
        while True:
            try:
                _columns(rows[:index], frames, kind)
            except _RowError as error:
                index, message = error.args
            else:
                raise FormatError(f"{path}:{index + 2}: {message}") from None
    frame = np.array(frame, dtype=np.intp)
    order = np.argsort(frame, kind="stable").tolist()
    offsets = np.concatenate(([0], np.cumsum(np.bincount(frame, minlength=frames))))
    return offsets, *(
        column[order] if isinstance(column, np.ndarray) else [column[i] for i in order]
        for column in columns
    )


def _eval_table(path, kind: str, frames: int, rows: list) -> EvalTable:
    """A ground-truth or tracks file's rows as a table."""
    offsets, ids, classes, values, states = _read_rows(path, kind, frames, rows)
    return EvalTable(offsets, ids, classes, np.ascontiguousarray(values[:, :7]), states)


def _detection_frames(path, frames: int, rows: list) -> tuple[tuple[Detections, ...], tuple]:
    """Per-frame detections tables and per-frame provenance of a detections
    file's rows."""
    offsets, ids, classes, values, provenance, appearance, motion = _read_rows(
        path, "detections", frames, rows
    )
    offsets = offsets.tolist()
    table = Detections(
        ids, classes, np.ascontiguousarray(values[:, :7]), values[:, 7].copy(), appearance, motion
    )
    return table.split(offsets), tuple(
        tuple(provenance[a:b]) for a, b in itertools.pairwise(offsets)
    )


# --- writers -----------------------------------------------------------------


# Rows per encoded block: enough that the per-block calls cost little per
# row, few enough that a block's bytes and spellings stay small.
_BLOCK_ROWS = 2048
_CLASS_SPELLINGS = {c: _encode(c.value).encode() for c in ClassId}


def _float_spellings(values: np.ndarray) -> list[bytes]:
    """`json`'s spelling of each of `values`, a flat contiguous float64 array.
    One `orjson` call spells them all; `json` spells again the values that
    `orjson` spells otherwise: NaN and the infinities (`null`), and those that
    `json` writes in exponent form, |v| < 1e-4 or >= 1e16 (`orjson` writes
    `1e-6`, `0.00005` and `1e16` for `1e-06`, `5e-05` and `1e+16`)."""
    if not values.size:
        return []
    spellings = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    size = np.abs(values)
    odd = np.flatnonzero(~(((size >= 1e-4) & (size < 1e16)) | (values == 0.0)))
    for i, value in zip(odd.tolist(), values[odd].tolist()):
        spellings[i] = _encode(value).encode()
    return spellings


def _template(fields: dict, floats: list, columns: list) -> bytes:
    """The `%`-template of one row of `fields` (see `_lines`), keys in sorted
    order; appends each slot's column to `columns` in template order, a float
    slot as its column's index in the concatenation of `floats`."""
    slots = []
    for key in sorted(fields):
        column = fields[key]
        if isinstance(column, dict):
            slot = _template(column, floats, columns)
        elif isinstance(column, np.ndarray):
            width = 1 if column.ndim == 1 else column.shape[1]
            at = sum(block.shape[1] for block in floats)
            floats.append(column.reshape(len(column), width))
            columns.extend(range(at, at + width))
            slot = b"%s" if column.ndim == 1 else b"[" + b", ".join([b"%s"] * width) + b"]"
        else:
            columns.append(column)
            slot = b"%s" if column and type(column[0]) is bytes else b"%d"
        slots.append(_encode(key).encode() + b": " + slot)
    return b"{" + b", ".join(slots) + b"}"


def _lines(rows: int, fields: dict) -> bytes:
    """`rows` lines, each a row as `json.dumps(row, sort_keys=True)` spells
    it. `fields` maps each key to its column: a list of ints or of spellings
    (bytes), a float64 array of one number per row (n,) or a list of numbers
    per row (n, width), or a dict of such columns, an object per row."""
    floats, columns = [], []
    line = _template(fields, floats, columns) + b"\n"
    numbers = np.concatenate(floats, axis=1)
    spellings, width = _float_spellings(numbers.ravel()), numbers.shape[1]
    columns = [spellings[c::width] if type(c) is int else c for c in columns]
    values = [None] * (rows * len(columns))
    for j, column in enumerate(columns):
        values[j :: len(columns)] = column
    return line * rows % tuple(values)


def _table_lines(frames: list, ident: str, tail: tuple) -> Iterator[bytes]:
    """The lines of per-frame tables, each a tuple of columns (lists or
    arrays): ids, classes, (n, 7) boxes, then the columns that `tail` names,
    a "state" column (n, 6) written as an object. They go in blocks of whole
    frames, each ending once it holds `_BLOCK_ROWS` rows."""
    start, rows = 0, 0
    for stop, table in enumerate(frames, start=1):
        rows += len(table[0])
        if rows < _BLOCK_ROWS and stop < len(frames):
            continue
        tables = frames[start:stop]
        counts = [len(table[0]) for table in tables]
        ids, classes, boxes, *rest = (
            np.concatenate(column) if isinstance(column[0], np.ndarray)
            else list(itertools.chain.from_iterable(column))
            for column in zip(*tables)
        )
        fields = {
            "frame": np.repeat(np.arange(start, stop), counts).tolist(),
            ident: ids,
            "class": list(map(_CLASS_SPELLINGS.__getitem__, classes)),
            **dict(zip(_BOX_KEYS, boxes.T)),
        }
        for name, column in zip(tail, rest):
            fields[name] = dict(zip(_STATE_KEYS, column.T)) if name == "state" else column
        yield _lines(rows, fields)
        start, rows = stop, 0


def write_scenario(out_dir, name: str, scenario: Scenario, config: dict) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    meta = dict(config)
    meta["frames"] = scenario.frames
    meta["dt"] = scenario.dt
    gt_path = out_dir / f"{name}.gt.jsonl"
    det_path = out_dir / f"{name}.det.jsonl"
    tracks = scenario.gt_tracks
    ids, classes = [t.object_id for t in tracks], [t.class_id for t in tracks]
    boxes = np.array([t.boxes for t in tracks]).reshape(len(tracks), scenario.frames, 7)
    states = np.array([t.states for t in tracks]).reshape(len(tracks), scenario.frames, 6)
    gt = [(ids, classes, boxes[:, k], states[:, k]) for k in range(scenario.frames)]
    write_jsonl(gt_path, "ground_truth", meta, _table_lines(gt, "object_id", ("state",)))
    detections = [(*dets, prov) for dets, prov in zip(scenario.detections, scenario.provenance)]
    tail = ("conf", "appearance", "motion", "provenance")
    write_jsonl(det_path, "detections", meta, _table_lines(detections, "id", tail))
    return gt_path, det_path


def write_tracker_output(path, output: TrackerOutput, config: dict, frames: int) -> None:
    meta = dict(config)
    meta["frames"] = frames
    write_jsonl(path, "tracks", meta, _table_lines(output.frames, "track_id", ("conf", "state")))


# --- readers: header, then frame count, then per-frame rows ------------------


# The header config keys that readers use: their JSON types, check and bound.
_HEADER_KEYS = {
    "frames": ({int}, lambda frames: frames >= 0, "an int >= 0"),
    "dt": (_NUMBERS, lambda dt: 0 < dt < math.inf, "a number > 0"),
}


def _header_config(path, header: dict, key: str):
    """`header["config"][key]`, checked; a bad one raises FormatError on line 1."""
    config = header.get("config")
    if not isinstance(config, dict) or key not in config:
        raise FormatError(f"{path}:1: header config lacks {key!r}")
    types, ok, bound = _HEADER_KEYS[key]
    if type(config[key]) not in types or not ok(config[key]):
        raise FormatError(f"{path}:1: header config {key} must be {bound}, got {config[key]!r}")
    return config[key]


def _open(path, kind: str) -> tuple[dict, int, list]:
    """Header, frame count and undecoded rows of a `kind` file."""
    header, rows = read_jsonl(path, kind)
    return header, _header_config(path, header, "frames"), rows


def read_detections(det_path) -> tuple[float, tuple[Detections, ...]]:
    """Detections file to the scene's `dt` and its per-frame detections tables."""
    header, frames, rows = _open(det_path, "detections")
    return _header_config(det_path, header, "dt"), _detection_frames(det_path, frames, rows)[0]


def read_scenario(gt_path, det_path) -> Scenario:
    """Ground truth and detections of one scene; the two headers must agree
    on `frames` and `dt`."""
    gt_header, frames, gt_rows = _open(gt_path, "ground_truth")
    det_header, det_frames, det_rows = _open(det_path, "detections")
    dt = _header_config(gt_path, gt_header, "dt")
    det_dt = _header_config(det_path, det_header, "dt")
    for key, gt_value, det_value in (("frames", frames, det_frames), ("dt", dt, det_dt)):
        if det_value != gt_value:
            raise FormatError(
                f"{det_path}:1: header config {key} {det_value!r} differs from"
                f" {gt_value!r} in {gt_path}"
            )

    labels = _eval_table(gt_path, "ground_truth", frames, gt_rows)
    by_object: dict[int, list[int]] = {}
    for row, oid in enumerate(labels.ids):
        by_object.setdefault(oid, []).append(row)
    gt_tracks = []
    for oid, rows in sorted(by_object.items()):
        if len(rows) != frames:
            raise FormatError(f"{gt_path}: object {oid}: {len(rows)} rows for {frames} frames")
        gt_tracks.append(
            GtTrack(oid, labels.classes[rows[0]], labels.boxes[rows], labels.states[rows])
        )

    detections, provenance = _detection_frames(det_path, frames, det_rows)
    return Scenario(frames, dt, tuple(gt_tracks), detections, provenance)


def read_pred_frames(path) -> tuple[dict, EvalTable]:
    """Tracks file to its table of evaluation rows."""
    header, frames, rows = _open(path, "tracks")
    return header, _eval_table(path, "tracks", frames, rows)


def read_label_frames(path) -> tuple[dict, EvalTable]:
    """Ground-truth file to its table of evaluation rows."""
    header, frames, rows = _open(path, "ground_truth")
    return header, _eval_table(path, "ground_truth", frames, rows)
