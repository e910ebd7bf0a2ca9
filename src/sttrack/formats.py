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
Writers spell each row as `json.dumps(row, sort_keys=True)` does, but encode
it with `orjson`, about a fifth of the cost: both write a float's shortest
round-trip digits, and the writer puts back the spaces `json` writes after
`,` and `:`. A row goes to `json` where its `orjson` line may differ: a value
of other than an exact builtin type (`orjson` writes enums, UUIDs and
dataclasses, which `json` rejects) or one `orjson` rejects (`numpy.float64`,
an int beyond 64 bits); a float that `json` writes in exponent form (`1e-05`,
`1e+16`); `null`, which is how `orjson` writes NaN and the infinities; and a
string holding an escape, `\x7f`, a non-ASCII character, `,` or `:`. Headers
are written with `json`.

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

import bisect
import datetime
import functools
import hashlib
import itertools
import json
import marshal
import math
import operator
import re
import subprocess
from pathlib import Path

import numpy as np
import orjson

from . import __version__
from .core import Box7, ClassId, Detections, StateVector, normalize_heading
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
_orjson_row = functools.partial(orjson.dumps, option=orjson.OPT_SORT_KEYS)

# Rows per encoded block: enough that the per-block calls cost little per
# row, few enough that a block's bytes stay small.
_BLOCK_ROWS = 256

# What can make json spell an orjson line otherwise. Floats json writes in
# exponent form: orjson writes `1e-6` and `1e16` (json `1e-06`, `1e+16`), and
# [1e-5, 1e-4) without one (`0.00005`, json `5e-05`).
_FLOAT_SPELLINGS = (re.compile(rb"e[-0-9]"), re.compile(rb"\.0000"))
# `null`: None, or NaN or an infinity, which json writes as `NaN`, `Infinity`.
_NULL = re.compile(rb"null")
# An escape, `\x7f` (json escapes it, orjson does not) and non-ASCII bytes
# (json escapes the character).
_ODD_BYTE = re.compile(rb"[\\\x7f-\xff]")
_NOT_QUOTE_OR_SEPARATOR = bytes(sorted(set(range(256)) - set(b'",:')))


def _plain_strings(text: bytes) -> bool:
    """Whether no string in `text`, compact JSON without escapes, holds `,` or
    `:`: only then is each string's pair of quotes adjacent once every byte but
    quotes and separators is deleted."""
    skeleton = text.translate(None, _NOT_QUOTE_OR_SEPARATOR)
    return skeleton.count(b'"') == 2 * skeleton.count(b'""')


def _orjson_lines(rows: list) -> tuple[list[bytes], set[int]]:
    """orjson's line of each row, and the rows json must write instead (with
    an empty line in their place): those holding a value of other than an
    exact builtin type, which marshal rejects (orjson writes enums, UUIDs and
    dataclasses, which json rejects), or one orjson rejects (an int beyond 64
    bits, a float subclass such as `numpy.float64`)."""
    try:
        marshal.dumps(rows)
        return list(map(_orjson_row, rows)), set()
    except (TypeError, ValueError):
        pass
    lines, rejected = [], set()
    for i, row in enumerate(rows):
        try:
            marshal.dumps(row)
            lines.append(_orjson_row(row))
        except (TypeError, ValueError):
            lines.append(b"")
            rejected.add(i)
    return lines, rejected


def _suspect_offsets(block: bytes):
    """Offsets in `block` where json may spell a line otherwise; a byte test
    rules out the rarer patterns before any regex scans the block for them."""
    patterns = list(_FLOAT_SPELLINGS)
    if b"u" in block:
        patterns.append(_NULL)
    if b"\\" in block or b"\x7f" in block or not block.isascii():
        patterns.append(_ODD_BYTE)
    for pattern in patterns:
        for match in pattern.finditer(block):
            yield match.start()


def _with_json_separators(text: bytes) -> bytes:
    return text.replace(b",", b", ").replace(b":", b": ")


def _encode_block(rows: list) -> bytes:
    """`rows` as `_encode` spells them, each on its own line: orjson's compact
    lines with json's `, ` and `: ` separators, and json's own line for every
    row whose orjson line may differ."""
    lines, flagged = _orjson_lines(rows)
    block = b"\n".join([*lines, b""])
    starts = list(itertools.accumulate((len(line) + 1 for line in lines), initial=0))
    flagged.update(bisect.bisect_right(starts, at) - 1 for at in _suspect_offsets(block))
    # An escaped quote upsets the block's quote pairs: then test row by row.
    if b"\\" in block or not _plain_strings(block):
        flagged.update(i for i, line in enumerate(lines) if not _plain_strings(line))
    pieces, at = [], 0
    for i in sorted(flagged):
        pieces += (_with_json_separators(block[at : starts[i]]), _encode(rows[i]).encode(), b"\n")
        at = starts[i + 1]
    pieces.append(_with_json_separators(block[at:]))
    return b"".join(pieces)


def write_jsonl(path, kind: str, config: dict, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = iter(rows)
    with open(path, "wb") as f:
        f.write(_encode(make_header(kind, config)).encode() + b"\n")
        for block in iter(lambda: list(itertools.islice(rows, _BLOCK_ROWS)), []):
            f.write(_encode_block(block))


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
# Each kind's row keys in the order the writers fill them.
_GT_ROW = ("frame", "object_id", "class", *_BOX_KEYS, "state")
_DETECTION_ROW = ("frame", "id", "class", *_SCORED_KEYS, "appearance", "motion", "provenance")
_TRACK_ROW = ("frame", "track_id", "class", *_SCORED_KEYS, "state")
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


def scenario_rows(scenario: Scenario) -> tuple[list[dict], list[dict]]:
    gt_rows = [
        dict(zip(_GT_ROW, (
            k, track.object_id, track.class_id.value, *track.boxes[k].as_row(),
            dict(zip(_STATE_KEYS, (*s.position, *s.velocity, *s.acceleration))),
        )))
        for k in range(scenario.frames)
        for track in scenario.gt_tracks
        for s in (track.states[k],)
    ]
    det_rows = [
        dict(zip(_DETECTION_ROW, (k, i, c.value, *box, conf, appearance, motion, prov)))
        for k, (dets, provenance) in enumerate(zip(scenario.detections, scenario.provenance))
        for i, c, box, conf, appearance, motion, prov in zip(
            dets.ids, dets.classes, dets.boxes.tolist(), dets.conf.tolist(),
            dets.appearance.tolist(), dets.motion.tolist(), provenance,
        )
    ]
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


def tracker_rows(output: TrackerOutput) -> list[dict]:
    return [
        dict(zip(_TRACK_ROW, (k, tid, c.value, *box, conf, dict(zip(_STATE_KEYS, state)))))
        for k, tracks in enumerate(output.frames)
        for tid, c, box, conf, state in zip(
            tracks.track_ids, tracks.classes, tracks.boxes.tolist(), tracks.conf.tolist(),
            tracks.states.tolist(),
        )
    ]


def write_tracker_output(path, output: TrackerOutput, config: dict, frames: int) -> None:
    meta = dict(config)
    meta["frames"] = frames
    write_jsonl(path, "tracks", meta, tracker_rows(output))


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
    boxes, states = Box7.from_rows(labels.boxes), StateVector.from_rows(labels.states)
    gt_tracks = []
    for oid, rows in sorted(by_object.items()):
        if len(rows) != frames:
            raise FormatError(f"{gt_path}: object {oid}: {len(rows)} rows for {frames} frames")
        track = [boxes[i] for i in rows], [states[i] for i in rows]
        gt_tracks.append(GtTrack(oid, labels.classes[rows[0]], *map(tuple, track)))

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
