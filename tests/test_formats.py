import contextlib
import dataclasses
import io
import json
import math
import re
import struct
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    frame_rows,
    reference_detections,
    reference_frames,
    scenario_numbers,
    scenario_repr,
    scenario_rows,
    state_array,
    tracker_rows,
    write_rows,
)
from sttrack import cli, formats
from sttrack.core import ClassId, Detections
from sttrack.formats import (
    FormatError,
    make_header,
    normalized_digest,
    read_detections,
    read_jsonl,
    read_label_frames,
    read_pred_frames,
    read_scenario,
    version_string,
    write_scenario,
    write_tracker_output,
)
from sttrack.kalman import KfParams
from sttrack.metrics import EvalTable, MatchingPolicy
from sttrack.runtime import (
    FrameTracks,
    KalmanBackend,
    LifecycleConfig,
    TrackerOutput,
    run_sequence,
)
from sttrack.sim import (
    GtTrack,
    MotionProfile,
    NoiseModel,
    ObjectSpec,
    Scenario,
    SimConfig,
    generate,
)

SIZE = (2.0, 4.5, 1.5)


def make_scenario(seed=0, frames=12):
    specs = (
        ObjectSpec(ClassId.VEHICLE, MotionProfile.constant_velocity(1.3, -0.4),
                   (0.0, 0.0), 0.3, SIZE),
        ObjectSpec(ClassId.VEHICLE, MotionProfile.turn(3.0, 0.25), (8.0, 3.0), 1.0,
                   SIZE),
    )
    cfg = SimConfig(
        frames=frames,
        noise=NoiseModel(0.07, 0.01, 0.01, 0.1, fp_rate=0.4, miss_prob=0.1,
                         confidence_noise=0.03),
        appearance_dim=5,
    )
    return generate(cfg, specs, seed=seed)


def test_scenario_round_trips_bit_exactly(tmp_path):
    scenario = make_scenario()
    gt_path, det_path = write_scenario(tmp_path, "s0", scenario, {"note": 1})
    loaded = read_scenario(gt_path, det_path)
    assert scenario_repr(loaded) == scenario_repr(scenario)  # float repr round-trip is exact
    types = [type(x) for x in scenario_numbers(scenario)]
    assert [type(x) for x in scenario_numbers(loaded)] == types


def test_header_fields(tmp_path):
    scenario = make_scenario()
    gt_path, _ = write_scenario(tmp_path, "s0", scenario, {"cfg_key": "v"})
    header, rows = read_jsonl(gt_path, "ground_truth")
    assert header["schema_version"] == 1
    assert header["kind"] == "ground_truth"
    assert header["config"]["cfg_key"] == "v"
    assert header["config"]["frames"] == scenario.frames
    assert "created" in header and "version" in header
    assert len(rows) == scenario.frames * len(scenario.gt_tracks)


def test_kind_mismatch_rejected(tmp_path):
    scenario = make_scenario()
    gt_path, det_path = write_scenario(tmp_path, "s0", scenario, {})
    with pytest.raises(FormatError, match="kind"):
        read_jsonl(gt_path, "detections")


def test_schema_version_checked(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"schema_version": 99, "kind": "tracks"}) + "\n")
    with pytest.raises(FormatError, match="schema_version"):
        read_jsonl(path)


def test_read_detections_equals_scenario_detections(tmp_path):
    scenario = make_scenario(seed=3)
    _, det_path = write_scenario(tmp_path, "s0", scenario, {})
    dt, detections = read_detections(det_path)
    assert repr(frame_rows(detections)) == repr(frame_rows(scenario.detections))
    assert dt == scenario.dt


def edit_row(path, line, edit):
    lines = path.read_text().splitlines()
    row = json.loads(lines[line - 1])
    edit(row)
    lines[line - 1] = json.dumps(row, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def set_frame(path, line, frame):
    edit_row(path, line, lambda row: row.update(frame=frame))


READERS = ["detections", "labels", "preds", "scenario-gt", "scenario-det"]
# the kind of the file each reader is given to read, also for the readers
# that run `sttrack` on it
READER_KINDS = {
    "detections": "detections",
    "labels": "ground_truth",
    "preds": "tracks",
    "scenario-gt": "ground_truth",
    "scenario-det": "detections",
    "cli-track": "detections",
    "cli-train-gt": "ground_truth",
    "cli-train-det": "detections",
    "cli-eval-gt": "ground_truth",
    "cli-eval-tracks": "tracks",
}
# the id key of each kind's rows
IDENTS = {"detections": "id", "ground_truth": "object_id", "tracks": "track_id"}


def run_cli(*argv):
    """Run `sttrack`, which must exit 2, and raise its JSON error line as a
    FormatError."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert code == cli.EXIT_CONFIG, err.getvalue()
    raise FormatError(json.loads(err.getvalue().splitlines()[-1])["error"])


def file_and_reader(tmp_path, reader):
    """A 12-frame file of the reader's kind and a call that reads it."""
    scenario = make_scenario(frames=12)
    gt_path, det_path = write_scenario(tmp_path, "s0", scenario, {})
    tracks_path = tmp_path / "s0.tracks.jsonl"
    output = run_sequence(
        scenario.detections, KalmanBackend(KfParams(), scenario.dt), LifecycleConfig()
    )
    write_tracker_output(tracks_path, output, {})
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"sim": {"appearance_dim": 5}, "stt": {"d_a": 5}}))
    data, out = str(tmp_path), str(tmp_path / "out")
    track = ["track", "--config", str(config), "--data", data, "--out", out]
    train = ["train", "--config", str(config), "--data", data, "--out", out, "--steps", "1"]
    evaluate = ["eval", "--gt", data, "--results", data, "--out", f"{out}/eval.json"]
    return {
        "jsonl": (det_path, lambda: read_jsonl(det_path)),
        "detections": (det_path, lambda: read_detections(det_path)),
        "labels": (gt_path, lambda: read_label_frames(gt_path)),
        "preds": (tracks_path, lambda: read_pred_frames(tracks_path)),
        "scenario-gt": (gt_path, lambda: read_scenario(gt_path, det_path)),
        "scenario-det": (det_path, lambda: read_scenario(gt_path, det_path)),
        "cli-track": (det_path, lambda: run_cli(*track)),
        "cli-train-gt": (gt_path, lambda: run_cli(*train)),
        "cli-train-det": (det_path, lambda: run_cli(*train)),
        "cli-eval-gt": (gt_path, lambda: run_cli(*evaluate)),
        "cli-eval-tracks": (tracks_path, lambda: run_cli(*evaluate)),
    }[reader]


# name: (edit of a line's bytes, the reason the edited line gives)
LINE_EDITS = {
    "truncated": (lambda line: line[: len(line) // 2], lambda line: ""),
    "not-utf-8": (
        lambda line: line.replace(b'"vehicle"', b'"v\xffhicle"'),
        lambda line: f"not UTF-8: invalid start byte at byte {line.index(0xFF) + 1}",
    ),
}


@pytest.mark.parametrize("edit", LINE_EDITS)
@pytest.mark.parametrize(
    "reader", ["jsonl", *READERS, "cli-track", "cli-train-gt", "cli-eval-tracks"]
)
def test_malformed_line_names_file_and_line(tmp_path, reader, edit):
    path, read = file_and_reader(tmp_path, reader)
    edit_line, reason = LINE_EDITS[edit]
    lines = path.read_bytes().splitlines()
    lines[3] = edit_line(lines[3])
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:4: {reason(lines[3])}')}"):
        read()
    path.write_text("{not json\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:1: "):
        read()


@pytest.mark.parametrize("frame", [-1, 12])
@pytest.mark.parametrize("reader", READERS)
def test_readers_reject_frame_outside_range(tmp_path, reader, frame):
    path, read = file_and_reader(tmp_path, reader)
    set_frame(path, 3, frame)
    with pytest.raises(FormatError, match=re.escape(f"{path}:3: frame {frame} outside [0, 12)")):
        read()


def set_true(key):
    if key.startswith("state."):
        return lambda row, _: row["state"].update({key[len("state."):]: True})
    return lambda row, _: row.update({key: True})


def repeat_previous(row, previous):
    """Give the row the frame and the id of the row before it."""
    ident = next(key for key in IDENTS.values() if key in row)
    row.update({"frame": previous["frame"], ident: previous[ident]})


ALL = set(IDENTS)
WITH_CONF = {"detections", "tracks"}
WITH_STATE = {"ground_truth", "tracks"}
# name: (edit of a row and the row before it, reason, the kinds it applies to)
EDITS = {
    "no-class": (lambda row, _: row.pop("class"), "missing key 'class'", ALL),
    "no-frame": (lambda row, _: row.pop("frame"), "missing key 'frame'", ALL),
    "str-cx": (lambda row, _: row.update(cx="1.5"), "cx must be int or float, not str", ALL),
    "str-frame": (lambda row, _: row.update(frame="3"), "frame must be int, not str", ALL),
    "float-frame": (lambda row, _: row.update(frame=2.0), "frame must be int, not float", ALL),
    "huge-id": (  # an integer outside 64 bits reads as a float
        lambda row, _: row.update({k: 2**70 for k in IDENTS.values() if k in row}),
        "{ident} must be int, not float",
        ALL,
    ),
    "bool-frame": (lambda row, _: row.update(frame=True), "frame must be int, not bool", ALL),
    "str-id": (
        lambda row, _: row.update({k: str(row[k]) for k in IDENTS.values() if k in row}),
        "{ident} must be int, not str",
        ALL,
    ),
    "dup-id": (repeat_previous, "{ident} {id} repeats in frame {frame}", ALL),
    "unknown-class": (
        lambda row, _: row.update({"class": "truck"}),
        "class must be one of vehicle, pedestrian, got 'truck'",
        ALL,
    ),
    **{
        f"true-{key}": (set_true(key), f"{key} must be int or float, not bool", ALL)
        for key in ("cx", "cy", "cz", "w", "l", "h", "heading")
    },
    "true-conf": (set_true("conf"), "conf must be int or float, not bool", WITH_CONF),
    "no-conf": (lambda row, _: row.pop("conf"), "missing key 'conf'", WITH_CONF),
    "str-conf": (
        lambda row, _: row.update(conf="high"), "conf must be int or float, not str", WITH_CONF
    ),
    **{
        f"true-state.{key}": (
            set_true(f"state.{key}"), f"state.{key} must be int or float, not bool", WITH_STATE
        )
        for key in ("px", "py", "vx", "vy", "ax", "ay")
    },
    "str-appearance": (
        lambda row, _: row.update(appearance="abc"),
        "appearance must be a list, not str",
        {"detections"},
    ),
    "str-in-appearance": (
        lambda row, _: row["appearance"].__setitem__(1, "0.5"),
        "appearance[1] must be int or float, not str",
        {"detections"},
    ),
    "nan-in-appearance": (
        lambda row, _: row["appearance"].__setitem__(0, float("nan")),
        "appearance[0] must be finite, got nan",
        {"detections"},
    ),
    "true-in-motion": (
        lambda row, _: row["motion"].__setitem__(0, True),
        "motion[0] must be int or float, not bool",
        {"detections"},
    ),
    "long-motion": (
        lambda row, _: row["motion"].append(0.0),
        "motion has 3 values, line 2 has 2",
        {"detections"},
    ),
}
# The probes run through `sttrack` itself: reader, edit.
CLI_PROBES = [
    ("cli-track", "true-cx"),
    ("cli-track", "true-w"),
    ("cli-track", "true-conf"),
    ("cli-track", "str-appearance"),
    ("cli-track", "dup-id"),
    ("cli-train-det", "str-appearance"),
    ("cli-train-det", "long-motion"),
    ("cli-train-gt", "dup-id"),
    ("cli-eval-tracks", "no-conf"),
    ("cli-eval-tracks", "str-conf"),
    ("cli-eval-tracks", "true-state.vx"),
    ("cli-eval-gt", "dup-id"),
]


@pytest.mark.parametrize(
    "reader, edit, reason",
    [
        pytest.param(reader, edit, reason, id=f"{reader}-{name}")
        for reader in READERS
        for name, (edit, reason, kinds) in EDITS.items()
        if READER_KINDS[reader] in kinds
    ]
    + [
        pytest.param(reader, *EDITS[name][:2], id=f"{reader}-{name}")
        for reader, name in CLI_PROBES
    ],
)
def test_readers_reject_missing_key_or_wrong_type(tmp_path, reader, edit, reason):
    path, read = file_and_reader(tmp_path, reader)
    previous = json.loads(path.read_text().splitlines()[2])
    edit_row(path, 4, lambda row: edit(row, previous))
    ident = IDENTS[READER_KINDS[reader]]
    reason = reason.format(ident=ident, id=previous[ident], frame=previous["frame"])
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:4: {reason}')}"):
        read()


def edit_header_config(path, edit):
    edit_row(path, 1, lambda header: edit(header["config"]))


@pytest.mark.parametrize(
    "edit, reason",
    [
        pytest.param(
            lambda config: config.pop("frames"), "header config lacks 'frames'", id="no-frames"
        ),
        pytest.param(
            lambda config: config.update(frames="12"),
            "header config frames must be an int >= 0, got '12'",
            id="str-frames",
        ),
    ],
)
@pytest.mark.parametrize("reader", READERS)
def test_readers_reject_header_without_frames(tmp_path, reader, edit, reason):
    path, read = file_and_reader(tmp_path, reader)
    edit_header_config(path, edit)
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:1: {reason}')}$"):
        read()


@pytest.mark.parametrize("reader", ["detections", "scenario-gt", "scenario-det"])
def test_readers_reject_header_without_dt(tmp_path, reader):
    path, read = file_and_reader(tmp_path, reader)
    edit_header_config(path, lambda config: config.pop("dt"))
    reason = f"{path}:1: header config lacks 'dt'"
    with pytest.raises(FormatError, match=f"^{re.escape(reason)}$"):
        read()


@pytest.mark.parametrize(
    "key, det_value, gt_value",
    [("frames", 10, 12), ("dt", 0.05, 0.1)],
)
def test_read_scenario_rejects_detections_of_another_scene(
    tmp_path, key, det_value, gt_value
):
    scenario = make_scenario(frames=12)
    assert scenario.dt == 0.1
    gt_path, _ = write_scenario(tmp_path / "gt", "s0", scenario, {})
    other = make_scenario(frames=10) if key == "frames" else scenario
    _, det_path = write_scenario(tmp_path / "det", "s0", other, {})
    if key == "dt":
        edit_header_config(det_path, lambda config: config.update(dt=det_value))
    reason = (
        f"{det_path}:1: header config {key} {det_value!r} differs from"
        f" {gt_value!r} in {gt_path}"
    )
    with pytest.raises(FormatError, match=f"^{re.escape(reason)}$"):
        read_scenario(gt_path, det_path)


def test_read_scenario_names_file_of_short_object(tmp_path):
    gt_path, det_path = write_scenario(tmp_path, "s0", make_scenario(frames=12), {})
    lines = gt_path.read_text().splitlines()
    gt_path.write_text("\n".join(lines[:-1]) + "\n")  # the last object loses frame 11
    last = json.loads(lines[-1])["object_id"]
    with pytest.raises(
        FormatError, match=f"^{re.escape(f'{gt_path}: object {last}: 11 rows for 12 frames')}$"
    ):
        read_scenario(gt_path, det_path)


def dumped(rows) -> list[bytes]:
    """`json.dumps(row, sort_keys=True)` of each of `rows`, as the lines after
    a file's header split at its newlines."""
    return [*(json.dumps(row, sort_keys=True).encode() for row in rows), b""]


def body(path) -> list[bytes]:
    return path.read_bytes().split(b"\n")[1:]


def test_write_jsonl_lines_equal_json_dumps(tmp_path):
    scenario = make_scenario(seed=5)
    gt_rows, det_rows = scenario_rows(scenario)
    output = run_sequence(
        scenario.detections, KalmanBackend(KfParams(), scenario.dt), LifecycleConfig()
    )
    gt_path, det_path = write_scenario(tmp_path, "s0", scenario, {"note": "\u00e9"})
    tracks_path = tmp_path / "s0.tracks.jsonl"
    write_tracker_output(tracks_path, output, {})
    written = ((gt_path, gt_rows), (det_path, det_rows), (tracks_path, tracker_rows(output)))
    for path, rows in written:
        header = path.read_bytes().split(b"\n")[0]
        assert header == json.dumps(json.loads(header), sort_keys=True).encode()
        assert body(path) == dumped(rows)
    assert len(gt_rows) == scenario.frames * 2 and det_rows and tracker_rows(output)


FINITE = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
).filter(math.isfinite) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, sys.float_info.max, -sys.float_info.max]
)
NUMBER = FINITE | st.integers(-(2**63), 2**63 - 1)
BOX = ("cx", "cy", "cz", "w", "l", "h", "heading")


@st.composite
def objects(draw, fields):
    """An object with the keys of `fields` in a drawn order, each with a value
    drawn from its strategy."""
    return {key: draw(fields[key]) for key in draw(st.permutations(list(fields)))}


def rows_of(number):
    """Ground-truth, detection and tracks rows with every number drawn from
    `number`."""
    state = objects({key: number for key in ("px", "py", "vx", "vy", "ax", "ay")})
    fields = {
        "frame": number, "class": st.sampled_from(["vehicle", "pedestrian"]),
        **{key: number for key in BOX},
    }
    return (
        objects({**fields, "object_id": number, "state": state})
        | objects({
            **fields, "id": number, "conf": number, "provenance": number,
            "appearance": st.lists(number, max_size=16), "motion": st.lists(number, max_size=4),
        })
        | objects({**fields, "track_id": number, "conf": number, "state": state})
    )


ROWS = rows_of(NUMBER)
PATH = Path("s0.det.jsonl")

# What the typed writers spell: every float, NaN and the infinities, 64-bit
# ids, both classes.
FLOAT = FINITE | st.sampled_from([math.nan, math.inf, -math.inf])
ID = st.integers(0, 2**64 - 1)
CLASS = st.sampled_from(list(ClassId))


def float_array(draw, *shape) -> np.ndarray:
    size = math.prod(shape)
    return np.array(draw(st.lists(FLOAT, min_size=size, max_size=size)), dtype=float).reshape(shape)


def column(draw, strategy, n: int) -> list:
    return draw(st.lists(strategy, min_size=n, max_size=n))


@st.composite
def gt_scenes(draw):
    """A scene of up to three ground-truth tracks over up to four frames, and
    no detections."""
    frames = draw(st.integers(0, 4))
    tracks = tuple(
        GtTrack(oid, draw(CLASS), float_array(draw, frames, 7), float_array(draw, frames, 6))
        for oid in draw(st.lists(ID, max_size=3))
    )
    return Scenario(frames, 0.1, tracks, (), ())


@st.composite
def detection_scenes(draw):
    """A scene of up to four frames of up to three detections each, features
    0 to 16 wide, and no ground truth."""
    d_a, d_m = draw(st.integers(0, 16)), draw(st.integers(0, 16))
    tables, provenance = [], []
    for n in draw(st.lists(st.integers(0, 3), max_size=4)):
        tables.append(Detections(
            column(draw, ID, n), column(draw, CLASS, n), float_array(draw, n, 7),
            float_array(draw, n), float_array(draw, n, d_a), float_array(draw, n, d_m),
        ))
        provenance.append(tuple(column(draw, st.integers(-1, 2**64 - 1), n)))
    return Scenario(len(tables), 0.1, (), tuple(tables), tuple(provenance))


@st.composite
def tracker_outputs(draw):
    """Up to four frames of up to three tracks each."""
    frames = []
    for n in draw(st.lists(st.integers(0, 3), max_size=4)):
        frames.append(FrameTracks(
            column(draw, ID, n), column(draw, CLASS, n), float_array(draw, n, 7),
            float_array(draw, n), float_array(draw, n, 6),
        ))
    return TrackerOutput(frames)


@settings(max_examples=100, deadline=None)
@given(gt_scenes(), st.integers(1, 5))
def test_ground_truth_lines_equal_json_dumps(tmp_path_factory, scenario, block):
    with mock.patch.object(formats, "_BLOCK_ROWS", block):
        gt_path, _ = write_scenario(tmp_path_factory.getbasetemp(), "gt", scenario, {})
    assert body(gt_path) == dumped(scenario_rows(scenario)[0])


@settings(max_examples=100, deadline=None)
@given(detection_scenes(), st.integers(1, 5))
def test_detections_lines_equal_json_dumps(tmp_path_factory, scenario, block):
    with mock.patch.object(formats, "_BLOCK_ROWS", block):
        _, det_path = write_scenario(tmp_path_factory.getbasetemp(), "det", scenario, {})
    assert body(det_path) == dumped(scenario_rows(scenario)[1])


@settings(max_examples=100, deadline=None)
@given(tracker_outputs(), st.integers(1, 5))
def test_tracks_lines_equal_json_dumps(tmp_path_factory, output, block):
    path = tmp_path_factory.getbasetemp() / "s0.tracks.jsonl"
    with mock.patch.object(formats, "_BLOCK_ROWS", block):
        write_tracker_output(path, output, {})
    assert body(path) == dumped(tracker_rows(output))


def scene_with(value) -> Scenario:
    """A short scene whose fourth ground-truth row holds `value`: an int as
    its object id, a float in its box and its state."""
    scenario = make_scenario()
    first, track = scenario.gt_tracks
    if type(value) is int:
        track = dataclasses.replace(track, object_id=value)
    else:
        boxes, states = track.boxes.copy(), track.states.copy()
        boxes[1, 0] = states[1, 5] = value
        track = dataclasses.replace(track, boxes=boxes, states=states)
    return dataclasses.replace(scenario, gt_tracks=(first, track))


@pytest.mark.parametrize(
    "value",
    [
        math.nan, -math.inf, 2**64, -(2**63) - 1, 5e-5, -1e-5, 1e16, 1e-7,
        # each side of where json switches to exponent form, the extremes and
        # the zeros, which orjson and json spell alike or not
        np.float64(0.5), 0.1, -0.0, 1e-4, 9.999999999999999e-05, 9999999999999998.0,
        5e-324, 1.7976931348623157e308, math.inf, 0, 2**63, 2**64 - 1,
    ],
)
def test_write_jsonl_spells_one_odd_value_as_json_dumps(tmp_path, value):
    scenario = scene_with(value)
    gt_path, _ = write_scenario(tmp_path, "s0", scenario, {})
    assert body(gt_path) == dumped(scenario_rows(scenario)[0])


def shape(value):
    """`value` with each node tagged with its type and each float as its bits."""
    if type(value) is dict:
        return dict, [(key, shape(v)) for key, v in value.items()]
    if type(value) is list:
        return list, [shape(v) for v in value]
    if type(value) is float:
        return float, struct.pack("<d", value)
    return type(value), value


def stdlib_parse_line(path, line: int, text: bytes):
    """A line read with `json` alone, as the readers read it before `orjson`."""
    try:
        return json.loads(text.decode())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{line}: {exc.msg} at column {exc.colno}") from None


def outcome(parse_line, text: bytes):
    """The shape of what `parse_line` reads from line 2, or its error text."""
    try:
        return shape(parse_line(PATH, 2, text))
    except FormatError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(ROWS)
def test_parse_line_reads_a_row_as_json_does(row):
    text = json.dumps(row).encode()
    assert shape(formats._parse_line(PATH, 2, text)) == shape(json.loads(text))


@settings(max_examples=100, deadline=None)
@given(ROWS, st.sampled_from(BOX), st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"]),
       st.floats(0, 1, exclude_max=True))
def test_parse_line_reads_a_line_orjson_rejects_as_json_does(row, key, literal, cut):
    text = json.dumps({**row, key: "@"}).encode().replace(b'"@"', literal.encode())
    for line in (text, text[: int(cut * len(text))]):  # the value, then a truncated line
        assert outcome(formats._parse_line, line) == outcome(stdlib_parse_line, line)


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_jsonl(tmp_path / "nope.jsonl")


def test_normalized_digest_ignores_timestamp(tmp_path, monkeypatch):
    # The version differs between a clean checkout and an edited tree of
    # the same commit; it must not change the digest either.
    scenario = make_scenario()
    monkeypatch.setattr(formats, "version_string", lambda: "1a2b3c4")
    write_scenario(tmp_path / "a", "s0", scenario, {"x": 2})
    monkeypatch.setattr(formats, "version_string", lambda: "1a2b3c4-dirty")
    write_scenario(tmp_path / "b", "s0", scenario, {"x": 2})
    da = normalized_digest(tmp_path / "a" / "s0.det.jsonl")
    db = normalized_digest(tmp_path / "b" / "s0.det.jsonl")
    assert da == db
    raw_a = (tmp_path / "a" / "s0.det.jsonl").read_text()
    raw_b = (tmp_path / "b" / "s0.det.jsonl").read_text()
    assert raw_a.splitlines()[1:] == raw_b.splitlines()[1:]
    versions = [json.loads(raw.splitlines()[0])["version"] for raw in (raw_a, raw_b)]
    assert versions == ["1a2b3c4", "1a2b3c4-dirty"]


def test_normalized_digest_reads_metrics_file(tmp_path, monkeypatch):
    # `sttrack eval` writes one indented JSON document, not JSONL.
    report = {"classes": {"vehicle": {"mota": 0.5}}, "policy": {"persistence": True}}
    make = formats.make_header
    for name, created, version in (
        ("a", "2026-01-01T00:00:00+00:00", "1a2b3c4"),
        ("b", "2026-01-02T00:00:00+00:00", "1a2b3c4-dirty"),
    ):
        monkeypatch.setattr(formats, "version_string", lambda v=version: v)
        monkeypatch.setattr(
            formats, "make_header",
            lambda kind, config, c=created: {**make(kind, config), "created": c},
        )
        cli.write_metrics_file(tmp_path / f"{name}.json", report, {"x": 2})
    headers = [
        json.loads((tmp_path / f"{n}.json").read_text())["header"] for n in "ab"
    ]
    assert headers[0]["created"] != headers[1]["created"]
    assert headers[0]["version"] != headers[1]["version"]
    assert normalized_digest(tmp_path / "a.json") == normalized_digest(tmp_path / "b.json")
    cli.write_metrics_file(
        tmp_path / "c.json", {**report, "classes": {"vehicle": {"mota": 0.6}}}, {"x": 2}
    )
    assert normalized_digest(tmp_path / "c.json") != normalized_digest(tmp_path / "a.json")


def test_tracker_output_round_trip(tmp_path):
    scenario = make_scenario()
    output = run_sequence(
        scenario.detections, KalmanBackend(KfParams(), scenario.dt), LifecycleConfig()
    )
    path = tmp_path / "s0.tracks.jsonl"
    write_tracker_output(path, output, {"backend": "kalman"})
    header, frames = read_pred_frames(path)
    assert header["config"]["backend"] == "kalman"
    assert len(frames) == scenario.frames
    total = sum(len(f) for f in frames)
    assert total == sum(len(f.track_ids) for f in output.frames)
    first = next(f for f in frames if f)[0]
    assert first.class_id is ClassId.VEHICLE


def test_label_frames_reader(tmp_path):
    scenario = make_scenario()
    gt_path, _ = write_scenario(tmp_path, "s0", scenario, {})
    _, frames = read_label_frames(gt_path)
    assert len(frames) == scenario.frames
    assert all(len(f) == len(scenario.gt_tracks) for f in frames)
    assert state_array(frames[3][0].state).tolist() == scenario.gt_tracks[0].states[3].tolist()


def test_provenance_preserved(tmp_path):
    scenario = make_scenario(seed=5)
    gt_rows, det_rows = scenario_rows(scenario)
    provs = {r["provenance"] for r in det_rows}
    assert -1 in provs  # false positives present at this seed
    gt_path, det_path = write_scenario(tmp_path, "s0", scenario, {})
    loaded = read_scenario(gt_path, det_path)
    assert loaded.provenance == scenario.provenance


def test_version_string_nonempty():
    assert version_string()


def test_make_header_rejects_unknown_kind():
    with pytest.raises(FormatError):
        make_header("mystery", {})


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda row: row.update(provenance="x"), "provenance must be int, not str"),
        (lambda row: row.update(provenance=0.0), "provenance must be int, not float"),
        (lambda row: row.update(provenance=2**70), "provenance must be int, not float"),
        (lambda row: row.update(provenance=-2), "provenance must be >= -1, got -2"),
        (lambda row: row.pop("provenance"), "missing key 'provenance'"),
    ],
)
def test_read_scenario_rejects_bad_provenance(tmp_path, edit, reason):
    gt_path, det_path = write_scenario(tmp_path, "s0", make_scenario(frames=12), {})
    edit_row(det_path, 4, edit)
    with pytest.raises(FormatError, match=f"^{re.escape(f'{det_path}:4: {reason}')}$"):
        read_scenario(gt_path, det_path)


# --- the column readers against the per-row reference -------------------------

EVAL_READERS = {"ground_truth": read_label_frames, "tracks": read_pred_frames}
EVAL_ID = st.integers(0, 40) | st.integers(2**63, 2**64 - 1)
EVAL_NUMBER = st.floats(-1e6, 1e6) | st.integers(-1000, 1000) | st.integers(2**63, 2**64 - 1)
EVAL_SIZE = st.floats(1e-3, 1e3) | st.integers(1, 100)
EVAL_HEADING = st.floats(-4 * math.pi, 4 * math.pi) | st.sampled_from(
    [math.pi, -math.pi, 0.0, -0.0, 4, -4, 2 * math.pi]
)
STATE_KEYS = ("px", "py", "vx", "vy", "ax", "ay")
BAD_VALUES = ["1.5", True, False, None, [1.0], {"a": 1}, math.nan, math.inf, -math.inf]


@st.composite
def eval_rows(draw):
    """A ground-truth or tracks file's frame count and rows: unique (frame,
    id) pairs in any frame order, then up to three edits that may break a
    rule each."""
    kind = draw(st.sampled_from(sorted(EVAL_READERS)))
    ident = IDENTS[kind]
    frames = draw(st.integers(1, 5))
    keys = draw(st.lists(st.tuples(st.integers(0, frames - 1), EVAL_ID), unique=True, max_size=12))
    rows = []
    for frame, oid in keys:
        row = {
            "frame": frame, ident: oid,
            "class": draw(st.sampled_from(["vehicle", "pedestrian"])),
            **{key: draw(EVAL_NUMBER) for key in ("cx", "cy", "cz")},
            **{key: draw(EVAL_SIZE) for key in ("w", "l", "h")},
            "heading": draw(EVAL_HEADING),
            "state": {key: draw(EVAL_NUMBER) for key in STATE_KEYS},
        }
        if kind == "tracks":
            row["conf"] = draw(st.floats(0.0, 1.0) | st.sampled_from([0, 1]))
        rows.append(row)
    numbers = ["cx", "cy", "cz", "w", "l", "h", "heading", *(["conf"] if kind == "tracks" else [])]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if type(row) is not dict:
            continue
        edit = draw(st.sampled_from(
            ["drop", "value", "state", "object", "frame", "repeat", "class", "size", "conf"]
        ))
        if edit == "drop":
            row.pop(draw(st.sampled_from(sorted(row))))
        elif edit == "value":
            row[draw(st.sampled_from(["frame", ident, *numbers]))] = draw(st.sampled_from(BAD_VALUES))
        elif edit == "state" and type(row.get("state")) is dict:
            key = draw(st.sampled_from(STATE_KEYS))
            if draw(st.booleans()):
                row["state"][key] = draw(st.sampled_from(BAD_VALUES))
            elif draw(st.booleans()):
                row["state"].pop(key)
            else:
                row["state"] = draw(st.sampled_from(["x", [1.0], 5]))
        elif edit == "object":
            rows[i] = draw(st.sampled_from([[1, 2], "row", 3, None]))
        elif edit == "frame":
            row["frame"] = draw(st.sampled_from([-1, frames, frames + 3]))
        elif edit == "repeat" and type(rows[0]) is dict and i > 0:
            row.update(frame=rows[0].get("frame"), **{ident: rows[0].get(ident)})
        elif edit == "class":
            row["class"] = draw(st.sampled_from(["truck", 1, None, ["vehicle"]]))
        elif edit == "size":
            row[draw(st.sampled_from(["w", "l", "h"]))] = draw(st.sampled_from([0, 0.0, -1.5]))
        elif edit == "conf" and kind == "tracks":
            row["conf"] = draw(st.sampled_from([-0.1, 1.5, 2, -1]))
    return kind, frames, rows


def assert_table_equals_frames(table, frames):
    """The table holds `frames`' rows bit for bit, grouped and ordered alike."""
    assert len(table) == len(frames)
    for k, frame in enumerate(frames):
        a, b = table.offsets[k], table.offsets[k + 1]
        assert table.ids[a:b] == [e.ident for e in frame]
        assert all(type(ident) is int for ident in table.ids[a:b])
        assert table.classes[a:b] == [e.class_id for e in frame]
        boxes = np.array([e.box for e in frame], dtype=float).reshape(-1, 7)
        states = np.array(
            [(*e.state.position, *e.state.velocity, *e.state.acceleration) for e in frame],
            dtype=float,
        ).reshape(-1, 6)
        assert table.boxes[a:b].tobytes() == boxes.tobytes()
        assert table.states[a:b].tobytes() == states.tobytes()
    assert list(table) == list(EvalTable.of(frames))  # the numbers as floats


@settings(max_examples=300, deadline=None)
@given(eval_rows())
def test_column_readers_equal_the_per_row_reference(case):
    kind, frames, rows = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"s0.{kind}.jsonl"
        write_rows(path, kind, {"frames": frames}, rows)
        try:
            expected, expected_error = reference_frames(path, kind), None
        except FormatError as exc:
            expected_error = str(exc)
        try:
            table, error = EVAL_READERS[kind](path)[1], None
        except FormatError as exc:
            error = str(exc)
    assert error == expected_error
    if error is None:
        assert_table_equals_frames(table, expected)


HUGE = 10**400  # an integer past the float range: only json reads it
BAD_PROVENANCE = [-2, -(2**63), "0", 2.0, True, None, 2**70]
BAD_FEATURES = ["abc", {"a": 1.0}, 5, None, True]
BAD_FEATURE_VALUES = ["0.5", True, None, math.nan, math.inf, -math.inf, HUGE]


@st.composite
def detection_rows(draw):
    """A detections file's frame count and rows: unique (frame, id) pairs in
    any frame order, features of one width per key, then up to three edits
    that may break a rule each, half of them in the row edited before."""
    frames = draw(st.integers(1, 5))
    keys = draw(st.lists(st.tuples(st.integers(0, frames - 1), EVAL_ID), unique=True, max_size=12))
    widths = {key: draw(st.integers(0, 4)) for key in ("appearance", "motion")}
    rows = []
    for frame, det_id in keys:
        rows.append({
            "frame": frame, "id": det_id,
            "class": draw(st.sampled_from(["vehicle", "pedestrian"])),
            **{key: draw(EVAL_NUMBER) for key in ("cx", "cy", "cz")},
            **{key: draw(EVAL_SIZE) for key in ("w", "l", "h")},
            "heading": draw(EVAL_HEADING),
            "conf": draw(st.floats(0.0, 1.0) | st.sampled_from([0, 1])),
            **{key: draw(st.lists(EVAL_NUMBER, min_size=n, max_size=n)) for key, n in widths.items()},
            "provenance": draw(st.integers(-1, 40) | st.integers(2**63, 2**64 - 1)),
        })
    numbers = ["cx", "cy", "cz", "w", "l", "h", "heading", "conf"]
    i = None
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        if i is None or draw(st.booleans()):
            i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if type(row) is not dict:
            continue
        edit = draw(st.sampled_from([
            "drop", "value", "object", "frame", "repeat", "class", "size", "huge", "conf",
            "provenance", "features", "feature", "width",
        ]))
        feature = draw(st.sampled_from(["appearance", "motion"]))
        if edit == "drop":
            row.pop(draw(st.sampled_from(sorted(row))))
        elif edit == "value":
            row[draw(st.sampled_from(["frame", "id", *numbers]))] = draw(st.sampled_from(BAD_VALUES))
        elif edit == "object":
            rows[i] = draw(st.sampled_from([[1, 2], "row", 3, None]))
        elif edit == "frame":
            row["frame"] = draw(st.sampled_from([-1, frames, frames + 3]))
        elif edit == "repeat" and type(rows[0]) is dict and i > 0:
            row.update(frame=rows[0].get("frame"), id=rows[0].get("id"))
        elif edit == "class":
            row["class"] = draw(st.sampled_from(["truck", 1, None, ["vehicle"]]))
        elif edit == "size":
            row[draw(st.sampled_from(["w", "l", "h"]))] = draw(st.sampled_from([0, 0.0, -1.5]))
        elif edit == "huge":
            row[draw(st.sampled_from(numbers))] = draw(st.sampled_from([HUGE, -HUGE]))
        elif edit == "conf":
            row["conf"] = draw(st.sampled_from([-0.1, 1.5, 2, -1]))
        elif edit == "provenance":
            row["provenance"] = draw(st.sampled_from(BAD_PROVENANCE))
        elif edit == "features":
            row[feature] = draw(st.sampled_from(BAD_FEATURES))
        elif edit == "feature" and type(row.get(feature)) is list and row[feature]:
            j = draw(st.integers(0, len(row[feature]) - 1))
            row[feature][j] = draw(st.sampled_from(BAD_FEATURE_VALUES))
        elif edit == "width" and type(row.get(feature)) is list:
            if row[feature] and draw(st.booleans()):
                row[feature].pop()
            else:
                row[feature].append(draw(EVAL_NUMBER))
    return frames, rows


def repr_or_error(read) -> str:
    """`repr` of what `read()` returns (every float's shortest digits and
    every type), or its FormatError's message."""
    try:
        return repr(read())
    except FormatError as exc:
        return f"FormatError: {exc}"


def two_rows(**second) -> tuple[int, list[dict]]:
    """A one-frame file of two detections, the second edited by `second`."""
    row = {
        "frame": 0, "id": 0, "class": "vehicle", "cx": 1.0, "cy": 2.0, "cz": 0.0,
        "w": 2.0, "l": 4.5, "h": 1.5, "heading": 0.5, "conf": 0.9,
        "appearance": [0.1, 0.2], "motion": [0.3], "provenance": 3,
    }
    return 1, [row, {**row, "id": 1, **second}]


@settings(max_examples=300, deadline=None)
@given(detection_rows())
@example(two_rows(provenance=-2, appearance=["0.1", 0.2]))  # provenance first
@example(two_rows(appearance=[0.1, "0.2", 0.3]))  # numbers before width
@example(two_rows(appearance=[0.1, math.nan, 0.3]))  # width before finite
@example(two_rows(appearance=[0.1, HUGE, 0.3]))  # float range before width
@example(two_rows(motion=[math.inf], appearance=[True, 0.2]))  # appearance, then motion
@example(two_rows(w=HUGE, conf=2))  # float range before conf
@example(two_rows(w=1, conf=1, appearance=[1, 2], motion=[0]))  # ints read as floats
def test_detections_readers_equal_the_per_row_reference(case):
    frames, rows = case
    with tempfile.TemporaryDirectory() as tmp:
        det_path, gt_path = Path(tmp) / "s0.det.jsonl", Path(tmp) / "s0.gt.jsonl"
        write_rows(det_path, "detections", {"frames": frames, "dt": 0.1}, rows)
        write_rows(gt_path, "ground_truth", {"frames": frames, "dt": 0.1}, [])

        def scenario_detections():
            scenario = read_scenario(gt_path, det_path)
            return frame_rows(scenario.detections), scenario.provenance

        expected = repr_or_error(lambda: reference_detections(det_path))
        assert repr_or_error(scenario_detections) == expected
        expected = repr_or_error(lambda: reference_detections(det_path)[0])
        assert repr_or_error(lambda: frame_rows(read_detections(det_path)[1])) == expected


def test_ids_past_int64_read_and_evaluate(tmp_path):
    """Ids are 64-bit JSON integers up to 2**64 - 1, past what an int64
    array holds: tracks and ground truth with such ids read, keep their ids
    exactly and score as the same rows with small ids."""
    scenario = make_scenario()
    gt_rows, _ = scenario_rows(scenario)
    big = 2**64 - 32  # the last ids still read as 64-bit integers
    reports = {}
    for name, offset in (("small", 0), ("big", big)):
        gt = [{**row, "object_id": offset + row["object_id"]} for row in gt_rows]
        tracks = [
            {**{k: v for k, v in row.items() if k != "object_id"},
             "track_id": 7 + row["object_id"], "conf": 0.9}
            for row in gt
        ]
        out = tmp_path / name
        write_rows(out / "s0.gt.jsonl", "ground_truth", {"frames": scenario.frames}, gt)
        write_rows(out / "s0.tracks.jsonl", "tracks", {"frames": scenario.frames}, tracks)
        _, table = read_pred_frames(out / "s0.tracks.jsonl")
        assert sorted(set(table.ids)) == sorted({row["track_id"] for row in tracks})
        reports[name] = cli.evaluate_directories(out, out, MatchingPolicy())
    assert max(row["track_id"] for row in tracks) >= 2**63
    assert reports["big"] == reports["small"]
    assert reports["big"]["classes"]["vehicle"]["mota"] == 1.0
