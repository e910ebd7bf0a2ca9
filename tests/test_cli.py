import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import shutil
import struct
import warnings

import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sttrack import autodiff, cli, formats, model
from sttrack.config import load_run_config
from test_pins import PINS, run_config


def simulate(tmp_path, frames=20, count=1):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"sim": {"frames": frames}}))
    data = tmp_path / "data"
    assert cli.main([
        "simulate", "--config", str(config), "--out", str(data), "--count", str(count),
    ]) == 0
    return config, data


def track(config, data, out):
    return cli.main([
        "track", "--config", str(config), "--data", str(data), "--out", str(out),
        "--backend", "kalman",
    ])


def test_eval_mota_only_policy_disables_state_gates(tmp_path):
    config, data = simulate(tmp_path, frames=30)
    tracks, out = tmp_path / "tracks", tmp_path / "eval.json"
    assert track(config, data, tracks) == 0
    assert cli.main([
        "eval", "--config", str(config), "--gt", str(data), "--results", str(tracks),
        "--out", str(out), "--policy", "mota-only",
    ]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["policy"]["state_thresholds"]["vehicle"] == {
        "velocity": "inf", "acceleration": "inf"
    }
    row = report["classes"]["vehicle"]
    assert row["gt_total"] == 30 * 20
    assert row["s_mota"] == row["mota"]


def test_report_tabulates_an_eval_metrics_file(tmp_path, capsys):
    config, data = simulate(tmp_path)
    tracks, out = tmp_path / "tracks", tmp_path / "eval.json"
    assert track(config, data, tracks) == 0
    assert cli.main([
        "eval", "--config", str(config), "--gt", str(data), "--results", str(tracks),
        "--out", str(out),
    ]) == 0
    row = json.loads(out.read_text())["report"]["classes"]["vehicle"]
    capsys.readouterr()
    assert cli.main(["report", "--inputs", str(out), "--labels", "kf"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    table_row = lines[lines.index("== vehicle ==") + 2].split()
    assert table_row[:3] == ["kf", f"{row['mota']:.3f}", f"{row['s_mota']:.3f}"]
    assert table_row[3] == f"{100.0 * row['fp_pct']:.3f}"


def test_track_reads_only_detections(tmp_path):
    config, data = simulate(tmp_path)
    det_only = tmp_path / "det_only"
    det_only.mkdir()
    for det in data.glob("*.det.jsonl"):
        shutil.copy(det, det_only / det.name)
    assert list(det_only.glob("*.gt.jsonl")) == []
    assert track(config, data, tmp_path / "with_gt") == 0
    assert track(config, det_only, tmp_path / "without_gt") == 0
    names = sorted(p.name for p in (tmp_path / "with_gt").glob("*.tracks.jsonl"))
    assert names
    for name in names:
        with_gt = (tmp_path / "with_gt" / name).read_text().splitlines()
        without_gt = (tmp_path / "without_gt" / name).read_text().splitlines()
        assert with_gt[1:] == without_gt[1:]
    assert cli.main([
        "eval", "--config", str(config), "--gt", str(det_only),
        "--results", str(tmp_path / "without_gt"), "--out", str(tmp_path / "eval.json"),
    ]) == cli.EXIT_MISSING


def test_track_truncated_detection_line_is_a_format_error(tmp_path, capsys):
    config, data = simulate(tmp_path)
    det = sorted(data.glob("*.det.jsonl"))[0]
    lines = det.read_text().splitlines()
    lines[4] = lines[4][:40]
    det.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert track(config, data, tmp_path / "tracks") == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["exit_code"] == cli.EXIT_CONFIG
    assert error["error"].startswith(f"{det}:5: ")


def last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def test_track_detection_row_without_conf_is_a_format_error(tmp_path, capsys):
    config, data = simulate(tmp_path)
    det = sorted(data.glob("*.det.jsonl"))[0]
    lines = det.read_text().splitlines()
    row = json.loads(lines[2])
    del row["conf"]
    lines[2] = json.dumps(row)
    det.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert track(config, data, tmp_path / "tracks") == cli.EXIT_CONFIG
    assert last_error(capsys) == f"{det}:3: missing key 'conf'"


def test_track_detection_size_past_the_float_range_is_a_format_error(tmp_path, capsys):
    # an integer `w` of 400 digits: only the json fallback reads it
    config, data = simulate(tmp_path)
    det = sorted(data.glob("*.det.jsonl"))[0]
    lines = det.read_text().splitlines()
    row = json.loads(lines[2])
    row["w"] = 10**400
    lines[2] = json.dumps(row)
    det.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert track(config, data, tmp_path / "tracks") == cli.EXIT_CONFIG
    assert last_error(capsys) == f"{det}:3: int too large to convert to float"


def test_track_header_without_frames_is_a_format_error(tmp_path, capsys):
    config, data = simulate(tmp_path)
    det = sorted(data.glob("*.det.jsonl"))[0]
    lines = det.read_text().splitlines()
    header = json.loads(lines[0])
    del header["config"]["frames"]
    lines[0] = json.dumps(header)
    det.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert track(config, data, tmp_path / "tracks") == cli.EXIT_CONFIG
    assert last_error(capsys) == f"{det}:1: header config lacks 'frames'"


def test_train_on_detections_of_another_scene_length_exits_2(tmp_path, capsys):
    config, data = simulate(tmp_path)
    det = sorted(data.glob("*.det.jsonl"))[0]
    gt = det.with_name(det.name.replace(".det.", ".gt."))
    lines = det.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"]["frames"] = 19
    lines[0] = json.dumps(header)
    det.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main([
        "train", "--config", str(config), "--data", str(data),
        "--out", str(tmp_path / "model"), "--steps", "1",
    ]) == cli.EXIT_CONFIG
    assert last_error(capsys) == (
        f"{det}:1: header config frames 19 differs from 20 in {gt}"
    )


@pytest.mark.parametrize("command", ["train", "track"])
@pytest.mark.parametrize(
    "overrides, reason",
    [
        ({"sim": {"appearance_dim": 8}, "stt": {"d_a": 8}},
         "appearance width 16 != configured stt.d_a 8"),
        ({"stt": {"d_m": 3}}, "motion width 2 != configured stt.d_m 3"),
    ],
    ids=["appearance", "motion"],
)
def test_detections_of_another_model_width_exit_2(tmp_path, capsys, command, overrides, reason):
    _, data = simulate(tmp_path)  # appearance width 16, motion width 2
    config = tmp_path / "model.json"
    config.write_text(json.dumps(overrides))
    if command == "train":
        flags = ["--out", str(tmp_path / "model"), "--steps", "1"]
    else:
        stt = load_run_config(config).stt
        checkpoint = tmp_path / "model.ckpt"
        autodiff.save_checkpoint(
            checkpoint, model.init_params(stt, seed=0), {"stt": dataclasses.asdict(stt)}
        )
        flags = ["--out", str(tmp_path / "tracks"), "--backend", "stt",
                 "--checkpoint", str(checkpoint)]
    capsys.readouterr()
    argv = [command, "--config", str(config), "--data", str(data), *flags]
    assert cli.main(argv) == cli.EXIT_CONFIG
    (det,) = data.glob("*.det.jsonl")
    assert last_error(capsys) == f"{det}: {reason}"


def to_zero_frames(data):
    """Cut every scene file in `data` to its header, saying zero frames."""
    for path in data.glob("*.jsonl"):
        header = json.loads(path.read_text().splitlines()[0])
        header["config"]["frames"] = 0
        path.write_text(json.dumps(header) + "\n")


def test_train_on_scenes_without_a_training_example_exits_2(tmp_path, capsys):
    config, data = simulate(tmp_path)
    to_zero_frames(data)
    capsys.readouterr()
    assert cli.main([
        "train", "--config", str(config), "--data", str(data),
        "--out", str(tmp_path / "model"), "--steps", "1",
    ]) == cli.EXIT_CONFIG
    assert last_error(capsys) == f"{data}: its 1 scene(s) yield no training example"
    assert not (tmp_path / "model").exists()


@pytest.mark.parametrize("zero_frames", [True, False])
def test_track_writes_timing_as_strict_json(tmp_path, zero_frames):
    config, data = simulate(tmp_path)
    if zero_frames:
        to_zero_frames(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning fails the command
        assert track(config, data, tmp_path / "tracks") == cli.EXIT_OK
    (path,) = (tmp_path / "tracks").glob("*.timing.json")
    timing = orjson.loads(path.read_bytes())  # rejects NaN and the infinities
    assert timing["frames"] == (0 if zero_frames else 20)
    assert (timing["mean_ms_per_frame"] == 0.0) == zero_frames


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A config, its scenes and a checkpoint trained on them for two steps."""
    tmp = tmp_path_factory.mktemp("trained")
    config, data = simulate(tmp)
    model = tmp / "model"
    assert cli.main([
        "train", "--config", str(config), "--data", str(data), "--out", str(model),
        "--steps", "2",
    ]) == 0
    return config, data, model / "model.ckpt"


def track_stt(config, data, out, checkpoint):
    return cli.main([
        "track", "--config", str(config), "--data", str(data), "--out", str(out),
        "--backend", "stt", "--checkpoint", str(checkpoint),
    ])


@pytest.mark.parametrize(
    "damage, code, message",
    [
        ("none", cli.EXIT_OK, None),
        ("truncated", cli.EXIT_CONFIG, "invalid checkpoint: truncated"),
        ("trailing", cli.EXIT_CONFIG, "invalid checkpoint: 3 bytes after the tensor data"),
        ("bad-magic", cli.EXIT_CONFIG, "not a checkpoint (bad magic)"),
        ("directory", cli.EXIT_MISSING, "no such checkpoint file"),
        ("no-tensor", cli.EXIT_CONFIG,
         "tensor 'tdi.score_w1' has shape none in the checkpoint and (64, 64) in the model"),
        ("extra-tensor", cli.EXIT_CONFIG,
         "tensor 'tdi.extra' has shape (64,) in the checkpoint and none in the model"),
        ("wrong-shape", cli.EXIT_CONFIG,
         "tensor 'de.w1' has shape (26, 1) in the checkpoint and (26, 64) in the model"),
        ("nan", cli.EXIT_CONFIG, "tensor 'de.w1' holds nan"),
        ("inf", cli.EXIT_CONFIG, "tensor 'tdi.score_w1' holds -inf"),
    ],
)
def test_track_checkpoint_boundary(trained, tmp_path, capsys, damage, code, message):
    config, data, good = trained
    blob = good.read_bytes()
    checkpoint = tmp_path / "model.ckpt"
    if damage == "directory":
        checkpoint.mkdir()
    elif damage.endswith(("tensor", "shape")) or damage in ("nan", "inf"):
        # a valid file that misfits the model or holds a value it cannot run
        arrays, metadata = autodiff.load_checkpoint(good)
        if damage == "no-tensor":
            del arrays["tdi.score_w1"]
        elif damage == "extra-tensor":
            arrays["tdi.extra"] = arrays["de.b1"]
        elif damage == "nan":
            arrays["de.w1"][3, 5] = float("nan")
        elif damage == "inf":
            arrays["tdi.score_w1"][7, 1] = float("-inf")
        else:
            arrays["de.w1"] = arrays["de.w1"][:, :1]
        tensors = {name: autodiff.Tensor(data) for name, data in arrays.items()}
        autodiff.save_checkpoint(checkpoint, tensors, metadata)
    else:
        checkpoint.write_bytes({
            "none": blob,
            "truncated": blob[: len(blob) - 5],
            "trailing": blob + b"\0\0\0",
            "bad-magic": b"X" + blob[1:],
        }[damage])
    capsys.readouterr()
    assert track_stt(config, data, tmp_path / "tracks", checkpoint) == code
    if message is not None:
        error = last_error(capsys)
        assert str(checkpoint) in error
        assert message in error


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """The data and checkpoint of `tests/test_pins.py`'s run, byte-equal to
    its pin."""
    work = tmp_path_factory.mktemp("pinned")
    cfg, data = run_config(), work / "data"
    cli.simulate_into(data, cfg, 2)
    checkpoint = cli.train_on_directory(cfg, data, work / "model")
    assert hashlib.sha256(checkpoint.read_bytes()).hexdigest() == PINS["checkpoint"]
    config = work / "run.json"
    config.write_text("{}")  # the pinned run's model config is the default
    return config, data, checkpoint


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_track_rejects_a_non_finite_value_anywhere_in_the_checkpoint(pinned, data, value):
    """One float32 payload value of the pinned checkpoint overwritten with NaN
    or +-inf: `track` exits 2 naming the file and the tensor that holds it."""
    config, scenes, good = pinned
    arrays, _ = autodiff.load_checkpoint(good)
    names = sorted(arrays)  # the payload order
    sizes = [arrays[name].size for name in names]
    blob = bytearray(good.read_bytes())
    start = len(blob) - 4 * sum(sizes)
    element = data.draw(st.integers(0, sum(sizes) - 1), label="element")
    blob[start + 4 * element : start + 4 * element + 4] = struct.pack("<f", value)
    owner = next(n for n, end in zip(names, itertools.accumulate(sizes)) if element < end)
    checkpoint = scenes.parent / "damaged.ckpt"
    checkpoint.write_bytes(bytes(blob))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = track_stt(config, scenes, scenes.parent / "tracks", checkpoint)
    assert code == cli.EXIT_CONFIG
    error = json.loads(err.getvalue().strip().splitlines()[-1])["error"]
    assert error == f"{checkpoint}: tensor {owner!r} holds {value!r}"


def test_track_with_checkpoint_of_another_model_config_exits_4(trained, tmp_path, capsys):
    config, data, checkpoint = trained
    other = tmp_path / "other.json"
    for stt in ({"gamma": 5.0}, {"pooling": "last"}, {"t_max": 5}):
        other.write_text(json.dumps({"sim": {"frames": 20}, "stt": stt}))
        capsys.readouterr()
        assert track_stt(other, data, tmp_path / "tracks", checkpoint) == cli.EXIT_MISMATCH
        assert "different model config" in last_error(capsys)


def test_one_checkpoint_tracks_under_either_state_source(trained, tmp_path):
    """Training never reads `state_source`, so a checkpoint trained under the
    default "tsd" also tracks under "tdi", and reports the other head's states."""
    config, data, checkpoint = trained
    tdi = tmp_path / "tdi.json"
    tdi.write_text(json.dumps({"sim": {"frames": 20}, "stt": {"state_source": "tdi"}}))
    states = {}
    for source, path in (("tsd", config), ("tdi", tdi)):
        assert track_stt(path, data, tmp_path / source, checkpoint) == cli.EXIT_OK
        (tracks,) = (tmp_path / source).glob("*.tracks.jsonl")
        _, frames = formats.read_pred_frames(tracks)
        states[source] = [row.state for frame in frames for row in frame]
    assert len(states["tsd"]) > 0
    assert states["tdi"] != states["tsd"]


def test_train_with_non_integer_provenance_exits_2(tmp_path, capsys):
    config, data = simulate(tmp_path)
    det = sorted(data.glob("*.det.jsonl"))[0]
    lines = det.read_text().splitlines()
    row = json.loads(lines[2])
    row["provenance"] = "x"
    lines[2] = json.dumps(row)
    det.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main([
        "train", "--config", str(config), "--data", str(data),
        "--out", str(tmp_path / "model"), "--steps", "1",
    ]) == cli.EXIT_CONFIG
    assert last_error(capsys) == f"{det}:3: provenance must be int, not str"
    assert not (tmp_path / "model").exists()


def test_track_with_two_workers_equals_one_worker(tmp_path):
    config, data = simulate(tmp_path, count=3)
    digests = {}
    for workers in ("1", "2"):
        out = tmp_path / f"tracks-{workers}"
        assert cli.main([
            "track", "--config", str(config), "--data", str(data), "--out", str(out),
            "--backend", "kalman", "--workers", workers,
        ]) == 0
        digests[workers] = {
            path.name: formats.normalized_digest(path)
            for path in sorted(out.glob("*.tracks.jsonl"))
        }
    assert len(digests["1"]) == 3
    assert digests["2"] == digests["1"]


def test_track_starts_no_more_workers_than_scenes(tmp_path, monkeypatch):
    config, data = simulate(tmp_path, count=3)
    pools = []

    class InProcessPool:
        """Records `max_workers` and runs each task at submit; starts no process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    out = tmp_path / "tracks"
    assert cli.main([
        "track", "--config", str(config), "--data", str(data), "--out", str(out),
        "--backend", "kalman", "--workers", "64",
    ]) == 0
    assert pools == [3]
    assert len(list(out.glob("*.tracks.jsonl"))) == 3


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--count", "-1"),
        ("simulate", "--count", "0"),
        ("train", "--steps", "0"),
        ("track", "--workers", "0"),
        ("ablate", "--steps", "0"),
        ("ablate", "--workers", "-2"),
        ("ablate", "--train-scenarios", "0"),
        ("ablate", "--eval-scenarios", "0"),
    ],
)
def test_count_option_below_one_exits_2(tmp_path, capsys, command, flag, value):
    assert_int_option_rejected(tmp_path, capsys, command, flag, value, 1)


@pytest.mark.parametrize("command", ["simulate", "train", "track", "ablate"])
def test_negative_seed_option_exits_2(tmp_path, capsys, command):
    assert_int_option_rejected(tmp_path, capsys, command, "--seed", "-1", 0)


def test_negative_seed_in_config_exits_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": -1}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    assert last_error(capsys) == "invalid config: seed must be >= 0, got -1"
    assert not out.exists()


def assert_int_option_rejected(tmp_path, capsys, command, flag, value, low):
    """`command` with `flag value` below `low` exits 2 naming the flag, and
    writes nothing."""
    config = tmp_path / "run.json"
    config.write_text("{}")
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out), flag, value]
    if command in ("train", "track"):
        argv += ["--data", str(tmp_path / "data")]
    if command == "ablate":
        argv += ["--axis", "track-length"]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert last_error(capsys) == f"{flag} must be >= {low}, got {value}"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            "simulate --config {tmp}/run.json --out {tmp}/out --count abc",
            "sttrack simulate: argument --count: invalid int value: 'abc'",
            id="count-abc",
        ),
        pytest.param(
            "simulate --config {tmp}/run.json --out {tmp}/out --bogus 1",
            "sttrack: unrecognized arguments: --bogus 1",
            id="unknown-flag",
        ),
        pytest.param(
            "simulate --out {tmp}/out",
            "sttrack simulate: the following arguments are required: --config",
            id="no-config",
        ),
        pytest.param(
            "track --config {tmp}/run.json --data {tmp} --out {tmp}/out --backend kf",
            "sttrack track: argument --backend: invalid choice: 'kf'",
            id="bad-choice",
        ),
    ],
)
def test_bad_command_line_prints_the_json_error_line(tmp_path, capsys, argv, message):
    argv = argv.format(tmp=tmp_path).split()
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert last_error(capsys).startswith(message)
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as exit_info:
        cli.main([argv[0], "--help"])
    assert exit_info.value.code == 0


@pytest.mark.parametrize(
    "config, flags, code, message",
    [
        ({}, ["--backend", "stt"], cli.EXIT_MISMATCH, "stt backend requires --checkpoint"),
        (
            {"backend": "nope"},
            [],
            cli.EXIT_CONFIG,
            "invalid config: backend must be 'kalman' or 'stt', got 'nope'",
        ),
    ],
)
def test_track_backend_choice_errors(tmp_path, capsys, config, flags, code, message):
    path, data = simulate(tmp_path)
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert cli.main([
        "track", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "tracks"),
        *flags,
    ]) == code
    assert last_error(capsys) == message


@pytest.mark.parametrize(
    "axis, values, reason",
    [
        ("track-length", "3,x", "invalid literal for int() with base 10: 'x'"),
        ("track-length", "0", "t_max must be >= 1, got 0"),
        ("noise", "1.0,abc", "could not convert string to float: 'abc'"),
        ("noise", "-1", "center_sigma must be >= 0, got -0.1"),
        ("noise", "nan", "center_sigma must be >= 0, got nan"),
        ("track-length", "3,3", "repeated values make repeated runs ['T=3', 'T=3']"),
        ("noise", "1,1.0", "repeated values make repeated runs ['noise x1', 'noise x1']"),
        ("noise", "-0,0", "repeated values make repeated runs ['noise x-0', 'noise x0']"),
        ("track-length", "", "invalid literal for int() with base 10: ''"),
        ("noise", "", "could not convert string to float: ''"),
        ("joint-opt", "1", "the joint-opt axis takes no values"),
        ("joint-opt", "", "the joint-opt axis takes no values"),
    ],
)
def test_ablate_bad_values_exit_2(tmp_path, capsys, axis, values, reason):
    config = tmp_path / "run.json"
    config.write_text("{}")
    out = tmp_path / "out"
    capsys.readouterr()
    # `--values=` form, so that a value such as "-0,0" is not read as an option
    assert cli.main([
        "ablate", "--config", str(config), "--out", str(out), "--axis", axis,
        f"--values={values}",
    ]) == cli.EXIT_CONFIG
    assert last_error(capsys) == f"--values {values!r}: {reason}"
    assert not out.exists()


def test_ablate_values_starting_with_minus_as_a_separate_argument_exits_2(tmp_path, capsys):
    # argparse reads "-0.5,1" as an option; the error says how to write it
    config = tmp_path / "run.json"
    config.write_text("{}")
    capsys.readouterr()
    assert cli.main([
        "ablate", "--config", str(config), "--out", str(tmp_path / "out"), "--axis", "noise",
        "--values", "-0.5,1",
    ]) == cli.EXIT_CONFIG
    assert last_error(capsys) == (
        "sttrack ablate: argument --values: expected one argument;"
        " write a list that starts with '-' as --values=-0.5,1"
    )
    # a missing value followed by another option gets no such advice
    assert cli.main([
        "ablate", "--config", str(config), "--out", str(tmp_path / "out"), "--axis", "noise",
        "--values", "--steps", "3",
    ]) == cli.EXIT_CONFIG
    assert last_error(capsys) == "sttrack ablate: argument --values: expected one argument"
    assert not (tmp_path / "out").exists()


def test_eval_of_tracks_with_another_frame_count_exits_2(tmp_path, capsys):
    _, data = simulate(tmp_path, frames=12)
    (tmp_path / "short").mkdir()
    config, short = simulate(tmp_path / "short", frames=10)
    tracks = tmp_path / "tracks"
    assert track(config, short, tracks) == 0
    capsys.readouterr()
    assert cli.main([
        "eval", "--gt", str(data), "--results", str(tracks), "--out", str(tmp_path / "e.json"),
    ]) == cli.EXIT_CONFIG
    pred, gt = tracks / "scenario_0000.tracks.jsonl", data / "scenario_0000.gt.jsonl"
    assert last_error(capsys) == f"{pred}:1: header config frames 10 differs from 12 in {gt}"


@pytest.mark.parametrize(
    "text, reason",
    [
        pytest.param('{"header": ', "not valid JSON: ", id="not-json"),
        pytest.param("[1, 2]", "top level must be a JSON object", id="list"),
        pytest.param('{"header": {}}', "header kind None, expected 'metrics'", id="no-kind"),
        pytest.param(
            '{"header": {"kind": "tracks"}, "report": {"classes": {}}}',
            "header kind 'tracks', expected 'metrics'",
            id="tracks-kind",
        ),
        pytest.param(
            '{"header": {"kind": "metrics"}, "report": {}}',
            "no report.classes object",
            id="no-classes",
        ),
        pytest.param(
            '{"header": {"kind": "metrics"}, "report": {"classes": []}}',
            "no report.classes object",
            id="classes-list",
        ),
        pytest.param(
            '{"header": {"kind": "metrics"}, "report": {"classes": {"vehicle": {"mota": 1}}}}',
            "report.classes.vehicle has no 's_mota'",
            id="row-without-a-metric",
        ),
        pytest.param(
            '{"header": {"kind": "metrics"}, "report": {"classes": {"vehicle": "x"}}}',
            "report.classes.vehicle must be an object, not str",
            id="row-not-an-object",
        ),
        pytest.param(
            '{"header": {"kind": "metrics"}, "report": {"classes": {"vehicle": {"mota": 1,'
            ' "s_mota": null, "fp_pct": 0, "miss_pct": 0, "mismatch_pct": 0,'
            ' "motp": {"velocity": {"static": "0.5", "all": 1}}}}}}',
            "report.classes.vehicle.motp.velocity.static must be a number or null, not str",
            id="nested-metric-a-string",
        ),
        pytest.param(
            '{"header": {"kind": "metrics"}, "report": {"classes": {"vehicle": {"mota": 1,'
            ' "s_mota": true}}}}',
            "report.classes.vehicle.s_mota must be a number or null, not bool",
            id="metric-a-bool",
        ),
        pytest.param(
            '{"header": {"kind": "metrics"}, "report": {"classes": {"vehicle": {"mota": 1,'
            ' "s_mota": 1, "fp_pct": 0, "miss_pct": 0, "mismatch_pct": 0,'
            ' "motp": {"velocity": {"static": 0.5, "all": 1}, "acceleration": []}}}}}',
            "report.classes.vehicle.motp.acceleration must be an object, not list",
            id="nested-section-a-list",
        ),
    ],
)
def test_report_on_a_malformed_metrics_file_exits_2(tmp_path, capsys, text, reason):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    cli.write_metrics_file(good, {"classes": {}}, {})
    assert cli.main(["report", "--inputs", str(good)]) == cli.EXIT_OK
    bad.write_text(text)
    capsys.readouterr()
    assert cli.main(["report", "--inputs", str(good), str(bad)]) == cli.EXIT_CONFIG
    assert last_error(capsys).startswith(f"{bad}: {reason}")


@pytest.mark.parametrize(
    "command, replaced, message",
    [
        ("track", "data/scenario_0000.det.jsonl", "no such file: {path}"),
        ("train", "data/scenario_0000.gt.jsonl", "no such file: {path}"),
        ("eval", "data/scenario_0000.gt.jsonl",
         "no ground truth for scenario scenario_0000: {path}"),
        ("eval", "tracks/scenario_0000.tracks.jsonl", "no such file: {path}"),
        ("eval", "run.json", "no such config file: {path}"),
        ("report", "eval.json", "no such metrics file: {path}"),
    ],
)
def test_directory_in_place_of_an_input_file_exits_3(tmp_path, capsys, command, replaced, message):
    config, data = simulate(tmp_path)
    tracks, metrics, out = tmp_path / "tracks", tmp_path / "eval.json", tmp_path / "out"
    argv = {
        "track": ["track", "--config", str(config), "--data", str(data), "--out", str(out),
                  "--backend", "kalman"],
        "train": ["train", "--config", str(config), "--data", str(data), "--out", str(out),
                  "--steps", "1"],
        "eval": ["eval", "--config", str(config), "--gt", str(data), "--results", str(tracks),
                 "--out", str(metrics)],
        "report": ["report", "--inputs", str(metrics)],
    }
    assert track(config, data, tracks) == 0
    assert cli.main(argv["eval"]) == 0
    path = tmp_path / replaced
    path.unlink()
    path.mkdir()
    capsys.readouterr()
    assert cli.main(argv[command]) == cli.EXIT_MISSING
    assert last_error(capsys) == message.format(path=path)


@pytest.mark.parametrize(
    "command, existing, out, found, kind",
    [
        ("simulate", "file", "out", "out", "directory"),
        ("train", "file", "out", "out", "directory"),
        ("track", "file", "out", "out", "directory"),
        ("ablate", "file", "out", "out", "directory"),
        ("eval", "directory", "out", "out", "file"),
        ("report", "directory", "out", "out", "file"),
        ("simulate", "file", "out/scenes", "out", "directory"),
        ("eval", "file", "out/eval.json", "out", "directory"),
    ],
)
def test_out_of_the_wrong_kind_exits_2(tmp_path, capsys, command, existing, out, found, kind):
    config = tmp_path / "run.json"
    config.write_text("{}")
    out, found = tmp_path / out, tmp_path / found
    if existing == "file":
        found.write_text("kept")
    else:
        found.mkdir()
    argv = {
        "simulate": ["--config", str(config)],
        "train": ["--config", str(config), "--data", str(tmp_path)],
        "track": ["--config", str(config), "--data", str(tmp_path)],
        "ablate": ["--config", str(config), "--axis", "noise"],
        "eval": ["--gt", str(tmp_path), "--results", str(tmp_path)],
        "report": ["--inputs", str(config)],
    }[command]
    capsys.readouterr()
    assert cli.main([command, *argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert last_error(capsys) == f"--out {out}: {found} is not a {kind}"
    assert found.read_text() == "kept" if existing == "file" else not any(found.iterdir())


def test_eval_csv_path_of_the_wrong_kind_exits_2_and_writes_nothing(tmp_path, capsys):
    """`eval --emit-csv` writes `<out>.csv` beside the metrics file: a
    directory there stops the run before either file is written."""
    config, data = simulate(tmp_path)
    tracks, out = tmp_path / "tracks", tmp_path / "d" / "m.json"
    assert track(config, data, tracks) == 0
    (tmp_path / "d" / "m.csv").mkdir(parents=True)
    capsys.readouterr()
    assert cli.main([
        "eval", "--config", str(config), "--gt", str(data), "--results", str(tracks),
        "--out", str(out), "--emit-csv",
    ]) == cli.EXIT_CONFIG
    assert last_error(capsys) == f"--out {out}: {out.with_suffix('.csv')} is not a file"
    assert sorted(p.name for p in out.parent.iterdir()) == ["m.csv"]
    assert not any((tmp_path / "d" / "m.csv").iterdir())
