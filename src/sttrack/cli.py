"""Command-line entry points tying the pipeline together.

Commands: simulate -> train -> track -> eval -> report, plus an ablation
harness that reruns the pipeline across a chosen axis (track length, joint
optimization, detector noise). Every command is idempotent for identical
inputs and seed, writes provenance headers into its outputs, and exits
nonzero with a machine-readable error line on failure.

Exit codes: 0 success, 1 unexpected error, 2 config/schema violation or
bad command line (an unknown or missing flag, a value that does not parse,
a count option below 1, `ablate --values` that repeat a run, are given for
`joint-opt` or hold an entry that is empty, does not parse or that the
config rejects, an `--out` naming a file where the command writes a
directory or the reverse, also the CSV file `eval --emit-csv` writes beside
it, a checkpoint whose tensors do not fit its model, training scenes that
yield no training example),
3 missing input file (or a directory in its place), 4 checkpoint/config
mismatch. `--workers` above the number of scenes starts one process per
scene.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np

from . import autodiff, formats, model
from .config import ConfigError, RunConfig, load_run_config, resolved_dict
from .metrics import Evaluator, MatchingPolicy, format_report, report_csv_rows
from .model import extract_examples
from .runtime import KalmanBackend, SttBackend, run_sequence
from .sim import generate, population_specs

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_MISMATCH = 4


class CheckpointMismatchError(RuntimeError):
    pass


# --- shared helpers ----------------------------------------------------------


def build_scenario(cfg: RunConfig, index: int):
    """One deterministic scenario: specs and noise derive from (seed, index)."""
    rng = np.random.default_rng((cfg.seed, index, 0))
    specs = population_specs(cfg.class_id, cfg.sim, rng)
    return generate(cfg.sim, specs, seed=(cfg.seed, index, 1))


_FILE_KINDS = {".det.jsonl": "scenario files", ".tracks.jsonl": "track files"}


def scenario_names(directory: Path, suffix: str) -> list[str]:
    """Sorted scene names of the `*<suffix>` files in `directory`, at least one."""
    names = sorted(p.name[: -len(suffix)] for p in directory.glob(f"*{suffix}"))
    if not names:
        raise FileNotFoundError(f"no {_FILE_KINDS[suffix]} (*{suffix}) in {directory}")
    return names


def load_checkpoint_for(cfg: RunConfig, path: Path) -> dict[str, np.ndarray]:
    """A checkpoint's parameter arrays; CheckpointMismatchError unless it was
    trained with `cfg.stt`, FormatError unless its tensor names and shapes
    are that model's and its values finite. Only `state_source` may differ:
    training never reads it, it picks the head whose states tracking
    reports."""
    if not path.is_file():
        raise FileNotFoundError(f"no such checkpoint file: {path}")
    try:
        arrays, metadata = autodiff.load_checkpoint(path)
    except ValueError as exc:
        raise formats.FormatError(str(exc)) from None
    stored, run = metadata.get("stt"), dataclasses.asdict(cfg.stt)
    if not isinstance(stored, dict) or {**stored, "state_source": run["state_source"]} != run:
        raise CheckpointMismatchError(
            f"checkpoint {path} was trained with a different model config: "
            f"{stored} vs {run}"
        )
    have = {name: array.shape for name, array in arrays.items()}
    want = {name: tensor.shape for name, tensor in model.init_params(cfg.stt, 0).items()}
    for name in sorted(have.keys() | want.keys()):
        if have.get(name) != want.get(name):
            raise formats.FormatError(
                f"{path}: tensor {name!r} has shape {have.get(name, 'none')} in the"
                f" checkpoint and {want.get(name, 'none')} in the model"
            )
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            bad = float(array[~np.isfinite(array)][0])
            raise formats.FormatError(f"{path}: tensor {name!r} holds {bad!r}")
    return arrays


def _check_widths(path: Path, frames, stt: model.SttConfig) -> None:
    """Raise FormatError naming `path` when the appearance or motion width of
    its detections tables is not the model's `d_a` or `d_m`."""
    for key, field in (("appearance", "d_a"), ("motion", "d_m")):
        want = getattr(stt, field)
        wrong = {getattr(dets, key).shape[1] for dets in frames if dets.ids} - {want}
        if wrong:
            raise formats.FormatError(
                f"{path}: {key} width {min(wrong)} != configured stt.{field} {want}"
            )


def _training_set(
    data_dir: Path, names: list[str], stt: model.SttConfig
) -> tuple[np.ndarray, model.Examples]:
    """(table, examples) of the named scenes: their feature tables stacked
    into one, and the examples of every scene, which index it."""
    tables, examples = [], []
    rows = 0
    for name in names:
        det_path = data_dir / f"{name}.det.jsonl"
        scenario = formats.read_scenario(data_dir / f"{name}.gt.jsonl", det_path)
        _check_widths(det_path, scenario.detections, stt)
        table, found = extract_examples(scenario, stt, first_row=rows)
        tables.append(table)
        examples.append(found)
        rows += len(table)
    return np.concatenate(tables), model.Examples(*map(np.concatenate, zip(*examples)))


def train_on_directory(
    cfg: RunConfig, data_dir: Path, out_dir: Path, steps: int | None = None
) -> Path:
    """Extract examples from a scenario directory and train a model; `steps`
    replaces the config's `train.steps`, also as the end of the lr decay."""
    settings = cfg.train if steps is None else dataclasses.replace(cfg.train, steps=steps)
    names = scenario_names(data_dir, ".det.jsonl")[: settings.train_scenarios]
    table, examples = _training_set(data_dir, names, cfg.stt)
    count = len(examples.positive)
    if not count:
        raise formats.FormatError(
            f"{data_dir}: its {len(names)} scene(s) yield no training example"
        )
    if count > settings.max_examples:
        rng = np.random.default_rng((cfg.seed, 2))
        keep = rng.choice(count, size=settings.max_examples, replace=False)
        examples, count = examples.take(np.sort(keep)), settings.max_examples
    params, log = model.train(table, examples, cfg.stt, settings, seed=cfg.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "model.ckpt"
    autodiff.save_checkpoint(
        ckpt,
        params,
        {
            "stt": dataclasses.asdict(cfg.stt),
            "class_id": cfg.class_id.value,
            "seed": cfg.seed,
            "steps": settings.steps,
            "examples": count,
        },
    )
    model.write_training_log(out_dir / "training_log.csv", log)
    return ckpt


def _track_one(
    cfg: RunConfig,
    backend_kind: str,
    data_dir: Path,
    out_dir: Path,
    name: str,
    stt_arrays: dict | None,
) -> dict:
    det_path = data_dir / f"{name}.det.jsonl"
    dt, detections = formats.read_detections(det_path)
    frames = len(detections)
    if backend_kind == "stt":
        _check_widths(det_path, detections, cfg.stt)
        params = {k: autodiff.Tensor(v) for k, v in stt_arrays.items()}
        backend = SttBackend(params, cfg.stt, cfg.lifecycle, dt)
    else:
        backend = KalmanBackend(cfg.kf, dt)
    output = run_sequence(detections, backend, cfg.lifecycle)
    provenance = resolved_dict(cfg)
    provenance["backend"] = backend_kind
    formats.write_tracker_output(out_dir / f"{name}.tracks.jsonl", output, provenance)
    timing = {
        "frames": frames,
        "total_seconds": sum(output.frame_seconds),
        "mean_ms_per_frame": 1000.0 * np.mean(output.frame_seconds) if frames else 0.0,
        "fps": frames / max(sum(output.frame_seconds), 1e-12),
    }
    timing_json = json.dumps(timing, sort_keys=True, allow_nan=False)
    (out_dir / f"{name}.timing.json").write_text(timing_json)
    return timing


def track_directory(
    cfg: RunConfig,
    backend_kind: str,
    data_dir: Path,
    out_dir: Path,
    checkpoint: Path | None,
    workers: int = 1,
) -> list[dict]:
    names = scenario_names(data_dir, ".det.jsonl")
    out_dir.mkdir(parents=True, exist_ok=True)
    stt_arrays = None
    if backend_kind == "stt":
        if checkpoint is None:
            raise CheckpointMismatchError("stt backend requires --checkpoint")
        stt_arrays = load_checkpoint_for(cfg, checkpoint)
    workers = min(workers, len(names))
    if workers <= 1:
        return [
            _track_one(cfg, backend_kind, data_dir, out_dir, name, stt_arrays)
            for name in names
        ]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_track_one, cfg, backend_kind, data_dir, out_dir, name, stt_arrays)
            for name in names
        ]
        return [f.result() for f in futures]


def evaluate_directories(
    gt_dir: Path, results_dir: Path, policy: MatchingPolicy
) -> dict:
    names = scenario_names(results_dir, ".tracks.jsonl")
    evaluator = Evaluator(policy)
    for name in names:
        gt_path = gt_dir / f"{name}.gt.jsonl"
        if not gt_path.is_file():
            raise FileNotFoundError(f"no ground truth for scenario {name}: {gt_path}")
        _, labels = formats.read_label_frames(gt_path)
        pred_path = results_dir / f"{name}.tracks.jsonl"
        _, preds = formats.read_pred_frames(pred_path)
        if len(preds) != len(labels):
            raise formats.FormatError(
                f"{pred_path}:1: header config frames {len(preds)} differs from"
                f" {len(labels)} in {gt_path}"
            )
        evaluator.add_sequence(labels, preds)
    return evaluator.report()


def write_metrics_file(path: Path, report: dict, provenance: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"header": formats.make_header("metrics", provenance), "report": report}
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))


def simulate_into(out_dir: Path, cfg: RunConfig, count: int) -> None:
    """Write scenarios 0..count-1 of `cfg` to `out_dir`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    provenance = resolved_dict(cfg)
    for index in range(count):
        scenario = build_scenario(cfg, index)
        formats.write_scenario(out_dir, f"scenario_{index:04d}", scenario, provenance)


# --- commands ------------------------------------------------------------------


def _run_config(args) -> RunConfig:
    """The `--config` file's run config, with `--seed` in place of its seed."""
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    simulate_into(out_dir, _run_config(args), args.count)
    print(f"simulate: wrote {args.count} scenario(s) to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _run_config(args)
    ckpt = train_on_directory(cfg, Path(args.data), Path(args.out), steps=args.steps)
    print(f"train: checkpoint at {ckpt}")
    return EXIT_OK


def cmd_track(args) -> int:
    cfg = _run_config(args)
    backend_kind = args.backend or cfg.backend
    checkpoint = Path(args.checkpoint) if args.checkpoint else None
    timings = track_directory(
        cfg, backend_kind, Path(args.data), Path(args.out), checkpoint, args.workers
    )
    total = sum(t["total_seconds"] for t in timings)
    frames = sum(t["frames"] for t in timings)
    print(
        f"track[{backend_kind}]: {len(timings)} scenario(s), {frames} frames, "
        f"{frames / max(total, 1e-12):.0f} frames/s"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.config:
        cfg = load_run_config(args.config)
    else:
        cfg = RunConfig()
    policy = cfg.policy
    if args.policy == "mota-only":
        policy = policy.mota_only()
    report = evaluate_directories(Path(args.gt), Path(args.results), policy)
    out_path = Path(args.out)
    write_metrics_file(out_path, report, resolved_dict(cfg))
    if args.emit_csv:
        rows = report_csv_rows(report)
        csv_path = out_path.with_suffix(".csv")
        with open(csv_path, "w") as f:
            if rows:
                f.write(",".join(rows[0].keys()) + "\n")
                for row in rows:
                    f.write(",".join("" if v is None else str(v) for v in row.values()) + "\n")
    print(format_report(report))
    print(f"eval: report at {out_path}")
    return EXIT_OK


# table column -> key path of its metric in a class row of a metrics report
_REPORT_COLUMNS = {
    "MOTA": "mota",
    "S-MOTA": "s_mota",
    "FP%": "fp_pct",
    "Miss%": "miss_pct",
    "MM%": "mismatch_pct",
    "MOTP_v[static]": "motp.velocity.static",
    "MOTP_v[all]": "motp.velocity.all",
    "MOTP_a[all]": "motp.acceleration.all",
}


def _comparison_table(runs: list[tuple[str, dict]], class_name: str) -> str:
    lines = ["  ".join(f"{h:>14}" for h in ["run", *_REPORT_COLUMNS])]
    for label, report in runs:
        row = report["classes"].get(class_name)
        cells = []
        for column, key in _REPORT_COLUMNS.items():
            value = None if row is None else reduce(getitem, key.split("."), row)
            if value is not None and column.endswith("%"):
                value = 100.0 * value
            cells.append(f"{'-':>14}" if value is None else f"{value:>14.3f}")
        lines.append(f"{label:>14}  " + "  ".join(cells))
    return "\n".join(lines)


def _check_class_row(path: Path, class_name: str, row) -> None:
    """FormatError naming `path`, the class and the key unless `row` holds
    every `_REPORT_COLUMNS` metric as a number or null."""
    for key in _REPORT_COLUMNS.values():
        value, where = row, f"report.classes.{class_name}"
        for part in key.split("."):
            if type(value) is not dict:
                kind = type(value).__name__
                raise formats.FormatError(f"{path}: {where} must be an object, not {kind}")
            if part not in value:
                raise formats.FormatError(f"{path}: {where} has no {part!r}")
            value, where = value[part], f"{where}.{part}"
        if value is not None and type(value) not in (int, float):
            kind = type(value).__name__
            raise formats.FormatError(f"{path}: {where} must be a number or null, not {kind}")


def _read_metrics_report(path: Path) -> dict:
    """The `report` of a metrics file; FormatError naming `path` if it is not one."""
    if not path.is_file():
        raise FileNotFoundError(f"no such metrics file: {path}")
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:  # also a file that is not UTF-8 text
        raise formats.FormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise formats.FormatError(f"{path}: top level must be a JSON object")
    header, report = payload.get("header"), payload.get("report")
    kind = header.get("kind") if isinstance(header, dict) else None
    if kind != "metrics":
        raise formats.FormatError(f"{path}: header kind {kind!r}, expected 'metrics'")
    if not isinstance(report, dict) or not isinstance(report.get("classes"), dict):
        raise formats.FormatError(f"{path}: no report.classes object")
    for class_name, row in report["classes"].items():
        _check_class_row(path, class_name, row)
    return report


def cmd_report(args) -> int:
    labels = args.labels or [Path(p).stem for p in args.inputs]
    if len(labels) != len(args.inputs):
        raise ConfigError("--labels must match --inputs in length")
    runs = [(label, _read_metrics_report(Path(p))) for label, p in zip(labels, args.inputs)]
    class_names = set().union(*(report["classes"] for _, report in runs))
    blocks = []
    for class_name in sorted(class_names):
        blocks.append(f"== {class_name} ==")
        blocks.append(_comparison_table(runs, class_name))
    defaults = json.dumps(resolved_dict(RunConfig()), sort_keys=True, indent=1)
    blocks.append("== shipped defaults ==")
    blocks.append(defaults)
    text = "\n".join(blocks)
    print(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


def _run_variant_pipeline(
    cfg: RunConfig,
    label: str,
    out_dir: Path,
    train_dir: Path,
    eval_dir: Path,
    steps: int | None,
    workers: int,
) -> dict:
    variant_dir = out_dir / "variants" / label
    ckpt = None
    if cfg.backend == "stt":
        ckpt = train_on_directory(cfg, train_dir, variant_dir, steps=steps)
    track_directory(cfg, cfg.backend, eval_dir, variant_dir / "tracks", ckpt, workers)
    report = evaluate_directories(eval_dir, variant_dir / "tracks", cfg.policy)
    write_metrics_file(variant_dir / "eval.json", report, resolved_dict(cfg))
    return report


def _ablation_variants(
    cfg: RunConfig, axis: str, values: str | None
) -> list[tuple[str, RunConfig]]:
    """(label, config) of each run along `axis`; `values` is the comma-separated
    `--values` text, None for the axis's defaults. ValueError if the values
    repeat a run or `axis` takes none."""
    variants: list[tuple[str, RunConfig]] = []
    if axis == "track-length":
        lengths = [3, 5, 10, 20] if values is None else [int(v) for v in values.split(",")]
        for t in lengths:
            stt = dataclasses.replace(cfg.stt, t_max=t)
            variants.append((f"T={t}", dataclasses.replace(cfg, backend="stt", stt=stt)))
    elif axis == "joint-opt":
        if values is not None:
            raise ValueError("the joint-opt axis takes no values")
        joint = dataclasses.replace(cfg, backend="stt")
        assoc_stt = dataclasses.replace(
            cfg.stt,
            lambda_position=0.0,
            lambda_velocity=0.0,
            lambda_acceleration=0.0,
            alpha=0.0,
        )
        variants.append(("joint", joint))
        variants.append(("assoc-only", dataclasses.replace(joint, stt=assoc_stt)))
    else:  # "noise"; argparse allows only the three axes
        multipliers = [0.5, 1.0, 2.0] if values is None else [float(v) for v in values.split(",")]
        for mult in multipliers:
            noise = dataclasses.replace(
                cfg.sim.noise, center_sigma=cfg.sim.noise.center_sigma * mult
            )
            sim = dataclasses.replace(cfg.sim, noise=noise)
            variants.append((f"noise x{mult:g}", dataclasses.replace(cfg, sim=sim)))
    labels = [label for label, _ in variants]
    configs = [run for _, run in variants]
    if len(set(labels)) < len(labels) or any(c in configs[:i] for i, c in enumerate(configs)):
        raise ValueError(f"repeated values make repeated runs {labels}")
    return variants


def cmd_ablate(args) -> int:
    cfg = _run_config(args)
    out_dir = Path(args.out)
    train_dir = out_dir / "data" / "train"
    eval_dir = out_dir / "data" / "eval"

    def eval_seed(run_cfg: RunConfig) -> RunConfig:
        return dataclasses.replace(run_cfg, seed=run_cfg.seed + 10_000)

    try:
        variants = _ablation_variants(cfg, args.axis, args.values)
    except ValueError as exc:  # a value that does not parse or that a section rejects
        raise ConfigError(f"--values {args.values!r}: {exc}") from None

    shared_data = args.axis != "noise"
    if shared_data:
        simulate_into(train_dir, cfg, args.train_scenarios)
        simulate_into(eval_dir, eval_seed(cfg), args.eval_scenarios)

    runs = []
    for label, variant_cfg in variants:
        if not shared_data:
            train_dir = out_dir / "data" / label.replace(" ", "_") / "train"
            eval_dir = out_dir / "data" / label.replace(" ", "_") / "eval"
            simulate_into(train_dir, variant_cfg, args.train_scenarios)
            simulate_into(eval_dir, eval_seed(variant_cfg), args.eval_scenarios)
        report = _run_variant_pipeline(
            variant_cfg, label.replace(" ", "_"), out_dir, train_dir, eval_dir,
            args.steps, args.workers,
        )
        runs.append((label, report))

    class_name = cfg.class_id.value
    table = _comparison_table(runs, class_name)
    text = f"ablation axis: {args.axis}\n== {class_name} ==\n{table}\n"
    print(text)
    (out_dir / "comparison.txt").write_text(text)
    payload = {
        "axis": args.axis,
        "runs": [{"label": label, "report": report} for label, report in runs],
    }
    (out_dir / "comparison.json").write_text(json.dumps(payload, sort_keys=True, indent=1))
    return EXIT_OK


# --- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A bad command line raises ConfigError: exit 2 with the JSON error line.
    argparse reads a `--values` list that starts with "-" as an option, so
    that error says to attach the list with "="."""

    def parse_known_args(self, args=None, namespace=None):
        self._args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        args = getattr(self, "_args", [])
        if message == "argument --values: expected one argument" and "--values" in args[:-1]:
            values = args[args.index("--values") + 1]
            if values not in self._option_string_actions:
                message += f"; write a list that starts with '-' as --values={values}"
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sttrack",
        description="Desk-scale multi-object tracking: simulate, train, track, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic scenario files")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--count", type=int, default=1)
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    tr = sub.add_parser("train", help="train the learned tracker on scenario files")
    tr.add_argument("--config", required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--steps", type=int, default=None)
    tr.set_defaults(func=cmd_train)

    tk = sub.add_parser("track", help="run a tracker over scenario files")
    tk.add_argument("--config", required=True)
    tk.add_argument("--data", required=True)
    tk.add_argument("--out", required=True)
    tk.add_argument("--checkpoint", default=None)
    tk.add_argument("--backend", choices=["kalman", "stt"], default=None)
    tk.add_argument("--workers", type=int, default=1)
    tk.add_argument("--seed", type=int, default=None)
    tk.set_defaults(func=cmd_track)

    ev = sub.add_parser("eval", help="score tracker output against ground truth")
    ev.add_argument("--gt", required=True)
    ev.add_argument("--results", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--config", default=None)
    ev.add_argument("--policy", choices=["stateful", "mota-only"], default="stateful")
    ev.add_argument("--emit-csv", action="store_true")
    ev.set_defaults(func=cmd_eval)

    rp = sub.add_parser("report", help="consolidated comparison of eval outputs")
    rp.add_argument("--inputs", nargs="+", required=True)
    rp.add_argument("--labels", nargs="*", default=None)
    rp.add_argument("--out", default=None)
    rp.set_defaults(func=cmd_report)

    ab = sub.add_parser("ablate", help="run an ablation axis end to end")
    ab.add_argument("--config", required=True)
    ab.add_argument("--out", required=True)
    ab.add_argument("--axis", choices=["track-length", "joint-opt", "noise"],
                    required=True)
    ab.add_argument("--values", default=None)
    ab.add_argument("--steps", type=int, default=None)
    ab.add_argument("--train-scenarios", type=int, default=12)
    ab.add_argument("--eval-scenarios", type=int, default=4)
    ab.add_argument("--workers", type=int, default=1)
    ab.add_argument("--seed", type=int, default=None)
    ab.set_defaults(func=cmd_ablate)

    return parser


# The least value of each integer option.
_INT_FLOORS = {
    "count": 1, "steps": 1, "workers": 1, "train_scenarios": 1, "eval_scenarios": 1, "seed": 0,
}


def _check_ints(args) -> None:
    """Raise ConfigError naming the flag of an integer option below its least value."""
    for name, low in _INT_FLOORS.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} must be >= {low}, got {value}")


# The commands whose `--out` names a file; the others fill a directory.
_FILE_OUT = {"eval", "report"}


def _check_out(args) -> None:
    """Raise ConfigError naming `--out` when the path, or the nearest of its
    parents that exists, is of the wrong kind for the command to write; for
    `eval --emit-csv`, the same for the CSV file beside it."""
    if args.out is None:
        return
    out = Path(args.out)
    paths = [out, out.with_suffix(".csv")] if getattr(args, "emit_csv", False) else [out]
    for path in paths:
        found = next(p for p in (path, *path.parents) if p.exists())
        want = "file" if found == path and args.command in _FILE_OUT else "directory"
        if found.is_dir() != (want == "directory"):
            raise ConfigError(f"--out {out}: {found} is not a {want}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_ints(args)
        _check_out(args)
        return args.func(args)
    except (ConfigError, formats.FormatError) as exc:
        print(json.dumps({"error": str(exc), "exit_code": EXIT_CONFIG}), file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(json.dumps({"error": str(exc), "exit_code": EXIT_MISSING}), file=sys.stderr)
        return EXIT_MISSING
    except CheckpointMismatchError as exc:
        print(json.dumps({"error": str(exc), "exit_code": EXIT_MISMATCH}), file=sys.stderr)
        return EXIT_MISMATCH
    except Exception as exc:  # pragma: no cover - defensive
        print(json.dumps({"error": str(exc), "exit_code": EXIT_ERROR}), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
