#!/usr/bin/env python3
"""Benchmark of the sttrack pipeline: simulate -> train -> track -> eval.

    python3 benches/run.py --workload vehicle-kf --seed 1 --seconds 36 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, times in reference
seconds (see hostspeed.py); with `--trace 1` they are its per-layer
metrics, from rounds that alternate untraced and traced; layer times are
wall seconds.

`--seconds` bounds the whole run, set-up probes and checks included, except
that a run makes at least MIN_ROUNDS rounds. `failed` counts the operations
of rounds in which a stage raised (see pipeline.py); a run whose last round
failed, or that has no whole round to report, exits non-zero.
Work files go to `.bench_work/` under the repository root and are removed
at the end, except the span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent

MIN_ROUNDS = 3
SETUP_SAMPLES = 5
# What the check pass and the checks after the last round take, in rounds
# (0.25 to 0.35 measured).
TAIL_ROUNDS = 0.4

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_frames_per_s": "1/s",
    "train_steps_per_s": "1/s",
    "track_frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p98": "ms",
    "eval_frames_per_s": "1/s",
    "peak_rss_mb": "MB",
    "motp_velocity_mps": "m/s",
}


def _use_checkout_sources() -> None:
    """Import sttrack from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "sttrack" / "__init__.py").is_file():
        sys.exit(f"benchmark: no sttrack sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: print the reference seconds that imports, config
    and work-dir set-up take (see `hostspeed`). The reference sample is
    taken after set-up, because the numpy loop would import numpy."""
    start = time.perf_counter()
    import pipeline

    work_dir = WORK / f"setup-{os.getpid()}"
    pipeline.setup(workload, seed, work_dir)
    elapsed = time.perf_counter() - start
    from reference import slowness

    scale = slowness()
    shutil.rmtree(work_dir, ignore_errors=True)
    print(repr(elapsed / scale))


def measure_setup(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--seconds", "0"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    work_dir = WORK / f"{workload_name}-seed{seed}-{os.getpid()}"
    try:
        return _run(workload_name, seed, seconds, trace, work_dir, started)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(
    workload_name: str, seed: int, seconds: float, trace: bool, work_dir: Path, started: float
) -> dict:
    import checks
    import pipeline

    setup_s = measure_setup(workload_name, seed)
    workload, cfg, provenance, layout = pipeline.setup(workload_name, seed, work_dir)
    train_cfg = pipeline.simulate_training_scenes(workload, cfg, layout)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()

    rounds, traced_rounds, layer_rounds = [], [], []
    failed = done = 0
    first_round = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced rounds, untraced first.
        traced = tracer is not None and done % 2 == 1
        if traced:
            tracer.reset_counts()
            tracer.install()
        try:
            result = pipeline.run_round(
                workload, cfg, train_cfg, provenance, layout, done, tracer if traced else None
            )
        finally:
            if traced:
                tracer.uninstall()
        done += 1
        failed += result.failed
        if result.failed:
            print(f"round {done} failed: {result.failed} operations", file=sys.stderr)
        else:
            if traced:
                traced_rounds.append(result)
                layer_rounds.append(tracer.round_values())
            else:
                rounds.append(result)
            stages = " ".join(f"{k} {v:.3f}s" for k, v in result.wall_seconds.items())
            print(f"round {done}{' (traced)' if traced else ''} wall: {stages}", file=sys.stderr)
        now = time.perf_counter()
        per_round = (now - first_round) / done
        if done >= MIN_ROUNDS and now - started + per_round * (1 + TAIL_ROUNDS) > seconds:
            break
    if result.failed or not rounds or (tracer is not None and not traced_rounds):
        raise SystemExit("benchmark: the last round failed, or no round of a kind ended whole")
    # Peak memory of the timed rounds, read before the check pass and the
    # checks allocate anything.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks_started = time.perf_counter()
    with checks.SolveRecorder() as recorder:
        pipeline.check_pass(workload, cfg, provenance, layout)
    failures = {
        "tracker": checks.tracker_property(
            layout.data, layout.tracks, cfg.sim.frames, cfg.lifecycle.min_confidence
        ),
        "assignment": checks.assignments(recorder.records),
        "metrics": checks.metrics_oracle(layout.data, cfg.policy),
        "simulator": checks.simulator_velocities(layout.data, cfg.sim.dt),
        "training": checks.training_loss(layout.model),
        "determinism": [
            f"round {i} rows differ from round 0"
            for i, r in enumerate(rounds + traced_rounds)
            if r.rows_digest != rounds[0].rows_digest
        ],
    }
    if workload.backend == "kalman":
        failures["kalman"] = checks.kalman_static(
            layout.data,
            rounds[-1].report,
            cfg.class_id.value,
            cfg.sim.speed_thresholds.static_max,
        )
    for name, messages in failures.items():
        for message in messages[:5]:
            print(f"check {name} failed: {message}", file=sys.stderr)
    correct = not any(failures.values())
    print(
        f"set-up {first_round - started:.1f} s, rounds {checks_started - first_round:.1f} s, "
        f"checks {time.perf_counter() - checks_started:.1f} s",
        file=sys.stderr,
    )

    row = rounds[-1].report["classes"][cfg.class_id.value]
    print(f"rows_sha256 {rounds[0].rows_digest}")
    print(
        f"rounds {len(rounds)} untraced, {len(traced_rounds)} traced, {done} in all; "
        f"mota {row['mota']:.4f} s_mota {row['s_mota']:.4f}; "
        f"run {time.perf_counter() - started:.1f} s"
    )

    if tracer is None:
        values = pipeline.end_to_end(workload, rounds)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS
        every_frame = pipeline.frame_latencies(rounds, skip_disturbed=False)
        print(
            f"frame_ms_p98 {values['frame_ms_p98']:.4f} without frames run right after "
            f"a reference sample, {1000.0 * pipeline.p98(every_frame):.4f} with them",
            file=sys.stderr,
        )
    else:
        import tracing

        values = {
            name: statistics.median(r[name] for r in layer_rounds)
            for name in layer_rounds[0]
        }
        frames = workload.scenarios * workload.frames
        traced_fps = frames / statistics.median(r.seconds["track"] for r in traced_rounds)
        plain_fps = frames / statistics.median(r.seconds["track"] for r in rounds)
        values["trace.track_frames_per_s_traced"] = traced_fps
        values["trace.track_frames_per_s_untraced"] = plain_fps
        values["trace.overhead"] = plain_fps / traced_fps - 1.0
        units = tracing.PER_LAYER_UNITS
        tracer.write(WORK / f"trace-{workload_name}-seed{seed}.json")

    return {
        "correct": correct,
        "attempted": done * pipeline.operations_per_round(workload),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One core, as the ROADMAP baseline: numpy's BLAS would otherwise use a
    # second thread whose speed depends on the other vCPU's load.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    _use_checkout_sources()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(pipeline.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
