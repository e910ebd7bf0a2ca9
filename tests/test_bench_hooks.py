"""The benchmark's hooks and checks still fit sttrack's API.

`benches/tracing.py` (`--trace 1`) and `benches/hostspeed.py` (every timed
round) replace sttrack functions and methods by name, and
`benches/checks.py` calls the readers and the evaluator. A change in `src/`
breaks them only when the benchmark runs, so these checks run with the unit
tests.
"""

import dataclasses
import sys
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benches"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from pipeline import WORKLOADS, make_config  # noqa: E402

from sttrack import cli, formats, metrics, runtime, sim  # noqa: E402
from sttrack.core import ClassId, StateVector  # noqa: E402
from sttrack.kalman import KfParams  # noqa: E402


@pytest.mark.parametrize(
    "name, owner, attr",
    tracing.TRACED,
    ids=[f"{owner.__name__}.{attr}" for _, owner, attr in tracing.TRACED],
)
def test_traced_attribute_resolves(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


@pytest.mark.parametrize(
    "make", [tracing.Tracer, lambda: hostspeed.HostMeter(0)], ids=["tracer", "host-meter"]
)
def test_hooks_install_and_restore(make):
    original = sim.generate  # both replace it in every module that holds it
    hooks = make()
    try:
        hooks.install()  # AttributeError if a hooked attribute is gone
        assert sim.generate is not original
    finally:
        hooks.uninstall()
    assert sim.generate is original


def test_metrics_oracle_passes_on_a_simulated_scene(tmp_path):
    """The benchmark's metrics check reads ground truth with
    `read_label_frames`, edits the `EvalBox`es it iterates and evaluates
    both; on a short scene of a workload it finds no failure."""
    cfg = make_config(WORKLOADS["vehicle-kf"], seed=1)
    cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, frames=30))
    cli.simulate_into(tmp_path, cfg, 1)
    assert checks.metrics_oracle(tmp_path, cfg.policy) == []


def test_writers_write_through_the_hooked_write_jsonl(tmp_path):
    """`hostspeed` ticks after each `formats.write_jsonl` call: a scene is two
    calls and a tracks file one, so a writer that bypassed it would coarsen
    the benchmark's segments."""
    scenario = cli.build_scenario(make_config(WORKLOADS["vehicle-kf"], seed=1), 0)
    output = runtime.run_sequence(
        scenario.detections, runtime.KalmanBackend(KfParams(), scenario.dt),
        runtime.LifecycleConfig(),
    )
    with mock.patch.object(formats, "write_jsonl", wraps=formats.write_jsonl) as write:
        formats.write_scenario(tmp_path, "s0", scenario, {})
        assert write.call_count == 2
        formats.write_tracker_output(tmp_path / "s0.tracks.jsonl", output, {})
        assert write.call_count == 3


def test_eval_calls_add_frame_per_frame_and_class_and_solves_inside_it():
    """`hostspeed` ticks after each `_ClassAccumulator.add_frame`, `tracing`
    charges the solves inside its span to eval, and `checks.SolveRecorder`
    names callers by function: on a two-class sequence, `add_frame` runs
    once per frame and class, and each call makes one `assign.solve` per
    variant, from `_match_variant`."""
    frames = 5

    def row(ident, cls, cx, vx):
        return metrics.EvalBox(ident, cls, (cx, 0.0, 0.75, 2.0, 4.0, 1.5, 0.0),
                               StateVector((cx, 0.0), (vx, 0.0), (0.0, 0.0)))

    labels = [[row(1, ClassId.VEHICLE, 0.0, 1.0), row(2, ClassId.PEDESTRIAN, 20.0, 0.5)]
              for _ in range(frames)]
    preds = [[row(7, ClassId.VEHICLE, 0.2, 1.1), row(8, ClassId.PEDESTRIAN, 20.1, 0.4)]
             for _ in range(frames)]
    original = metrics._ClassAccumulator.add_frame
    solves_per_call = []
    with checks.SolveRecorder() as recorder:

        def add_frame(self, *args):
            before = sum(map(len, recorder.records.values()))
            result = original(self, *args)
            solves_per_call.append(sum(map(len, recorder.records.values())) - before)
            return result

        with mock.patch.object(metrics._ClassAccumulator, "add_frame", add_frame):
            evaluator = metrics.Evaluator(metrics.MatchingPolicy(persistence=False))
            evaluator.add_sequence(labels, preds)
    assert solves_per_call == [2] * (2 * frames)
    assert list(recorder.records) == ["_match_variant"]
    assert evaluator.report()["classes"]["vehicle"]["matches"] == frames
