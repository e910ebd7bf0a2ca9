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

from sttrack import cli, formats, runtime, sim  # noqa: E402
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
