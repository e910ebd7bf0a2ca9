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

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benches"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from pipeline import WORKLOADS, make_config  # noqa: E402

from sttrack import cli, sim  # noqa: E402


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
