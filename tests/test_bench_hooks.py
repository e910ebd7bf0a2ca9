"""The benchmark's hooks still name sttrack attributes.

`benches/tracing.py` (`--trace 1`) and `benches/hostspeed.py` (every timed
round) replace sttrack functions and methods by name. A rename in `src/`
breaks them only when the benchmark runs, so these checks run with the unit
tests.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benches"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402

from sttrack import sim  # noqa: E402


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
