"""Pinned outputs of a tiny seeded simulate -> train -> track -> eval run.

The run goes in process through the functions the `sttrack` commands and the
benchmark call: `cli.simulate_into` writes two short vehicle scenes,
`cli.train_on_directory` trains on them for 30 steps, once on all 840 of
their training examples and once on a `max_examples` subsample of 200,
`cli.track_directory` tracks them with both backends and `cli.evaluate_directories` scores each
backend's tracks; STT tracks once more with `stt.state_source` "tdi", so that
the association pass's state head is pinned too. The pins are SHA-256
digests of the simulated scenes' ground-truth and detections rows, both
checkpoints, the training log, each tracking run's rows (headers left out,
as the benchmark's `rows_digest` computes them) and each run's metrics
report.

A change meant to keep behaviour leaves every pin. A change that moves
behaviour on purpose prints the new values with
`PYTHONPATH=src python tests/test_pins.py`, pastes them into `PINS` and
says so in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benches"))

from pipeline import rows_digest  # noqa: E402

from sttrack import cli  # noqa: E402
from sttrack.config import PopulationConfig, RunConfig  # noqa: E402

# The build the pins were taken with: another numpy or BLAS build may move low
# bits of the trained weights or the filter states, and with them the pins;
# every file the pipeline reads back is parsed by orjson.
BUILD = "numpy 2.4.6 with OpenBLAS 0.3.31, orjson 3.8.3"

PINS = {
    "rows_gt": "fe3245087c5a74abfaa716ec45c24110c333f8bc341889fdb9cd979c39033336",
    "rows_det": "66b8711626320e2366f559be796f7ade2c4258d602d7dbaf095f1959d0c422ee",
    "checkpoint": "4dbc208073d83dc9a5572cac5a302d56e5614e4a56668b98ea6be95c72524212",
    "checkpoint_subsampled": "535e24f64c888e11734040fc63cec065550f8ea2aa425a2a4d9551e3fca5af09",
    "training_log": "0d66ebe0ee458b748fe0d81b1bf6859c3cf5b62b2d3f37f0d7b32ece0be4eba4",
    "rows_kalman": "ad97ade8330354820a3b2eeab74905d4e1978b97334a5f81692543436d56cff6",
    "report_kalman": "f8941a5701c7c105ecab78cd70dc2fcbea4399d18f64b13382dee6781ea4c42a",
    "rows_stt": "ad1fcb2e91c030f07c762903936dcc3a23b7022c94dc0a2f8bcde3e33970d782",
    "report_stt": "2ee21111e71d5c57d2b5a9276ea3a095b8e209abe6b68bbc6a0e31424ff84341",
    "rows_stt_tdi": "727dd922373d652fe4cfc25bb0cf6c3212c8e144a2c6493cf2fbc93f5f742afb",
    "report_stt_tdi": "9cd2bbc0252c68f6ab6281fe66d1368090b2817335c207b74cf0cc4087769c88",
}


def run_config() -> RunConfig:
    base = RunConfig()
    sim = dataclasses.replace(base.sim, frames=40, population=PopulationConfig(3, 4, 4))
    train = dataclasses.replace(
        base.train, steps=30, learning_rate=1e-3, warmup_steps=5, log_every=5
    )
    return dataclasses.replace(base, seed=5, sim=sim, train=train)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scene_rows_digest(data: Path, suffix: str) -> str:
    """`rows_digest` of the `*<suffix>` scene files: rows only, in name order."""
    digest = hashlib.sha256()
    for path in sorted(data.glob(f"*{suffix}")):
        with open(path, "rb") as f:
            f.readline()
            digest.update(path.name.encode() + b"\n")
            digest.update(f.read())
    return digest.hexdigest()


def pipeline_digests(work: Path) -> dict[str, str]:
    cfg = run_config()
    data, model = work / "data", work / "model"
    cli.simulate_into(data, cfg, 2)
    checkpoint = cli.train_on_directory(cfg, data, model)
    digests = {
        "rows_gt": scene_rows_digest(data, ".gt.jsonl"),
        "rows_det": scene_rows_digest(data, ".det.jsonl"),
        "checkpoint": _sha256(checkpoint.read_bytes()),
        "training_log": _sha256((model / "training_log.csv").read_bytes()),
    }
    subsampled = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, max_examples=200))
    checkpoint_subsampled = cli.train_on_directory(subsampled, data, work / "model_subsampled")
    digests["checkpoint_subsampled"] = _sha256(checkpoint_subsampled.read_bytes())
    tdi = dataclasses.replace(cfg, stt=dataclasses.replace(cfg.stt, state_source="tdi"))
    for name, run_cfg, backend in (
        ("kalman", cfg, "kalman"), ("stt", cfg, "stt"), ("stt_tdi", tdi, "stt"),
    ):
        tracks = work / f"tracks_{name}"
        cli.track_directory(
            run_cfg, backend, data, tracks, checkpoint if backend == "stt" else None
        )
        report = cli.evaluate_directories(data, tracks, run_cfg.policy)
        digests[f"rows_{name}"] = rows_digest(tracks)
        digests[f"report_{name}"] = _sha256(json.dumps(report, sort_keys=True).encode())
    return digests


def test_pipeline_outputs_match_their_pins(tmp_path):
    digests = pipeline_digests(tmp_path)
    moved = [name for name in PINS if digests[name] != PINS[name]]
    assert not moved, (
        f"{moved} moved from their pins, which hold for {BUILD}; a change that "
        f"moves behaviour on purpose re-pins with `PYTHONPATH=src python "
        f"tests/test_pins.py` and says so in CHANGES.md"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for name, value in pipeline_digests(Path(work)).items():
            print(f'    "{name}": "{value}",')
