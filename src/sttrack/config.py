"""Run configuration: one JSON file, validated strictly before any work.

`RunConfig` is made of the types that each stage takes, and each section's
own module owns and checks it: `sim` is `sim.SimConfig`, `stt` and `train`
are `model.SttConfig` and `model.TrainSettings`, `kf` is `kalman.KfParams`,
`lifecycle` is `runtime.LifecycleConfig` and `policy` is
`metrics.MatchingPolicy`. This module holds only `RunConfig`, its
cross-section checks and the codec; every stage takes its section as decoded.

One decoder reads every section through its dataclass's field annotations.
Accepted JSON types: an integer for an int field (not a float, a string or
`true`); `true` or `false` for a bool; a string for a str; any number but
NaN for a float field, stored as a float (`1` reads as 1.0), or "inf",
which is how `resolved_dict` writes infinity; a class name ("vehicle") for
`class_id` and the keys of the per-class policy maps; "velocity" or
"acceleration" for their state keys; `null` only for `policy.alpha_s`.
Unknown keys are rejected, and every error names the dotted path of the value (`sim.frames`,
`policy.state_thresholds.vehicle.velocity`); a value its section's own
checks reject reads `invalid <section>: <reason>` (`invalid train: steps
must be >= 1, got 0`).
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .core import ClassId, to_plain
from .kalman import KfParams
from .metrics import INF, MatchingPolicy
from .model import SttConfig, TrainSettings
from .runtime import LifecycleConfig
from .sim import PopulationConfig, SimConfig  # PopulationConfig: re-exported


class ConfigError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class RunConfig:
    class_id: ClassId = ClassId.VEHICLE
    seed: int = 0
    backend: str = "kalman"
    sim: SimConfig = field(default_factory=SimConfig)
    stt: SttConfig = field(default_factory=SttConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    kf: KfParams = field(default_factory=KfParams)
    lifecycle: LifecycleConfig = field(default_factory=LifecycleConfig)
    policy: MatchingPolicy = field(default_factory=MatchingPolicy)

    def __post_init__(self) -> None:
        if self.seed < 0:  # numpy seeds are non-negative
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.backend not in ("kalman", "stt"):
            raise ConfigError(f"backend must be 'kalman' or 'stt', got {self.backend!r}")
        if self.sim.appearance_dim != self.stt.d_a:
            raise ConfigError(
                f"sim.appearance_dim ({self.sim.appearance_dim}) must equal "
                f"stt.d_a ({self.stt.d_a})"
            )


def _decode(annotation, value, path: str):
    """`value`, parsed from JSON, as an instance of `annotation`; `path` is
    its dotted location in the config, "" for the whole config."""
    where = path or "config"
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    is_dataclass = dataclasses.is_dataclass(annotation)
    if (is_dataclass or origin is dict) and not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    if is_dataclass:
        hints = typing.get_type_hints(annotation)
        unknown = sorted(set(value) - {f.name for f in dataclasses.fields(annotation)})
        if unknown:
            raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
        kwargs = {
            key: _decode(hints[key], item, f"{path}.{key}" if path else key)
            for key, item in value.items()
        }
        try:
            return annotation(**kwargs)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid {where}: {exc}") from exc
    if origin is types.UnionType:  # X | None
        if value is None:
            return None
        (inner,) = set(args) - {type(None)}
        return _decode(inner, value, path)
    if origin is dict:
        key_type, value_type = args
        return {
            _decode(key_type, key, path): _decode(value_type, item, f"{path}.{key}")
            for key, item in value.items()
        }
    if origin is typing.Literal:
        if value in args:
            return value
        expected = ", ".join(map(repr, args))
        raise ConfigError(f"{where}: expected one of {expected}, got {value!r}")
    if annotation is ClassId:
        try:
            return ClassId(value)
        except ValueError:
            raise ConfigError(f"{where}: unknown class {value!r}") from None
    if annotation is float:
        if value == "inf":
            return INF
        if type(value) in (int, float) and value == value:  # NaN != NaN
            return float(value)
        raise ConfigError(f'{where}: expected a number or "inf", got {value!r}')
    if annotation in (int, bool, str):  # exact JSON type: `true` is not an int
        if type(value) is annotation:
            return value
        raise ConfigError(f"{where}: expected {annotation.__name__}, got {value!r}")
    raise TypeError(f"{where}: no decoder for {annotation!r}")


def run_config_from_dict(data: dict) -> RunConfig:
    return _decode(RunConfig, data, "")


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such config file: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return run_config_from_dict(data)


def resolved_dict(cfg: RunConfig) -> dict:
    """Full resolved configuration for provenance headers."""
    return to_plain(cfg)
