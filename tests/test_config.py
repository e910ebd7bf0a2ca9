import dataclasses
import json
import re

import pytest

from sttrack import cli
from sttrack.config import (
    ConfigError,
    PopulationConfig,
    RunConfig,
    resolved_dict,
    run_config_from_dict,
)
from sttrack.core import ClassId
from sttrack.kalman import KfParams
from sttrack.metrics import INF, MatchingPolicy
from sttrack.model import SttConfig, TrainSettings
from sttrack.runtime import LifecycleConfig
from sttrack.sim import NoiseModel, SimConfig, SpeedThresholds

CONFIGS = {
    "defaults": RunConfig(),
    "pedestrian-stt": RunConfig(
        class_id=ClassId.PEDESTRIAN, backend="stt", stt=SttConfig(t_max=5, pooling="last")
    ),
    "alpha_s-inf": RunConfig(
        policy=MatchingPolicy(
            alpha_s={ClassId.VEHICLE: {"velocity": INF, "acceleration": 2.0}},
            persistence=False,
        )
    ),
    "mota-only": RunConfig(policy=MatchingPolicy().mota_only()),
    "sim": RunConfig(
        sim=SimConfig(
            frames=50,
            dt=0.05,
            population=PopulationConfig(1, 0, 3),
            noise=NoiseModel(center_sigma=0.3, fp_rate=0.0, miss_prob=0.2),
            speed_thresholds=SpeedThresholds(static_max=0.5, fast_min_vehicle=4.0),
        ),
    ),
    "train": RunConfig(
        train=TrainSettings(
            steps=300, learning_rate=3e-3, warmup_steps=0, final_lr_fraction=1.0,
            max_examples=500, train_scenarios=2,
        ),
    ),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_resolved_dict_round_trips(name):
    cfg = CONFIGS[name]
    assert run_config_from_dict(json.loads(json.dumps(resolved_dict(cfg)))) == cfg


def test_resolved_dict_writes_infinity_as_inf():
    plain = resolved_dict(CONFIGS["mota-only"])
    assert plain["policy"]["state_thresholds"]["vehicle"] == {
        "velocity": "inf", "acceleration": "inf"
    }
    assert resolved_dict(CONFIGS["alpha_s-inf"])["policy"]["alpha_s"] == {
        "vehicle": {"velocity": "inf", "acceleration": 2.0}
    }


def test_coordinate_budget_accepts_its_limit():
    # field_size and 2.5 * fast_min * frames * dt may reach 1e7 m, no further
    sim = run_config_from_dict(
        {"sim": {"field_size": 1e7, "speed_thresholds": {"fast_min_vehicle": 2e5}}}
    ).sim
    assert sim.field_size == 1e7
    assert 2.5 * sim.speed_thresholds.fast_min_vehicle * sim.frames * sim.dt == 1e7


def test_json_integer_in_float_field_reads_as_float():
    cfg = run_config_from_dict({"sim": {"dt": 1, "field_size": 50}})
    assert type(cfg.sim.dt) is float and cfg.sim.dt == 1.0
    assert resolved_dict(cfg)["sim"]["field_size"] == 50.0


@pytest.mark.parametrize(
    "data, message",
    [
        ({"policy": {"persistence": "false"}}, "policy.persistence: expected bool"),
        ({"sim": {"frames": "200"}}, "sim.frames: expected int"),
        ({"seed": "abc"}, "seed: expected int"),
        ({"stt": {"t_max": 2.5}}, "stt.t_max: expected int"),
        ({"lifecycle": {"max_misses": True}}, "lifecycle.max_misses: expected int"),
        ({"backend": 1}, "backend: expected str"),
        ({"policy": {"iou_threshold": {"vehicle": "0.5"}}}, "policy.iou_threshold.vehicle:"),
        (
            {"policy": {"state_thresholds": {"vehicle": {"velocity": None}}}},
            "policy.state_thresholds.vehicle.velocity:",
        ),
        ({"kf": {"iou_gate": False}}, "kf.iou_gate:"),
        ({"sim": {"frames": 1}}, "invalid sim: frames must be >= 2"),
        ({"sim": {"dt": -1}}, "invalid sim: dt must be > 0"),
        ({"sim": {"dt": 0.0}}, "invalid sim: dt must be > 0"),
        ({"sim": {"field_size": 0}}, "invalid sim: field_size must be > 0"),
        ({"sim": {"appearance_dim": 0}}, "invalid sim: appearance_dim must be >= 1"),
        ({"class_id": "truck"}, "class_id: unknown class 'truck'"),
        ({"policy": {"iou_threshold": {"truck": 0.5}}}, "policy.iou_threshold: unknown class"),
        ({"policy": {"alpha_s": {"cyclist": {}}}}, "policy.alpha_s: unknown class"),
        ({"sim": [1]}, "sim: expected an object"),
        ({"stt": {"t_max": 0}}, "invalid stt: t_max must be >= 1, got 0"),
        ({"stt": {"heads": 3}}, "invalid stt: heads must be a divisor of d_q (32), got 3"),
        ({"stt": {"alpha": -1}}, "invalid stt: alpha must be >= 0 and finite, got -1.0"),
        ({"stt": {"pooling": "max"}}, "invalid stt: pooling must be 'mean' or 'last', got 'max'"),
        (
            {"sim": {"population": {"slow": -1}}},
            "invalid sim.population: slow must be >= 0, got -1",
        ),
        (
            {"kf": {"meas_noise_sigma": 0}},
            "invalid kf: meas_noise_sigma must be > 0 and finite, got 0.0",
        ),
        (
            {"lifecycle": {"min_confidence": 2}},
            "invalid lifecycle: min_confidence must be in [0, 1], got 2.0",
        ),
        (
            {"sim": {"noise": {"heading_sigma": -0.5}}},
            "invalid sim.noise: heading_sigma must be >= 0, got -0.5",
        ),
        (
            {"sim": {"noise": {"miss_prob": 1}}},
            "invalid sim.noise: miss_prob must be in [0, 1), got 1.0",
        ),
        (
            {"policy": {"iou_threshold": {"pedestrian": 1.5}}},
            "invalid policy: iou_threshold must be in (0, 1] for every class, got "
            "{<ClassId.PEDESTRIAN: 'pedestrian'>: 1.5}",
        ),
        (
            {"policy": {"state_thresholds": {"vehicle": {"velocity": 0}}}},
            "invalid policy: state_thresholds must be > 0 for every class and gated state",
        ),
        ({"sim": {"dt": "inf"}}, "invalid sim: dt must be > 0 and finite, got inf"),
        (
            {"sim": {"field_size": "inf"}},
            "invalid sim: field_size must be > 0 and finite, got inf",
        ),
        *(
            (
                {"sim": {"noise": {name: "inf"}}},
                f"invalid sim.noise: {name} must be finite, got inf",
            )
            for name in (
                "center_sigma", "heading_sigma", "size_sigma", "appearance_sigma",
                "confidence_noise", "fp_rate",
            )
        ),
        (
            {"sim": {"speed_thresholds": {"static_max": -1}}},
            "invalid sim.speed_thresholds: static_max must be >= 0, got -1.0",
        ),
        (
            {"sim": {"speed_thresholds": {"static_max": "inf"}}},
            "invalid sim.speed_thresholds: fast_min_vehicle must be >= static_max (inf), got 3.0",
        ),
        (
            {"sim": {"speed_thresholds": {"fast_min_vehicle": 0.1}}},
            "invalid sim.speed_thresholds: fast_min_vehicle must be >= static_max (0.2), got 0.1",
        ),
        (
            {"sim": {"speed_thresholds": {"fast_min_pedestrian": 0.1}}},
            "invalid sim.speed_thresholds: fast_min_pedestrian must be >= static_max (0.2), "
            "got 0.1",
        ),
        (
            {"policy": {"speed_thresholds": {"static_max": -1}}},
            "invalid policy.speed_thresholds: static_max must be >= 0, got -1.0",
        ),
        (
            {"sim": {"speed_thresholds": {
                "static_max": "inf", "fast_min_vehicle": "inf", "fast_min_pedestrian": "inf",
            }}},
            "invalid sim: speed_thresholds must be finite, got SpeedThresholds(static_max=inf",
        ),
        (
            {"sim": {"speed_thresholds": {"fast_min_pedestrian": 0.3}}},
            "invalid sim: speed_thresholds must be such that 1.5 * static_max <= 0.8 * fast_min "
            "for both classes",
        ),
        # finite values that would overflow a scene or flood its frames
        ({"sim": {"noise": {"fp_rate": 1e19}}}, "invalid sim.noise: fp_rate must be <= 1000"),
        (
            {"sim": {"dt": 1e306}},
            "invalid sim: dt must be such that frames * dt <= 1e+06 s (frames 200), got 1e+306",
        ),
        (
            {"sim": {"frames": 10**7, "dt": 0.2}},
            "invalid sim: dt must be such that frames * dt <= 1e+06 s (frames 10000000)",
        ),
        *(
            (
                {"sim": {"noise": {name: 1e308}}},
                f"invalid sim.noise: {name} must be <= 1e+06, got 1e+308",
            )
            for name in (
                "center_sigma", "heading_sigma", "size_sigma", "appearance_sigma",
                "confidence_noise",
            )
        ),
        # coordinates past their budget
        (
            {"sim": {"frames": 20, "field_size": 1e308}},
            "invalid sim: field_size must be <= 1e+07 m, got 1e+308",
        ),
        (
            {"sim": {"speed_thresholds": {"fast_min_vehicle": 1e307}}},
            "invalid sim: fast_min_vehicle must be such that 2.5 * fast_min_vehicle * frames * dt "
            "<= 1e+07 m (frames * dt 20 s), got 1e+307",
        ),
        (
            {"sim": {"frames": 10**5, "dt": 1.0, "speed_thresholds": {"fast_min_pedestrian": 50}}},
            "invalid sim: fast_min_pedestrian must be such that 2.5 * fast_min_pedestrian * "
            "frames * dt <= 1e+07 m (frames * dt 100000 s), got 50.0",
        ),
        # a seed numpy's generators reject
        ({"seed": -1}, "invalid config: seed must be >= 0, got -1"),
    ],
)
def test_rejects_naming_the_path(data, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_config_from_dict(data)


# One probe per check of `TrainSettings`, in field order.
TRAIN_PROBES = [
    ({"steps": 0}, "steps must be >= 1, got 0"),
    ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
    ({"log_every": 0}, "log_every must be >= 1, got 0"),
    ({"learning_rate": -1}, "learning_rate must be > 0 and finite, got -1.0"),
    ({"learning_rate": "inf"}, "learning_rate must be > 0 and finite, got inf"),
    ({"weight_decay": -0.5}, "weight_decay must be >= 0 and finite, got -0.5"),
    ({"beta1": 1.5}, "beta1 must be in (0, 1), got 1.5"),
    ({"beta2": 1}, "beta2 must be in (0, 1), got 1.0"),
    ({"epsilon": 0}, "epsilon must be > 0 and finite, got 0.0"),
    ({"warmup_steps": -3}, "warmup_steps must be >= 0, got -3"),
    ({"final_lr_fraction": 0}, "final_lr_fraction must be in (0, 1], got 0.0"),
    ({"max_examples": -5}, "max_examples must be >= 1, got -5"),
    ({"train_scenarios": 0}, "train_scenarios must be >= 1, got 0"),
]


@pytest.mark.parametrize("train, message", TRAIN_PROBES)
def test_rejects_bad_train_setting_at_decode(train, message):
    with pytest.raises(ConfigError, match=re.escape(f"invalid train: {message}")):
        run_config_from_dict({"train": train})


def test_rejects_nan_train_setting():
    with pytest.raises(ValueError, match="learning_rate must be > 0 and finite, got nan"):
        TrainSettings(learning_rate=float("nan"))


def test_sim_bounds_accept_their_limits():
    noise = {name: 1e6 for name in (
        "center_sigma", "heading_sigma", "size_sigma", "appearance_sigma", "confidence_noise",
    )}
    cfg = run_config_from_dict(
        {"sim": {"frames": 400, "dt": 2500, "noise": {**noise, "fp_rate": 1000}}}
    )
    assert cfg.sim.frames * cfg.sim.dt == 1e6
    assert cfg.sim.noise.fp_rate == 1000.0


def test_policy_speed_thresholds_may_be_infinite():
    # Only the simulator needs finite bucket bounds to draw speeds from.
    cfg = run_config_from_dict({"policy": {"speed_thresholds": {"fast_min_vehicle": "inf"}}})
    assert cfg.policy.speed_thresholds.fast_min_vehicle == INF


@pytest.mark.parametrize(
    "section, name",
    [
        (section, f.name)
        for section in (
            SttConfig, PopulationConfig, KfParams, LifecycleConfig, TrainSettings,
            SimConfig, NoiseModel, SpeedThresholds,
        )
        for f in dataclasses.fields(section)
        if f.type in ("int", "float")
    ],
)
def test_section_checks_fail_on_nan(section, name):
    with pytest.raises(ValueError, match=f"^{name} must be .*, got nan$"):
        section(**{name: float("nan")})


def test_train_probes_cover_every_field():
    probed = {name for train, _ in TRAIN_PROBES for name in train}
    assert probed == {f.name for f in dataclasses.fields(TrainSettings)}


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"sim": {"noise": {"center_sigma": NaN}}}', "sim.noise.center_sigma"),
        ('{"kf": {"meas_noise_sigma": NaN}}', "kf.meas_noise_sigma"),
        ('{"stt": {"gamma": NaN}}', "stt.gamma"),
        ('{"train": {"learning_rate": NaN}}', "train.learning_rate"),
    ],
)
def test_rejects_nan_in_float_field(text, path):
    message = f'{path}: expected a number or "inf", got nan'
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_config_from_dict(json.loads(text))


def nesting_levels():
    """Dotted path of every object in a resolved config, the config itself
    as ""."""
    def walk(node, path):
        yield path
        for key, value in node.items():
            if isinstance(value, dict):
                yield from walk(value, f"{path}.{key}" if path else key)

    return list(walk(resolved_dict(CONFIGS["alpha_s-inf"]), ""))


@pytest.mark.parametrize("path", nesting_levels())
def test_rejects_unknown_key_at_every_level(path):
    data = resolved_dict(CONFIGS["alpha_s-inf"])
    node = data
    for key in path.split(".") if path else []:
        node = node[key]
    node["bogus"] = 1
    with pytest.raises(ConfigError, match=re.escape(path or "config")) as info:
        run_config_from_dict(data)
    assert "bogus" in str(info.value)


def test_nesting_levels_cover_sections_and_class_maps():
    levels = set(nesting_levels())
    assert {
        "", "sim.population", "sim.noise", "policy.iou_threshold",
        "policy.state_thresholds.pedestrian", "policy.alpha_s.vehicle",
        "policy.speed_thresholds",
    } <= levels


@pytest.mark.parametrize(
    "data, message",
    [
        ({"sim": {"frames": "20"}}, "sim.frames"),
        ({"sim": {"frames": 1}}, "invalid sim: frames"),
        ({"policy": {"persistence": "false"}}, "policy.persistence"),
        ({"train": {"log_every": 0}}, "invalid train: log_every must be >= 1"),
        ({"lifecycle": {"max_history": 10}}, "unknown key(s) in lifecycle: max_history"),
        ({"sim": {"noise": {"appearance_sigma": "inf"}}}, "invalid sim.noise: appearance_sigma"),
        ({"sim": {"dt": "inf"}}, "invalid sim: dt must be > 0 and finite"),
        ({"sim": {"speed_thresholds": {"fast_min_vehicle": 0.1}}}, "fast_min_vehicle must be"),
        ({"sim": {"speed_thresholds": {"static_max": -1}}}, "static_max must be >= 0"),
        ({"sim": {"noise": {"fp_rate": 1e19}}}, "invalid sim.noise: fp_rate must be <= 1000"),
        ({"sim": {"dt": 1e306}}, "invalid sim: dt must be such that frames * dt <= 1e+06 s"),
        ({"sim": {"noise": {"center_sigma": 1e308}}}, "invalid sim.noise: center_sigma must be <="),
        ({"sim": {"frames": 20, "field_size": 1e308}}, "invalid sim: field_size must be <="),
        (
            {"sim": {"speed_thresholds": {"fast_min_vehicle": 1e307}}},
            "invalid sim: fast_min_vehicle must be such that",
        ),
    ],
)
def test_simulate_with_bad_config_exits_2(tmp_path, capsys, data, message):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(data))
    code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "data")])
    assert code == cli.EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert message in error["error"]
    assert not (tmp_path / "data").exists()
