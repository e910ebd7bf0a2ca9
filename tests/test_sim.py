import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import NOISELESS, frame_rows, generate_per_frame, scenario_numbers, scenario_repr
from sttrack.core import TAU, ClassId, normalize_heading
from sttrack.formats import normalized_digest, write_scenario
from sttrack.sim import (
    FALSE_POSITIVE,
    MotionProfile,
    NoiseModel,
    ObjectSpec,
    PopulationConfig,
    Scenario,
    SimConfig,
    SpeedThresholds,
    _wrap_headings,
    generate,
    population_specs,
    speed_class,
    trajectory_at,
)

VEHICLE_SIZE = (2.0, 4.5, 1.5)


def static_spec(x=0.0, y=0.0, heading=0.3):
    return ObjectSpec(ClassId.VEHICLE, MotionProfile.static(), (x, y), heading, VEHICLE_SIZE)


def cv_spec(vx, vy, x=0.0, y=0.0):
    return ObjectSpec(
        ClassId.VEHICLE,
        MotionProfile.constant_velocity(vx, vy),
        (x, y),
        math.atan2(vy, vx),
        VEHICLE_SIZE,
    )


def test_static_zero_noise_three_frames():
    cfg = SimConfig(frames=3, noise=NOISELESS)
    scenario = generate(cfg, (static_spec(),), seed=0)
    assert len(scenario.detections) == 3
    frames = frame_rows(scenario.detections)
    dets = [frame[0] for frame in frames]
    assert all(len(frame) == 1 for frame in frames)
    assert dets[0].box == dets[1].box == dets[2].box
    assert dets[0].appearance == dets[1].appearance
    assert scenario.gt_tracks[0].states[:, 2:4].tolist() == [[0.0, 0.0]] * 3


def test_constant_velocity_advances_per_frame():
    cfg = SimConfig(frames=5, dt=0.1, noise=NOISELESS)
    scenario = generate(cfg, (cv_spec(2.0, 0.0),), seed=0)
    deltas = np.diff(scenario.gt_tracks[0].boxes[:, 0])
    assert deltas == pytest.approx([0.2] * 4, abs=1e-12)
    assert scenario.gt_tracks[0].states[:, 2:4].tolist() == [[2.0, 0.0]] * 5


def test_deterministic_for_fixed_seed():
    cfg = SimConfig(frames=20)
    objects = (static_spec(), cv_spec(1.0, 0.5, x=5.0))
    assert scenario_repr(generate(cfg, objects, seed=7)) == scenario_repr(
        generate(cfg, objects, seed=7)
    )
    assert scenario_repr(generate(cfg, objects, seed=7)) != scenario_repr(
        generate(cfg, objects, seed=8)
    )


def test_zero_noise_detections_equal_ground_truth():
    cfg = SimConfig(frames=10, noise=NOISELESS)
    scenario = generate(cfg, (cv_spec(1.5, -0.5), static_spec(x=10.0)), seed=3)
    for k, frame in enumerate(frame_rows(scenario.detections)):
        assert len(frame) == 2
        for det, oid in zip(frame, scenario.provenance[k]):
            assert det.box.as_row() == tuple(scenario.gt_tracks[oid].boxes[k].tolist())
            assert det.confidence == 1.0


def test_motion_feature_is_velocity_observation():
    cfg = SimConfig(frames=6, noise=NOISELESS)
    scenario = generate(cfg, (cv_spec(2.0, 1.0),), seed=0)
    frames = frame_rows(scenario.detections)
    first = frames[0][0]
    assert first.motion == (0.0, 0.0)
    for frame in frames[1:]:
        assert frame[0].motion == pytest.approx((2.0, 1.0), abs=1e-9)


def test_false_positive_rate_poisson_band():
    cfg = SimConfig(
        frames=10_000,
        noise=NoiseModel(0, 0, 0, 0, fp_rate=0.5, miss_prob=0.0, confidence_noise=0),
    )
    scenario = generate(cfg, (static_spec(),), seed=42)
    n_fp = sum(prov.count(FALSE_POSITIVE) for prov in scenario.provenance)
    expected = 0.5 * 10_000
    band = 3.0 * math.sqrt(expected)
    assert expected - band <= n_fp <= expected + band


def test_false_positives_have_low_confidence_and_zero_motion():
    cfg = SimConfig(
        frames=50,
        noise=NoiseModel(0, 0, 0, 0, fp_rate=2.0, miss_prob=0.0, confidence_noise=0),
    )
    scenario = generate(cfg, (static_spec(),), seed=1)
    seen = 0
    for frame, prov in zip(frame_rows(scenario.detections), scenario.provenance):
        for det, oid in zip(frame, prov):
            if oid == FALSE_POSITIVE:
                seen += 1
                assert det.confidence <= 0.4
                assert det.motion == (0.0, 0.0)
    assert seen > 0


def test_detection_ids_unique_per_frame():
    cfg = SimConfig(frames=30)
    scenario = generate(cfg, tuple(static_spec(x=3.0 * i) for i in range(5)), seed=2)
    for frame in scenario.detections:
        assert frame.ids == list(range(len(frame.ids)))  # each one's place in its frame


def test_appearance_separates_objects():
    # Same-object appearance similarity should beat cross-object similarity
    # nearly always at the default appearance noise.
    cfg = SimConfig(
        frames=60,
        noise=NoiseModel(0, 0, 0, appearance_sigma=0.1, fp_rate=0, miss_prob=0,
                         confidence_noise=0),
    )
    scenario = generate(cfg, tuple(static_spec(x=8.0 * i) for i in range(4)), seed=11)
    by_obj = {oid: [] for oid in range(4)}
    for frame, prov in zip(frame_rows(scenario.detections), scenario.provenance):
        for det, oid in zip(frame, prov):
            by_obj[oid].append(np.array(det.appearance))

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    rng = np.random.default_rng(0)
    wins = 0
    trials = 2000
    for _ in range(trials):
        a, b = rng.integers(4), rng.integers(4)
        while b == a:
            b = rng.integers(4)
        d1, d2 = rng.integers(60, size=2)
        same = cos(by_obj[a][d1], by_obj[a][d2])
        cross = cos(by_obj[a][d1], by_obj[int(b)][int(rng.integers(60))])
        wins += same > cross
    assert wins / trials > 0.99


def test_speed_class_defaults():
    assert speed_class(0.0, ClassId.VEHICLE) == "static"
    assert speed_class(10.0, ClassId.VEHICLE) == "fast"
    assert speed_class(0.5, ClassId.VEHICLE) == "slow"
    assert speed_class(0.5, ClassId.PEDESTRIAN) == "slow"
    assert speed_class(1.5, ClassId.PEDESTRIAN) == "fast"


def test_speed_class_configurable_thresholds():
    t = SpeedThresholds(static_max=1.0, fast_min_vehicle=20.0, fast_min_pedestrian=2.0)
    assert speed_class(0.5, ClassId.VEHICLE, t) == "static"
    assert speed_class(5.0, ClassId.VEHICLE, t) == "slow"
    assert speed_class(25.0, ClassId.VEHICLE, t) == "fast"


def test_ground_truth_states_are_analytic_derivatives():
    # Independent check: differentiate the position track numerically and
    # compare against the emitted velocity; same again for acceleration from
    # the velocity track. First differences keep the float error ~1e-9.
    specs = [
        static_spec(),
        cv_spec(2.0, -1.0),
        ObjectSpec(
            ClassId.VEHICLE,
            MotionProfile.constant_acceleration((1.0, 0.5), (0.3, -0.2)),
            (2.0, 3.0),
            0.1,
            VEHICLE_SIZE,
        ),
        ObjectSpec(ClassId.VEHICLE, MotionProfile.turn(4.0, 0.3), (0.0, 0.0), 0.7, VEHICLE_SIZE),
    ]
    h = 1e-6
    for spec in specs:
        for t in (0.0, 0.35, 1.7):
            pos_m, _, _, _ = trajectory_at(spec, np.array([t - h if t > 0 else t]))
            pos_p, _, _, _ = trajectory_at(spec, np.array([t + h]))
            _, vel, acc, _ = trajectory_at(spec, np.array([t if t > 0 else t + h]))
            span = 2 * h if t > 0 else h
            fd_vel = (pos_p[0] - pos_m[0]) / span
            assert fd_vel == pytest.approx(vel[0], abs=1e-6)
            vel_m = trajectory_at(spec, np.array([t + h]))[1][0]
            vel_p = trajectory_at(spec, np.array([t + 3 * h]))[1][0]
            fd_acc = (vel_p - vel_m) / (2 * h)
            assert fd_acc == pytest.approx(acc[0], abs=1e-4)


def test_misses_drop_detections():
    cfg = SimConfig(
        frames=2000,
        noise=NoiseModel(0, 0, 0, 0, fp_rate=0, miss_prob=0.3, confidence_noise=0),
    )
    scenario = generate(cfg, (static_spec(),), seed=5)
    n = sum(len(f.ids) for f in scenario.detections)
    assert 2000 * 0.6 < n < 2000 * 0.8


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(frames=1)
    with pytest.raises(ValueError):
        generate(SimConfig(frames=10), (), seed=0)
    with pytest.raises(ValueError):
        NoiseModel(miss_prob=1.0)
    with pytest.raises(ValueError):
        MotionProfile.turn(1.0, 0.0)


def test_population_specs_cover_buckets():
    rng = np.random.default_rng(0)
    config = SimConfig(population=PopulationConfig(static=2, slow=3, fast=4))
    specs = population_specs(ClassId.VEHICLE, config, rng)
    assert len(specs) == 9
    t = SpeedThresholds()
    buckets = {"static": 0, "slow": 0, "fast": 0}
    for spec in specs:
        _, vel, _, _ = trajectory_at(spec, np.array([0.0]))
        buckets[speed_class(float(np.hypot(*vel[0])), ClassId.VEHICLE, t)] += 1
    assert buckets == {"static": 2, "slow": 3, "fast": 4}


def test_wrap_headings_is_normalize_heading_bit_for_bit():
    rng = np.random.default_rng(0)
    edges = np.array([k * math.pi for k in range(-5, 6)] + [0.0, -0.0, TAU, -TAU])
    near = np.concatenate([np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    h = np.concatenate([
        edges, -edges, near,
        rng.uniform(-4 * math.pi, 4 * math.pi, 100_000),
        rng.uniform(-1e6, 1e6, 100_000),
    ])
    expected = np.array([normalize_heading(x) for x in h.tolist()])
    assert _wrap_headings(h).tobytes() == expected.tobytes()


@st.composite
def object_specs(draw):
    kind = draw(st.sampled_from(("static", "constant_velocity", "constant_acceleration", "turn")))
    unit = st.floats(-1.0, 1.0)
    speed = st.floats(-8.0, 8.0)
    if kind == "static":
        profile = MotionProfile.static()
    elif kind == "constant_velocity":
        profile = MotionProfile.constant_velocity(draw(speed), draw(speed))
    elif kind == "constant_acceleration":
        profile = MotionProfile.constant_acceleration(
            (draw(speed), draw(speed)), (draw(unit), draw(unit))
        )
    else:
        yaw = draw(st.floats(0.05, 1.5)) * draw(st.sampled_from((-1, 1)))
        profile = MotionProfile.turn(draw(st.floats(0.0, 8.0)), yaw)
    class_id = draw(st.sampled_from(tuple(ClassId)))
    # Start headings reach past (-pi, pi] so that every path wraps them.
    heading = draw(st.floats(-3 * math.pi, 3 * math.pi))
    position = (draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0)))
    size = tuple(draw(st.floats(0.3, 5.0)) for _ in range(3))
    return ObjectSpec(class_id, profile, position, heading, size)


@st.composite
def sim_configs(draw):
    sigmas = draw(st.sampled_from(((0.1, 0.02, 0.02, 0.1, 0.05), (0.0,) * 5)))
    noise = NoiseModel(
        *sigmas[:4],
        fp_rate=draw(st.sampled_from((0.0, 3.0))),
        miss_prob=draw(st.sampled_from((0.0, 0.9))),
        confidence_noise=sigmas[4],
    )
    return SimConfig(
        frames=draw(st.integers(2, 30)),
        dt=draw(st.sampled_from((0.1, 0.05, 0.3))),
        appearance_dim=draw(st.sampled_from((1, 16))),
        noise=noise,
    )


@settings(max_examples=150, deadline=None)
@given(sim_configs(), st.lists(object_specs(), min_size=1, max_size=6), st.integers(0, 2**32))
def test_generate_equals_the_per_frame_generator(config, specs, seed):
    scenario = generate(config, specs, seed)
    expected = generate_per_frame(config, specs, seed)
    assert scenario_repr(scenario) == scenario_repr(expected)
    with tempfile.TemporaryDirectory() as tmp:
        written = write_scenario(tmp, "vectorised", scenario, {})
        oracle = write_scenario(tmp, "per_frame", expected, {})
        for path, oracle_path in zip(written, oracle):
            # The header differs only in its `created` time.
            body, oracle_body = (p.read_bytes().split(b"\n", 1)[1] for p in (path, oracle_path))
            assert body == oracle_body
            assert normalized_digest(path) == normalized_digest(oracle_path)


def test_generated_scenes_hold_plain_floats():
    config = SimConfig(frames=30, noise=NoiseModel(fp_rate=2.0, miss_prob=0.3))
    for class_id in ClassId:
        specs = population_specs(class_id, config, np.random.default_rng(4))
        scenario = generate(config, specs, seed=4)
        numbers = list(scenario_numbers(scenario))
        assert len(numbers) > 1000
        assert {type(x) for x in numbers} == {float}
