"""Synthetic scenario generation.

Ground-truth trajectories follow closed-form motion profiles, so the
per-frame state vectors are exact analytic derivatives of the positions.
Detections are ground-truth boxes perturbed by a configurable noise model,
with per-object persistent appearance signatures, plus Poisson false
positives and Bernoulli misses. Provenance (which object produced each
detection, -1 for false positives) is kept alongside the detections for
the trainer and the metrics oracle only.

`generate` draws from one seeded stream in a fixed order, which is what
makes a scene reproducible: each object's appearance signature, in object
order; then, per object in object order, its miss, centre, heading, size,
appearance and confidence noise for every frame; then the false-positive
count of every frame; then each false positive's draws, frame by frame.
An object's noise is applied to all its frames at once. Each frame's
detections are one `core.Detections` table, its seen objects in object
order and then its false positives.

This module owns the run config's `sim` section: `SimConfig`, with its
`PopulationConfig`, `NoiseModel` and `SpeedThresholds`, is the section as
decoded, and checks its own values. `population_specs` draws a scene's
objects from it and `generate` simulates them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import TAU, ClassId, Detections, check_fields, normalize_heading

FALSE_POSITIVE = -1

# Bounds on finite `sim` values that would still break a scene. Positions grow
# with the time span `frames * dt` and its square, noise is added to centres
# and sizes, and later stages square coordinate differences (IoU gates, Kalman
# covariances): a span or a noise sigma of 1e6 keeps all of them finite with
# room to spare, far past any scene this simulator is meant for.
_MAX_SPAN_S = 1e6
_MAX_SIGMA = 1e6
# Coordinates have a budget of their own: the field, and the farthest a fast
# object travels, 2.5 * fast_min * frames * dt (`population_specs` draws fast
# speeds up to 2.5 * fast_min). `bev_iou` takes shoelace areas in absolute
# coordinates, so large coordinates cost the IoU its precision before anything
# overflows: on a 40-frame Kalman-tracked scene MOTA read 0.931 with a field
# of 60 m to 1e8 m, 0.859 at 3e8 m and 0.474 at 1e9 m. 1e7 m keeps a tenfold
# margin below the first loss.
_MAX_COORD_M = 1e7
# `generate` draws each false positive in a loop of its own and gives it a
# table row, so the rate caps the rows a frame holds and the time they take;
# numpy's own Poisson limit (about 9.2e18) is far past what memory allows.
_MAX_FP_RATE = 1e3

_PROFILE_KINDS = ("static", "constant_velocity", "constant_acceleration", "turn")

# A false positive's (width, length, height) bounds per class: (low, high).
_FP_SIZE_RANGE = {
    ClassId.VEHICLE: ((1.6, 3.5, 1.4), (2.2, 5.5, 1.8)),
    ClassId.PEDESTRIAN: ((0.5, 0.5, 1.6), (1.0, 1.0, 1.9)),
}


@dataclass(frozen=True, slots=True)
class MotionProfile:
    kind: str
    velocity: tuple[float, float] = (0.0, 0.0)
    acceleration: tuple[float, float] = (0.0, 0.0)
    speed: float = 0.0
    yaw_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _PROFILE_KINDS:
            raise ValueError(f"unknown motion profile kind: {self.kind!r}")
        params = (*self.velocity, *self.acceleration, self.speed, self.yaw_rate)
        if not all(math.isfinite(p) for p in params):
            raise ValueError("motion profile parameters must be finite")
        if self.kind == "turn" and self.yaw_rate == 0.0:
            raise ValueError("turn profile requires a nonzero yaw rate")

    @staticmethod
    def static() -> "MotionProfile":
        return MotionProfile("static")

    @staticmethod
    def constant_velocity(vx: float, vy: float) -> "MotionProfile":
        return MotionProfile("constant_velocity", velocity=(vx, vy))

    @staticmethod
    def constant_acceleration(
        v0: tuple[float, float], a: tuple[float, float]
    ) -> "MotionProfile":
        return MotionProfile(
            "constant_acceleration", velocity=tuple(v0), acceleration=tuple(a)
        )

    @staticmethod
    def turn(speed: float, yaw_rate: float) -> "MotionProfile":
        return MotionProfile("turn", speed=speed, yaw_rate=yaw_rate)


@dataclass(frozen=True, slots=True)
class NoiseModel:
    center_sigma: float = 0.1
    heading_sigma: float = 0.02
    size_sigma: float = 0.02
    appearance_sigma: float = 0.1
    fp_rate: float = 0.5
    miss_prob: float = 0.05
    confidence_noise: float = 0.05

    def __post_init__(self) -> None:
        sigmas = (
            "center_sigma",
            "heading_sigma",
            "size_sigma",
            "appearance_sigma",
            "confidence_noise",
        )
        check_fields(self, (
            *((name, getattr(self, name) >= 0, ">= 0") for name in sigmas),
            ("miss_prob", 0 <= self.miss_prob < 1, "in [0, 1)"),
            ("fp_rate", self.fp_rate >= 0, ">= 0"),
            *((name, getattr(self, name) < math.inf, "finite") for name in (*sigmas, "fp_rate")),
            *((name, getattr(self, name) <= _MAX_SIGMA, f"<= {_MAX_SIGMA:g}") for name in sigmas),
            ("fp_rate", self.fp_rate <= _MAX_FP_RATE, f"<= {_MAX_FP_RATE:g}"),
        ))


@dataclass(frozen=True, slots=True)
class SpeedThresholds:
    """Boundaries of the static / slow / fast ground-truth speed buckets."""

    static_max: float = 0.2
    fast_min_vehicle: float = 3.0
    fast_min_pedestrian: float = 1.0

    def __post_init__(self) -> None:
        at_least_static = f">= static_max ({self.static_max})"
        check_fields(self, (
            ("static_max", self.static_max >= 0, ">= 0"),
            ("fast_min_vehicle", self.fast_min_vehicle >= self.static_max, at_least_static),
            ("fast_min_pedestrian", self.fast_min_pedestrian >= self.static_max, at_least_static),
        ))

    def fast_min(self, class_id: ClassId) -> float:
        if class_id is ClassId.VEHICLE:
            return self.fast_min_vehicle
        return self.fast_min_pedestrian


def speed_class(
    gt_speed: float, class_id: ClassId, thresholds: SpeedThresholds = SpeedThresholds()
) -> str:
    """Bucket a ground-truth speed into static / slow / fast."""
    if gt_speed < 0:
        raise ValueError(f"speed must be >= 0, got {gt_speed}")
    if gt_speed < thresholds.static_max:
        return "static"
    if gt_speed > thresholds.fast_min(class_id):
        return "fast"
    return "slow"


@dataclass(frozen=True, slots=True)
class ObjectSpec:
    class_id: ClassId
    profile: MotionProfile
    start_position: tuple[float, float]
    heading: float
    size: tuple[float, float, float]


@dataclass(frozen=True, slots=True)
class PopulationConfig:
    """Objects per speed bucket in each generated scene."""

    static: int = 6
    slow: int = 7
    fast: int = 7

    def __post_init__(self) -> None:
        counts = ("static", "slow", "fast")
        check_fields(self, ((name, getattr(self, name) >= 0, ">= 0") for name in counts))
        if self.static + self.slow + self.fast < 1:
            raise ValueError("population must contain at least one object")


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Scene settings; also the run config's `sim` section."""

    frames: int = 200
    dt: float = 0.1
    field_size: float = 60.0
    appearance_dim: int = 16
    population: PopulationConfig = field(default_factory=PopulationConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)
    speed_thresholds: SpeedThresholds = field(default_factory=SpeedThresholds)

    def __post_init__(self) -> None:
        t = self.speed_thresholds
        fast_min = min(t.fast_min_vehicle, t.fast_min_pedestrian)
        check_fields(self, (
            ("frames", self.frames >= 2, ">= 2"),
            ("dt", 0 < self.dt < math.inf, "> 0 and finite"),
            (
                "dt",
                self.frames * self.dt <= _MAX_SPAN_S,
                f"such that frames * dt <= {_MAX_SPAN_S:g} s (frames {self.frames})",
            ),
            ("field_size", 0 < self.field_size < math.inf, "> 0 and finite"),
            ("field_size", self.field_size <= _MAX_COORD_M, f"<= {_MAX_COORD_M:g} m"),
            ("appearance_dim", self.appearance_dim >= 1, ">= 1"),
            ("speed_thresholds", fast_min < math.inf, "finite"),
            # `population_specs` draws slow speeds from [1.5 static_max, 0.8 fast_min].
            (
                "speed_thresholds",
                1.5 * t.static_max <= 0.8 * fast_min,
                "such that 1.5 * static_max <= 0.8 * fast_min for both classes",
            ),
        ))
        span = self.frames * self.dt
        check_fields(t, (
            (
                name,
                2.5 * getattr(t, name) * span <= _MAX_COORD_M,
                f"such that 2.5 * {name} * frames * dt <= {_MAX_COORD_M:g} m "
                f"(frames * dt {span:g} s)",
            )
            for name in ("fast_min_vehicle", "fast_min_pedestrian")
        ))


@dataclass(frozen=True, slots=True, eq=False)
class GtTrack:
    """One object's ground truth as columns, one row per frame: `boxes` holds
    (F, 7) `bev_iou` box rows (sizes > 0, heading in (-pi, pi]) and `states`
    (F, 6) `[x, y, vx, vy, ax, ay]` rows, both float64."""

    object_id: int
    class_id: ClassId
    boxes: np.ndarray  # (F, 7)
    states: np.ndarray  # (F, 6)


@dataclass(frozen=True, slots=True)
class Scenario:
    frames: int
    dt: float
    gt_tracks: tuple[GtTrack, ...]
    detections: tuple[Detections, ...]  # one table per frame
    provenance: tuple[tuple[int, ...], ...]  # aligned with detections; -1 = FP


def trajectory_at(spec: ObjectSpec, t: np.ndarray):
    """Closed-form (position, velocity, acceleration, heading) at times t."""
    t = np.asarray(t, dtype=float)
    n = t.shape[0]
    x0, y0 = spec.start_position
    p = spec.profile
    pos = np.zeros((n, 2))
    vel = np.zeros((n, 2))
    acc = np.zeros((n, 2))
    heading = np.full(n, spec.heading)

    if p.kind == "static":
        pos[:, 0] = x0
        pos[:, 1] = y0
    elif p.kind == "constant_velocity":
        vx, vy = p.velocity
        pos[:, 0] = x0 + vx * t
        pos[:, 1] = y0 + vy * t
        vel[:, 0] = vx
        vel[:, 1] = vy
        if math.hypot(vx, vy) > 1e-9:
            heading[:] = math.atan2(vy, vx)
    elif p.kind == "constant_acceleration":
        vx, vy = p.velocity
        ax, ay = p.acceleration
        pos[:, 0] = x0 + vx * t + 0.5 * ax * t * t
        pos[:, 1] = y0 + vy * t + 0.5 * ay * t * t
        vel[:, 0] = vx + ax * t
        vel[:, 1] = vy + ay * t
        acc[:, 0] = ax
        acc[:, 1] = ay
        moving = np.hypot(vel[:, 0], vel[:, 1]) > 1e-9
        heading[moving] = np.arctan2(vel[moving, 1], vel[moving, 0])
    else:  # turn: constant speed on a circle
        w = p.yaw_rate
        s = p.speed
        theta = spec.heading + w * t
        pos[:, 0] = x0 + (s / w) * (np.sin(theta) - math.sin(spec.heading))
        pos[:, 1] = y0 + (s / w) * (math.cos(spec.heading) - np.cos(theta))
        vel[:, 0] = s * np.cos(theta)
        vel[:, 1] = s * np.sin(theta)
        acc[:, 0] = -s * w * np.sin(theta)
        acc[:, 1] = s * w * np.cos(theta)
        heading = theta

    return pos, vel, acc, _wrap_headings(heading)


def _wrap_headings(h: np.ndarray) -> np.ndarray:
    """`normalize_heading` of every element, bit for bit."""
    h = np.fmod(h, TAU)
    h = np.where(h <= -math.pi, h + TAU, h)
    return np.where(h > math.pi, h - TAU, h)


def generate(config: SimConfig, objects: Sequence[ObjectSpec], seed: int) -> Scenario:
    """Generate a scenario of `objects` deterministically for a fixed seed."""
    if len(objects) < 1:
        raise ValueError("need at least one object")
    rng = np.random.default_rng(seed)
    noise = config.noise
    n_frames = config.frames
    dt = config.dt
    d_a = config.appearance_dim
    times = np.arange(n_frames) * dt

    signatures = []
    for _ in objects:
        sig = rng.standard_normal(d_a)
        sig /= np.linalg.norm(sig)
        signatures.append(sig)

    gt_tracks = []
    sightings = []  # per object: its seen frames, its id and their detections' fields
    for oid, (spec, signature) in enumerate(zip(objects, signatures)):
        pos, vel, acc, gt_heading = trajectory_at(spec, times)
        cz_and_size = np.broadcast_to((0.5 * spec.size[2], *spec.size), (n_frames, 4))
        gt_boxes = np.column_stack((pos, cz_and_size, gt_heading))
        gt_tracks.append(GtTrack(oid, spec.class_id, gt_boxes, np.hstack((pos, vel, acc))))

        miss = rng.random(n_frames)
        d_center = rng.standard_normal((n_frames, 3)) * noise.center_sigma
        d_heading = rng.standard_normal(n_frames) * noise.heading_sigma
        d_size = rng.standard_normal((n_frames, 3)) * noise.size_sigma
        d_appearance = rng.standard_normal((n_frames, d_a)) * noise.appearance_sigma
        d_conf = np.abs(rng.standard_normal(n_frames)) * noise.confidence_noise

        seen = np.flatnonzero(miss >= noise.miss_prob)
        d_center = d_center[seen]
        center = gt_boxes[seen, :3] + d_center
        size = np.maximum(np.asarray(spec.size) + d_size[seen], 0.05)
        heading = _wrap_headings(gt_heading[seen] + d_heading[seen])
        appearance = signature + d_appearance[seen]
        center_err = np.hypot(d_center[:, 0], d_center[:, 1])
        conf = np.clip(1.0 - center_err - d_conf[seen], 0.0, 1.0)
        # Velocity observed between consecutive sightings; none at the first.
        motion = np.zeros((len(seen), 2))
        motion[1:] = np.diff(center[:, :2], axis=0) / (np.diff(seen) * dt)[:, None]

        sightings.append(
            (seen, np.full(len(seen), oid), center, size, heading, appearance, motion, conf)
        )

    # Then the false positives, frame by frame, each drawing its position,
    # class, size, heading, appearance and confidence in turn.
    fp_counts = rng.poisson(noise.fp_rate, size=n_frames)
    n_fp = int(fp_counts.sum())
    half = 0.5 * config.field_size
    classes = sorted({spec.class_id for spec in objects}, key=lambda c: c.value)
    fp_classes = []
    fp_boxes, fp_appearance, fp_conf = np.empty((n_fp, 7)), np.empty((n_fp, d_a)), np.empty(n_fp)
    for i in range(n_fp):
        cx, cy = rng.uniform(-half, half, size=2).tolist()
        cls = classes[int(rng.integers(len(classes)))]
        w, l, h = rng.uniform(*_FP_SIZE_RANGE[cls]).tolist()
        heading = normalize_heading(float(rng.uniform(-math.pi, math.pi)))
        sig = rng.standard_normal(d_a)
        fp_appearance[i] = sig / np.linalg.norm(sig)
        fp_conf[i] = rng.uniform(0.05, 0.4)
        fp_boxes[i] = (cx, cy, 0.5 * h, w, l, h, heading)
        fp_classes.append(cls)

    # One table of every detection, frame after frame: in each frame the seen
    # objects in object order, then the false positives. A detection's id is
    # its place in its frame.
    frame, oid, center, size, heading, appearance, motion, conf = (
        np.concatenate(column) for column in zip(*sightings)
    )
    frame = np.concatenate((frame, np.repeat(np.arange(n_frames), fp_counts)))
    order = np.argsort(frame, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(frame, minlength=n_frames))))
    class_ids = [objects[o].class_id for o in oid.tolist()] + fp_classes
    provenance = np.concatenate((oid, np.full(n_fp, FALSE_POSITIVE)))[order].tolist()
    table = Detections(
        (np.arange(len(frame)) - offsets[frame[order]]).tolist(),
        [class_ids[i] for i in order.tolist()],
        np.concatenate((np.column_stack((center, size, heading)), fp_boxes))[order],
        np.concatenate((conf, fp_conf))[order],
        np.concatenate((appearance, fp_appearance))[order],
        np.concatenate((motion, np.zeros((n_fp, 2))))[order],
    )
    offsets = offsets.tolist()
    return Scenario(
        frames=n_frames,
        dt=dt,
        gt_tracks=tuple(gt_tracks),
        detections=table.split(offsets),
        provenance=tuple(tuple(provenance[a:b]) for a, b in itertools.pairwise(offsets)),
    )


def population_specs(
    class_id: ClassId, config: SimConfig, rng: np.random.Generator
) -> list[ObjectSpec]:
    """Random object specs covering the static / slow / fast speed buckets,
    as many in each as `config.population` asks for."""
    thresholds, population = config.speed_thresholds, config.population
    half = 0.45 * config.field_size
    fast_min = thresholds.fast_min(class_id)

    def size() -> tuple[float, float, float]:
        if class_id is ClassId.VEHICLE:
            return (
                float(rng.uniform(1.8, 2.1)),
                float(rng.uniform(4.2, 4.8)),
                float(rng.uniform(1.4, 1.7)),
            )
        return (
            float(rng.uniform(0.6, 0.9)),
            float(rng.uniform(0.6, 0.9)),
            float(rng.uniform(1.6, 1.9)),
        )

    def place() -> tuple[float, float]:
        return (float(rng.uniform(-half, half)), float(rng.uniform(-half, half)))

    specs: list[ObjectSpec] = []
    for _ in range(population.static):
        specs.append(
            ObjectSpec(
                class_id,
                MotionProfile.static(),
                place(),
                float(rng.uniform(-math.pi, math.pi)),
                size(),
            )
        )
    for bucket, count in (("slow", population.slow), ("fast", population.fast)):
        for _ in range(count):
            if bucket == "slow":
                speed = float(rng.uniform(1.5 * thresholds.static_max, 0.8 * fast_min))
            else:
                speed = float(rng.uniform(1.2 * fast_min, 2.5 * fast_min))
            heading = float(rng.uniform(-math.pi, math.pi))
            kind = int(rng.integers(3))
            if kind == 0:
                profile = MotionProfile.constant_velocity(
                    speed * math.cos(heading), speed * math.sin(heading)
                )
            elif kind == 1:
                # gentle speed-up along the heading
                accel = float(rng.uniform(0.1, 0.6))
                profile = MotionProfile.constant_acceleration(
                    (speed * math.cos(heading), speed * math.sin(heading)),
                    (accel * math.cos(heading), accel * math.sin(heading)),
                )
            else:
                yaw = float(rng.uniform(0.1, 0.4)) * (1 if rng.random() < 0.5 else -1)
                profile = MotionProfile.turn(speed, yaw)
            specs.append(ObjectSpec(class_id, profile, place(), heading, size()))
    return specs
