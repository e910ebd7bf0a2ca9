"""Core domain types and geometry shared by every module.

Positions, velocities, and accelerations live in the ground (XY) plane.
Boxes carry a Z extent but no state math ever looks at it: road objects
are tracked as rotated footprint rectangles in bird's-eye view.

Bird's-eye IoU has one gate, `gated_pairs` (circumcircles that overlap),
and two clips of the pairs it keeps, each the faster on its own traffic:
- `bev_iou_matrix` clips pair by pair with the scalar `bev_iou`
  (Sutherland-Hodgman), for the online tracker, which sees a few dozen
  gated pairs a frame. Through the batched clip, the Kalman track stage of
  the seed-1 benchmark scenes took 1.29 s against 1.02 s (crowd) and
  0.98 s against 0.61 s (vehicles) on a 2-core x86 host: at that size numpy's
  per-call overhead costs more than the Python loop.
- `bev_iou_pairs` clips a batch of pairs at once on vertex arrays, for
  evaluation, which clips 10-20k pairs a sequence: the 19,566 gated pairs of
  the seed-1 crowd evaluation in 0.069 s against 0.166 s pair by pair, on
  the same host.
The batched clip repeats the scalar's float operations in its order, so
it is bit-equal to `bev_iou`, which is the reference the tests hold it to.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

TAU = 2.0 * math.pi


class ClassId(enum.Enum):
    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"


def to_plain(obj):
    """A dataclass (or a value inside one) as JSON-ready data: enums by value,
    also as dict keys, tuples as lists and infinity as the string "inf"."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {to_plain(k): to_plain(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return [to_plain(v) for v in obj]
    if isinstance(obj, float) and obj == math.inf:
        return "inf"
    return obj


def check_fields(obj, checks) -> None:
    """Raise ValueError naming the first failing `(name, ok, bound)` check; NaN must fail `ok`."""
    for name, ok, bound in checks:
        if not ok:
            raise ValueError(f"{name} must be {bound}, got {getattr(obj, name)!r}")


def wrap_headings(h: np.ndarray) -> np.ndarray:
    """Each angle of `h` wrapped into (-pi, pi]: `fmod` by 2 pi, then one
    turn added or taken off. An angle already in (-pi, pi] keeps every bit."""
    h = np.fmod(h, TAU)
    h = np.where(h <= -math.pi, h + TAU, h)
    return np.where(h > math.pi, h - TAU, h)


@dataclass(frozen=True, slots=True)
class StateVector:
    """Position / velocity / acceleration in the XY plane, all finite."""

    position: tuple[float, float]
    velocity: tuple[float, float]
    acceleration: tuple[float, float]

    def __post_init__(self) -> None:
        for comp in (*self.position, *self.velocity, *self.acceleration):
            if not math.isfinite(comp):
                raise ValueError(f"non-finite state component: {comp!r}")

    @staticmethod
    def from_rows(rows: np.ndarray) -> list["StateVector"]:
        """One state per row of an (N, 6) array of [x, y, vx, vy, ax, ay] rows."""
        return [
            StateVector((x, y), (vx, vy), (ax, ay))
            for x, y, vx, vy, ax, ay in np.reshape(rows, (-1, 6)).tolist()
        ]


class Detections(NamedTuple):
    """Detector box hypotheses as columns, one row per detection: id `ids[i]`
    (a Python int, as ids reach 2**64 - 1), class `classes[i]`, box `boxes[i]`
    (a `(cx, cy, cz, w, l, h, heading)` row: sizes > 0, heading in (-pi, pi];
    length `l` runs along the heading, width `w` across it), confidence
    `conf[i]` in [0, 1] and the appearance and motion feature rows. The
    simulator and the detections reader give one table per frame."""

    ids: list[int]
    classes: list[ClassId]
    boxes: np.ndarray  # (n, 7) float64
    conf: np.ndarray  # (n,)
    appearance: np.ndarray  # (n, d_a)
    motion: np.ndarray  # (n, d_m)

    def take(self, rows: list[int]) -> "Detections":
        """The detections at `rows`, in that order."""
        ids, classes = self.ids, self.classes
        return Detections(
            [ids[i] for i in rows], [classes[i] for i in rows], self.boxes[rows],
            self.conf[rows], self.appearance[rows], self.motion[rows],
        )

    def split(self, offsets: list[int]) -> tuple["Detections", ...]:
        """Per-frame tables: frame `k` holds rows `offsets[k]` to `offsets[k + 1]`."""
        return tuple(
            self._make(column[a:b] for column in self) for a, b in itertools.pairwise(offsets)
        )


# ---------------------------------------------------------------------------
# Geometry


def _polygon_area(poly: list[tuple[float, float]]) -> float:
    """Shoelace area; positive for counterclockwise polygons."""
    n = len(poly)
    if n < 3:
        return 0.0
    acc = 0.0
    x0, y0 = poly[-1]
    for x1, y1 in poly:
        acc += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return 0.5 * acc


def _clip_polygon(
    subject: list[tuple[float, float]], clip: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of `subject` against convex CCW `clip`."""
    output = subject
    cx0, cy0 = clip[-1]
    for cx1, cy1 in clip:
        if not output:
            break
        ex, ey = cx1 - cx0, cy1 - cy0
        inp = output
        output = []
        px, py = inp[-1]
        pin = ex * (py - cy0) - ey * (px - cx0) >= 0.0
        for qx, qy in inp:
            qin = ex * (qy - cy0) - ey * (qx - cx0) >= 0.0
            if qin != pin:
                # intersection of segment pq with the clip edge line
                dx, dy = qx - px, qy - py
                denom = ex * dy - ey * dx
                if denom != 0.0:
                    t = (ex * (cy0 - py) - ey * (cx0 - px)) / denom
                    output.append((px + t * dx, py + t * dy))
            if qin:
                output.append((qx, qy))
            px, py, pin = qx, qy, qin
        cx0, cy0 = cx1, cy1
    return output


def _footprint(cx: float, cy: float, w: float, l: float, heading: float):
    """Counterclockwise corners of a heading-rotated BEV rectangle of width
    `w` across the heading and length `l` along it."""
    w2 = 0.5 * w
    l2 = 0.5 * l
    ch, sh = math.cos(heading), math.sin(heading)
    ax, ay = ch * l2, sh * l2  # half-length along heading
    bx, by = -sh * w2, ch * w2  # half-width across heading
    return [
        (cx + ax + bx, cy + ay + by),
        (cx - ax + bx, cy - ay + by),
        (cx - ax - bx, cy - ay - by),
        (cx + ax - bx, cy + ay - by),
    ]


def bev_iou(a, b) -> float:
    """Rotated-rectangle IoU of two box footprints in the XY plane. A box is a
    7-value row `(cx, cy, cz, w, l, h, heading)`, heading in (-pi, pi].
    Pairs whose circumcircles do not overlap score 0 unclipped."""
    ax, ay, _, aw, al, _, ah = a
    bx, by, _, bw, bl, _, bh = b
    dx = ax - bx
    dy = ay - by
    reach = 0.5 * math.hypot(aw, al) + 0.5 * math.hypot(bw, bl)
    if dx * dx + dy * dy >= reach * reach:
        return 0.0
    inter = _polygon_area(
        _clip_polygon(_footprint(ax, ay, aw, al, ah), _footprint(bx, by, bw, bl, bh))
    )
    if inter <= 0.0:
        return 0.0
    union = aw * al + bw * bl - inter
    return min(max(inter / union, 0.0), 1.0)


def circumradii(boxes: np.ndarray) -> np.ndarray:
    """Half the footprint diagonal of each (N, 7) box row, in `math.hypot`
    as `bev_iou` computes it."""
    return np.array([0.5 * math.hypot(w, l) for w, l in boxes[:, 3:5].tolist()])


def gated_pairs(
    boxes_a: np.ndarray, radii_a: np.ndarray, boxes_b: np.ndarray, radii_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices, row-major, of the pairs of (N, 7) and (M, 7)
    box rows whose circumcircles (radii from `circumradii`) overlap: exactly
    the pairs `bev_iou` clips."""
    d2 = ((boxes_a[:, None, :2] - boxes_b[None, :, :2]) ** 2).sum(axis=2)
    reach = radii_a[:, None] + radii_b[None, :]
    return np.nonzero(d2 < reach * reach)


def bev_iou_matrix(boxes_a: ArrayLike, boxes_b: ArrayLike) -> np.ndarray:
    """Pairwise BEV IoU of (N, 7) and (M, 7) box rows: the `gated_pairs` gate
    over all pairs at once, then `bev_iou` on each pair it keeps."""
    a = np.asarray(boxes_a, dtype=float).reshape(-1, 7)
    b = np.asarray(boxes_b, dtype=float).reshape(-1, 7)
    out = np.zeros((len(a), len(b)))
    if not len(a) or not len(b):
        return out
    rows_a, rows_b = a.tolist(), b.tolist()
    gate = gated_pairs(a, circumradii(a), b, circumradii(b))
    for i, j in zip(*(index.tolist() for index in gate)):
        out[i, j] = bev_iou(rows_a[i], rows_b[j])
    return out


def _footprints(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x and y, (P, 4) each, of `_footprint`'s corners of each (P, 7) box
    row, in its float operations; cosine and sine by `math`, whose results
    numpy's need not match."""
    headings = boxes[:, 6].tolist()
    ch = np.fromiter(map(math.cos, headings), float, len(headings))
    sh = np.fromiter(map(math.sin, headings), float, len(headings))
    cx, cy = boxes[:, 0], boxes[:, 1]
    w2, l2 = 0.5 * boxes[:, 3], 0.5 * boxes[:, 4]
    ax, ay = ch * l2, sh * l2
    bx, by = -sh * w2, ch * w2
    xs = np.stack([cx + ax + bx, cx - ax + bx, cx - ax - bx, cx + ax - bx], axis=1)
    ys = np.stack([cy + ay + by, cy - ay + by, cy - ay - by, cy + ay - by], axis=1)
    return xs, ys


def _previous(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row's values shifted one slot right around its first `counts`
    slots: slot 0 takes slot `counts - 1`, as `poly[-1]` precedes `poly[0]`."""
    slots = np.arange(values.shape[1])
    prev = np.where(slots == 0, counts[:, None] - 1, slots - 1)
    return np.take_along_axis(values, prev, axis=1)


def bev_iou_pairs(boxes_a: ArrayLike, boxes_b: ArrayLike) -> np.ndarray:
    """`bev_iou` of row `i` of (P, 7) `boxes_a` with row `i` of `boxes_b`,
    for pairs the `gated_pairs` gate kept, bit for bit: `_clip_polygon` and
    `_polygon_area` run on (P, width) vertex arrays, row `i` holding its
    polygon's first `counts[i]` vertices, with every float operation in the
    scalar code's order. Each clip edge tests the sides, places the
    intersections, then compacts each row's kept vertices in order; the
    shoelace adds its terms slot by slot (not `np.sum`, whose pairwise order
    differs)."""
    a = np.asarray(boxes_a, dtype=float).reshape(-1, 7)
    b = np.asarray(boxes_b, dtype=float).reshape(-1, 7)
    xs, ys = _footprints(a)
    clip_x, clip_y = _footprints(b)
    counts = np.full(len(a), 4)
    with np.errstate(divide="ignore", invalid="ignore"):
        for edge in range(4):
            cx0, cy0 = clip_x[:, edge - 1, None], clip_y[:, edge - 1, None]
            ex, ey = clip_x[:, edge, None] - cx0, clip_y[:, edge, None] - cy0
            shape = (len(a), 2 * xs.shape[1])  # two slots per input vertex
            live = np.arange(xs.shape[1]) < counts[:, None]
            inside = ex * (ys - cy0) - ey * (xs - cx0) >= 0.0
            px, py = _previous(xs, counts), _previous(ys, counts)
            dx, dy = xs - px, ys - py
            denom = ex * dy - ey * dx
            t = (ex * (cy0 - py) - ey * (cx0 - px)) / denom
            crossing = live & (inside != _previous(inside, counts)) & (denom != 0.0)
            # each input vertex gives its intersection, then itself
            keep = np.stack([crossing, live & inside], axis=2).reshape(shape)
            kept_x = np.stack([px + t * dx, xs], axis=2).reshape(shape)[keep]
            kept_y = np.stack([py + t * dy, ys], axis=2).reshape(shape)[keep]
            counts = keep.sum(axis=1)
            rows, _ = np.nonzero(keep)
            slots = (np.cumsum(keep, axis=1) - 1)[keep]
            width = int(counts.max(initial=0))
            xs, ys = np.zeros((len(a), width)), np.zeros((len(a), width))
            xs[rows, slots], ys[rows, slots] = kept_x, kept_y
        acc = np.zeros(len(a))
        terms = _previous(xs, counts) * ys - xs * _previous(ys, counts)
        for slot in range(xs.shape[1]):
            acc += np.where(slot < counts, terms[:, slot], 0.0)
        inter = np.where(counts >= 3, 0.5 * acc, 0.0)
        union = a[:, 3] * a[:, 4] + b[:, 3] * b[:, 4] - inter
        iou = np.minimum(np.maximum(inter / union, 0.0), 1.0)
    return np.where(inter > 0.0, iou, 0.0)


def extrapolate(states: ArrayLike, dt: ArrayLike) -> np.ndarray:
    """Constant-acceleration forward prediction of stacked `[x, y, vx, vy,
    ax, ay]` states, shape `(..., 6)`, by `dt` seconds: one number, or one per
    state in an array of the leading shape `(...)`. Raises ValueError for a
    negative dt or a non-finite result."""
    s = np.asarray(states, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if (dt < 0.0).any():
        raise ValueError(f"dt must be >= 0, got {dt}")
    dt = dt[..., None]
    p, v, a = s[..., 0:2], s[..., 2:4], s[..., 4:6]
    out = np.concatenate((p + v * dt + 0.5 * a * dt * dt, v + a * dt, a), axis=-1)
    if not np.isfinite(out).all():
        raise ValueError(f"non-finite extrapolated state: {out}")
    return out
