"""Span tracer that wraps sttrack's public functions from outside the package.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent) and accumulates per-name call
counts and self time (span time minus the time of its child spans). Module
functions are replaced in every sttrack module that holds them, because
several modules import them by name (`runtime` holds `predict`, `update`,
`kf_association_cost`, `context_scores` and `queries_from_histories`; `cli`
holds `extract_examples` and `generate`). `uninstall()`
restores the originals, so untraced rounds run the unmodified program.

Spans are kept in memory up to `SPAN_CAP` and written out by `write()`;
counts and self times cover every call, also past the cap. Nothing here
changes what the wrapped functions compute.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path

from sttrack import assign, autodiff, core, formats, kalman, metrics, model, runtime, sim

from patching import Patches

# (span name, owner, attribute). An owner is a module or a class.
TRACED = (
    ("kalman.kf_association_cost", kalman, "kf_association_cost"),
    ("kalman.predict", kalman, "predict"),
    ("kalman.update", kalman, "update"),
    ("core.bev_iou", core, "bev_iou"),
    ("core.bev_iou_matrix", core, "bev_iou_matrix"),
    ("runtime.step", runtime.Tracker, "step"),
    ("runtime.frame_costs", runtime.KalmanBackend, "frame_costs"),
    ("runtime.frame_costs", runtime.SttBackend, "frame_costs"),
    ("runtime.update_matched", runtime.KalmanBackend, "update_matched"),
    ("runtime.update_matched", runtime.SttBackend, "update_matched"),
    ("runtime.create_tracks", runtime.KalmanBackend, "create_tracks"),
    ("runtime.create_tracks", runtime.SttBackend, "create_tracks"),
    ("model.detection_features", model, "detection_features"),
    ("model.pack_batch", model, "pack_batch"),
    ("model.loss_components_batch", model, "loss_components_batch"),
    ("model.extract_examples", model, "extract_examples"),
    ("model.queries_from_histories", model, "queries_from_histories"),
    ("model.context_scores", model, "context_scores"),
    ("model.select_context", model, "select_context"),
    ("model.decode_states", model, "decode_states"),
    ("autodiff.backward", autodiff.Tensor, "backward"),
    ("autodiff.adamw_step", autodiff.AdamW, "step"),
    ("metrics.add_sequence", metrics.Evaluator, "add_sequence"),
    ("metrics.add_frame", metrics._ClassAccumulator, "add_frame"),
    ("sim.generate", sim, "generate"),
    ("formats.write_scenario", formats, "write_scenario"),
    ("formats.version_string", formats, "version_string"),
    ("formats.read_scenario", formats, "read_scenario"),
    ("formats.write_tracker_output", formats, "write_tracker_output"),
    ("formats.read_label_frames", formats, "read_label_frames"),
    ("formats.read_pred_frames", formats, "read_pred_frames"),
)

# Per-layer metrics: name -> unit. Times are seconds of self time per round;
# counts are per round; ratios are useful outcomes over attempts.
PER_LAYER_UNITS = {
    "kalman.kf_association_cost.calls": "count",
    "kalman.kf_association_cost.s": "s",
    "kalman.gate_pass_ratio": "ratio",
    "kalman.predict.s": "s",
    "kalman.update.s": "s",
    "core.bev_iou.calls": "count",
    "core.bev_iou.s": "s",
    "core.bev_iou.clip_ratio": "ratio",
    "core.bev_iou_matrix.s": "s",
    **{
        f"assign.solve{part}.{stat}": unit
        for part in ("", ".track", ".eval")
        for stat, unit in (
            ("calls", "count"),
            ("s", "s"),
            ("cells", "count"),
            ("match_ratio", "ratio"),
        )
    },
    "runtime.frame_costs.s": "s",
    "runtime.update_matched.s": "s",
    "runtime.create_tracks.s": "s",
    "runtime.step.self_s": "s",
    "runtime.tracks_per_frame": "count",
    "runtime.pairs_per_frame": "count",
    "model.detection_features.calls": "count",
    "model.detection_features.s": "s",
    "model.pack_batch.s": "s",
    "model.loss_components_batch.s": "s",
    "model.extract_examples.s": "s",
    "model.queries_from_histories.calls": "count",
    "model.queries_from_histories.s": "s",
    "model.context_scores.calls": "count",
    "model.context_scores.s": "s",
    "model.select_context.s": "s",
    "model.decode_states.s": "s",
    "autodiff.backward.s": "s",
    "autodiff.adamw_step.s": "s",
    "metrics.add_sequence.s": "s",
    "metrics.add_frame.calls": "count",
    "metrics.add_frame.s": "s",
    "sim.generate.s": "s",
    "formats.write_scenario.s": "s",
    "formats.version_string.calls": "count",
    "formats.version_string.s": "s",
    "formats.read_scenario.s": "s",
    "formats.write_tracker_output.s": "s",
    "formats.read_label_frames.s": "s",
    "formats.read_pred_frames.s": "s",
    "trace.track_frames_per_s_traced": "1/s",
    "trace.track_frames_per_s_untraced": "1/s",
    "trace.overhead": "ratio",
}


# Spans kept for `write()`; a traced crowd round makes millions.
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._patches = Patches()
        self.reset_counts()

    def reset_counts(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.span_wall: dict[str, float] = {}

    # --- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as a whole stage; its wall
        time is kept in `span_wall`."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)
            self.span_wall[name] = time.perf_counter() - frame[1]

    def _in(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # --- wrappers --------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_kf_cost(self, args, result) -> None:
        if math.isfinite(result):
            self.counters["kalman.finite_costs"] += 1

    def _wrap_solve(self, fn):
        """assign.solve, with its span named after the stage that called it."""

        def wrapper(cost):
            if self._in("runtime.step"):
                caller = "track"
            elif self._in("metrics.add_frame"):
                caller = "eval"
            else:
                caller = "other"
            frame = self._enter(f"assign.solve.{caller}")
            try:
                result = fn(cost)
            finally:
                self._exit(frame)
            rows, cols = cost.shape
            c = self.counters
            c[f"{caller}.cells"] += rows * cols
            c[f"{caller}.pairs"] += len(result)
            c[f"{caller}.min_side"] += min(rows, cols)
            return result

        return wrapper

    def _after_frame_costs(self, args, result) -> None:
        rows, cols = result.shape
        self.counters["runtime.frames"] += 1
        self.counters["runtime.tracks"] += rows
        self.counters["runtime.pairs"] += rows * cols

    def _count_clip(self, fn):
        def wrapper(*args, **kwargs):
            self.counters["core.clip_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        hooks = {
            "kalman.kf_association_cost": self._after_kf_cost,
            "runtime.frame_costs": self._after_frame_costs,
        }
        for name, owner, attr in TRACED:
            self._patches.replace(
                owner, attr, lambda fn, name=name: self._wrap(name, fn, hooks.get(name))
            )
        self._patches.replace(assign, "solve", self._wrap_solve)
        self._patches.replace(core, "_clip_polygon", self._count_clip)

    def uninstall(self) -> None:
        self._patches.restore()

    # --- results -------------------------------------------------------------

    def round_values(self) -> dict[str, float]:
        """Per-layer values of the round traced since the last reset."""
        calls, self_s, c = self.calls, self.self_s, self.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "kalman.kf_association_cost.calls": calls["kalman.kf_association_cost"],
            "kalman.gate_pass_ratio": ratio(
                c["kalman.finite_costs"], calls["kalman.kf_association_cost"]
            ),
            "core.bev_iou.calls": calls["core.bev_iou"],
            "core.bev_iou.clip_ratio": ratio(c["core.clip_calls"], calls["core.bev_iou"]),
            "runtime.step.self_s": self_s["runtime.step"],
            "runtime.tracks_per_frame": ratio(c["runtime.tracks"], c["runtime.frames"]),
            "runtime.pairs_per_frame": ratio(c["runtime.pairs"], c["runtime.frames"]),
        }
        callers = ("track", "eval", "other")
        for part, names in (("", callers), (".track", ("track",)), (".eval", ("eval",))):
            key = f"assign.solve{part}"
            out[f"{key}.calls"] = sum(calls[f"assign.solve.{n}"] for n in names)
            out[f"{key}.s"] = sum(self_s[f"assign.solve.{n}"] for n in names)
            out[f"{key}.cells"] = sum(c[f"{n}.cells"] for n in names)
            out[f"{key}.match_ratio"] = ratio(
                sum(c[f"{n}.pairs"] for n in names), sum(c[f"{n}.min_side"] for n in names)
            )
        for metric, unit in PER_LAYER_UNITS.items():
            if metric in out or metric.startswith("trace."):
                continue
            name, stat = metric.rsplit(".", 1)
            out[metric] = calls[name] if stat == "calls" else self_s[name]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)
