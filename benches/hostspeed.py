"""Timing in reference seconds: wall time paired with fixed reference loops.

The CPU this benchmark was written on changes speed by up to 1.6x within
minutes while nothing in the container changes (another tenant's load on
the same physical core). No run length averages that out. Fixed reference
loops (`reference.py`) slow down with the program, so each stretch of work
is timed together with a reference sample taken right before and right
after it, and reported in *reference seconds*:

    reference seconds = wall seconds / mean(slowness before, slowness after)

where `slowness` is how many times slower than at full speed the loops run
now, so reference seconds read close to wall seconds when the CPU runs at
full speed. The loops are benchmark code that no change to sttrack
touches: a program that becomes twice as fast reads half the reference
seconds.

Pairing only helps when it is fine-grained: in a 10-minute probe of Kalman
tracking in 0.28 s blocks, the quartile spread of 38-second-window medians
was 19% for wall time, 4% for wall time over the adjacent reference sample,
and 9% when one reference sample covered ten blocks. `HostMeter` therefore
closes a segment, and takes a reference sample, at the first hook call after
`SEGMENT_S` seconds of work; the hooks sit at frame, step and file
boundaries of every stage.

A reference sample between two `Tracker.step` calls leaves the next frame
with caches the loops have just disturbed. `HostMeter` marks that frame,
and shortens the first segment of each stage by a third of SEGMENT_S more
in each of PHASES successive rounds, so that a frame marked in one round
is not marked in the next two; the frame's latency is then taken from the
rounds that did not mark it.
"""

from __future__ import annotations

import time

from sttrack import autodiff, cli, formats, metrics, runtime

from patching import Patches
from reference import slowness

SEGMENT_S = 0.25
PHASES = 3


class HostMeter:
    """Splits each stage into segments of about SEGMENT_S seconds of work and
    converts each segment to reference seconds. Reference samples are taken
    between segments and are not counted as stage time."""

    def __init__(self, round_index: int):
        self.raw: dict[str, float] = {}
        self.ref: dict[str, float] = {}
        self.frames_ref: list[float] = []
        # True for a frame that ran right after a reference sample.
        self.frames_disturbed: list[bool] = []
        self._pending_frames: list[float] = []
        self._stage: str | None = None
        self._sampled = False
        self._first_segment_s = SEGMENT_S * (1.0 - (round_index % PHASES) / PHASES)
        self._patches = Patches()

    def start(self, stage: str) -> None:
        self._stage = stage
        self.raw.setdefault(stage, 0.0)
        self.ref.setdefault(stage, 0.0)
        self._last_sample = slowness()
        self._sampled = True
        self._segment_s = self._first_segment_s
        self._mark = time.perf_counter()

    def stop(self) -> None:
        self._close(time.perf_counter())
        self._stage = None

    def tick(self) -> None:
        now = time.perf_counter()
        if self._stage is not None and now - self._mark >= self._segment_s:
            self._close(now)

    def frame(self, seconds: float, disturbed: bool) -> None:
        self._pending_frames.append(seconds)
        self.frames_disturbed.append(disturbed)

    def _close(self, now: float) -> None:
        work = now - self._mark
        sample = slowness()
        scale = 1.0 / (0.5 * (self._last_sample + sample))
        self.raw[self._stage] += work
        self.ref[self._stage] += work * scale
        self.frames_ref.extend(f * scale for f in self._pending_frames)
        self._pending_frames.clear()
        self._last_sample = sample
        self._sampled = True
        self._segment_s = SEGMENT_S
        self._mark = time.perf_counter()

    # --- hooks -------------------------------------------------------------

    def install(self) -> None:
        def after(original):
            def hooked(*args, **kwargs):
                result = original(*args, **kwargs)
                self.tick()
                return result

            return hooked

        def timed_step(original):
            def step(*args, **kwargs):
                disturbed, self._sampled = self._sampled, False
                start = time.perf_counter()
                result = original(*args, **kwargs)
                self.frame(time.perf_counter() - start, disturbed)
                self.tick()
                return result

            return step

        patches = self._patches
        patches.replace(runtime.Tracker, "step", timed_step)
        for owner, attr in (
            (cli, "generate"),
            (formats, "write_jsonl"),
            (formats, "read_scenario"),
            (cli, "extract_examples"),
            (autodiff.AdamW, "step"),
            (formats, "write_tracker_output"),
            (formats, "read_label_frames"),
            (formats, "read_pred_frames"),
            (metrics._ClassAccumulator, "add_frame"),
        ):
            patches.replace(owner, attr, after)

    def uninstall(self) -> None:
        self._patches.restore()
