"""In-process span tracer for the benchmark's traced run.

Each layer's public entry point is wrapped by attribute replacement for the
duration of a ``with tracer.installed():`` block; nothing in the package
changes. Spans (name, start, end, parent) are kept in memory and reduced to
per-layer self times when the run ends. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

from sweepnav import ekf, pipeline, smoothing, sweeps
from sweepnav.errors import DegenerateGeometryError, SingularGeometryError

# span name -> layer it is charged to
LAYER = {
    "parse": "sweeps.parse",
    "window": "sweeps.window",
    "band_mean": "sweeps.window",
    "range": "pathloss.range",
    "fix": "multilateration.fix",
    "smooth": "smoothing.push",
    "ekf.step": "ekf.step",
    "ekf.predict": "ekf.step",
    "ekf.update": "ekf.step",
    "pipeline": "pipeline.self",
    "write": "artifacts.write",
}
LAYERS = tuple(dict.fromkeys(LAYER.values()))


def _count_band_mean(counts, result, error):
    if result is not None:
        counts["band_mean_samples"] += result.sample_count


def _count_fix(counts, result, error):
    if isinstance(error, DegenerateGeometryError):
        counts["fix_degenerate"] += 1


def _count_update(counts, result, error):
    if isinstance(error, SingularGeometryError):
        counts["ekf_skipped_landmarks"] += 1


# (owner, attribute, span name, observer); a property is wrapped through its getter
TARGETS = (
    (pipeline.TrackingPipeline, "process", "pipeline", None),
    (pipeline.TrackingPipeline, "finish", "pipeline", None),
    (sweeps.SweepWindow, "push", "window", None),
    (sweeps.SweepWindow, "records", "window", None),
    (sweeps.SweepWindow, "stats", "window", None),
    (sweeps.SweepWindow, "persistent_band_ids", "window", None),
    (pipeline, "select_transmit_bands", "window", None),
    (pipeline, "band_mean", "band_mean", _count_band_mean),
    (sweeps, "band_mean", "band_mean", _count_band_mean),
    (pipeline, "rss_to_distance", "range", None),
    (pipeline, "fix_position", "fix", _count_fix),
    (smoothing.Smoother, "push", "smooth", None),
    (ekf.EkfTracker, "step", "ekf.step", None),
    (ekf, "predict", "ekf.predict", None),
    (ekf, "update", "ekf.update", _count_update),
)


def _count_rows(lines, counts):
    """Pass lines through, counting data rows and their dB bins."""
    for line in lines:
        if line.strip() and not line.lstrip().startswith("#"):
            counts["parse_rows"] += 1
            counts["parse_bins"] += line.count(",") - 5
        yield line


class Tracer:
    """Collects spans and counters; reduce them with :meth:`summary`."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call, parented to the open span."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
                if observe is not None:
                    observe(counts, None, exc)
                raise
            spans[index] = (name, start, clock(), parent)
            stack.pop()
            if observe is not None:
                observe(counts, result, None)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point in TARGETS; restore the originals on exit.

        Entry points missing from the package are reported on stderr and
        left untraced, so their time shows up in the caller's self time.
        """
        saved = []
        try:
            parse_lines = sweeps.parse_sweep_lines
            counts = self.counts
            saved.append((sweeps, "parse_sweep_lines", parse_lines))
            sweeps.parse_sweep_lines = lambda lines, plan: parse_lines(_count_rows(lines, counts), plan)
            for owner, attr, name, observe in TARGETS:
                original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if original is None:
                    print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found, untraced", file=sys.stderr)
                    continue
                if isinstance(original, property):
                    replacement = property(self.wrap(name, original.fget, observe))
                else:
                    replacement = self.wrap(name, original, observe)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-layer self time (ns), and call count and inclusive time per span name.

        ``covered_ns`` is the total duration of root spans, which equals the
        sum of all self times.
        """
        spans = self.spans
        self_ns = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        layer_ns = dict.fromkeys(LAYERS, 0)
        calls: Counter = Counter()
        inclusive_ns: Counter = Counter()
        covered_ns = 0
        for (name, start, end, parent), own in zip(spans, self_ns):
            layer_ns[LAYER[name]] += own
            calls[name] += 1
            inclusive_ns[name] += end - start
            if parent < 0:
                covered_ns += end - start
        return {
            "layer_ns": layer_ns,
            "calls": calls,
            "inclusive_ns": inclusive_ns,
            "covered_ns": covered_ns,
            "min_self_ns": min(self_ns, default=0),
        }
