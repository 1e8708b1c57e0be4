"""Span tracing of gsmgof's public functions, installed from outside the package.

A `Tracer` wraps each function named in `TRACED` and rebinds every module
global that refers to it, so callers inside the package (which look the name
up in their own module at call time) reach the wrapper.  Each call records a
span ``[name, start, end, parent]`` in memory; the spans are written out once
the run ends and reduced to per-function call counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

# Modules whose globals are searched for references to a traced function.
MODULES = ("cli", "montecarlo", "testproc", "gsm", "sequences", "bounds")

# Traced public functions, as "<module>.<function>".
TRACED = (
    "cli.main",
    "montecarlo.estimate_alpha",
    "montecarlo.empirical_separation_radius",
    "gsm.gaussian_draws",
    "gsm.simulate",
    "gsm.spike_index",
    "testproc.run_test",
    "testproc.empirical_bandwidth",
    "testproc.select_dimension",
    "testproc.statistic",
    "testproc.threshold",
    "testproc.bandwidth_bracket",
    "sequences.b_vector",
    "sequences.cumulative_b_inv4_prefix",
    "bounds.evaluate_bounds",
    "bounds.upper_bound_radius_sq",
    "bounds.lower_bound_radius_sq",
    "bounds.prior_depth",
    "bounds.critical_snr",
)


def _draw_note(result):
    return int(result.size)


def _report_note(report):
    return [report.bandwidth, report.window, report.degenerate, report.bandwidth_truncated]


# Return values kept per call, for the counts that need more than a call count.
NOTES = {"gsm.gaussian_draws": _draw_note, "testproc.run_test": _report_note}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.notes: dict[int, object] = {}
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if note is not None:
                self.notes[index] = note(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every reference to a traced function in the package modules."""
        modules = {m: importlib.import_module(f"gsmgof.{m}") for m in MODULES}
        for qualified in TRACED:
            module_name, attr = qualified.split(".")
            original = getattr(modules[module_name], attr)
            wrapper = self.wrap(qualified, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "notes": sorted(self.notes.items())}, handle)


def load(path: str) -> tuple[list, dict]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return data["spans"], {int(k): v for k, v in data["notes"]}


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans: list, notes: dict) -> dict:
    """Per-function counts and self times plus the draw and test-outcome counts.

    Coordinates the test reads: per `run_test`, the x prefix the bandwidth scan
    inspects (up to and including the trigger index, the whole horizon when
    truncated) plus the window of y.  A draw made outside `simulate` is the
    radius cache's xi, of which the window of the preceding test is read.
    """
    calls = {name: 0 for name in TRACED}
    self_s = {name: 0.0 for name in TRACED}
    for (name, *_), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own

    drawn = 0
    read = 0
    last_window = 0
    reports = []
    for index, (name, _, _, parent) in enumerate(spans):
        if name == "gsm.gaussian_draws":
            drawn += notes[index]
            if parent < 0 or spans[parent][0] != "gsm.simulate":
                read += last_window
        elif name == "testproc.run_test":
            bandwidth, window, degenerate, truncated = notes[index]
            read += (bandwidth if truncated else bandwidth + 1) + window
            last_window = window
            reports.append(notes[index])

    metrics: dict[str, float] = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    n = len(reports)
    bandwidths = [r[0] for r in reports] or [0]
    windows = [r[1] for r in reports] or [0]
    metrics.update({
        "gsm.draws.count": drawn,
        "gsm.draws.read_ratio": read / drawn if drawn else 0.0,
        "testproc.degenerate_frac": sum(r[2] for r in reports) / n if n else 0.0,
        "testproc.truncated_frac": sum(r[3] for r in reports) / n if n else 0.0,
        "testproc.bandwidth.p50": statistics.median(bandwidths),
        "testproc.bandwidth.max": max(bandwidths),
        "testproc.window.p50": statistics.median(windows),
        "testproc.window.max": max(windows),
    })
    return metrics
