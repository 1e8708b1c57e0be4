#!/usr/bin/env python3
"""Benchmark of the `gsm-gof` command line, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from `src/`.
Each workload is one `gsm-gof` command, run closed-loop (one CLI process at a
time, each in a fresh interpreter) with `--workers 2` and the given seed.

With `--trace 0` the command is repeated until S seconds have passed and the
end-to-end metrics are medians over the repetitions:

- wall_s       spawn of the CLI process to its exit;
- setup_s      interpreter start plus `import gsmgof.cli`, timed in the child;
- reps_per_s   simulated replications (reps x grid cells; one pass of reps for
               sep-radius) per second of `main`; bounds-grid simulates nothing,
               so there it counts bound cells, like cells_per_s;
- cells_per_s  output rows (grid cells) per second of `main`;
- peak_rss_mb  largest resident set of the CLI process and its pool workers.

Every output is compared byte for byte with the same command at `--workers 1`
(and, for the default seed, with the copy kept in `reference/`).  A wrong
exit code or a differing byte counts as failed; failed / attempted is the
run's failed fraction.

With `--trace 1` the benchmark runs rounds of: the command untraced at
`--workers 1` and at `--workers 2`, the command traced in-process at
`--workers 1` (see spans.py), and an import-time probe.  It reports the
per-module metrics, `montecarlo.pool.speedup` (time in `main` at `--workers 1`
over `--workers 2`, both reported) and the tracing overhead (traced minus
untraced `main` at `--workers 1`).  It checks that the traced output equals
the untraced one and that every count repeats across rounds.

Each metric is printed by name with its unit, and the last line of stdout is
one JSON object: correct, attempted, failed, metrics (`--workload all` prints
one such block per workload).  Run details (run context, every sample, the
spans of the last traced run) go to `out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")
CHILD = os.path.join(HERE, "child.py")

DEFAULT_SEED = 12345  # the seed whose reference outputs are kept in reference/
WORKERS = 2
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150


class Workload(NamedTuple):
    argv: tuple
    reps: int | None  # replications simulated per run; None: nothing simulated


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "calibrate-mild": Workload(
        ("calibrate", "--regime", "mild-ordinary", "--epsilon", "1e-2",
         "--sigma", "1e-2,1e-4,1e-6", "--reps", "1500"), 1500 * 3),
    "calibrate-severe": Workload(
        ("calibrate", "--regime", "severe-ordinary,severe-super", "--epsilon", "1e-2,1e-3",
         "--sigma", "1e-2,1e-4", "--reps", "2000"), 2000 * 8),
    "sep-radius": Workload(
        ("sep-radius", "--regime", "mild-ordinary", "--epsilon", "1e-2", "--sigma", "1e-2",
         "--reps", "1000"), 1000),
    "bounds-grid": Workload(
        ("bounds", "--regime", "mild-ordinary,mild-super",
         "--epsilon", "1e-1,3e-2,1e-2,3e-3,1e-3,3e-4,1e-4,3e-5",
         "--sigma", "1e-2,3e-3,1e-3,3e-4,1e-4,3e-5,1e-5,1e-6", "--jmax", "100000"), None),
}

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("reps_per_s", "1/s"), ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.import.scipy_optimize_s", "s"),
    ("cli.import.scipy_special_s", "s"), ("cli.main.self_s", "s"),
    ("montecarlo.estimate_alpha.self_s", "s"),
    ("montecarlo.empirical_separation_radius.self_s", "s"),
    ("montecarlo.pool.speedup", "ratio"), ("montecarlo.pool.workers1_main_s", "s"),
    ("montecarlo.pool.workers2_main_s", "s"),
    *((f"{fn}.{kind}", unit)
      for fn in spans.TRACED if not fn.startswith(("cli.", "montecarlo."))
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("gsm.draws.count", "count"), ("gsm.draws.read_ratio", "ratio"),
    ("testproc.degenerate_frac", "ratio"), ("testproc.truncated_frac", "ratio"),
    ("testproc.bandwidth.p50", "count"), ("testproc.bandwidth.max", "count"),
    ("testproc.window.p50", "count"), ("testproc.window.max", "count"),
    ("trace.main_s", "s"), ("trace.overhead_s", "s"),
)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Run(NamedTuple):
    code: int | None
    stdout: bytes
    wall_s: float
    report: dict | None  # the child's timings; None if it died before writing them


def run_cli(argv: list, spans_path: str = "-") -> Run:
    """One `gsm-gof` run in a fresh interpreter, timed from spawn to exit."""
    read_fd, write_fd = os.pipe()
    spawn_t = _now()
    command = [sys.executable, CHILD, repr(spawn_t), str(write_fd), spans_path, "--", *argv]
    try:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                pass_fds=(write_fd,), env=_child_env(), cwd=ROOT,
                                start_new_session=True)
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd, "rb") as report_pipe:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the CLI and its pool workers
            proc.communicate()
            return Run(None, b"", _now() - spawn_t, None)
        wall_s = _now() - spawn_t
        raw = report_pipe.read()
    if stderr:
        sys.stderr.write(stderr.decode(errors="replace"))
    return Run(proc.returncode, stdout, wall_s, json.loads(raw) if raw else None)


def command(workload: str, seed: int, workers: int) -> list:
    return [*WORKLOADS[workload].argv, "--seed", str(seed), "--workers", str(workers)]


def stored_reference(workload: str, seed: int) -> bytes | None:
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(REFERENCE, f"{workload}.csv"), "rb") as handle:
        return handle.read()


class Checker:
    """Counts runs attempted and runs whose exit code or output is wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, run: Run, expected: bytes | None, what: str) -> bool:
        self.attempted += 1
        same = expected is None or run.stdout == expected
        ok = run.code == 0 and run.report is not None and same
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: exit code {run.code}, output "
                  f"{'as expected' if same else 'differs'}", file=sys.stderr)
        return ok


def reference_run(workload: str, seed: int, checker: Checker) -> Run:
    """The command at --workers 1; its output is what every other run must print."""
    ref = run_cli(command(workload, seed, 1))
    checker.check(ref, stored_reference(workload, seed), "reference run at --workers 1")
    return ref


def _rows(stdout: bytes) -> int:
    return max(stdout.count(b"\n") - 1, 0)  # CSV lines minus the header


def _end_to_end(workload: str, run: Run) -> dict:
    rep = run.report
    main_s = rep["main_s"]
    rows = _rows(run.stdout)
    reps = WORKLOADS[workload].reps
    return {
        "wall_s": run.wall_s,
        "setup_s": rep["setup_s"],
        "reps_per_s": (rows if reps is None else reps) / main_s,
        "cells_per_s": rows / main_s,
        "peak_rss_mb": max(rep["rss_self_kb"], rep["rss_children_kb"]) / 1024.0,
    }


def measure(workload: str, seed: int, seconds: float, checker: Checker) -> tuple[dict, list]:
    ref = reference_run(workload, seed, checker)
    samples = []
    deadline = _now() + seconds
    while len(samples) < MIN_SAMPLES or _now() < deadline:
        run = run_cli(command(workload, seed, WORKERS))
        checker.check(run, ref.stdout, f"run at --workers {WORKERS}")
        if run.report is None:
            break
        samples.append(_end_to_end(workload, run))
    if not samples:
        return {}, samples
    metrics = {name: (statistics.median(s[name] for s in samples), unit)
               for name, unit in END_TO_END}
    return metrics, samples


def import_probe() -> dict:
    """Import times of scipy.special and of what scipy.optimize adds on top of it.

    numpy and scipy.special are imported before gsmgof.cli, so the
    scipy.optimize line (absent once the CLI stops importing it) holds only
    the modules the CLI imports for it beyond what `gsm` needs anyway.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import numpy, scipy.special, gsmgof.cli"],
        capture_output=True, env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    found = {"scipy.special": 0.0, "scipy.optimize": 0.0}
    for line in proc.stderr.decode().splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() in found:
            found[fields[2].strip()] = int(fields[1]) * 1e-6
    return {"cli.import.scipy_special_s": found["scipy.special"],
            "cli.import.scipy_optimize_s": found["scipy.optimize"]}


def measure_traced(workload: str, seed: int, seconds: float,
                   checker: Checker) -> tuple[dict, list]:
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{workload}-seed{seed}.spans.json")
    rounds = []
    deadline = _now() + seconds
    while not rounds or _now() < deadline:
        single = reference_run(workload, seed, checker)
        pooled = run_cli(command(workload, seed, WORKERS))
        checker.check(pooled, single.stdout, f"run at --workers {WORKERS}")
        traced = run_cli(command(workload, seed, 1), spans_path)
        traced_ok = checker.check(traced, single.stdout, "traced run at --workers 1")
        if None in (single.report, pooled.report, traced.report):
            break
        layer = spans.summarize(*spans.load(spans_path))
        changed = [k for k, unit in PER_LAYER
                   if rounds and unit != "s" and k in layer and layer[k] != rounds[0]["layer"][k]]
        if traced_ok and changed:  # a count that does not repeat fails the traced run
            checker.failed += 1
            print(f"FAILED traced counts differ from the first round: {changed}",
                  file=sys.stderr)
        rounds.append({
            "single_main_s": single.report["main_s"],
            "pooled_main_s": pooled.report["main_s"],
            "traced_main_s": traced.report["main_s"],
            "import_s": [single.report["import_s"], pooled.report["import_s"]],
            "layer": {**layer, **import_probe()},
        })
    if not rounds:
        return {}, rounds

    med = statistics.median
    single_s = med(r["single_main_s"] for r in rounds)
    pooled_s = med(r["pooled_main_s"] for r in rounds)
    traced_s = med(r["traced_main_s"] for r in rounds)
    values = {
        "cli.import_s": med(t for r in rounds for t in r["import_s"]),
        "montecarlo.pool.speedup": single_s / pooled_s,
        "montecarlo.pool.workers1_main_s": single_s,
        "montecarlo.pool.workers2_main_s": pooled_s,
        "trace.main_s": traced_s,
        "trace.overhead_s": traced_s - single_s,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        elif unit == "s":
            value = med(r["layer"][name] for r in rounds)
        else:  # a count, checked above to repeat in every round
            value = rounds[0]["layer"][name]
        metrics[name] = (value, unit)
    return metrics, rounds


def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _caches() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"l{level}"] = _read(os.path.join(base, index, "size"))
    return sizes


def run_context(seed: int) -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "gsmgof")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        **_caches(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    context = run_context(seed)
    checker = Checker()
    measure_fn = measure_traced if trace else measure
    metrics, samples = measure_fn(workload, seed, seconds, checker)
    if not metrics:
        print("error: no run completed; see the failures above", file=sys.stderr)
        return 1

    print("context " + json.dumps(context, sort_keys=True))
    print(f"{workload} seed={seed} trace={trace}: {len(samples)} samples, "
          f"failed_frac = {checker.failed}/{checker.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    os.makedirs(OUT, exist_ok=True)
    record = {"workload": workload, "trace": trace, "context": context,
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": {k: v for k, (v, _) in metrics.items()}, "samples": samples}
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "gsmgof", "cli.py")):
        print(f"error: no gsmgof sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args.seed, args.seconds, args.trace) for name in names)


if __name__ == "__main__":
    sys.exit(main())
