"""Tests of the benchmark itself: span arithmetic, wrapping, repeatable counts.

    python -m pytest perfbench
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans

sys.path.insert(0, run.SRC)

from gsmgof import bounds, gsm, montecarlo, testproc  # noqa: E402
from gsmgof.sequences import RegimeSpec  # noqa: E402


def test_self_time_subtracts_covered_part_of_nested_spans():
    recorded = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["d", 6.0, 7.0, 3],
        ["e", 6.5, 8.0, 3],  # overlaps d: the covered part counts once
        ["f", 8.5, 9.5, 3],  # runs past its parent: only the part inside counts
    ]
    assert spans.self_times(recorded) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0])


def test_summary_counts_draws_read_by_the_test():
    recorded = [
        ["montecarlo.empirical_separation_radius", 0.0, 9.0, -1],
        ["gsm.simulate", 1.0, 4.0, 0],
        ["gsm.gaussian_draws", 1.5, 2.0, 1],
        ["gsm.gaussian_draws", 2.5, 3.0, 1],
        ["testproc.run_test", 4.0, 5.0, 0],
        ["gsm.gaussian_draws", 5.0, 6.0, 0],  # radius-cache xi: the window is read
        ["testproc.run_test", 6.0, 7.0, 0],
    ]
    notes = {2: 100, 3: 100, 4: [2, 2, False, False], 5: 100, 6: [100, 3, False, True]}
    summary = spans.summarize(recorded, notes)
    assert summary["gsm.draws.count"] == 300
    read = (3 + 2) + 2 + (100 + 3)
    assert summary["gsm.draws.read_ratio"] == read / 300
    assert summary["gsm.gaussian_draws.calls"] == 3
    assert summary["gsm.simulate.self_s"] == pytest.approx(2.0)
    assert summary["testproc.truncated_frac"] == 0.5
    assert summary["testproc.window.max"] == 3


def _untraced_results():
    spec = RegimeSpec.from_name("mild-ordinary", s=1.0, t=1.0)
    noise = gsm.NoiseLevels(1e-2, 1e-2)
    config = testproc.TestConfig(alpha=0.05, beta=0.5, j_max=2000)
    theta0 = gsm.Signal.zeros()
    obs = gsm.simulate(theta0, spec, noise, 7, 2000, rep=3)
    return (
        gsm.gaussian_draws(7, 3, gsm.SIGNAL_STREAM, 500),
        testproc.run_test(obs, theta0, spec, noise, config),
        bounds.evaluate_bounds(spec, 1e-2, 1e-3, 0.05, 0.5, 2000),
    )


def test_wrapped_functions_return_what_the_originals_return():
    sentinel = object()
    assert spans.Tracer().wrap("x", lambda: sentinel)() is sentinel

    draws, report, bound = _untraced_results()
    original = gsm.simulate
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_draws, traced_report, traced_bound = _untraced_results()
    finally:
        tracer.uninstall()
    assert traced_draws.dtype == draws.dtype
    np.testing.assert_array_equal(traced_draws, draws)
    assert traced_report == report
    assert traced_bound == bound
    names = {span[0] for span in tracer.spans}
    assert {"gsm.simulate", "testproc.run_test", "bounds.evaluate_bounds",
            "testproc.bandwidth_bracket", "sequences.b_vector"} <= names
    assert gsm.simulate is original and montecarlo.simulate is original


def test_traced_counts_repeat_and_output_matches_untraced(tmp_path):
    argv = ["sep-radius", "--regime", "mild-ordinary", "--epsilon", "1e-2", "--sigma", "1e-4",
            "--reps", "100", "--jmax", "500", "--seed", "11", "--workers", "1"]
    plain = run.run_cli(argv)
    summaries = []
    for i in range(2):
        path = str(tmp_path / f"spans{i}.json")
        traced = run.run_cli(argv, path)
        assert traced.code == 0 and traced.stdout == plain.stdout
        summaries.append(spans.summarize(*spans.load(path)))
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")} for s in summaries]
    assert counts[0] == counts[1]
    assert counts[0]["testproc.run_test.calls"] == 100
    assert counts[0]["gsm.draws.count"] == 3 * 100 * 500


def test_refuses_to_run_without_the_package_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "bounds-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
