"""The benchmark's own tests: a tiny-size pass over all four workloads.

Run from the repository root with ``python -m pytest perfbench -q``.  They
check names against ``BENCHMARK.json``, the parts-sum rule of the traced
runs, that an injected wrong answer counts as a failure, that no serving
query row other than a hot one is ever sent twice, that the entry point
refuses to run without the package source, and that no process a fleet run
started is left once the runs are stopped.  They assert nothing about
wall-clock speed.
"""

from __future__ import annotations

import json
import multiprocessing
import re
import shutil
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.fixtures import TINY, as_rows, row_pools  # noqa: E402
from perfbench.load import closed_loop  # noqa: E402
from perfbench.report import ATTRIBUTION_TOLERANCE, HEADLINE_UNIT, run  # noqa: E402
from perfbench.run import stop_children  # noqa: E402
from perfbench.workloads import CLOSED_KEYS, OPEN_HOT_KEY, OPEN_KEY, _plan  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = 1.0


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.fixture(scope="module", autouse=True)
def _no_process_left():
    """Fleet runs start processes; none may outlive the tests."""
    yield
    stop_children()
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    """One tiny traced run (an untraced pass, then a traced pass)."""
    lines: list = []
    result = run(request.param, 3, SECONDS, True, scale=TINY, lines=lines)
    return request.param, result, lines


def test_workloads_are_the_four_named():
    assert WORKLOADS == ["train_stream", "serve_inproc", "serve_fleet", "adapt"]


@pytest.mark.parametrize("workload", ["train_stream", "serve_inproc"])
def test_untraced_names_match_benchmark_json(workload):
    result = run(workload, 3, SECONDS, False, scale=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert metric["value"] != 0.0, name


def test_traced_names_match_benchmark_json(traced):
    workload, result, _ = traced
    assert result["correct"], workload
    declared = _declared("per_layer")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(NAME.match(name) for name in result["metrics"])
    json.dumps(result, allow_nan=False)


def test_parts_add_up_to_the_traced_headline(traced):
    workload, result, lines = traced
    metrics = result["metrics"]
    headline = metrics[f"{workload}.traced_headline"]["value"]
    unattributed = metrics[f"{workload}.unattributed"]["value"]
    assert metrics[f"{workload}.traced_headline"]["unit"] == HEADLINE_UNIT[workload]
    assert headline > 0
    assert abs(unattributed) <= ATTRIBUTION_TOLERANCE * headline, "\n".join(lines)


def test_printed_names_are_declared(traced):
    """Every ``name = value unit`` line printed names a declared metric."""
    _, _, lines = traced
    declared = set(_declared("per_layer")) | set(_declared("end_to_end"))
    printed = [line.split(" = ")[0].strip() for line in lines if " = " in line]
    assert printed and set(printed) <= declared


@pytest.mark.parametrize("workload", ["train_stream", "serve_inproc"])
def test_injected_wrong_answer_counts_as_failure(workload):
    result = run(workload, 3, SECONDS, False, scale=TINY, inject_wrong=True)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["attempted"] >= result["failed"]


def test_closed_loop_never_wraps():
    """A thread that runs out of queries ends the phase; nothing is re-sent."""
    sent = []

    def submit(stream, row):
        sent.append((stream, float(row[0])))
        answer = Future()
        answer.set_result(None)
        return answer

    plans = [(["a"] * 50, np.arange(50.0)[:, None]), (["b"] * 50, np.arange(50.0)[:, None])]
    result = closed_loop(submit, plans, window=4, seconds=30.0, sample_every=1)
    assert sorted(sent) == sorted((s, float(i)) for s in "ab" for i in range(50))
    assert result.sent == [50, 50] and result.answered == 100 and result.failed == 0
    sampled = sorted((t, i) for t, i, _ in result.sampled)
    assert sampled == [(t, i) for t in (0, 1) for i in range(50)]


def test_fresh_rows_are_never_repeated():
    """Across the open-loop plan and both closed-loop plans only hot rows repeat."""
    rng = np.random.default_rng(0)
    hot = row_pools(3, TINY.hot_rows, OPEN_HOT_KEY)
    plans = [_plan(rng, 3, key, 400, hot) for key in (OPEN_KEY, *CLOSED_KEYS)]
    hot_rows = {row.tobytes() for pool in hot.values() for row in as_rows(pool)}
    fresh = [row.tobytes() for plan in plans for row in plan.rows]
    fresh = [row for row in fresh if row not in hot_rows]
    assert len(fresh) == len(set(fresh)) > 0.6 * 3 * 400
    assert all(plan.rows.flags.c_contiguous and len(plan.streams) == 400 for plan in plans)


def test_entry_point_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_entry_point_imports_without_side_effects():
    code = (
        "import os, sys, threading; env = dict(os.environ); "
        f"sys.path.insert(0, {str(ROOT)!r}); import perfbench.run; "
        "assert dict(os.environ) == env; assert threading.active_count() == 1; "
        "assert 'numpy' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
