"""CLI contract: exit codes 0/1/2, baseline wiring, ``python -m`` entry."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN_SOURCE = """
def double(x):
    return 2 * x
"""

# An argless default_rng() fallback: one RPR001 finding anywhere under repro/.
DIRTY_SOURCE = """
import numpy as np

def build(rng=None):
    return rng if rng is not None else np.random.default_rng()
"""


def write_module(tmp_path, source, package="nn"):
    target = tmp_path / "src" / "repro" / package / "fixture.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = write_module(tmp_path, CLEAN_SOURCE)
        assert main([str(target), "--no-baseline"]) == 0
        assert "clean" in capsys.readouterr().err

    def test_findings_exit_one(self, tmp_path, capsys):
        target = write_module(tmp_path, DIRTY_SOURCE)
        assert main([str(target), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out and "[build]" in out

    def test_directory_walk_finds_nested_modules(self, tmp_path):
        write_module(tmp_path, DIRTY_SOURCE)
        assert main([str(tmp_path / "src"), "--no-baseline"]) == 1

    def test_unknown_rule_exits_two(self, tmp_path):
        target = write_module(tmp_path, CLEAN_SOURCE)
        assert main([str(target), "--rule", "RPR999"]) == 2

    def test_missing_path_exits_two(self, tmp_path):
        assert main([str(tmp_path / "nowhere")]) == 2

    def test_malformed_baseline_exits_two(self, tmp_path):
        target = write_module(tmp_path, CLEAN_SOURCE)
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 1, "entries": [{}]}), encoding="utf-8")
        assert main([str(target), "--baseline", str(bad)]) == 2

    def test_syntax_error_reported_as_finding(self, tmp_path, capsys):
        target = write_module(tmp_path, "def broken(:\n")
        assert main([str(target), "--no-baseline"]) == 1
        assert "RPR000" in capsys.readouterr().out


class TestBaselineWiring:
    def test_baseline_suppresses_to_clean(self, tmp_path, capsys):
        target = write_module(tmp_path, DIRTY_SOURCE)
        baseline = tmp_path / "analysis_baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "rule": "RPR001",
                            "path": str(target.relative_to(tmp_path)),
                            "symbol": "build",
                            "justification": "fixture: suppression round-trip",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert main([str(target), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().err

    def test_unused_entry_warns_but_stays_clean(self, tmp_path, capsys):
        target = write_module(tmp_path, CLEAN_SOURCE)
        baseline = tmp_path / "analysis_baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "rule": "RPR001",
                            "path": "src/repro/nn/fixture.py",
                            "symbol": "gone",
                            "justification": "fixture: stale entry",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert main([str(target), "--baseline", str(baseline)]) == 0
        assert "unused baseline entry" in capsys.readouterr().err

    def test_no_baseline_flag_reports_everything(self, tmp_path):
        target = write_module(tmp_path, DIRTY_SOURCE)
        baseline = tmp_path / "analysis_baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "rule": "RPR001",
                            "path": str(target.relative_to(tmp_path)),
                            "symbol": "build",
                            "justification": "fixture: must be ignored",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert main([str(target), "--baseline", str(baseline), "--no-baseline"]) == 1


class TestRuleSelection:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005"):
            assert rule in out

    def test_rule_filter_scopes_the_run(self, tmp_path):
        target = write_module(tmp_path, DIRTY_SOURCE)
        assert main([str(target), "--rule", "RPR002", "--no-baseline"]) == 0
        assert main([str(target), "--rule", "RPR001", "--no-baseline"]) == 1


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        target = write_module(tmp_path, DIRTY_SOURCE)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(target), "--no-baseline"],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(tmp_path),
        )
        assert result.returncode == 1
        assert "RPR001" in result.stdout
