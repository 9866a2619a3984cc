"""Smoke test of the benchmark's traced mode: every command it runs must
match its golden report and call every layer it is chosen to exercise, so a
fast path cannot quietly break ``perfbench/run.py --trace 1``.  Reads
``perfbench/`` without changing it; reports go to a temporary directory."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_commands_match_goldens_and_exercise_their_layers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    monkeypatch.setattr(run, "OUT", tmp_path)
    failures = {}
    for command in run.COMMANDS:
        op = run.run_op(command, 1, trace=True)
        if op["error"] is not None:
            failures[command] = op["error"]
            continue
        silent = [name for name in run.EXERCISED[command] if op["layers"][name]["calls"] == 0]
        if silent:
            failures[command] = f"zero calls on {silent}"
    assert failures == {}
