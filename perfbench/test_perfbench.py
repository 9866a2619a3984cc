"""Tests of the benchmark harness itself.  The repository's suite does not
collect them; run them from the checkout root with

    python3 -m pytest perfbench -q

They take under a minute; two run real CLI commands end to end.
"""

import json
import re
import shutil
import subprocess
import sys

import run


def _cli_report(**data) -> bytes:
    """A report laid out exactly as the CLI writes one."""
    report = {
        "checks": [], "command": "t", "config": {}, "context": {}, "data": data,
        "ok": True, "schema": 1, "timings": {"total_seconds": 0.25}, "tool": "kacpal",
        "version": "0",
    }
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def _change_first_coefficient(report: bytes) -> bytes:
    changed, found = re.subn(
        rb'("coeff": \[\s*")(-?\d+)/', lambda m: m[1] + str(int(m[2]) + 1).encode() + b"/",
        report, count=1,
    )
    assert found == 1
    return changed


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(c for commands in run.WORKLOADS.values() for c in commands) == sorted(run.COMMANDS)
    for command, layers in run.EXERCISED.items():
        assert command in run.COMMANDS
        assert set(layers) <= {t[0] for t in run.TARGETS}


def test_digest_ignores_timings_and_nothing_else():
    base = _cli_report(x=[{"coeff": ["1/2"]}])
    retimed = base.replace(b'"total_seconds": 0.25', b'"total_seconds": 7.5')
    assert run.canonical_digest(base) == run.canonical_digest(retimed)
    assert run.canonical_digest(base) != run.canonical_digest(_change_first_coefficient(base))


def test_search_accounting_catches_a_lost_sample():
    search = {
        "samples": run.TWIST_SAMPLES, "invertible": 5, "twist_and_strong": 2,
        "strong_only": 1, "neither": 1, "separating_candidates": [[]], "resolved": False,
    }
    assert run.search_accounting(_cli_report(**{"converse-search": search})) is None
    search["neither"] = 0
    assert "invertible" in run.search_accounting(_cli_report(**{"converse-search": search}))


def test_changed_coefficient_counts_as_failed_operation(monkeypatch):
    """Negative control on a real report: one coefficient changed after the
    command ran must make the operation a failure."""
    run.OUT.mkdir(exist_ok=True)
    workload, target = "twist-invariants-rep", "invariants-h22-d5"
    clean = run.run_workload(workload, 0, seconds=1, trace=False)
    assert clean["correct"] and clean["attempted"] == 3 and clean["failed"] == 0

    judge = run.judge

    def tamper(command, seed, code, report):
        if command == target:
            report = _change_first_coefficient(report)
        return judge(command, seed, code, report)

    monkeypatch.setattr(run, "judge", tamper)
    tampered = run.run_workload(workload, 0, seconds=1, trace=False)
    assert not tampered["correct"]
    assert tampered["attempted"] == 3 and tampered["failed"] == 1


def test_traced_call_counts_repeat_exactly(tmp_path):
    """Two traced runs of the same command and seed give identical counts,
    on small instances of each benchmark command."""
    commands = [
        ["verify", "2", "2", "--scope", "all"],
        ["twist-check", "3", "--search", "20", "--seed", "7"],
        ["export", "2", "2"],
        ["invariants", "2", "2", "1", "0", "--degree", "3"],
        ["rep-check", "3", "4", "1", "0"],
    ]
    for argv in commands:
        counts = []
        for _ in range(2):
            out = run.run_child(["trace", str(tmp_path / "r.json"), str(tmp_path / "s.tsv"), *argv])
            assert out["exit"] == 0
            counts.append(
                {name: layer["calls"] for name, layer in out["layers"].items()}
                | {"memo_entries": out["memo_entries"], "spans": out["spans"]}
            )
        assert counts[0] == counts[1], argv
        assert counts[0]["cli.main"] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "twist-invariants-rep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
