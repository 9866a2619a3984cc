#!/usr/bin/env python3
"""Capture the golden report digests that the benchmark's gate checks.

    python3 perfbench/capture_golden.py [TWIST_SEED ...]

Runs each command once, the seeded command once per given seed
(default 0 to 63), and writes perfbench/golden.json.  Capture only at a
commit whose reports are known to be right: every later report is compared
against these digests, byte for byte apart from "timings".
"""

import json
import sys

import run


def capture(command: str, seed: int) -> str:
    report_path = run.OUT / "golden.report.json"
    op = run.run_child(["run", str(report_path), "-", *run.COMMANDS[command](seed)])
    report = report_path.read_bytes()
    report_path.unlink()
    if op["exit"] != 0 or report.count(run.OK_TRUE) != 1:
        raise SystemExit(f"{command} seed {seed}: exit {op['exit']}, report not ok")
    if command == run.SEEDED and run.search_accounting(report):
        raise SystemExit(f"{command} seed {seed}: {run.search_accounting(report)}")
    return run.canonical_digest(report)


def main(seeds: list[int]) -> None:
    run.OUT.mkdir(exist_ok=True)
    golden = {}
    for command in run.COMMANDS:
        if command == run.SEEDED:
            golden[command] = {str(seed): capture(command, seed) for seed in seeds}
        else:
            golden[command] = capture(command, 0)
        print(f"captured {command}", file=sys.stderr, flush=True)
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or list(range(64)))
