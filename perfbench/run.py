#!/usr/bin/env python3
"""kacpal benchmark: five CLI commands in two workloads, each command in a
fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...

Run from the root of a kacpal checkout; the library is imported from its
``src/``.  Every operation is one CLI command in a new process with cold
memo tables, gated on its report (see ``judge``).  With ``--trace 0`` the
run cycles through the workload's commands for about S seconds and prints
the end-to-end metrics (sums over the commands of their medians).  With
``--trace 1`` it does the same untraced loop, then traces each command
once, and prints the per-layer metrics.  The last line of standard output is the
result object; progress, a table and the run environment go to standard
error, and the full record to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"
GOLDEN = json.loads((HERE / "golden.json").read_text())

CHILD_TIMEOUT_S = 170
TWIST_SAMPLES = 300
# Reports echo KACPAL_THREADS, so it is pinned to keep them golden-comparable.
CHILD_ENV = dict(os.environ, KACPAL_THREADS="1", PYTHONHASHSEED="0")

COMMANDS = {
    "verify-h32-all": lambda seed: ["verify", "3", "2", "--scope", "all"],
    "twist-n3-search": lambda seed: ["twist-check", "3", "--search", str(TWIST_SAMPLES), "--seed", str(seed)],
    "export-h23": lambda seed: ["export", "2", "3"],
    "invariants-h22-d5": lambda seed: ["invariants", "2", "2", "1", "0", "--degree", "5"],
    "rep-n3-m5": lambda seed: ["rep-check", "3", "5", "1", "0"],
}
# The one command that takes the seed; its goldens are per seed.
SEEDED = "twist-n3-search"

# A run takes its commands in turn, so every command is sampled all through
# the run: the host's speed drifts over tens of seconds, and a command timed
# only in one stretch of the run would carry that stretch's speed.
WORKLOADS = {
    "hopf-verify-export": ("verify-h32-all", "export-h23"),
    "twist-invariants-rep": ("twist-n3-search", "invariants-h22-d5", "rep-n3-m5"),
}

# Layers each command is chosen to exercise.  A traced run fails if any of
# them reads zero calls, so a wrapper that stopped binding cannot pass.
EXERCISED = {
    "verify-h32-all": (
        "cyclotomic.mul", "symmetric.perm_hash", "cocycle.gamma", "group_ring.ring_inverse",
        "hopf.hmul", "hopf.coproduct", "hopf.htensor_mul", "hopf.antipode",
        "hopf.verify_axioms", "hopf.verify_integral", "hopf.cyclic_subalgebra",
    ),
    "twist-n3-search": (
        "cyclotomic.mul", "cyclotomic.add", "group_ring.check_invertible",
        "group_ring.tensor_inverse", "group_ring.ktensor_mul", "twists.is_twist",
        "twists.is_strong_twist", "twists.is_superstrong", "twists.embedded_twist",
        "twists.search",
    ),
    "export-h23": ("hopf.hmul", "symmetric.canonical_word"),
    "invariants-h22-d5": (
        "cyclotomic.mul", "quantum_poly.act", "quantum_poly.action_matrix",
        "quantum_poly.invariants", "quantum_poly.invariants_oracle", "linalg.kernel_basis",
    ),
    "rep-n3-m5": (
        "cyclotomic.inv", "linalg.rref", "linalg.mat_mul",
        "reps.verify_rep", "reps.is_simple",
    ),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {
        f"{name}.{kind}": "count" if kind == "calls" else "s"
        for name, _, _, _, reported in TARGETS
        for kind in reported
    }
    units.update({
        "hopf.memo_entries": "count",
        "cli.emit.s": "s",
        "cli.report_bytes": "B",
        "trace.wall_s": "s",
        "trace.overhead": "ratio",
    })
    units.update({f"cmd.{command}.wall_s": "s" for command in COMMANDS})
    return units


# -- correctness gate ------------------------------------------------------------

# The CLI writes reports with json.dumps(indent=2, sort_keys=True), so the
# top-level members sit at two spaces of indent and "timings" is never last.
TIMINGS = re.compile(rb'\n  "timings": \{\n(?:    [^\n]*\n)*  \},')
OK_TRUE = b'\n  "ok": true,\n'


def canonical_digest(report: bytes) -> str:
    """SHA-256 of the report with its top-level "timings" member removed."""
    stripped, found = TIMINGS.subn(b"", report)
    if found != 1:
        raise ValueError(f"expected one top-level timings block, found {found}")
    return hashlib.sha256(stripped).hexdigest()


def search_accounting(report: bytes) -> str | None:
    """Internal consistency of the twist-check search block, for seeds that
    have no golden report."""
    search = json.loads(report)["data"]["converse-search"]
    if search["samples"] != TWIST_SAMPLES:
        return f"search samples {search['samples']} != {TWIST_SAMPLES}"
    classified = (
        search["twist_and_strong"] + search["strong_only"] + search["neither"]
        + len(search["separating_candidates"])
    )
    if search["invertible"] != classified:
        return f"search invertible {search['invertible']} != classified {classified}"
    return None


def judge(command: str, seed: int, code, report: bytes | None) -> str | None:
    """None when the operation is correct, else the reason it failed: a
    wrong exit code, ``ok`` not true, or a report that differs from the
    golden captured for it (twist-check seeds without a golden are checked
    for consistent accounting instead)."""
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no report written"
    if report.count(OK_TRUE) != 1:
        return "report is not ok"
    golden = GOLDEN[command]
    if isinstance(golden, dict):
        golden = golden.get(str(seed))
    if golden is None:
        return search_accounting(report)
    try:
        digest = canonical_digest(report)
    except ValueError as exc:
        return str(exc)
    if digest != golden:
        return f"report digest {digest[:12]} differs from golden {golden[:12]}"
    return None


# -- processes --------------------------------------------------------------------


def steal_ticks() -> int | None:
    """Host steal time of all CPUs, in clock ticks, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def run_child(args: list[str]) -> dict:
    """Run child.py with ARGS and return its JSON result line."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(SRC), *args],
        env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def warm_up() -> None:
    """Import once in a fresh interpreter.  The first import may compile
    bytecode into the checkout, so no command's import should pay for it."""
    run_child(["setup"])


def run_op(command: str, seed: int, trace: bool = False) -> dict:
    """One CLI command in a fresh interpreter, judged on its report."""
    report_path = OUT / f"{command}.report.json"
    spans_path = OUT / f"{command}.spans.tsv"
    report_path.unlink(missing_ok=True)
    argv = COMMANDS[command](seed)
    mode = ["trace", str(report_path), str(spans_path)] if trace else ["run", str(report_path), "-"]
    steal0 = steal_ticks()
    t0 = time.perf_counter()
    try:
        op = run_child(mode + argv)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        op = {"exit": None, "child_error": str(exc)[-2000:]}
    op["elapsed_s"] = time.perf_counter() - t0
    steal1 = steal_ticks()
    op["steal_ticks"] = None if steal0 is None or steal1 is None else steal1 - steal0
    op["command"] = command
    op["traced"] = trace
    report = report_path.read_bytes() if report_path.exists() else None
    report_path.unlink(missing_ok=True)
    op["error"] = op.get("child_error") or judge(command, seed, op["exit"], report)
    if report is not None:
        op["report_bytes"] = len(report)
        found = re.search(rb'"total_seconds": ([0-9.eE+-]+)', report[report.rfind(b'"timings"'):])
        if found:
            op["total_seconds"] = float(found.group(1))
    return op


def measure(workload: str, seed: int, seconds: float) -> list[dict]:
    """Untraced passes over the workload's commands, back to back, while
    the next pass is expected to end within ``seconds``; at least one."""
    ops, passes = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for command in WORKLOADS[workload]:
            ops.append(run_op(command, seed))
            log_op(workload, ops[-1])
        passes.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start + statistics.median(passes) > seconds:
            return ops


# -- metrics ----------------------------------------------------------------------


def median_of(ops: list[dict], key: str) -> float:
    return statistics.median(op[key] for op in ops)


def command_medians(ops: list[dict], key: str) -> dict:
    """The median of KEY for each command that ran."""
    commands = dict.fromkeys(op["command"] for op in ops)
    return {c: median_of([op for op in ops if op["command"] == c], key) for c in commands}


def layer_metrics(traced: list[dict], untraced_wall: dict) -> dict:
    """Per-layer metrics summed over one traced run of each command."""
    for op in traced:
        silent = [name for name in EXERCISED[op["command"]] if op["layers"][name]["calls"] == 0]
        if silent:
            raise SystemExit(f"traced {op['command']}: zero calls on exercised layers {silent}")
    values = {
        f"{name}.{kind}": sum(op["layers"][name][kind] for op in traced)
        for name, _, _, _, reported in TARGETS
        for kind in reported
    }
    traced_wall = sum(op["wall_s"] for op in traced)
    values.update({
        "hopf.memo_entries": sum(op["memo_entries"] for op in traced),
        "cli.emit.s": sum(op["wall_s"] - op["total_seconds"] for op in traced),
        "cli.report_bytes": sum(op["report_bytes"] for op in traced),
        "trace.wall_s": traced_wall,
        "trace.overhead": traced_wall / sum(untraced_wall.values()),
    })
    values.update({f"cmd.{c}.wall_s": untraced_wall.get(c, 0) for c in COMMANDS})
    return values


def environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
        "KACPAL_THREADS": CHILD_ENV["KACPAL_THREADS"],
        "KACPAL_THREADS_inherited": os.environ.get("KACPAL_THREADS"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    warm_up()
    ops = measure(workload, seed, seconds)
    measured = [op for op in ops if "wall_s" in op]
    if not measured:
        raise SystemExit(f"{workload}: no command completed: {ops[0]['error']}")
    wall = command_medians(measured, "wall_s")
    if trace:
        traced = []
        for command in WORKLOADS[workload]:
            traced.append(run_op(command, seed, trace=True))
            log_op(workload, traced[-1])
            if traced[-1]["error"] is not None:
                raise SystemExit(f"traced {command} failed: {traced[-1]['error']}")
        ops += traced
        values = layer_metrics(traced, wall)
        units = per_layer_units()
    else:
        values = {
            "wall_s": sum(wall.values()),
            "cpu_s": sum(command_medians(measured, "cpu_s").values()),
            # Each command's interpreter times the import before the command
            # runs, so set-up is sampled all through the run.
            "setup_s": median_of(measured, "import_s"),
            "peak_rss_mb": max(command_medians(measured, "peak_rss_mb").values()),
        }
        units = END_TO_END
    failed = sum(op["error"] is not None for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload, "argv": {c: COMMANDS[c](seed) for c in WORKLOADS[workload]},
        "seed": seed, "command_wall_s": wall,
        "seconds": seconds, "trace": trace, "environment": environment(),
        "steal_ticks": sum(op["steal_ticks"] or 0 for op in ops),
        "fail_ratio": failed / len(ops), "ops": ops,
        "result": result,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    log_result(workload, record)
    return result


# -- output -----------------------------------------------------------------------


def log_op(workload: str, op: dict) -> None:
    status = "ok" if op["error"] is None else f"FAILED ({op['error']})"
    wall = op.get("wall_s")
    wall_text = f"{wall:.3f} s" if wall is not None else "-"
    print(
        f"[{workload}] {'traced ' if op['traced'] else ''}{op['command']} {wall_text}, "
        f"steal {op['steal_ticks']} ticks: {status}",
        file=sys.stderr, flush=True,
    )


def log_result(workload: str, record: dict) -> None:
    result = record["result"]
    print(f"[{workload}] environment {json.dumps(record['environment'])}", file=sys.stderr)
    print(
        f"[{workload}] correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} fail_ratio={record['fail_ratio']:.3f} "
        f"steal={record['steal_ticks']} ticks",
        file=sys.stderr,
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:34} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    sys.stderr.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kacpal" / "cli.py").is_file():
        print(f"no kacpal sources at {SRC}; run from a kacpal checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"workload": workload, **result}), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
