"""Seconds-scale self-test of the benchmark itself.

    python3 benchmarks/selftest.py

Runs every workload at the tiny scale, untraced and traced, and checks the
result line's schema and metric names against BENCHMARK.json, the compare
mode on the records written, and that the command refuses to run without
the ``src/tosca`` sources.  It has no timing gates.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 120


def _run(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def check_result(line: str, wanted: list, problems: list, label: str) -> None:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        problems.append(f"{label}: last line is not JSON: {line[:80]!r}")
        return
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result['attempted']!r}")
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        missing = set(names) - set(result["metrics"])
        extra = set(result["metrics"]) - set(names)
        problems.append(f"{label}: missing {sorted(missing)}, "
                        f"extra {sorted(extra)}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} is {got}")
        elif not isinstance(got["value"], numbers.Real):
            problems.append(f"{label}: {m['name']} value {got['value']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    try:
        records = tmp / "records.jsonl"
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, wanted in ((0, spec["end_to_end"]),
                                  (1, spec["per_layer"])):
                label = f"{workload} trace {trace}"
                proc = _run(spec["command"][1:] + [
                    "--workload", workload, "--seed", "7", "--seconds", "0.2",
                    "--trace", str(trace), "--scale", "tiny",
                    "--out", str(records)], ROOT)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    problems.append(f"{label}: exit {proc.returncode}: "
                                    f"{proc.stderr.strip()[-300:]}")
                    continue
                check_result(lines[-1], wanted, problems, label)
                print(f"ran {label}")

        proc = _run([str(HERE / "run.py"), "--compare", str(records),
                     str(records)], ROOT)
        rows = [ln for ln in proc.stdout.splitlines()
                if ln.split()[:1] and ln.split()[0] in
                {w["name"] for w in spec["workloads"]}]
        if proc.returncode != 0 or not rows:
            problems.append(f"compare: exit {proc.returncode}, "
                            f"{len(rows)} rows")
        print(f"compare printed {len(rows)} rows")

        bare = tmp / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(spec["command"][1:] + [
            "--workload", spec["workloads"][0]["name"], "--seed", "7",
            "--seconds", "1", "--trace", "0"], bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without src/tosca the command must fail "
                            "without printing a result")
        print(f"without sources: exit {proc.returncode}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
