"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload at ``--size tiny`` with and without tracing and checks
that the result line has exactly the contract's keys and every metric of
BENCHMARK.json with its unit; that the only failure is the known
``QuadratureError`` of the |2 - 3t + 2t^2|^2 tower job; that a wrong
reference value (``--oracle-shift``) turns every checked job into a failure
and the run incorrect; and that outside a torsionlab checkout the benchmark
exits non-zero without printing a result.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
KNOWN_FAILURES = {"tower": 1}   # jobs per pass that raise QuadratureError


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
            workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_metrics(result: dict, trace: int) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        missing = {m["name"] for m in wanted} ^ set(got)
        raise AssertionError(f"metric names differ from BENCHMARK.json: {missing}")
    for metric in wanted:
        entry = got[metric["name"]]
        if entry["unit"] != metric["unit"] or not isinstance(
                entry["value"], (int, float)) or isinstance(entry["value"], bool):
            raise AssertionError(f"{metric['name']}: {entry!r}")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            detail, result = result_of(run(workload, trace))
            check_metrics(result, trace)
            passes = detail.get("passes") or (
                detail["untraced_passes"] + detail["traced_passes"])
            expected = KNOWN_FAILURES.get(workload, 0) * passes
            if not result["correct"] or result["failed"] != expected:
                raise AssertionError(
                    f"{workload} trace {trace}: correct={result['correct']} "
                    f"failed={result['failed']} (expected {expected}): "
                    f"{detail['problems']}")
            print(f"ok   {workload} trace {trace}: {result['attempted']} jobs, "
                  f"{len(result['metrics'])} metrics")
        detail, result = result_of(run(workload, 0, "--oracle-shift", "1e-3"))
        if result["correct"] or result["failed"] != result["attempted"]:
            raise AssertionError(
                f"{workload}: a wrong reference was not caught: {result}")
        print(f"ok   {workload}: wrong reference caught in "
              f"{result['failed']}/{result['attempted']} jobs")

    bare = HERE / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run("regular", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("the benchmark ran without a checkout")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   outside a checkout: exit", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}")
        raise SystemExit(1)
