"""Self-test of the benchmark at toy size.

Usage (from the repository root): ``python3 perfbench/selftest.py``

* Every workload, untraced and traced, prints every metric named in
  ``BENCHMARK.json`` with its unit, in the report lines and in the JSON line,
  and reports correct outputs.
* A deliberately corrupted output table of each checked kind drives
  ``error_rate`` above 0 and ``correct`` to false.
* In a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def toy_run(workload: str, *extra: str, trace: int = 0) -> tuple[dict, str]:
    done = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy", *extra)
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    return result, done.stdout


def reported(stdout: str) -> dict[str, tuple[float, str]]:
    lines = (line.split() for line in stdout.splitlines() if line.startswith("metric "))
    return {name: (float(value), unit) for _, name, value, unit in lines}


def check_metrics(workload: str) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, stdout = toy_run(workload, trace=trace)
        want = {m["name"]: m["unit"] for m in declared[kind]}
        got = {name: value["unit"] for name, value in result["metrics"].items()}
        assert got == want, f"{workload} {kind}: {sorted(set(got) ^ set(want))} or units differ"
        lines = reported(stdout)
        for name, unit in want.items():
            assert lines.get(name, (None, None))[1] == unit, f"{workload}: no report line for {name} in {unit}"
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        assert lines["error_rate"] == (0.0, "ratio"), lines["error_rate"]
        if trace == 0:
            zero = [name for name, value in result["metrics"].items() if not value["value"] > 0]
            assert not zero, f"{workload}: end-to-end metrics not above 0: {zero}"
        print(f"ok {workload} trace={trace}: {len(want)} metrics, {result['attempted']} commands")


def check_corruption() -> None:
    for workload, command in (
        ("paper-r30", "fit"), ("paper-r30", "steady-state"), ("paper-r30", "transitions"),
        ("paper-r30", "simulate"), ("paper-r30", "temporal-influence"), ("paper-r30", "influence"),
        ("paper-r30", "category-influence"),
    ):
        result, stdout = toy_run(workload, "--corrupt", command)
        error_rate = reported(stdout)["error_rate"][0]
        assert not result["correct"] and result["failed"] > 0 and error_rate > 0, (command, result)
        print(f"ok corrupted {command}: error_rate {error_rate:.3g}")


def check_bare_directory() -> None:
    bare = BENCH / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        done = bench("--workload", "paper-r30", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0, "benchmark ran without sources"
        assert not any(line.startswith("{") for line in done.stdout.splitlines()), done.stdout
        print(f"ok bare directory: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in declared["workloads"]:
        check_metrics(workload["name"])
    check_corruption()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
