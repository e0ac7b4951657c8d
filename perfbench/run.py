"""carpnet benchmark: the analyst's CLI pipeline on generated networks.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-r30 --seed 1 --seconds 40 --trace 0

The inputs come from ``carpnet generate`` with the workload seed and are not
timed. ``setup_s`` is the median wall time of several fresh processes that
import carpnet and load the network and panel. A fresh worker process then
runs the workload's command sequence as a closed loop for ``--seconds``
(see ``worker.py``) and every distinct output is checked (see ``checks.py``).

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
holds the per-layer metrics from a traced run instead. Lines before it give
the environment, every metric computed (with those a workload has beyond the
shared set, and ``error_rate``) and any failed check. Exit code 0 when the
benchmark ran, whether or not the outputs were correct; 1 when it could not
measure (inputs not generated, worker crashed); 2 when the repository is not
there to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from workloads import BLAS_THREADS, WORKLOADS, blas_env, generate_argv, toy

BENCH = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0


def layer_unit(name: str) -> str:
    if name.endswith("_us") or "_us_" in name:
        return "us"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_ns", "ns")):
        if name.endswith(suffix) or f"{suffix}_" in name:
            return unit
    if name.endswith("_per_cell_step"):
        return "ns"
    return "ratio" if name.endswith("speedup") else "count"


def cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", **blas_env())
    env.pop("CARPNET_THREADS", None)
    return env


def remaining(started: float) -> float:
    return TIME_LIMIT_S - (perf_counter() - started)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--corrupt", metavar="COMMAND", help="self-test: damage this command's output before checking")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = perf_counter()
    os.environ.update(blas_env())  # for the checks, which load numpy in this process
    root = Path.cwd()
    if not (root / "src" / "carpnet" / "__init__.py").is_file():
        print(f"error: no carpnet sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    spec_file = root / "BENCHMARK.json"
    declared = json.loads(spec_file.read_text(encoding="utf-8")) if spec_file.is_file() else {}
    workload = toy(WORKLOADS[args.workload]) if args.toy else WORKLOADS[args.workload]
    env = child_env(root)
    work = BENCH / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, workload, root, env, work, declared, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, root, env, work, declared, started) -> int:
    network, panel = str(work / "net.json"), str(work / "panel.csv")
    generate = [sys.executable, "-m", "carpnet", *generate_argv(workload, args.seed, network, panel)]
    done = subprocess.run(generate, env=env, cwd=root, capture_output=True, text=True, timeout=remaining(started))
    if done.returncode != 0:
        print(f"error: input generation failed ({done.returncode}): {done.stderr.strip()}", file=sys.stderr)
        return 1

    spec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
        "toy": args.toy, "workdir": str(work), "network": network, "panel": panel,
    }
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        # A new process group, so that a timeout also stops the set-up process it may be waiting on.
        worker = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(work / "spec.json")], env=env,
                                  cwd=root, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = worker.wait(timeout=remaining(started) - 10)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
            code = "timeout"
    if code != 0:
        print((work / "worker.log").read_text(encoding="utf-8")[-4000:], file=sys.stderr)
        print(f"error: worker failed ({code})", file=sys.stderr)
        return 1
    result = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    invocations = result["invocations"]
    if args.corrupt:
        corrupt(next(i["table"] for i in invocations if i["command"] == args.corrupt and i["table"]))

    sys.path.insert(0, str(root / "src"))
    from checks import Checker, check_invocations

    references = {} if args.toy else load_references().get(args.workload, {}).get(str(args.seed), {})
    failures = check_invocations(invocations, Checker(workload, args.seed, network, panel), references)

    attempted, failed = len(invocations), len(failures)
    metrics = end_to_end(invocations, result["setups"], result["peak_rss_mb"])
    metrics["error_rate"] = (failed / attempted, "ratio")
    if args.trace:
        metrics.update({name: (value, layer_unit(name)) for name, value in result["per_layer"].items()})
        untraced = sum(median(seconds) for seconds in per_command(invocations, traced=False).values())
        traced = sum(median(seconds) for seconds in per_command(invocations, traced=True).values())
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        trace_dir = BENCH / "_work" / "traces"
        trace_dir.mkdir(exist_ok=True)
        spans = trace_dir / f"{args.workload}-s{args.seed}.spans.csv"
        shutil.move(str(work / "spans.csv"), spans)
        print(f"spans written to {spans.relative_to(root)}")

    env_record = environment()
    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {result['passes']} passes, "
          f"{attempted} commands attempted, {failed} failed, references "
          f"{'compared' if references else 'not recorded for this seed'}")
    for line in failures[:20]:
        print("FAILED " + line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")

    wanted = declared.get("per_layer" if args.trace else "end_to_end", [])
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics declared in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 1
    chosen = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted}
    results = BENCH / "_work" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"environment": env_record, "metrics": {k: v for k, (v, _) in metrics.items()},
                    "failures": failures, "passes": result["passes"]}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": chosen}))
    return 0


def per_command(invocations: list[dict], traced: bool) -> dict[str, list[float]]:
    seconds: dict[str, list[float]] = {}
    for inv in invocations:
        if inv["traced"] == traced and inv["command"] != "generate":
            seconds.setdefault(inv["command"], []).append(inv["seconds"])
    return seconds


def end_to_end(invocations, setups, peak_rss_mb) -> dict[str, tuple[float, str]]:
    setup_s = median(setups)
    commands = {c: median(s) for c, s in per_command(invocations, traced=False).items()}
    metrics = {"setup_s": (setup_s, "s")}
    for command, seconds in commands.items():
        metrics[command.replace("-", "_") + "_s"] = (seconds, "s")
    metrics["pipeline_s"] = (setup_s + sum(commands.values()), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def load_references() -> dict:
    path = BENCH / "references.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def corrupt(table: str) -> None:
    """Self-test hook: make one output wrong the way a broken program would."""
    path = Path(table)
    if path.suffix == ".json":
        document = json.loads(path.read_text(encoding="utf-8"))
        document["result"]["log_likelihood"] = -1e300
        path.write_text(json.dumps(document), encoding="utf-8")
        return
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [i for i, line in enumerate(lines) if i > 0 and not line.startswith("inf,")]
    cells = lines[body[-1]].split(",")
    cells[-1] = "-7.0"
    lines[body[-1]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
