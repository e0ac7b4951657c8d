"""One workload's closed loop, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/worker.py SPEC.json``, with ``src`` on
``PYTHONPATH``. The spec names the workload, seed, time budget, trace flag
and the input files; the worker writes ``worker.json`` next to it.

One client issues one ``carpnet`` command after the next through
``carpnet.cli.run`` in-process, so each timing covers argument parsing, file
loads, compute, table writes and sha256 sidecars. Passes of the command
sequence repeat until the next one would overrun the time budget, with the
``SETUPS`` fresh set-up processes behind ``setup_s`` spread between them. Each
distinct output (by sha256 of table and sidecar) is kept aside for the
checks in ``run.py``; identical repeats are not copied again.

In a traced run untraced and traced passes alternate, so the tracing
overhead is measured in the same process. Before them run two direct layer
probes (300 calls of ``dynamics.step``, and ``simulate`` at ``--threads 1``
against ``--threads 2``) and one traced ``generate`` into a scratch copy.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter, perf_counter_ns

from workloads import WORKLOADS, command_argv, generate_argv, output_name, toy

SETUPS = 5
SETUP_CODE = "import sys, carpnet; carpnet.load_network(sys.argv[1]); carpnet.load_panel(sys.argv[2])"


def _digest(path: Path) -> str | None:
    if not path.exists():
        return None
    with open(path, "rb") as handle:  # streamed, so large tables do not raise peak RSS
        return hashlib.file_digest(handle, "sha256").hexdigest()


class Loop:
    def __init__(self, spec: dict, tracer=None) -> None:
        from carpnet import cli

        self.cli = cli
        self.spec = spec
        self.tracer = tracer
        workload = WORKLOADS[spec["workload"]]
        self.workload = toy(workload) if spec["toy"] else workload
        self.work = Path(spec["workdir"])
        self.out = self.work / "out"
        self.keep = self.work / "keep"
        self.out.mkdir(exist_ok=True)
        self.keep.mkdir(exist_ok=True)
        self.invocations: list[dict] = []
        self.kept: dict[tuple, str] = {}
        self.setups: list[float] = []

    def call(self, name: str, argv: list[str], output: Path, traced: bool, pass_index: int) -> None:
        if self.tracer is not None:
            self.tracer.run = len(self.invocations)
            self.tracer.enabled = traced
        start = perf_counter()
        try:
            code = self.cli.run(argv)
        except Exception as exc:  # a crash is a failed command, not a crashed benchmark
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
        seconds = perf_counter() - start
        if self.tracer is not None:
            self.tracer.enabled = False
        sidecar = Path(str(output) + ".meta.json")
        key = (name, _digest(output), _digest(sidecar))
        if key[1] is not None and key not in self.kept:
            stem = self.keep / f"{name}.{len(self.kept)}"
            shutil.copyfile(output, f"{stem}{output.suffix}")
            if key[2] is not None:
                shutil.copyfile(sidecar, f"{stem}{output.suffix}.meta.json")
            self.kept[key] = f"{stem}{output.suffix}"
        self.invocations.append(
            {
                "command": name, "pass": pass_index, "traced": traced, "seconds": seconds, "rc": code,
                "table": self.kept.get(key), "table_sha256": key[1], "sidecar_sha256": key[2],
            }
        )
        for path in (output, sidecar):
            if path.exists():
                path.unlink()

    def one_pass(self, pass_index: int, traced: bool) -> None:
        spec = self.spec
        for command in self.workload.commands:
            output = self.out / output_name(command)
            argv = command_argv(self.workload, command, spec["network"], spec["panel"], str(output), spec["seed"])
            for _ in range(command.reps):
                self.call(command.name, argv, output, traced, pass_index)

    def setup(self) -> None:
        """Time one fresh process that imports carpnet and loads the inputs."""
        begin = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, self.spec["network"], self.spec["panel"]], check=True)
        self.setups.append(perf_counter() - begin)

    def run(self) -> int:
        """Alternate untraced (and, when tracing, traced) passes until the budget is spent.

        The ``SETUPS`` fresh-process set-ups are spread over the budget
        between passes, so that they sample the same machine conditions as
        the commands.
        """
        begin = perf_counter()
        budget = self.spec["seconds"]
        marks = [begin + budget * (j + 0.5) / SETUPS for j in range(SETUPS)]
        passes = 0
        while True:
            started = perf_counter()
            # Traced runs alternate which kind of pass goes first, so warm-up and
            # drift fall on both sides of the tracing overhead.
            kinds = ((False, True), (True, False))[passes % 2] if self.tracer is not None else (False,)
            for traced in kinds:
                self.one_pass(passes, traced)
            passes += 1
            took = perf_counter() - started
            while marks and perf_counter() >= marks[0]:
                marks.pop(0)
                self.setup()
            if perf_counter() + took > begin + budget:
                break
        for _ in marks:
            self.setup()
        return passes


def probe_step(network, params, seed: int, calls: int = 300) -> dict:
    from carpnet import NetworkState, philox_stream, step

    network.adjacency_matrix  # built once, outside the timed calls
    state, rng, times = NetworkState.dormant(network.size), philox_stream(seed, 0), []
    for _ in range(calls):
        start = perf_counter_ns()
        state = step(state, network, params, rng)
        times.append((perf_counter_ns() - start) / 1e3)
    deciles = quantiles(times, n=10)
    return {"step_us_p50": median(times), "step_us_p90": deciles[8]}


def probe_threads(network, params, workload, seed: int, rounds: int = 3) -> float:
    from carpnet import SimulationConfig, simulate

    seconds = {1: [], 2: []}
    for _ in range(rounds):
        for threads in (1, 2):
            config = SimulationConfig(
                runs=workload.probe_runs, horizon=workload.probe_horizon, seed=seed, threads=threads
            )
            start = perf_counter()
            simulate(network, params, config)
            seconds[threads].append(perf_counter() - start)
    return median(seconds[1]) / median(seconds[2])


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = None
    if spec["trace"]:
        import carpnet.cli  # noqa: F401  load every module before patching
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    loop = Loop(spec, tracer)
    result: dict = {}
    if tracer is None:
        result["passes"] = loop.run()
    else:
        from carpnet import ModelParams, load_network
        from layers import per_layer
        from workloads import ALPHA, BETA, GAMMA

        network = load_network(spec["network"])
        params = ModelParams(float(ALPHA), float(BETA), float(GAMMA))
        probes = probe_step(network, params, spec["seed"])
        probes["threads2_speedup"] = probe_threads(network, params, loop.workload, spec["seed"])
        copy = loop.work / "generated"
        copy.mkdir(exist_ok=True)
        argv = generate_argv(loop.workload, spec["seed"], str(copy / "net.json"), str(copy / "panel.csv"))
        loop.call("generate", argv, copy / "panel.csv", True, -1)
        result["passes"] = loop.run()
        tracer.uninstall()
        result["per_layer"] = per_layer(tracer.spans, loop.invocations, loop.workload, probes)
        tracer.write(str(loop.work / "spans.csv"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["invocations"] = loop.invocations
    result["setups"] = loop.setups
    Path(spec["workdir"], "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
