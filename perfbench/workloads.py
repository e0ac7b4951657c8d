"""Workload definitions: one generated network and one command sequence each.

A workload is a closed loop of ``carpnet`` subcommands run one after the
other on inputs made by ``carpnet generate`` from the workload seed. Every
command is a full CLI call (argument parsing, file loads, compute, table and
sidecar writes). Commands that finish in well under a second are repeated
``reps`` times per pass so that their median is steady.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

ALPHA, BETA, GAMMA = "5.3e-3", "3e-3", "2.5"
LIKELIHOOD_RANGE = ("0.5", "0.8")
PARAM_ARGS = ("--alpha", ALPHA, "--beta", BETA, "--gamma", GAMMA)

# Subcommands that accept --threads; the benchmark pins them to one thread.
THREADED = {"fit", "simulate", "temporal-influence", "influence", "category-influence"}

# One BLAS thread: at these matrix sizes a second OpenBLAS thread does not
# pay, and on a 2-core box its spinning slows the interpreter (imports, fit
# and the short commands ran 25-35% slower with two) and makes timings noisier.
BLAS_THREADS = 1


def blas_env() -> dict[str, str]:
    return {name: str(BLAS_THREADS) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@dataclass(frozen=True)
class Command:
    name: str
    reps: int = 1
    runs: int = 0  # Monte Carlo runs, simulate and temporal-influence only
    horizon: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    edges: int
    panel_length: int
    commands: tuple[Command, ...]
    # Monte Carlo size of the --threads 1 / --threads 2 probe in traced runs.
    probe_runs: int = 20
    probe_horizon: int = 60
    source: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-r30",
            nodes=30,
            edges=275,
            panel_length=120,
            commands=(
                Command("fit"),
                Command("steady-state", reps=3),
                Command("transitions", reps=3),
                Command("simulate", runs=100, horizon=120),
                Command("temporal-influence", runs=50, horizon=60),
                Command("influence"),
                Command("category-influence"),
            ),
            probe_runs=60,
        ),
        Workload(
            name="knockout-r300",
            nodes=300,
            edges=4500,
            panel_length=120,
            commands=(
                Command("fit"),
                Command("steady-state", reps=6),
                Command("transitions", reps=6),
                Command("influence"),
                Command("category-influence"),
            ),
            probe_runs=20,
        ),
        Workload(
            name="sparse-r1000",
            nodes=1000,
            edges=5000,
            panel_length=240,
            commands=(
                Command("fit"),
                Command("steady-state", reps=3),
                Command("transitions", reps=3),
                Command("simulate", runs=10, horizon=120),
                Command("temporal-influence", runs=5, horizon=60),
            ),
            probe_runs=6,
        ),
    )
}


def toy(workload: Workload) -> Workload:
    """The same command sequence on a tiny network, for the self-test."""
    nodes = 12 if workload.nodes <= 30 else 20
    commands = tuple(
        replace(c, reps=1, runs=min(c.runs, 8), horizon=min(c.horizon, 10)) for c in workload.commands
    )
    return replace(
        workload, nodes=nodes, edges=2 * nodes, panel_length=24, commands=commands,
        probe_runs=4, probe_horizon=8,
    )


def generate_argv(workload: Workload, seed: int, network: str, panel: str) -> list[str]:
    return [
        "generate", "--nodes", str(workload.nodes), "--edges", str(workload.edges),
        "--likelihood-range", *LIKELIHOOD_RANGE, *PARAM_ARGS,
        "--panel-length", str(workload.panel_length), "--seed", str(seed),
        "--network-out", network, "--panel-out", panel,
    ]


def output_name(command: Command) -> str:
    return "fit.json" if command.name == "fit" else f"{command.name}.csv"


def command_argv(workload: Workload, command: Command, network: str, panel: str, output: str, seed: int) -> list[str]:
    argv = [command.name, "--network", network]
    if command.name == "fit":
        # The CLI's default restart seed: restarts from seed-dependent points would
        # add up to 25% of seed-to-seed spread in optimizer work to fit_s.
        argv += ["--panel", panel]
    else:
        argv += list(PARAM_ARGS)
    if command.name in ("simulate", "temporal-influence"):
        argv += ["--runs", str(command.runs), "--horizon", str(command.horizon), "--seed", str(seed)]
    if command.name == "temporal-influence":
        argv += ["--source", str(workload.source), "--baseline", "steady"]
    if command.name in THREADED:
        argv += ["--threads", "1"]
    return argv + ["--output", output]
