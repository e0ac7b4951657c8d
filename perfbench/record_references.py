"""Record the reference outputs that ``checks.py`` compares against.

Usage (from the repository root)::

    python3 perfbench/record_references.py --seeds 0-9

For each workload and seed this generates the inputs, runs the command
sequence once through ``carpnet.cli.run``, checks every output's invariants
and writes a fingerprint of each to ``perfbench/references.json``. Record
again only when an output is meant to change; Monte Carlo tables are
expected to stay bit-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS, blas_env, command_argv, generate_argv, output_name

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()


def seeds_of(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="0-9", help="seed range LOW-HIGH")
    args = parser.parse_args()
    os.environ.update(blas_env())  # as in run.py, before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    from carpnet import cli

    from checks import Checker, fingerprint

    references: dict = {}
    work = BENCH / "_work" / "record"
    for workload in WORKLOADS.values():
        for seed in seeds_of(args.seeds):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            network, panel = str(work / "net.json"), str(work / "panel.csv")
            if cli.run(generate_argv(workload, seed, network, panel)) != 0:
                raise SystemExit(f"generate failed for {workload.name} seed {seed}")
            checker = Checker(workload, seed, network, panel)
            entry = {}
            for command in workload.commands:
                output = str(work / output_name(command))
                if cli.run(command_argv(workload, command, network, panel, output, seed)) != 0:
                    raise SystemExit(f"{command.name} failed for {workload.name} seed {seed}")
                problems = checker.check(command.name, output)
                if problems:
                    raise SystemExit(f"{workload.name} seed {seed}: {problems}")
                entry[command.name] = fingerprint(command.name, output)
            references.setdefault(workload.name, {})[str(seed)] = entry
            print(f"recorded {workload.name} seed {seed}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    (BENCH / "references.json").write_text(dump(references), encoding="utf-8")
    return 0


def dump(references: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for workload, seeds in sorted(references.items()):
        lines = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}" for seed, entry in seeds.items())
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
