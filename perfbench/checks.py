"""Output checks: per-command invariants and recorded references.

Every command must exit 0 and write its table and its sidecar (``fit`` writes
one JSON document). Invariants, checked on every distinct output:

* ``fit``: the log-likelihood is finite and not below the one at the init point;
* ``steady-state``: ``stationarity_residual`` <= 1e-8 and every p in [0, 1];
* ``transitions``: ``a_int + a_ext + a_rec`` = 1 per risk within 1e-9, and no
  rate, fraction or ratio is negative;
* ``simulate``: every frequency is an exact multiple of 1/runs in [0, 1];
* ``temporal-influence``: one row per step, differences in [-1, 1];
* ``influence``: zero diagonal, and one seeded row equals a direct
  ``knockout`` + ``fixed_point`` recomputation within 1e-9;
* ``category-influence``: the normalized matrix spans [0, 1].

For the seeds listed in ``references.json`` the outputs are also compared
with the recorded ones: Monte Carlo tables by sha256 (the bit-identity
contract; the simulate table without its mean-field ``inf`` row),
deterministic tables by a numeric fingerprint within 1e-9, and ``fit`` by
its log-likelihood, which may improve but not fall.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

TOL = 1e-9
STATIONARITY_TOL = 1e-8
SAMPLES = 8

# Numeric columns fingerprinted per deterministic table.
NUMERIC = {
    "steady-state": ("p_hat",),
    "transitions": ("a_int", "a_ext", "a_rec", "raw_int", "raw_ext", "raw_rec", "ratio_exact", "ratio_taylor"),
    "influence": ("influence",),
    "category-influence": ("raw", "normalized"),
}


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def read_sidecar(path: str) -> dict:
    return json.loads(Path(path + ".meta.json").read_text(encoding="utf-8"))


def _columns(header: list[str], rows: list[list[str]], names) -> list[list[float]]:
    index = [header.index(name) for name in names]
    return [[float(row[i]) for i in index] for row in rows]


def fingerprint(command: str, table: str) -> dict:
    """Compact reference of one output table."""
    if command == "fit":
        return {"log_likelihood": json.loads(Path(table).read_text())["result"]["log_likelihood"]}
    if command == "temporal-influence":
        return {"sha256": hashlib.sha256(Path(table).read_bytes()).hexdigest()}
    header, rows = read_table(table)
    if command == "simulate":
        body = [row for row in rows if row[0] != "inf"]
        text = "\n".join(",".join(row) for row in [header, *body]) + "\n"
        inf = [[float(v) for v in row[1:]] for row in rows if row[0] == "inf"]
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "inf": _numeric(inf)}
    return _numeric(_columns(header, rows, NUMERIC[command]))


def _numeric(matrix: list[list[float]]) -> dict:
    cells = [(i, j, v) for i, row in enumerate(matrix) for j, v in enumerate(row)]
    picks = random.Random(0).sample(cells, min(SAMPLES, len(cells)))
    return {
        "cells": len(cells),
        "sum": math.fsum(v for _, _, v in cells),
        "weighted_sum": math.fsum(v * (1 + (7 * i + 3 * j) % 11) for i, j, v in cells),
        "samples": [list(p) for p in picks],
    }


def _compare_numeric(got: dict, ref: dict, what: str) -> list[str]:
    if got["cells"] != ref["cells"]:
        return [f"{what}: {got['cells']} cells, reference has {ref['cells']}"]
    problems = []
    for key, weight in (("sum", 1), ("weighted_sum", 11)):
        limit = TOL * weight * max(1, ref["cells"]) * max(1.0, abs(ref[key]) / max(1, ref["cells"]))
        if abs(got[key] - ref[key]) > limit:
            problems.append(f"{what}: {key} {got[key]!r} differs from reference {ref[key]!r}")
    for (i, j, want), (_, _, have) in zip(ref["samples"], got["samples"]):
        if abs(have - want) > TOL * max(1.0, abs(want)):
            problems.append(f"{what}: cell ({i}, {j}) is {have!r}, reference {want!r}")
    return problems


def compare(command: str, got: dict, ref: dict) -> list[str]:
    if command == "fit":
        want = ref["log_likelihood"]
        if got["log_likelihood"] < want - TOL * max(1.0, abs(want)):
            return [f"fit log-likelihood {got['log_likelihood']!r} below reference {want!r}"]
        return []
    if command == "temporal-influence":
        return [] if got["sha256"] == ref["sha256"] else ["temporal-influence table differs from reference"]
    if command == "simulate":
        problems = [] if got["sha256"] == ref["sha256"] else ["simulate table differs from reference"]
        return problems + _compare_numeric(got["inf"], ref["inf"], "simulate inf row")
    return _compare_numeric(got, ref, command)


class Checker:
    """Invariant checks for one workload's outputs, sharing one loaded network."""

    def __init__(self, workload, seed: int, network_path: str, panel_path: str) -> None:
        from carpnet import ModelParams, load_network
        from workloads import ALPHA, BETA, GAMMA

        self.seed = seed
        self.network = load_network(network_path)
        self.panel_path = panel_path
        self.params = ModelParams(float(ALPHA), float(BETA), float(GAMMA))
        self.commands = {c.name: c for c in workload.commands}

    def check(self, command: str, table: str) -> list[str]:
        handler = getattr(self, "_" + command.replace("-", "_"))
        try:
            return handler(table)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{command}: unreadable output: {type(exc).__name__}: {exc}"]

    def _fit(self, table: str) -> list[str]:
        from carpnet import ModelParams, PanelStats, load_panel

        document = json.loads(Path(table).read_text(encoding="utf-8"))
        got = document["result"]["log_likelihood"]
        init = ModelParams(**document["options"]["init"])
        floor = PanelStats(load_panel(self.panel_path), self.network).log_likelihood(init)
        if not math.isfinite(got) or got < floor - TOL * max(1.0, abs(floor)):
            return [f"fit log-likelihood {got!r} below the init point's {floor!r}"]
        return []

    def _steady_state(self, table: str) -> list[str]:
        result = read_sidecar(table)["result"]
        header, rows = read_table(table)
        problems = []
        if result["stationarity_residual"] > STATIONARITY_TOL:
            problems.append(f"steady-state stationarity residual {result['stationarity_residual']!r}")
        if len(rows) != self.network.size or not all(0.0 <= p <= 1.0 for (p,) in _columns(header, rows, ["p_hat"])):
            problems.append("steady-state table has wrong rows or p outside [0, 1]")
        return problems

    def _transitions(self, table: str) -> list[str]:
        read_sidecar(table)
        header, rows = read_table(table)
        sums = [a + b + c for a, b, c in _columns(header, rows, ["a_int", "a_ext", "a_rec"])]
        if len(rows) != self.network.size or any(abs(s - 1.0) > TOL for s in sums):
            return ["transitions fractions do not sum to 1 per risk"]
        if any(v < 0.0 for row in _columns(header, rows, NUMERIC["transitions"]) for v in row):
            return ["transitions has a negative rate, fraction or ratio"]
        return []

    def _simulate(self, table: str) -> list[str]:
        read_sidecar(table)
        command = self.commands["simulate"]
        header, rows = read_table(table)
        body = [row for row in rows if row[0] != "inf"]
        if [row[0] for row in body] != [str(t) for t in range(command.horizon)]:
            return ["simulate table has wrong time rows"]
        for row in body:
            for cell in row[1:]:
                value = float(cell) * command.runs
                if not (0.0 <= float(cell) <= 1.0) or abs(value - round(value)) > TOL * command.runs:
                    return [f"simulate frequency {cell} is not a multiple of 1/{command.runs}"]
        return []

    def _temporal_influence(self, table: str) -> list[str]:
        read_sidecar(table)
        command = self.commands["temporal-influence"]
        _, rows = read_table(table)
        if [row[0] for row in rows] != [str(t) for t in range(command.horizon)]:
            return ["temporal-influence table has wrong time rows"]
        if any(cell and not -1.0 <= float(cell) <= 1.0 for row in rows for cell in row[1:]):
            return ["temporal-influence difference outside [-1, 1]"]
        return []

    def _influence(self, table: str) -> list[str]:
        from carpnet import fixed_point, knockout, transition_fractions

        read_sidecar(table)
        header, rows = read_table(table)
        size = self.network.size
        values = [v for (v,) in _columns(header, rows, ["influence"])]
        if len(values) != size * size:
            return [f"influence table has {len(values)} rows, expected {size * size}"]
        if any(values[i * size + i] != 0.0 for i in range(size)):
            return ["influence diagonal is not zero"]
        row = random.Random(self.seed).randrange(size)
        base = fixed_point(self.network, self.params)
        reduced = knockout(self.network, row)
        knocked = fixed_point(reduced, self.params)
        want = transition_fractions(base, self.network, self.params).a_ext - transition_fractions(
            knocked, reduced, self.params
        ).a_ext
        want[row] = 0.0
        worst = max(abs(values[row * size + j] - want[j]) for j in range(size))
        if worst > TOL:
            return [f"influence row {row} differs from a direct knockout solve by {worst:.3e}"]
        return []

    def _category_influence(self, table: str) -> list[str]:
        read_sidecar(table)
        header, rows = read_table(table)
        normalized = [v for (v,) in _columns(header, rows, ["normalized"])]
        if not normalized or min(normalized) != 0.0 or max(normalized) not in (0.0, 1.0):
            return ["category-influence normalized matrix does not span [0, 1]"]
        return []


def check_invocations(invocations: list[dict], checker: Checker, references: dict) -> list[str]:
    """One line per failed CLI call: non-zero exit, missing output, or a failed check.

    Identical outputs share one verdict; a call whose output differs from the
    first call of the same command (same inputs) fails on that account too.
    """
    verdicts: dict[str, list[str]] = {}
    first: dict[str, tuple] = {}
    failures = []
    for inv in invocations:
        command, table = inv["command"], inv["table"]
        problems = []
        if inv["rc"] != 0:
            problems.append(f"exit code {inv['rc']}")
        elif table is None or (command != "fit" and inv["sidecar_sha256"] is None):
            problems.append("missing table or sidecar")
        elif command != "generate":
            digest = (inv["table_sha256"], inv["sidecar_sha256"])
            if first.setdefault(command, digest) != digest:
                problems.append("output differs from an earlier call with the same inputs")
            if table not in verdicts:
                found = checker.check(command, table)
                if command in references and not found:
                    found = compare(command, fingerprint(command, table), references[command])
                verdicts[table] = found
            problems += verdicts[table]
        if problems:
            failures.append(f"{command} (pass {inv['pass']}): " + "; ".join(problems))
    return failures
