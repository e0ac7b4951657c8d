"""Command-line interface: outputs, determinism, exit codes."""

import csv
import dataclasses
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import ModuleType, SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carpnet import (
    ModelParams,
    RiskNetwork,
    SimulationConfig,
    SteadyState,
    ValidationError,
    fixed_point,
    load_network,
    load_panel,
    save_network,
    simulate,
)
import carpnet
from carpnet import cli
from carpnet.cli import run
from carpnet.utils import atomic_open
from tests.helpers import make_network, per_entry_network


def _generate(tmp_path, seed=11, nodes=10, edges=20, panel_length=40):
    network = tmp_path / "net.json"
    panel = tmp_path / "panel.csv"
    code = run(
        [
            "generate",
            "--nodes", str(nodes),
            "--edges", str(edges),
            "--likelihood-range", "0.45", "0.8",
            "--alpha", "6e-3",
            "--beta", "3e-3",
            "--gamma", "2.5",
            "--panel-length", str(panel_length),
            "--seed", str(seed),
            "--initial-state", "active",
            "--network-out", str(network),
            "--panel-out", str(panel),
        ]
    )
    assert code == 0
    return network, panel


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


PARAM_FLAGS = ["--alpha", "6e-3", "--beta", "3e-3", "--gamma", "2.5"]


class TestGenerate:
    def test_writes_loadable_network_panel_and_sidecar(self, tmp_path):
        network, panel = _generate(tmp_path)
        net = load_network(network)
        loaded = load_panel(panel)
        assert net.size == 10
        assert net.edge_count == 20
        assert loaded.states.shape == (10, 40)
        meta = json.loads((tmp_path / "panel.csv.meta.json").read_text())
        assert meta["tool"] == "carpnet"
        assert meta["command"] == "generate"
        assert meta["options"]["seed"] == 11

    def test_start_label_is_applied(self, tmp_path):
        network = tmp_path / "net.json"
        panel = tmp_path / "panel.csv"
        code = run(
            [
                "generate",
                "--nodes", "4", "--edges", "3",
                *PARAM_FLAGS,
                "--panel-length", "3",
                "--start-label", "2016-12",
                "--network-out", str(network),
                "--panel-out", str(panel),
            ]
        )
        assert code == 0
        header, _ = _read_csv(panel)
        assert header == ["2016-12", "2017-01", "2017-02"]

    def test_infeasible_edge_count_exits_1(self, tmp_path, capsys):
        code = run(
            [
                "generate",
                "--nodes", "4", "--edges", "100",
                *PARAM_FLAGS,
                "--panel-length", "3",
                "--network-out", str(tmp_path / "n.json"),
                "--panel-out", str(tmp_path / "p.csv"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSteadyState:
    def test_output_and_reruns_are_bit_identical(self, tmp_path):
        network, _ = _generate(tmp_path)
        out = tmp_path / "steady.csv"
        argv = [
            "steady-state", "--network", str(network), *PARAM_FLAGS, "--output", str(out),
        ]
        assert run(argv) == 0
        first = out.read_bytes()
        first_meta = (tmp_path / "steady.csv.meta.json").read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "steady.csv.meta.json").read_bytes() == first_meta
        header, rows = _read_csv(out)
        assert header == ["risk", "name", "p_hat"]
        assert len(rows) == 10
        assert all(0.0 < float(row[2]) < 1.0 for row in rows)

    def test_sidecar_reports_convergence(self, tmp_path):
        network, _ = _generate(tmp_path)
        out = tmp_path / "steady.csv"
        assert run(["steady-state", "--network", str(network), *PARAM_FLAGS, "--output", str(out)]) == 0
        meta = json.loads((tmp_path / "steady.csv.meta.json").read_text())
        assert meta["result"]["converged"] is True
        assert meta["result"]["stationarity_residual"] <= 1e-9
        assert "network" in meta["inputs"]

    def test_exhausted_iterations_exit_3(self, tmp_path, capsys):
        network, _ = _generate(tmp_path)
        code = run(
            [
                "steady-state", "--network", str(network), *PARAM_FLAGS,
                "--max-iter", "1", "--output", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        network, _ = _generate(tmp_path)
        out = tmp_path / "steady.json"
        assert run(
            ["steady-state", "--network", str(network), *PARAM_FLAGS, "--output", str(out), "--format", "json"]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["risk", "name", "p_hat"]
        assert len(payload["rows"]) == 10


class TestTransitions:
    def test_fractions_sum_to_one_per_row(self, tmp_path):
        network, _ = _generate(tmp_path)
        out = tmp_path / "transitions.csv"
        assert run(["transitions", "--network", str(network), *PARAM_FLAGS, "--output", str(out)]) == 0
        header, rows = _read_csv(out)
        a_int, a_ext, a_rec = header.index("a_int"), header.index("a_ext"), header.index("a_rec")
        for row in rows:
            total = float(row[a_int]) + float(row[a_ext]) + float(row[a_rec])
            assert total == pytest.approx(1.0, abs=1e-12)
        meta = json.loads((tmp_path / "transitions.csv.meta.json").read_text())
        assert 0.0 < meta["result"]["mean_internal_share"] < 1.0

    def test_ratio_underflow_exits_1_naming_the_risk(self, tmp_path, capsys):
        network = tmp_path / "net.json"
        save_network(make_network([0.6, 0.01, 0.7], [(0, 1), (1, 2)]), network)
        out = tmp_path / "transitions.csv"
        argv = ["transitions", "--network", str(network), "--alpha", "5e-324", "--beta", "3e-3",
                "--gamma", "2.5", "--output", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: internal activation probability underflowed to zero for risk 1\n"
        assert not out.exists()


class TestSimulate:
    def _argv(self, network, out, threads=None):
        argv = [
            "simulate", "--network", str(network), *PARAM_FLAGS,
            "--runs", "60", "--horizon", "25", "--seed", "5",
            "--initial-state", "active", "--output", str(out),
        ]
        if threads is not None:
            argv += ["--threads", str(threads)]
        return argv

    def test_thread_counts_and_reruns_are_bit_identical(self, tmp_path):
        network, _ = _generate(tmp_path)
        out_serial = tmp_path / "sim1.csv"
        out_again = tmp_path / "sim2.csv"
        out_threaded = tmp_path / "sim3.csv"
        assert run(self._argv(network, out_serial, threads=1)) == 0
        assert run(self._argv(network, out_again, threads=1)) == 0
        assert run(self._argv(network, out_threaded, threads=4)) == 0
        assert out_serial.read_bytes() == out_again.read_bytes()
        assert out_serial.read_bytes() == out_threaded.read_bytes()

    def test_final_row_is_the_mean_field_point(self, tmp_path):
        network, _ = _generate(tmp_path)
        out = tmp_path / "sim.csv"
        assert run(self._argv(network, out)) == 0
        header, rows = _read_csv(out)
        assert header[0] == "t"
        assert rows[-1][0] == "inf"
        values = [float(v) for v in rows[-1][1:]]
        assert all(0.0 < v < 1.0 for v in values)
        assert rows[0][0] == "0"
        assert all(float(v) == 1.0 for v in rows[0][1:])  # started all active

    def test_env_variable_sets_default_threads(self, tmp_path, monkeypatch):
        network, _ = _generate(tmp_path)
        out_env = tmp_path / "sim_env.csv"
        out_flag = tmp_path / "sim_flag.csv"
        monkeypatch.setenv("CARPNET_THREADS", "3")
        assert run(self._argv(network, out_env)) == 0
        monkeypatch.delenv("CARPNET_THREADS")
        assert run(self._argv(network, out_flag, threads=3)) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()
        # thread count changes execution, never outputs, so it stays out of the sidecar
        meta = json.loads((tmp_path / "sim_env.csv.meta.json").read_text())
        assert "threads" not in meta["options"]

    def test_bad_env_variable_exits_1(self, tmp_path, monkeypatch, capsys):
        network, _ = _generate(tmp_path)
        monkeypatch.setenv("CARPNET_THREADS", "many")
        assert run(self._argv(network, tmp_path / "sim.csv")) == 1
        assert "CARPNET_THREADS" in capsys.readouterr().err


class TestFit:
    def test_writes_result_document(self, tmp_path):
        network, panel = _generate(tmp_path, panel_length=60)
        out = tmp_path / "fit.json"
        code = run(
            [
                "fit", "--network", str(network), "--panel", str(panel),
                "--starts", "1", "--max-iter", "600", "--seed", "3",
                "--output", str(out),
            ]
        )
        assert code in (0, 3)
        doc = json.loads(out.read_text())
        assert set(doc["result"]) >= {
            "alpha", "beta", "gamma", "log_likelihood", "iterations", "converged", "degenerate",
        }
        assert doc["result"]["alpha"] > 0.0
        assert doc["inputs"].keys() == {"network", "panel"}

    def test_deterministic_given_seed(self, tmp_path):
        network, panel = _generate(tmp_path, panel_length=60)
        out_a = tmp_path / "fit_a.json"
        out_b = tmp_path / "fit_b.json"
        argv = [
            "fit", "--network", str(network), "--panel", str(panel),
            "--starts", "1", "--max-iter", "600", "--seed", "3",
        ]
        run(argv + ["--output", str(out_a)])
        run(argv + ["--output", str(out_b)])
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["result"] == b["result"]


class TestInfluenceCommands:
    def test_influence_emits_all_ordered_pairs(self, tmp_path):
        network, _ = _generate(tmp_path, nodes=6, edges=8)
        out = tmp_path / "influence.csv"
        assert run(["influence", "--network", str(network), *PARAM_FLAGS, "--output", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["source", "target", "influence"]
        assert len(rows) == 36
        diag = [row for row in rows if row[0] == row[1]]
        assert all(float(row[2]) == 0.0 for row in diag)

    def test_category_influence_covers_present_categories(self, tmp_path):
        network, _ = _generate(tmp_path, nodes=10, edges=20)
        out = tmp_path / "cats.csv"
        assert run(["category-influence", "--network", str(network), *PARAM_FLAGS, "--output", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["source_category", "target_category", "raw", "normalized"]
        assert len(rows) == 25  # ten risks split over all five categories
        assert all(0.0 <= float(row[3]) <= 1.0 for row in rows)


class TestTemporalInfluence:
    def test_curves_are_written(self, tmp_path):
        network, _ = _generate(tmp_path)
        out = tmp_path / "temporal.csv"
        code = run(
            [
                "temporal-influence", "--network", str(network), *PARAM_FLAGS,
                "--source", "0", "--runs", "40", "--horizon", "15", "--seed", "2",
                "--output", str(out),
            ]
        )
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["t", "one_hop", "two_hop"]
        assert len(rows) == 15
        assert float(rows[0][1]) == 0.0
        meta = json.loads((tmp_path / "temporal.csv.meta.json").read_text())
        assert meta["result"]["one_hop_ids"]

    def test_unconverged_steady_baseline_exits_3(self, tmp_path, capsys, monkeypatch):
        network, _ = _generate(tmp_path)
        unconverged = SteadyState(np.full(10, 0.5), iterations=1, residual=1.0, converged=False)
        monkeypatch.setattr("carpnet.montecarlo.fixed_point", lambda network, params: unconverged)
        code = run(
            [
                "temporal-influence", "--network", str(network), *PARAM_FLAGS, "--source", "0",
                "--runs", "4", "--horizon", "3", "--baseline", "steady", "--output", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 3
        assert capsys.readouterr().err == "error: steady baseline requires a converged mean-field solve\n"
        assert not (tmp_path / "t.csv").exists()


class TestExitCodes:
    def test_missing_network_file_exits_1(self, tmp_path, capsys):
        code = run(
            ["steady-state", "--network", str(tmp_path / "nope.json"), *PARAM_FLAGS,
             "--output", str(tmp_path / "o.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_network_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = run(
            ["steady-state", "--network", str(bad), *PARAM_FLAGS, "--output", str(tmp_path / "o.csv")]
        )
        assert code == 1
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert run(["explode"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_2(self, capsys):
        assert run(["steady-state"]) == 2
        capsys.readouterr()

    def test_nonpositive_params_exit_1(self, tmp_path, capsys):
        network, _ = _generate(tmp_path, nodes=4, edges=3)
        code = run(
            ["steady-state", "--network", str(network), "--alpha", "-1", "--beta", "1e-3",
             "--gamma", "2.0", "--output", str(tmp_path / "o.csv")]
        )
        assert code == 1
        capsys.readouterr()

    def test_version_flag_exits_0(self, capsys):
        assert run(["--version"]) == 0
        assert "carpnet" in capsys.readouterr().out


# Argument lists for tests that run inside their tmp_path, so files are named relative to it.
def _table(command, *flags):
    return [command, "--network", "net.json", *PARAM_FLAGS, *flags, "--output", "out"]


MODEL_OPTIONS = {"alpha": 6e-3, "beta": 3e-3, "gamma": 2.5}
TABLE_KEYS = {"tool", "version", "command", "inputs", "options", "result"}

# command -> (argv, exact top-level keys, exact options, exact result keys or None)
SIDECAR_CONTRACT = {
    "generate": (
        ["generate", "--nodes", "6", "--edges", "8", "--likelihood-range", "0.4", "0.9", *PARAM_FLAGS,
         "--panel-length", "12", "--seed", "4", "--initial-state", "active", "--start-label", "2016-12",
         "--network-out", "generated.json", "--panel-out", "out"],
        {"tool", "version", "command", "inputs", "options", "outputs"},
        {"nodes": 6, "edges": 8, "likelihood_range": [0.4, 0.9], **MODEL_OPTIONS, "panel_length": 12,
         "seed": 4, "initial_state": "active"},
        None,
    ),
    "fit": (
        ["fit", "--network", "net.json", "--panel", "panel.csv", "--starts", "1", "--seed", "3",
         "--max-iter", "1500", "--init-alpha", "0.02", "--init-beta", "0.005", "--init-gamma", "2.0",
         "--threads", "2", "--output", "out"],
        TABLE_KEYS,
        {"starts": 1, "seed": 3, "max_iter": 1500, "init": {"alpha": 0.02, "beta": 0.005, "gamma": 2.0}},
        {"alpha", "beta", "gamma", "log_likelihood", "iterations", "converged", "degenerate", "n_starts"},
    ),
    "steady-state": (
        _table("steady-state", "--tol", "1e-12", "--max-iter", "5000", "--init", "zeros", "--damping", "0.8",
               "--format", "json"),
        TABLE_KEYS,
        {**MODEL_OPTIONS, "tol": 1e-12, "max_iter": 5000, "init": "zeros", "damping": 0.8},
        {"iterations", "residual", "stationarity_residual", "converged"},
    ),
    "transitions": (
        _table("transitions", "--tol", "1e-11", "--max-iter", "4000", "--init", "ones", "--damping", "0.9"),
        TABLE_KEYS,
        {**MODEL_OPTIONS, "tol": 1e-11, "max_iter": 4000, "init": "ones", "damping": 0.9},
        {"iterations", "residual", "mean_internal_share", "mean_ratio_exact", "mean_ratio_taylor"},
    ),
    "simulate": (
        _table("simulate", "--runs", "20", "--horizon", "5", "--seed", "9", "--initial-state", "active",
               "--threads", "2", "--format", "json"),
        TABLE_KEYS,
        {**MODEL_OPTIONS, "runs": 20, "horizon": 5, "seed": 9, "initial_state": "active"},
        {"meanfield_row"},
    ),
    "temporal-influence": (
        _table("temporal-influence", "--source", "1", "--runs", "10", "--horizon", "4", "--seed", "2",
               "--baseline", "steady", "--threads", "2"),
        TABLE_KEYS,
        {**MODEL_OPTIONS, "source": 1, "runs": 10, "horizon": 4, "seed": 2, "baseline": "steady"},
        {"one_hop_ids", "two_hop_ids"},
    ),
    "influence": (
        _table("influence", "--tol", "1e-9", "--max-iter", "3000", "--threads", "2"),
        TABLE_KEYS - {"result"},
        {**MODEL_OPTIONS, "tol": 1e-9, "max_iter": 3000},
        None,
    ),
    "category-influence": (
        _table("category-influence", "--tol", "1e-9", "--max-iter", "3000", "--threads", "2", "--format", "json"),
        TABLE_KEYS,
        {**MODEL_OPTIONS, "tol": 1e-9, "max_iter": 3000},
        {"categories"},
    ),
}


class TestSidecarContract:
    @pytest.mark.parametrize("command", SIDECAR_CONTRACT)
    def test_keys_and_options(self, tmp_path, monkeypatch, command):
        argv, top_keys, options, result_keys = SIDECAR_CONTRACT[command]
        _generate(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 0
        meta = json.loads(Path("out" if command == "fit" else "out.meta.json").read_text())
        assert set(meta) == top_keys
        assert (meta["tool"], meta["command"]) == ("carpnet", command)
        assert meta["options"] == options
        if result_keys is not None:
            assert set(meta["result"]) == result_keys
        assert set(meta["inputs"]) == {"generate": set(), "fit": {"network", "panel"}}.get(command, {"network"})
        if command == "generate":
            assert meta["outputs"] == {"network": "generated.json", "panel": "out"}


def _bad_argv(command, flags):
    """A valid call of ``command`` with ``flags`` appended; a repeated flag's last value wins."""
    if command == "fit":
        base = ["fit", "--network", "net.json", "--panel", "panel.csv", "--starts", "0", "--max-iter", "50",
                "--output", "out"]
    elif command == "generate":
        base = ["generate", "--nodes", "4", "--edges", "3", *PARAM_FLAGS, "--panel-length", "3",
                "--network-out", "out.json", "--panel-out", "out"]
    elif command == "temporal-influence":
        base = _table(command, "--source", "0")
    else:
        base = _table(command)
    return base + list(flags)


# (command, appended flags, environment): each must exit 1 with an error line
BAD_FLAGS = [
    *[(c, ("--damping", v), {}) for c in ("steady-state", "transitions") for v in ("0", "2", "nan")],
    *[(c, ("--tol", v), {}) for c in ("steady-state", "influence") for v in ("-1", "nan", "0")],
    *[(c, ("--max-iter", "0"), {}) for c in ("steady-state", "influence")],
    *[(c, ("--alpha", v), {}) for c in ("steady-state", "simulate") for v in ("nan", "inf")],
    *[(c, flags, {}) for c in ("simulate", "temporal-influence")
      for flags in (("--runs", "0"), ("--horizon", "0"), ("--seed", "-1"))],
    *[(c, ("--threads", "0"), {}) for c in ("simulate", "influence", "category-influence", "fit")],
    *[(c, (), {"CARPNET_THREADS": v}) for c in ("simulate", "influence", "fit") for v in ("0", "abc")],
    *[("temporal-influence", ("--source", v), {}) for v in ("-1", "99")],
    ("fit", ("--starts", "-1"), {}),
    *[("fit", ("--init-alpha", v), {}) for v in ("0", "nan")],
    ("generate", ("--nodes", "0"), {}),
    ("generate", ("--edges", "-1"), {}),
    ("generate", ("--panel-length", "0"), {}),
    ("generate", ("--likelihood-range", "0.9", "0.1"), {}),
    ("generate", ("--likelihood-range", "0", "1"), {}),
    ("generate", ("--start-label", "bogus"), {}),
    *[(c, ("--output", "missing/out"), {}) for c in ("steady-state", "simulate", "influence", "fit")],
    ("generate", ("--panel-out", "missing/out"), {}),
]


class TestBadFlags:
    @pytest.mark.parametrize(
        "command, flags, env", BAD_FLAGS,
        ids=[" ".join([c, *flags, *(f"{k}={v}" for k, v in env.items())]) for c, flags, env in BAD_FLAGS],
    )
    def test_exits_1_with_an_error_line(self, tmp_path, capsys, monkeypatch, command, flags, env):
        _generate(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CARPNET_THREADS", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert run(_bad_argv(command, flags)) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: ", err, re.MULTILINE)
        assert "Traceback" not in err


def _risk(risk_id=0, **fields):
    entry = {"id": risk_id, "name": f"r{risk_id}", "category": "Economic", "likelihood": 0.5}
    entry.update(fields)
    return entry


def _two_risks(**overrides):
    return {"risks": [_risk(0), _risk(1, likelihood=0.6)], "edges": [[0, 1]], **overrides}


BAD_NETWORKS = {
    "top-level-list": [_risk(0)],
    "risks-not-objects": {"risks": [5], "edges": []},
    "edges-not-a-list": _two_risks(edges={"0": 1}),
    "edge-not-a-pair": _two_risks(edges=[5]),
    "edge-single-id": _two_risks(edges=[[0]]),
    "edge-triple": _two_risks(edges=[[0, 1, 1]]),
    "edge-string-ids": _two_risks(edges=[["0", "1"]]),
    "edge-float-id": _two_risks(edges=[[0.5, 1]]),
    "edge-unknown-id": _two_risks(edges=[[0, 7]]),
    "id-string": {"risks": [_risk("x")], "edges": []},
    "id-float": {"risks": [_risk(0.5)], "edges": []},
    "id-bool": {"risks": [_risk(True)], "edges": []},
    "id-missing": {"risks": [{"name": "a", "category": "Economic", "likelihood": 0.5}], "edges": []},
    "likelihood-string": {"risks": [_risk(0, likelihood="high")], "edges": []},
    "likelihood-null": {"risks": [_risk(0, likelihood=None)], "edges": []},
    "likelihood-list": {"risks": [_risk(0, likelihood=[0.5])], "edges": []},
    "likelihood-bool": {"risks": [_risk(0, likelihood=True)], "edges": []},
    "likelihood-infinite": {"risks": [_risk(0, likelihood=float("inf"), normalized_likelihood=0.5)], "edges": []},
    "normalized-likelihood-string": {"risks": [_risk(0, normalized_likelihood="0.5")], "edges": []},
    "epsilon-string": _two_risks(normalization={"scheme": "minmax", "epsilon": "small"}),
    "epsilon-null": _two_risks(normalization={"scheme": "minmax", "epsilon": None}),
    "scheme-unknown": _two_risks(normalization={"scheme": "zscore"}),
    "normalization-not-an-object": _two_risks(normalization="minmax"),
    "category-unknown": {"risks": [_risk(0, category="Cosmic")], "edges": []},
    "category-missing": {"risks": [{"id": 0, "name": "a", "likelihood": 0.5}], "edges": []},
    "non-utf8": b"\xff\xfe{}",
    "deeply-nested": b"[" * 200_000 + b"]" * 200_000,
    "edge-huge-id": _two_risks(edges=[[0, 2**70]]),
    "edge-negative-id": _two_risks(edges=[[-1, 0]]),
    "edge-bool-id": _two_risks(edges=[[True, 1]]),
    "edge-self-loop": _two_risks(edges=[[1, 1]]),
    "edge-duplicate-reversed": _two_risks(edges=[[0, 1], [1, 0]]),
    "likelihood-huge-int": {"risks": [_risk(0, likelihood=10**400)], "edges": []},
    "normalized-likelihood-huge-int": {"risks": [_risk(0, normalized_likelihood=10**400)], "edges": []},
    "epsilon-huge-int": _two_risks(normalization={"scheme": "minmax", "epsilon": 10**400}),
    "integer-over-digit-limit": b'{"risks": [{"id": 0, "name": "r0", "category": "Economic", "likelihood": 1'
    + b"0" * 4999
    + b'}], "edges": []}',
}

# The messages of the documents above that hold an integer too large for a float, or for Python's int parser.
HUGE_INTEGER_MESSAGES = {
    "likelihood-huge-int": r"^likelihood must fit in a float, got an integer of 1329 bits$",
    "normalized-likelihood-huge-int": r"^normalized_likelihood must fit in a float, got an integer of 1329 bits$",
    "epsilon-huge-int": r"^normalization epsilon must fit in a float, got an integer of 1329 bits$",
    "integer-over-digit-limit": r"bad\.json: JSON number too long to read: .*4300",
}

# Risk lists with two faults, and the message of the one that must be reported: every likelihood
# first, then the normalized values, then each entry's name, category, id and ranges in entry order.
COMPETING_RISK_FAULTS = {
    "category-then-string-likelihood": (
        [_risk(0, category="Cosmic"), _risk(1), _risk(2, likelihood="x")],
        "likelihood must be a number, got 'x'",
    ),
    "id-then-missing-likelihood": (
        [_risk("a"), {"id": 1, "name": "r1", "category": "Economic"}],
        "risk entry missing field 'likelihood': {'id': 1, 'name': 'r1', 'category': 'Economic'}",
    ),
    "huge-int-then-string-likelihood": (
        [_risk(0, likelihood=10**400), _risk(1, likelihood="x")],
        "likelihood must fit in a float, got an integer of 1329 bits",
    ),
    "range-then-string-normalized": (
        [_risk(0, normalized_likelihood=1.5), _risk(1, normalized_likelihood="x")],
        "normalized_likelihood must be a number, got 'x'",
    ),
    "category-then-mixed-explicit": (
        [_risk(0, category="Cosmic"), _risk(1, normalized_likelihood=0.5)],
        "either every risk entry carries 'normalized_likelihood' or none does",
    ),
    "range-then-category": (
        [_risk(0, normalized_likelihood=1.5), _risk(1, category="Cosmic", normalized_likelihood=0.5)],
        "risk 0 normalized likelihood must lie strictly inside (0, 1), got 1.5",
    ),
    "missing-name-then-bool-id": (
        [_risk(1), {"id": 0, "category": "Economic", "likelihood": 0.5}, _risk(True)],
        "risk entry missing field 'name': {'id': 0, 'category': 'Economic', 'likelihood': 0.5}",
    ),
    "unhashable-category-then-bool-id": (
        [_risk(0, category=["Economic"]), _risk(True)],
        "unknown category ['Economic']",
    ),
    "category-missing-then-bool-id": (
        [{"id": 0, "name": "a", "likelihood": 0.5}, _risk(True)],
        "risk entry missing field 'category': {'id': 0, 'name': 'a', 'likelihood': 0.5}",
    ),
}

# Edge lists with two faults, and the message of the one that must be reported:
# element types are checked over the whole list first, then edges in file order.
COMPETING_EDGE_FAULTS = {
    "self-loop-then-out-of-range": ([[1, 1], [0, 2**70]], "self-loop on risk 1 is not allowed"),
    "out-of-range-then-self-loop": ([[0, 2**70], [1, 1]], f"edge (0, {2**70}) references a risk id outside 0..1"),
    "duplicate-then-self-loop": ([[0, 1], [1, 0], [1, 1]], "duplicate edge (0, 1)"),
    "self-loop-outside-the-range": ([[-1, -1], [0, 7]], "self-loop on risk -1 is not allowed"),
    "self-loop-then-float-id": ([[1, 1], [0, 1.5]], "edge must be a pair of integer risk ids, got [0, 1.5]"),
}


class TestMalformedNetworkFiles:
    @pytest.mark.parametrize("document", BAD_NETWORKS.values(), ids=BAD_NETWORKS.keys())
    def test_exits_1_with_an_error_line(self, tmp_path, capsys, document):
        path = tmp_path / "bad.json"
        path.write_bytes(document if isinstance(document, bytes) else json.dumps(document).encode())
        code = run(["steady-state", "--network", str(path), *PARAM_FLAGS, "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert re.search(r"^error: ", capsys.readouterr().err, re.MULTILINE)

    @pytest.mark.parametrize("name", HUGE_INTEGER_MESSAGES)
    def test_huge_integers_are_named(self, tmp_path, name):
        document = BAD_NETWORKS[name]
        path = tmp_path / "bad.json"
        path.write_bytes(document if isinstance(document, bytes) else json.dumps(document).encode())
        with pytest.raises(ValidationError, match=HUGE_INTEGER_MESSAGES[name]):
            load_network(path)

    @pytest.mark.parametrize(
        "document", [d for d in BAD_NETWORKS.values() if not isinstance(d, bytes)],
        ids=[name for name, d in BAD_NETWORKS.items() if not isinstance(d, bytes)],
    )
    def test_matches_the_per_entry_reference(self, document):
        with pytest.raises(ValidationError) as expected:
            per_entry_network(document)
        with pytest.raises(ValidationError) as raised:
            RiskNetwork.from_dict(document)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("risks, message", COMPETING_RISK_FAULTS.values(), ids=COMPETING_RISK_FAULTS.keys())
    def test_the_first_risk_fault_is_reported(self, tmp_path, risks, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"risks": risks, "edges": []}), encoding="utf-8")
        with pytest.raises(ValidationError) as raised:
            load_network(path)
        assert str(raised.value) == message
        with pytest.raises(ValidationError) as expected:
            per_entry_network({"risks": risks, "edges": []})
        assert str(expected.value) == message

    @pytest.mark.parametrize("edges, message", COMPETING_EDGE_FAULTS.values(), ids=COMPETING_EDGE_FAULTS.keys())
    def test_the_first_fault_is_reported(self, tmp_path, edges, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_two_risks(edges=edges)), encoding="utf-8")
        with pytest.raises(ValidationError) as raised:
            load_network(path)
        assert str(raised.value) == message


def _panel_csv(rows):
    return ("t0,t1,t2\n" + "".join(row + "\n" for row in rows)).encode()


GOOD_ROWS = ["0,1,1"] * 10  # one row per risk of the 10-risk generated network

BAD_PANELS = {
    "non-utf8": b"\xff\xfe{}",
    "header-only": b"t0,t1,t2\n",
    "empty": b"",
    "ragged-row": _panel_csv(GOOD_ROWS[:9] + ["0,1"]),
    "cell-2": _panel_csv(GOOD_ROWS[:9] + ["0,2,1"]),
    "row-count-differs": _panel_csv(GOOD_ROWS[:9]),
    "field-over-csv-limit": _panel_csv(["0" * 200_000]),
    "bad-cell-before-ragged-row": _panel_csv(GOOD_ROWS[:1] + ["0,x,1", "0,1,1", "0,1"] + GOOD_ROWS[:6]),
}


class TestMalformedPanelFiles:
    @pytest.mark.parametrize("content", BAD_PANELS.values(), ids=BAD_PANELS.keys())
    def test_fit_exits_1_with_an_error_line(self, tmp_path, capsys, content):
        network, _ = _generate(tmp_path)
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        code = run(["fit", "--network", str(network), "--panel", str(path), "--output", str(tmp_path / "fit.json")])
        assert code == 1
        assert re.search(r"^error: ", capsys.readouterr().err, re.MULTILINE)

    def test_first_error_in_file_order_is_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(BAD_PANELS["bad-cell-before-ragged-row"])
        with pytest.raises(ValidationError, match=r"cell \(1, 1\) must be 0 or 1, got 'x'$"):
            load_panel(path)
        path.write_bytes(_panel_csv(["0,1,1", "0,1", "0,x,1"]))
        with pytest.raises(ValidationError, match=r"row 2 has 2 cells, expected 3$"):
            load_panel(path)


def _readme_network_json() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    match = re.search(r"\*\*Network JSON\*\*.*?```json\n(.*?)```", readme, re.DOTALL)
    assert match, "README has no **Network JSON** example block"
    return match.group(1)


def _readme_cli_commands() -> list[list[str]]:
    """The ``carpnet`` calls of the README's "Command line" block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    match = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.DOTALL)
    assert match, "README has no Command line sh block"
    lines = [line.strip() for line in match.group(1).replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line and not line.startswith("#")]
    assert all(argv[0] == "carpnet" for argv in commands)
    return [argv[1:] for argv in commands]


OUTPUT_FLAGS = ("--output", "--network-out", "--panel-out")
SUBCOMMANDS = (
    "generate", "fit", "steady-state", "transitions", "simulate", "temporal-influence", "influence", "category-influence",
)


class TestReadmeExamples:
    def test_command_line_block_runs_verbatim(self, tmp_path, monkeypatch):
        commands = _readme_cli_commands()
        assert tuple(argv[0] for argv in commands) == SUBCOMMANDS
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CARPNET_THREADS", raising=False)
        for argv in commands:
            assert run(argv) == 0, argv
            outputs = [argv[i + 1] for i, flag in enumerate(argv) if flag in OUTPUT_FLAGS]
            assert outputs and all(Path(path).stat().st_size > 0 for path in outputs), argv

    def test_network_json_example_loads_and_solves(self, tmp_path):
        network = tmp_path / "net.json"
        network.write_text(_readme_network_json(), encoding="utf-8")
        out = tmp_path / "steady.csv"
        assert run(["steady-state", "--network", str(network), *PARAM_FLAGS, "--output", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [row[1] for row in rows] == ["Fiscal crises", "Extreme weather"]


class TestWarningLines:
    def test_singleton_category_warning_is_one_plain_line(self, tmp_path, capsys):
        network, _ = _generate(tmp_path, seed=3, nodes=9, edges=14)
        capsys.readouterr()
        out = tmp_path / "cats.csv"
        assert run(["category-influence", "--network", str(network), *PARAM_FLAGS, "--output", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: category Technological has a single risk, self-influence reported as 0\n"
        )
        header, rows = _read_csv(out)
        assert header == ["source_category", "target_category", "raw", "normalized"]
        assert len(rows) == 25
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["result"]["categories"] == [
            "Economic", "Environmental", "Geopolitical", "Societal", "Technological"
        ]

    def test_missing_two_hop_warning_is_one_plain_line(self, tmp_path, capsys):
        network = tmp_path / "star.json"
        save_network(make_network([0.5] * 4, [(0, 1), (0, 2), (0, 3)]), network)
        out = tmp_path / "temporal.csv"
        argv = ["temporal-influence", "--network", str(network), *PARAM_FLAGS, "--source", "0",
                "--runs", "4", "--horizon", "3", "--output", str(out)]
        assert run(argv) == 0
        assert capsys.readouterr().err == "warning: risk 0 has no distance-2 neighborhood, two-hop curve omitted\n"
        assert _read_csv(out)[1][0] == ["0", "0.0", ""]


def _rows_then(error):
    """Two table rows, then ``error``: a table whose rows fail while it is being written."""
    yield [0, "a", 0.5]
    yield [1, "b", 0.25]
    raise error


STREAM_ERRORS = [ValidationError("row 2 is bad"), KeyboardInterrupt()]
STREAM_ERROR_IDS = ["ValidationError", "KeyboardInterrupt"]


class TestAtomicWrites:
    def test_atomic_open_renames_only_on_a_clean_exit(self, tmp_path):
        out = tmp_path / "table.csv"
        out.write_bytes(b"old\n")
        with atomic_open(out) as handle:
            handle.write("a\r\nb\n")
            [tmp] = tmp_path.glob("*.tmp")
            assert out.read_bytes() == b"old\n"
        assert out.read_bytes() == b"a\r\nb\n"  # newlines are written untranslated
        assert not tmp.exists()

    @pytest.mark.parametrize("error", STREAM_ERRORS, ids=STREAM_ERROR_IDS)
    def test_atomic_open_deletes_the_temp_file_on_any_exception(self, tmp_path, error):
        out = tmp_path / "table.csv"
        out.write_bytes(b"old\n")
        with pytest.raises(type(error)):
            with atomic_open(out) as handle:
                handle.write("partial")
                raise error
        assert out.read_bytes() == b"old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("error", STREAM_ERRORS, ids=STREAM_ERROR_IDS)
    def test_rows_failing_midway_leave_the_old_table(self, tmp_path, fmt, error):
        out = tmp_path / "table"
        out.write_bytes(b"old\n")
        with pytest.raises(type(error)):
            cli._write_table(str(out), fmt, ["risk", "name", "p_hat"], _rows_then(error))
        assert out.read_bytes() == b"old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("error", STREAM_ERRORS, ids=STREAM_ERROR_IDS)
    def test_influence_failing_midway_keeps_the_old_output(self, tmp_path, monkeypatch, capsys, error):
        network, _ = _generate(tmp_path, nodes=6, edges=8)
        out = tmp_path / "influence.csv"
        out.write_bytes(b"old\n")

        def values():  # the first row of the matrix, then a failure while the table streams
            yield np.zeros(6)
            raise error

        monkeypatch.setattr(cli, "_knockouts", lambda args, network, params: SimpleNamespace(values=values()))
        argv = ["influence", "--network", str(network), *PARAM_FLAGS, "--output", str(out)]
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run(argv)
        else:
            assert run(argv) == 1
            assert capsys.readouterr().err == "error: row 2 is bad\n"
        assert out.read_bytes() == b"old\n"
        assert not Path(str(out) + ".meta.json").exists()
        assert list(tmp_path.glob("*.tmp")) == []


# A 4-risk star whose names need CSV quoting; the hub 0 has no distance-2 neighborhood.
CELL_NETWORK = {
    "risks": [_risk(i, name=name, likelihood=likelihood)
              for i, (name, likelihood) in enumerate(zip(["a,b", 'say "hi"', "two\nlines", "plain"],
                                                         [0.6, 0.5, 0.55, 0.45]))],
    "edges": [[0, 1], [0, 2], [0, 3]],
}
CELL_PARAMS = ["--alpha", "0.2", "--beta", "0.9", "--gamma", "1.2"]


class TestTableCells:
    """Exact table bytes in both formats.

    The ``p_hat`` cells are the solver's floats spliced in by ``repr``: their
    last bits follow the platform's ``exp`` and ``log1p``. Every other byte,
    Monte Carlo frequencies included, is fixed here.
    """

    @pytest.fixture
    def p_hat(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("net.json").write_text(json.dumps(CELL_NETWORK), encoding="utf-8")
        steady = fixed_point(load_network("net.json"), ModelParams(0.2, 0.9, 1.2))
        return [repr(p) for p in steady.p_hat.tolist()]

    @staticmethod
    def _table(command, fmt, *flags):
        argv = [command, "--network", "net.json", *CELL_PARAMS, *flags, "--format", fmt, "--output", "out"]
        assert run(argv) == 0
        return Path("out").read_bytes().decode("utf-8")

    def test_steady_state_quotes_names_and_writes_floats_by_repr(self, p_hat):
        assert self._table("steady-state", "csv") == (
            "risk,name,p_hat\n"
            f'0,"a,b",{p_hat[0]}\n'
            f'1,"say ""hi""",{p_hat[1]}\n'
            f'2,"two\nlines",{p_hat[2]}\n'
            f"3,plain,{p_hat[3]}\n"
        )
        assert self._table("steady-state", "json") == (
            '{\n  "columns": [\n    "risk",\n    "name",\n    "p_hat"\n  ],\n'
            '  "rows": [\n'
            f'    [\n      0,\n      "a,b",\n      {p_hat[0]}\n    ],\n'
            f'    [\n      1,\n      "say \\"hi\\"",\n      {p_hat[1]}\n    ],\n'
            f'    [\n      2,\n      "two\\nlines",\n      {p_hat[2]}\n    ],\n'
            f'    [\n      3,\n      "plain",\n      {p_hat[3]}\n    ]\n'
            "  ]\n}\n"
        )

    def test_simulate_ends_with_the_inf_row(self, p_hat):
        flags = ("--runs", "4", "--horizon", "2", "--seed", "1", "--initial-state", "active")
        assert self._table("simulate", "csv", *flags) == (
            "t,risk_0,risk_1,risk_2,risk_3\n"
            "0,1.0,1.0,1.0,1.0\n"
            "1,1.0,0.25,0.75,0.5\n"
            f"inf,{','.join(p_hat)}\n"
        )
        inf = ",\n      ".join(p_hat)
        assert self._table("simulate", "json", *flags) == (
            '{\n  "columns": [\n    "t",\n    "risk_0",\n    "risk_1",\n    "risk_2",\n    "risk_3"\n  ],\n'
            '  "rows": [\n'
            "    [\n      0,\n      1.0,\n      1.0,\n      1.0,\n      1.0\n    ],\n"
            "    [\n      1,\n      1.0,\n      0.25,\n      0.75,\n      0.5\n    ],\n"
            f'    [\n      "inf",\n      {inf}\n    ]\n'
            "  ]\n}\n"
        )

    @pytest.mark.parametrize("runs", [1, 3, 10, 1000])
    def test_simulate_frequencies_are_the_reprs_of_counts_over_runs(self, p_hat, runs):
        flags = ("--runs", str(runs), "--horizon", "4", "--seed", "3", "--initial-state", "active")
        config = SimulationConfig(runs=runs, horizon=4, seed=3, initial_state="active")
        frequencies = simulate(load_network("net.json"), ModelParams(0.2, 0.9, 1.2), config).frequencies
        header = ["t", "risk_0", "risk_1", "risk_2", "risk_3"]
        lines = [",".join(header)]
        lines += [",".join([str(t), *map(repr, column)]) for t, column in enumerate(frequencies.T.tolist())]
        lines.append(",".join(["inf", *p_hat]))
        assert self._table("simulate", "csv", *flags) == "\n".join(lines) + "\n"
        rows = [[t, *column] for t, column in enumerate(frequencies.T.tolist())]
        rows.append(["inf", *map(float, p_hat)])
        assert self._table("simulate", "json", *flags) == json.dumps({"columns": header, "rows": rows}, indent=2) + "\n"

    def test_temporal_influence_writes_a_missing_curve_as_empty_or_null(self, p_hat):
        flags = ("--source", "0", "--runs", "6", "--horizon", "3", "--seed", "2")
        assert self._table("temporal-influence", "csv", *flags) == (
            "t,one_hop,two_hop\n"
            "0,0.0,\n"
            "1,0.3888888888888889,\n"
            "2,0.16666666666666666,\n"
        )
        assert self._table("temporal-influence", "json", *flags) == (
            '{\n  "columns": [\n    "t",\n    "one_hop",\n    "two_hop"\n  ],\n'
            '  "rows": [\n'
            "    [\n      0,\n      0.0,\n      null\n    ],\n"
            "    [\n      1,\n      0.3888888888888889,\n      null\n    ],\n"
            "    [\n      2,\n      0.16666666666666666,\n      null\n    ]\n"
            "  ]\n}\n"
        )


FLOAT_CELLS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, math.nextafter(0.1, 1.0)]
)
INT64_CELLS = st.integers(-(2**63), 2**63 - 1)
TEXT_CELLS = st.text() | st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\ronly", "crlf\r\n", "  lead", "naïve", ""])
CELLS = st.none() | st.integers(-(2**200), 2**200) | FLOAT_CELLS | TEXT_CELLS
BLOCK_KINDS = ["scalar", "list", "floats", "ints", "coded", "coded2d"]


@st.composite
def _block(draw):
    """A table block of random column kinds, and the rows of cells it stands for."""
    rows = draw(st.integers(0, 5))
    block, columns = [], []  # columns: the cells of each table column
    for kind in draw(st.lists(st.sampled_from(BLOCK_KINDS), min_size=1, max_size=4)):
        if kind == "scalar":
            cell = draw(CELLS)
            block.append(cell)
            columns.append([cell] * rows)
        elif kind == "list":
            cells = draw(st.lists(CELLS, min_size=rows, max_size=rows))
            block.append(cells)
            columns.append(cells)
        elif kind in ("floats", "ints"):
            cells = draw(st.lists(FLOAT_CELLS if kind == "floats" else INT64_CELLS, min_size=rows, max_size=rows))
            block.append(np.array(cells, dtype=np.float64 if kind == "floats" else np.int64))
            columns.append(cells)
        else:
            values = np.array(draw(st.lists(FLOAT_CELLS, min_size=1, max_size=4)
                                   | st.lists(INT64_CELLS, min_size=1, max_size=4)))
            shape = (rows,) if kind == "coded" else (rows, draw(st.integers(2, 3)))
            codes = draw(st.lists(st.integers(0, len(values) - 1), min_size=math.prod(shape), max_size=math.prod(shape)))
            codes = np.array(codes, dtype=np.intp).reshape(shape)
            block.append(cli._coded(values, codes))
            columns.extend(values[codes].T.tolist() if codes.ndim == 2 else [values[codes].tolist()])
    if not any(isinstance(column, (list, np.ndarray, cli._Coded)) for column in block):
        columns = [[cell] for cell in block]  # a block of scalars is one row
    return block, [list(row) for row in zip(*columns)]


class TestTableBlocks:
    """Every block's CSV text is what the csv module writes for its rows, and its JSON what json writes."""

    @settings(max_examples=300, deadline=None)
    @given(blocks=st.lists(_block(), min_size=1, max_size=3), block_cells=st.sampled_from([1, 5, 4096]))
    def test_blocks_are_written_as_the_csv_and_json_modules_write_their_rows(
        self, tmp_path_factory, blocks, block_cells
    ):
        out = tmp_path_factory.getbasetemp() / "blocks"
        header = ["c0", "c1"]
        rows = [row for _, cells in blocks for row in cells]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        with mock.patch.object(cli, "_BLOCK_CELLS", block_cells):  # pieces of 1, 2 or all rows
            cli._write_table(str(out), "csv", header, [block for block, _ in blocks])
            assert out.read_bytes().decode("utf-8") == expected.getvalue()
            cli._write_table(str(out), "json", header, [block for block, _ in blocks])
            assert out.read_text(encoding="utf-8") == json.dumps({"columns": header, "rows": rows}, indent=2) + "\n"

    @pytest.mark.parametrize("network", ["cells", "generated"])
    @pytest.mark.parametrize("command, flags", [
        ("steady-state", []),
        ("transitions", []),
        ("simulate", ["--runs", "7", "--horizon", "5", "--seed", "1"]),  # fewer frequencies than cells
        ("simulate", ["--runs", "500", "--horizon", "2", "--seed", "1"]),  # more runs than cells
        ("temporal-influence", ["--source", "0", "--runs", "6", "--horizon", "4", "--seed", "2"]),
        ("influence", []),
        ("category-influence", []),
    ])
    def test_csv_is_the_csv_module_over_the_json_rows(self, tmp_path, monkeypatch, network, command, flags):
        monkeypatch.chdir(tmp_path)
        if network == "cells":
            Path("net.json").write_text(json.dumps(CELL_NETWORK), encoding="utf-8")
            params = CELL_PARAMS
        else:
            _generate(tmp_path, nodes=40, edges=80)
            params = PARAM_FLAGS
        for fmt in ("csv", "json"):
            assert run([command, "--network", "net.json", *params, *flags, "--format", fmt, "--output", fmt]) == 0
        document = json.loads(Path("json").read_text(encoding="utf-8"))
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(document["columns"])
        writer.writerows(document["rows"])
        assert Path("csv").read_bytes().decode("utf-8") == expected.getvalue()

    def test_a_300_by_300_influence_table_streams_in_bounded_memory(self, tmp_path, monkeypatch):
        matrix = np.random.default_rng(0).random((300, 300))
        monkeypatch.setattr(cli, "_knockouts", lambda args, network, params: SimpleNamespace(values=iter(matrix)))
        out = tmp_path / "influence.csv"
        tracemalloc.start()
        try:
            header, blocks, _ = cli._influence(None, SimpleNamespace(size=300), None)
            cli._write_table(str(out), "csv", header, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = out.read_text(encoding="utf-8")
        assert len(text) > 2_000_000  # so a table joined whole would pass 1 MiB
        assert peak < 2**20
        lines = text.splitlines()
        assert len(lines) == 1 + 300 * 300
        assert lines[:2] == ["source,target,influence", f"0,0,{matrix[0, 0].item()!r}"]
        assert lines[-1] == f"299,299,{matrix[299, 299].item()!r}"


HEAVY_MODULES = ("scipy", "scipy.optimize", "scipy.sparse")
SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_heavy_modules(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter on ``src`` and list the heavy modules it loaded."""
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return result.stdout.split()


ANALYSIS_MODULES = ("dynamics", "meanfield", "influence", "mle", "montecarlo", "synth")


class TestImportFootprint:
    def test_importing_the_package_and_cli_loads_no_heavy_module(self):
        assert _loaded_heavy_modules("import carpnet\nimport carpnet.cli") == []

    def test_loading_files_imports_no_analysis_module(self, tmp_path):
        network, panel = _generate(tmp_path)
        modules = [f"carpnet.{name}" for name in ANALYSIS_MODULES] + ["concurrent.futures", "hashlib"]
        probe = (
            f"import sys, carpnet\ncarpnet.load_network({str(network)!r})\ncarpnet.load_panel({str(panel)!r})\n"
            f"print(' '.join(m for m in {modules!r} if m in sys.modules))\n"
            "import carpnet.cli\n"
            f"print(' '.join(m for m in {modules[:-2]!r} if m not in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        loaded, missing = result.stdout.split("\n")[:2]
        assert loaded == ""  # loading a network and a panel imports no analysis module, no thread pool and no OpenSSL
        assert missing == ""  # import carpnet.cli imports all six

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    @pytest.mark.parametrize("nodes, dense", [(10, True), (30, False)], ids=["dense", "sparse"])
    def test_no_command_imports_scipy(self, tmp_path, nodes, dense, command):
        network, panel, out = (str(tmp_path / name) for name in ("net.json", "panel.csv", "out.csv"))
        generate = ["generate", "--nodes", str(nodes), "--edges", "20", "--likelihood-range", "0.45", "0.8",
                    *PARAM_FLAGS, "--panel-length", "40", "--seed", "11", "--network-out", network, "--panel-out", panel]
        argv = {
            "generate": generate,
            "fit": ["fit", "--network", network, "--panel", panel, "--output", str(tmp_path / "fit.json")],
            "simulate": ["simulate", "--network", network, *PARAM_FLAGS, "--runs", "20", "--horizon", "10",
                         "--output", out],
            "temporal-influence": ["temporal-influence", "--network", network, *PARAM_FLAGS, "--source", "0",
                                   "--runs", "10", "--horizon", "5", "--baseline", "steady", "--output", out],
        }.get(command, [command, "--network", network, *PARAM_FLAGS, "--output", out])
        if command != "generate":
            assert run(generate) == 0
        # with None in sys.modules, importing scipy or any scipy submodule raises
        probe = f"import sys\nsys.modules['scipy'] = None\nfrom carpnet.cli import run\nassert run({argv!r}) == 0\n"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=False, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0, result.stderr
        assert load_network(network).dense_products is dense  # 2E * 20 >= R**2 with 20 edges


PERFBENCH = SRC.parent / "perfbench"
# public names deleted because no package code, acceptance test or benchmark read them
DELETED_NAMES = ("PoissonProbs", "poisson_probs", "prob_activate", "log_likelihood_gradient")


def _benchmark_tracer(monkeypatch):
    """``perfbench/tracer.py`` as a module, loaded without writing a bytecode cache beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPublicSurface:
    def test_every_public_name_resolves(self):
        for name in carpnet.__all__:
            getattr(carpnet, name)  # raises AttributeError on a stale name

    def test_public_names_are_the_eager_and_lazy_exports(self):
        eager = {
            name for name, value in vars(carpnet).items() if not name.startswith("_") and not isinstance(value, ModuleType)
        }
        assert len(set(carpnet.__all__)) == len(carpnet.__all__) == 46
        assert set(carpnet.__all__) == eager | set(carpnet._MODULE_OF)

    def test_deleted_names_are_absent(self):
        from carpnet import dynamics, mle

        for name in DELETED_NAMES:
            assert name not in dir(carpnet)
            assert not any(hasattr(module, name) for module in (carpnet, dynamics, mle))
        assert not hasattr(RiskNetwork, "average_degree") and not hasattr(RiskNetwork, "edge_probability")
        assert list(inspect.signature(load_network).parameters) == ["path"]
        assert "max_cells" not in {field.name for field in dataclasses.fields(SimulationConfig)}

    def test_every_name_the_benchmark_looks_up_resolves(self, monkeypatch):
        tracer = _benchmark_tracer(monkeypatch)
        for _, module, attr, _ in tracer.FUNCTIONS:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
        for _, module, cls, attr in tracer.METHODS:
            assert attr in vars(getattr(importlib.import_module(module), cls)), (module, cls, attr)
        sources = "".join(path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py")))
        for names in re.findall(r"from carpnet import ([\w, ]+)", sources):
            for name in names.split(","):
                getattr(carpnet, name.strip())
        assert carpnet.utils.ordered_map(abs, [-1, 2], threads=2) == [1, 2]
        assert SimulationConfig(threads=2).threads == 2
        assert carpnet.NetworkState.dormant(3).n_active == 0
        assert callable(carpnet.knockout)


class TestDenseMatrixCache:
    @pytest.mark.parametrize("command", ["simulate", "temporal-influence"])
    def test_mean_field_and_monte_carlo_share_one_dense_matrix(self, tmp_path, monkeypatch, command):
        network, _ = _generate(tmp_path)  # dense: 2E * 20 >= R**2
        loaded = []
        monkeypatch.setattr(cli, "load_network", lambda path: loaded.append(load_network(path)) or loaded[-1])
        argv = [command, "--network", str(network), *PARAM_FLAGS, "--runs", "10", "--horizon", "5",
                "--output", str(tmp_path / "out.csv")]
        if command == "temporal-influence":
            argv += ["--source", "0", "--baseline", "steady"]
        assert run(argv) == 0
        (net,) = loaded
        assert net.dense_products
        square = (net.size, net.size)
        cached = [name for name, value in vars(net).items() if getattr(value, "shape", None) == square]
        assert cached == ["adjacency_matrix"]  # the counts went through the mean-field sums' matrix


class TestConsoleEntryPoint:
    def test_module_invocation_works(self):
        result = subprocess.run(
            [sys.executable, "-m", "carpnet", "--version"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0
        assert "carpnet" in result.stdout
