"""Command-line interface.

Six table subcommands (``steady-state``, ``transitions``, ``simulate``,
``temporal-influence``, ``influence``, ``category-influence``) share one
path: read a network JSON file, compute a table, write it to ``--output``
(CSV by default, ``--format json`` for a columns/rows object), and write a
``<output>.meta.json`` sidecar with the tool version, the options, sha256
digests of the inputs, and headline results. ``generate`` reads no network;
it writes a network and a panel, with the sidecar next to the panel. ``fit``
writes a single JSON document with the metadata embedded.

A sidecar's ``options`` are every parsed argument except files, the table
format and the thread count (``fit`` nests its starting point under
``init``), so any result can be audited and reproduced. All writes are
atomic: a table is written block by block into a temp file that is renamed
onto ``--output`` only once the last row is in. No output carries a timestamp,
and rerunning a command with the same inputs produces bit-identical files
for any ``--threads`` setting.

Warnings raised while a command runs are printed as one ``warning:`` line
each on stderr.

Exit codes: 0 success, 1 validation or file errors, 2 usage errors,
3 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
import warnings
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .domain import (
    EventPanel,
    ModelParams,
    load_network,
    load_panel,
    save_network,
    save_panel,
)
from .errors import CarpError, ConvergenceError, ValidationError
from .influence import category_influence, influence_matrix
from .meanfield import (
    DEFAULT_MAX_ITER, DEFAULT_TOL, InitMode, ext_int_ratios, fixed_point, stationarity_residual, transition_fractions
)
from .mle import FitConfig, fit
from .montecarlo import SimulationConfig, simulate, temporal_influence
from .synth import generate_synthetic
from .utils import atomic_open, atomic_write_text, sha256_file

THREADS_ENV = "CARPNET_THREADS"

# Parsed arguments that never enter a sidecar's options: dispatch entries,
# input and output files, the table format and the thread count (which never
# changes an output byte). ``--start-label`` is written into the panel itself.
_NOT_OPTIONS = frozenset(
    {"command", "handler", "compute", "network", "panel", "output", "format", "threads",
     "network_out", "panel_out", "start_label"}
)


def _resolve_threads(value: int | None) -> int:
    if value is None:
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValidationError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValidationError(f"threads must be at least 1, got {value}")
    return value


class _Coded(NamedTuple):
    """The cells ``values[codes]``, written as ``texts[codes]``; 2-D ``codes`` are (rows, table columns)."""

    codes: np.ndarray
    values: np.ndarray
    texts: np.ndarray


def _coded(values: np.ndarray, codes: np.ndarray) -> _Coded:
    return _Coded(codes, values, np.array(list(map(_text, values.tolist())), dtype=object))


_NEEDS_QUOTES = re.compile('[,"\r\n]').search
_BLOCK_CELLS = 1024  # cells formatted at a time, so a block's text stays some tens of kB


def _text(cell) -> str:
    """A cell's CSV text: None empty, a float by repr, other non-text by str, text as is unless csv must quote it."""
    if isinstance(cell, str):
        if _NEEDS_QUOTES(cell) is None:
            return cell
        quoted = io.StringIO()
        csv.writer(quoted, lineterminator="\n").writerow([cell])  # the running Python's quoting rules
        return quoted.getvalue()[:-1]
    return "" if cell is None else repr(cell) if isinstance(cell, float) else str(cell)


def _cells(column, rows: slice, count: int, text: bool) -> list:
    """One list of ``column``'s cells in ``rows`` per table column; with ``text``, CSV texts, 2-D rows comma-joined."""
    if isinstance(column, _Coded):
        cells = (column.texts if text else column.values)[column.codes[rows]].tolist()
        if column.codes.ndim == 1:
            return [cells]
        return [map(",".join, cells)] if text else list(zip(*cells))  # JSON: one column per table column
    if isinstance(column, np.ndarray):
        cells = column[rows].tolist()
        return [map(repr if column.dtype.kind == "f" else str, cells) if text else cells]
    if isinstance(column, list):
        return [map(_text, column[rows]) if text else column[rows]]
    return [[_text(column) if text else column] * count]  # a scalar: the same cell in all ``count`` rows


def _write_table(path: str, fmt: str, header: list[str], blocks: Iterable[list]) -> None:
    """Write the table ``blocks`` into the temp file as they come; only JSON holds the whole table.

    A block is a list of columns over the same rows: scalars (so a plain row is a block), lists of
    cells, 1-D arrays and ``_Coded``. CSV is written about ``_BLOCK_CELLS`` cells at a time: floats
    by ``repr``, ints by ``str``, None as an empty field, and text as the running Python's csv module quotes it.
    """
    text, table = fmt == "csv", []
    step = max(1, _BLOCK_CELLS // len(header)) if text else sys.maxsize  # JSON holds the whole table anyway
    with atomic_open(path) as handle:
        handle.write(",".join(map(_text, header)) + "\n" if text else "")
        for block in blocks:
            rows = next((len(getattr(c, "codes", c)) for c in block if isinstance(c, (list, np.ndarray, _Coded))), 1)
            for start in range(0, rows, step):
                part = slice(start, start + step), min(step, rows - start), text
                columns = [cells for column in block for cells in _cells(column, *part)]
                if text:
                    lines = map(",".join, zip(*columns))
                    handle.write("\n".join(lines if len(columns) > 1 else (line or '""' for line in lines)) + "\n")
                else:
                    table.extend(map(list, zip(*columns)))
        if not text:
            json.dump({"columns": header, "rows": table}, handle, indent=2)
            handle.write("\n")


def _write_sidecar(output: str, meta: dict) -> None:
    atomic_write_text(str(output) + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _options(args: argparse.Namespace) -> dict:
    options = {name: value for name, value in vars(args).items() if name not in _NOT_OPTIONS}
    if args.command == "fit":
        options["init"] = {name: options.pop(f"init_{name}") for name in ("alpha", "beta", "gamma")}
    return options


def _meta(args: argparse.Namespace, inputs: dict[str, str], **extra) -> dict:
    meta = {
        "tool": "carpnet",
        "version": __version__,
        "command": args.command,
        "inputs": {name: sha256_file(path) for name, path in inputs.items()},
        "options": _options(args),
    }
    meta.update(extra)
    return meta


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(args.alpha, args.beta, args.gamma)


def _cmd_generate(args: argparse.Namespace) -> int:
    network, panel = generate_synthetic(
        nodes=args.nodes,
        edges=args.edges,
        likelihood_range=tuple(args.likelihood_range),
        params=_params(args),
        panel_length=args.panel_length,
        seed=args.seed,
        initial_state=args.initial_state,
    )
    if args.start_label:
        panel = EventPanel(panel.states, start_label=args.start_label)
    save_network(network, args.network_out)
    save_panel(panel, args.panel_out)
    outputs = {"network": str(args.network_out), "panel": str(args.panel_out)}
    _write_sidecar(args.panel_out, _meta(args, {}, outputs=outputs))
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    network = load_network(args.network)
    panel = load_panel(args.panel)
    _resolve_threads(args.threads)  # validated like every --threads; the fit runs its starts in order
    config = FitConfig(starts=args.starts, seed=args.seed, max_iter=args.max_iter)
    init = ModelParams(args.init_alpha, args.init_beta, args.init_gamma)
    result = fit(panel, network, init=init, config=config)
    document = _meta(
        args,
        {"network": args.network, "panel": args.panel},
        result={
            "alpha": result.params.alpha,
            "beta": result.params.beta,
            "gamma": result.params.gamma,
            "log_likelihood": result.log_likelihood,
            "iterations": result.iterations,
            "converged": result.converged,
            "degenerate": result.degenerate,
            "n_starts": result.n_starts,
        },
    )
    atomic_write_text(args.output, json.dumps(document, indent=2, sort_keys=True) + "\n")
    if not result.converged:
        print("fit did not converge within the iteration budget", file=sys.stderr)
        return 3
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    """Load the network, compute the subcommand's table, write it and its sidecar.

    ``args.compute(args, network, params)`` returns ``(header, blocks, result)``
    after all its numeric work; ``blocks`` is any iterable of ``_write_table``
    blocks, consumed once while the table is written. A ``result`` of None
    leaves the sidecar without one.
    """
    network = load_network(args.network)
    header, blocks, result = args.compute(args, network, _params(args))
    _write_table(args.output, args.format, header, blocks)
    extra = {} if result is None else {"result": result}
    _write_sidecar(args.output, _meta(args, {"network": args.network}, **extra))
    return 0


def _steady(args: argparse.Namespace, network, params: ModelParams):
    steady = fixed_point(
        network,
        params,
        tol=args.tol,
        max_iter=args.max_iter,
        init=InitMode(args.init),
        damping=args.damping,
    )
    if not steady.converged:
        raise ConvergenceError(
            f"fixed point not reached in {args.max_iter} iterations (residual {steady.residual:.3e})"
        )
    return steady


def _steady_state(args: argparse.Namespace, network, params: ModelParams):
    steady = _steady(args, network, params)
    block = [np.arange(network.size), [r.name for r in network.risks], steady.p_hat]
    return ["risk", "name", "p_hat"], [block], {
        "iterations": steady.iterations,
        "residual": steady.residual,
        "stationarity_residual": stationarity_residual(steady.p_hat, network, params),
        "converged": steady.converged,
    }


_FRACTIONS = ("a_int", "a_ext", "a_rec", "raw_int", "raw_ext", "raw_rec")


def _transitions(args: argparse.Namespace, network, params: ModelParams):
    steady = _steady(args, network, params)
    fractions = transition_fractions(steady, network, params)
    ratios = ext_int_ratios(steady, network, params)
    risks = network.risks
    columns = [[r.name for r in risks], [r.category.value for r in risks], *(getattr(fractions, n) for n in _FRACTIONS)]
    header = ["risk", "name", "category", *_FRACTIONS, "ratio_exact", "ratio_taylor"]
    share = fractions.a_int / (fractions.a_int + fractions.a_ext)
    return header, [[np.arange(len(risks)), *columns, *ratios]], {
        "iterations": steady.iterations,
        "residual": steady.residual,
        "mean_internal_share": float(share.mean()),
        "mean_ratio_exact": sum(ratios[0].tolist()) / len(risks),
        "mean_ratio_taylor": sum(ratios[1].tolist()) / len(risks),
    }


def _simulate(args: argparse.Namespace, network, params: ModelParams):
    _resolve_threads(args.threads)  # validated like every --threads; the runs step as one block
    config = SimulationConfig(runs=args.runs, horizon=args.horizon, seed=args.seed, initial_state=args.initial_state)
    steady = fixed_point(network, params)
    counts = simulate(network, params, config).counts
    if not steady.converged:
        print("mean-field solve did not converge, 'inf' row omitted", file=sys.stderr)
    if args.runs < counts.size:  # fewer frequencies than cells: format each one once, else each count found
        found, codes = np.arange(args.runs + 1), counts.T
    else:
        found, codes = np.unique(counts.T, return_inverse=True)
    body = [np.arange(counts.shape[1]), _coded(found / float(args.runs), codes.reshape(counts.T.shape))]
    tail = [["inf", _coded(steady.p_hat, np.arange(network.size)[None])]] if steady.converged else []
    header = ["t"] + [f"risk_{r.id}" for r in network.risks]
    return header, [body, *tail], {"meanfield_row": bool(steady.converged)}


def _temporal_influence(args: argparse.Namespace, network, params: ModelParams):
    _resolve_threads(args.threads)  # validated like every --threads; the runs step as one block
    config = SimulationConfig(runs=args.runs, horizon=args.horizon, seed=args.seed)
    result = temporal_influence(network, params, args.source, config, baseline=args.baseline)
    block = [np.arange(config.horizon), result.one_hop, result.two_hop]  # a missing curve is the scalar None
    return ["t", "one_hop", "two_hop"], [block], {
        "one_hop_ids": list(result.one_hop_ids),
        "two_hop_ids": list(result.two_hop_ids),
    }


def _knockouts(args: argparse.Namespace, network, params: ModelParams):
    threads = _resolve_threads(args.threads)
    return influence_matrix(network, params, tol=args.tol, max_iter=args.max_iter, threads=threads)


def _influence(args: argparse.Namespace, network, params: ModelParams):
    values = _knockouts(args, network, params).values
    targets = _coded(np.arange(network.size), np.arange(network.size))
    return ["source", "target", "influence"], ([i, targets, row] for i, row in enumerate(values)), None


def _category_influence(args: argparse.Namespace, network, params: ModelParams):
    aggregated = category_influence(_knockouts(args, network, params), network)
    names = [cat.value for cat in aggregated.categories]
    blocks = [[name, names, raw, norm] for name, raw, norm in zip(names, aggregated.raw, aggregated.normalized)]
    header = ["source_category", "target_category", "raw", "normalized"]
    return header, blocks, {"categories": names}


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", required=True, help="path for the result table")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")


def _add_param_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, required=True, help="internal activation scale")
    sub.add_argument("--beta", type=float, required=True, help="external activation scale per neighbor")
    sub.add_argument("--gamma", type=float, required=True, help="continuation scale")


def _add_solver_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL, help="fixed-point tolerance")
    sub.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, help="fixed-point iteration cap")


def _add_threads_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--threads", type=int, default=None,
        help=f"worker threads (default: ${THREADS_ENV} or 1); results do not depend on this",
    )


def _add_run_args(sub: argparse.ArgumentParser, horizon_help: str | None = None) -> None:
    sub.add_argument("--runs", type=int, default=1000)
    sub.add_argument("--horizon", type=int, default=120, help=horizon_help)
    sub.add_argument("--seed", type=int, default=0)


def _steady_args(sub: argparse.ArgumentParser) -> None:
    _add_solver_args(sub)
    sub.add_argument(
        "--init", choices=[m.value for m in InitMode], default=InitMode.LIKELIHOODS.value,
        help="starting vector for the fixed-point iteration",
    )
    sub.add_argument("--damping", type=float, default=1.0, help="update damping in (0, 1]")


def _simulate_args(sub: argparse.ArgumentParser) -> None:
    _add_run_args(sub, horizon_help="number of recorded months")
    sub.add_argument("--initial-state", choices=("dormant", "active"), default="dormant")
    _add_threads_arg(sub)


def _temporal_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--source", type=int, required=True)
    _add_run_args(sub)
    sub.add_argument("--baseline", choices=("dormant", "steady"), default="dormant")
    _add_threads_arg(sub)


def _knockout_args(sub: argparse.ArgumentParser) -> None:
    _add_solver_args(sub)
    _add_threads_arg(sub)


# name -> (help, arguments between the model parameters and --output, compute)
_TABLE_COMMANDS = {
    "steady-state": ("mean-field activation probabilities", _steady_args, _steady_state),
    "transitions": ("steady-state transition fractions per risk", _steady_args, _transitions),
    "simulate": ("Monte Carlo activation frequencies", _simulate_args, _simulate),
    "temporal-influence": (
        "one-hop and two-hop influence curves of a source risk", _temporal_args, _temporal_influence
    ),
    "influence": ("pairwise knockout influence matrix", _knockout_args, _influence),
    "category-influence": (
        "category-level influence matrix, raw and normalized", _knockout_args, _category_influence
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``carpnet`` parser, built once per process; parsing leaves it unchanged, so do not modify it."""
    parser = argparse.ArgumentParser(
        prog="carpnet",
        description="Interdependent risk networks: fitting, steady states, cascades, influence.",
    )
    parser.add_argument("--version", action="version", version=f"carpnet {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic network and panel")
    generate.add_argument("--nodes", type=int, required=True)
    generate.add_argument("--edges", type=int, required=True)
    generate.add_argument(
        "--likelihood-range", type=float, nargs=2, default=(0.3, 0.8), metavar=("LOW", "HIGH")
    )
    _add_param_args(generate)
    generate.add_argument("--panel-length", type=int, required=True, help="panel length in months")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--initial-state", choices=("dormant", "active"), default="dormant")
    generate.add_argument("--start-label", default=None, help="calendar label YYYY-MM for month 0")
    generate.add_argument("--network-out", required=True)
    generate.add_argument("--panel-out", required=True)
    generate.set_defaults(handler=_cmd_generate)

    fit_cmd = commands.add_parser("fit", help="maximum-likelihood parameter fit from a panel")
    fit_cmd.add_argument("--network", required=True)
    fit_cmd.add_argument("--panel", required=True)
    fit_cmd.add_argument("--starts", type=int, default=5, help="random restarts beyond the init point")
    fit_cmd.add_argument("--seed", type=int, default=0)
    fit_cmd.add_argument("--max-iter", type=int, default=2000)
    fit_cmd.add_argument("--init-alpha", type=float, default=0.01)
    fit_cmd.add_argument("--init-beta", type=float, default=0.01)
    fit_cmd.add_argument("--init-gamma", type=float, default=1.0)
    _add_threads_arg(fit_cmd)
    fit_cmd.add_argument("--output", required=True, help="path for the result JSON")
    fit_cmd.set_defaults(handler=_cmd_fit)

    for name, (help_text, add_args, compute) in _TABLE_COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--network", required=True)
        _add_param_args(sub)
        add_args(sub)
        _add_output_args(sub)
        sub.set_defaults(handler=_cmd_table, compute=compute)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or version
        return int(exc.code) if exc.code is not None else 0
    with warnings.catch_warnings():  # restores the caller's warning display on exit
        warnings.showwarning = _print_warning
        try:
            return args.handler(args)
        except (CarpError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3 if isinstance(exc, ConvergenceError) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
