"""Per-layer metrics from the spans of a traced run.

Every figure is for one pass of the workload's command sequence with each
command called once: a per-call quantity is the median over the traced calls,
and a per-pass quantity sums, over the sequence's commands, the median per
call, the same way ``pipeline_s`` is built. A layer the workload never enters
reports 0.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from tracer import LAYERS, layer_of, self_times
from workloads import Workload

COMMANDS = (
    "fit", "steady-state", "transitions", "simulate", "temporal-influence", "influence", "category-influence",
)


def _med(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


def _count_under(spans: list[tuple], children: list[tuple], owner: str) -> dict[int, int]:
    """For each ``owner`` span, how many of ``children`` it encloses."""
    counts: dict[int, int] = defaultdict(int)
    for _, _, _, parent, _, _ in children:
        while parent >= 0 and spans[parent][0] != owner:
            parent = spans[parent][3]
        if parent >= 0:
            counts[parent] += 1
    return counts


def per_layer(spans: list[tuple], invocations: list[dict], workload: Workload, probes: dict) -> dict[str, float]:
    """``invocations[i]`` describes the CLI call whose spans carry run id ``i``."""
    own = self_times(spans)
    command_of = {i: inv["command"] for i, inv in enumerate(invocations) if inv["traced"]}
    calls = defaultdict(list)  # command -> run ids of its traced calls
    for run, command in command_of.items():
        calls[command].append(run)

    layer_ns = defaultdict(lambda: defaultdict(int))  # layer -> run -> self time
    name_ns = defaultdict(lambda: defaultdict(int))  # span name -> run -> total time
    name_calls = defaultdict(lambda: defaultdict(int))  # span name -> run -> calls
    spans_in = defaultdict(int)  # run -> spans
    by_name = defaultdict(list)  # span name -> spans
    for index, span in enumerate(spans):
        name, start, end, _, run, _ = span
        by_name[name].append(span)
        layer_ns[layer_of(name)][run] += own[index]
        name_ns[name][run] += end - start
        name_calls[name][run] += 1
        spans_in[run] += 1

    def per_pass(value_of_run) -> float:
        return sum(_med(value_of_run(run) for run in calls[c]) for c in COMMANDS if c in calls)

    def seconds(name: str, commands=COMMANDS) -> list[float]:
        return [(end - start) / 1e9 for _, start, end, _, run, _ in by_name[name] if command_of.get(run) in commands]

    def counts(name: str, commands=COMMANDS) -> list[int]:
        return [count for _, _, _, _, run, count in by_name[name] if command_of.get(run) in commands]

    m: dict[str, float] = {}
    for layer in LAYERS:
        if layer == "synth":  # generation is not part of a pass; its one traced call stands in
            m["synth.self_s"] = _med(layer_ns["synth"][run] / 1e9 for run in calls["generate"])
        else:
            m[f"{layer}.self_s"] = per_pass(lambda run, layer=layer: layer_ns[layer][run] / 1e9)

    m["dynamics.step_us_p50"] = probes["step_us_p50"]
    m["dynamics.step_us_p90"] = probes["step_us_p90"]

    cell_steps = per_pass(lambda run: name_calls["dynamics.step"][run] * workload.nodes)
    simulate_s = _med(seconds("montecarlo.simulate"))
    temporal_s = _med(seconds("montecarlo.temporal_influence"))
    m["montecarlo.cell_steps"] = cell_steps
    m["montecarlo.ns_per_cell_step"] = (simulate_s + temporal_s) / cell_steps * 1e9 if cell_steps else 0.0
    m["montecarlo.simulate_s"] = simulate_s
    m["montecarlo.temporal_influence_s"] = temporal_s

    # The one baseline solve of `steady-state`.
    fixed_s = _med(seconds("meanfield.fixed_point", {"steady-state"}))
    iterations = _med(counts("meanfield.fixed_point", {"steady-state"}))
    m["meanfield.fixed_point_s"] = fixed_s
    m["meanfield.iterations"] = iterations
    m["meanfield.sweep_us"] = fixed_s / iterations * 1e6 if iterations else 0.0
    m["meanfield.transition_fractions_s"] = _med(seconds("meanfield.transition_fractions", {"transitions"}))

    matrix_s = _med(seconds("influence.influence_matrix"))
    m["influence.matrix_s"] = matrix_s
    m["influence.row_ms"] = matrix_s / workload.nodes * 1e3
    m["influence.knockout_solves"] = _med(_count_under(spans, by_name["meanfield.fixed_point"], "influence.influence_matrix").values())
    m["influence.category_s"] = _med(seconds("influence.category_influence"))

    m["mle.panel_stats_s"] = _med(seconds("mle.panel_stats"))
    m["mle.loglik_eval_us"] = _med(seconds("mle.log_likelihood")) * 1e6
    m["mle.loglik_evals"] = _med(_count_under(spans, by_name["mle.log_likelihood"], "mle.fit").values())
    m["mle.fit_nit"] = _med(counts("mle.fit"))
    m["mle.fit_s"] = _med(seconds("mle.fit"))

    m["domain.load_network_s"] = _med(seconds("domain.load_network"))
    m["domain.load_panel_s"] = _med(seconds("domain.load_panel"))
    m["domain.adjacency_build_s"] = _med(seconds("domain.adjacency_matrix"))
    m["domain.panel_cells"] = _med(counts("domain.load_panel"))

    # A call's wall time minus the library calls that do its work.
    def overhead(run: int) -> float:
        return (layer_ns["cli"][run] + layer_ns["utils"][run]) / 1e9

    m["cli.overhead_s"] = per_pass(overhead)
    for command in COMMANDS:
        m[f"cli.{command}.overhead_s"] = _med(overhead(run) for run in calls[command])

    m["synth.generate_s"] = _med(seconds("synth.generate_synthetic", {"generate"}))
    m["utils.sha256_s"] = per_pass(lambda run: name_ns["utils.sha256_file"][run] / 1e9)
    m["utils.write_s"] = per_pass(lambda run: name_ns["utils.atomic_write_text"][run] / 1e9)
    m["utils.threads2_speedup"] = probes["threads2_speedup"]
    m["trace.spans"] = per_pass(lambda run: spans_in[run])
    return m
