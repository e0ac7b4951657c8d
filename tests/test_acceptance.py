"""End-to-end acceptance checks for the CARP package.

Each test prints one summary line, "ACCEPTANCE <n> PASS|FAIL: <detail>",
with pytest's capture suspended so the verdicts stay visible in the run log,
then asserts.  The numbered checks cover, in order:

1. mean-field solver convergence on a wide batch of random networks
2. mean-field accuracy against exact stationary marginals on small networks
3. maximum-likelihood recovery of known generating parameters
4. transition-fraction identities and the internal-activation share
5. Taylor approximation of the external/internal ratio (plus an optional
   check against user-supplied reference networks)
6. knockout influence concentrating on graph neighbors
7. two-hop temporal influence peaking later than one-hop
8. Monte Carlo frequencies matching mean-field within binomial bands
9. bit-identical CLI outputs across reruns and thread counts
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from carpnet import (
    ModelParams,
    SimulationConfig,
    fit,
    fixed_point,
    generate_synthetic,
    influence_matrix,
    load_network,
    log_likelihood,
    simulate,
    stationarity_residual,
    temporal_influence,
    transition_fractions,
    ext_int_ratio,
)
from carpnet.cli import run
from carpnet.dynamics import activation_prob, philox_stream

from .helpers import PARAMS_FAST, PARAMS_SLOW, make_network, random_network
from .helpers import exact_stationary_marginals

SEED = 20260815


@pytest.fixture
def verdict(capsys):
    def check(criterion: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return check


def _random_params(rng) -> ModelParams:
    # month-scale magnitudes: small per-step event rates, strong persistence
    return ModelParams(
        float(rng.uniform(3.0e-3, 5.3e-3)),
        float(rng.uniform(1.2e-3, 3.0e-3)),
        float(rng.uniform(2.5, 3.6)),
    )


def _random_edge_count(rng, nodes: int, lo: float, hi: float) -> int:
    max_edges = nodes * (nodes - 1) // 2
    return max(1, int(round(float(rng.uniform(lo, hi)) * max_edges)))


def test_criterion_1_fixed_point_converges_on_random_networks(verdict):
    rng = philox_stream(SEED, 1)
    worst_residual = worst_stationarity = 0.0
    worst_iterations = 0
    for _ in range(100):
        nodes = int(rng.integers(10, 51))
        edges = _random_edge_count(rng, nodes, 0.3, 0.65)
        params = _random_params(rng)
        network = random_network(rng, nodes, edges, 0.3, 0.8)
        steady = fixed_point(network, params, tol=1e-10, max_iter=100_000)
        assert steady.converged and steady.iterations < 100_000
        worst_residual = max(worst_residual, steady.residual)
        worst_iterations = max(worst_iterations, steady.iterations)
        worst_stationarity = max(
            worst_stationarity, stationarity_residual(steady.p_hat, network, params)
        )
    ok = worst_residual <= 1e-10 and worst_stationarity <= 1e-9
    verdict(
        1,
        ok,
        f"100/100 networks converged; worst residual {worst_residual:.2e} "
        f"(limit 1e-10), worst stationarity {worst_stationarity:.2e} "
        f"(limit 1e-9), worst iterations {worst_iterations}",
    )


def test_criterion_2_meanfield_matches_exact_chain_when_weakly_coupled(verdict):
    rng = philox_stream(SEED, 2)
    gaps = []
    for _ in range(20):
        nodes = int(rng.integers(6, 11))
        edges = _random_edge_count(rng, nodes, 0.3, 0.6)
        params = _random_params(rng)
        network = random_network(rng, nodes, edges, 0.2, 0.6)
        coupling = params.beta * max(network.degrees) * max(network.likelihoods)
        assert coupling <= 0.1  # weak-coupling regime for this batch
        exact = exact_stationary_marginals(network, params)
        steady = fixed_point(network, params, tol=1e-12)
        assert steady.converged
        gaps.append(float(np.max(np.abs(steady.p_hat - exact))))
    ok = max(gaps) <= 0.05
    listing = " ".join(f"{g:.1e}" for g in gaps)
    verdict(
        2,
        ok,
        f"max |p_hat - exact| = {max(gaps):.2e} over 20 networks "
        f"(limit 0.05); per-instance gaps: {listing}",
    )


def test_criterion_3_fit_recovers_generating_parameters(verdict):
    true_params = ModelParams(3.0e-3, 1.2e-3, 3.5)
    network, panel = generate_synthetic(
        nodes=50,
        edges=515,
        likelihood_range=(0.4, 0.7),
        params=true_params,
        panel_length=156,
        seed=19,
        initial_state="active",
    )
    result = fit(panel, network)
    errors = [
        abs(got - want) / want
        for got, want in zip(result.params, true_params.as_tuple())
    ]
    ll_true = log_likelihood(panel, network, true_params)
    ll_gap = result.log_likelihood - ll_true
    ok = result.converged and all(e <= 0.25 for e in errors) and ll_gap >= 0.0
    verdict(
        3,
        ok,
        "relative errors alpha {0:.1%} beta {1:.1%} gamma {2:.1%} "
        "(limit 25% each); fitted minus true log-likelihood {3:+.4f} "
        "(must be >= 0)".format(*errors, ll_gap),
    )


def _table_one_like_network(kind: int, seed: int):
    """Synthetic network at one of the two realistic scales used throughout."""
    if kind == 0:
        net, _ = generate_synthetic(50, 515, (0.5, 0.8), PARAMS_SLOW, 1, seed=seed)
        return net, PARAMS_SLOW
    net, _ = generate_synthetic(30, 275, (0.5, 0.8), PARAMS_FAST, 1, seed=seed)
    return net, PARAMS_FAST


def test_criterion_4_transition_fraction_identities(verdict):
    tol = 1e-12
    worst_sum = worst_slack = 0.0
    shares = []
    for k in range(10):
        network, params = _table_one_like_network(k % 2, 300 + k)
        steady = fixed_point(network, params, tol=tol)
        fractions = transition_fractions(steady, network, params)

        total = fractions.a_int + fractions.a_ext + fractions.a_rec
        worst_sum = max(worst_sum, float(np.max(np.abs(total - 1.0))))

        # a_rec sits exactly 1/2 minus half the simultaneous int+ext overlap
        # share of all transitions, so |a_rec - 1/2| is bounded by that term.
        p = steady.p_hat
        likes = network.likelihoods
        p_int = activation_prob(likes, params.alpha)
        m = network.adjacency_matrix @ p
        p_ext = activation_prob(likes, params.beta * m)
        overlap = (1.0 - p) * p_int * p_ext
        denominator = fractions.raw_int + fractions.raw_ext + fractions.raw_rec
        bound = overlap / (2.0 * denominator) + 10 * tol
        slack = float(np.max(np.abs(fractions.a_rec - 0.5) - bound))
        worst_slack = max(worst_slack, slack)

        share = fractions.a_int / (fractions.a_int + fractions.a_ext)
        shares.append(float(share.mean()))
    ok = (
        worst_sum <= 1e-12
        and worst_slack <= 0.0
        and all(0.15 <= s <= 0.35 for s in shares)
    )
    verdict(
        4,
        ok,
        f"worst |a_int+a_ext+a_rec-1| = {worst_sum:.2e} (limit 1e-12); "
        f"recovery-share bound slack {worst_slack:.2e} (must be <= 0); "
        f"mean internal activation shares {min(shares):.3f}..{max(shares):.3f} "
        f"(must lie in [0.15, 0.35])",
    )


def test_criterion_5_taylor_ratio_accuracy(verdict):
    rng = philox_stream(SEED, 5)
    worst = 0.0
    qualifying = 0
    for _ in range(40):
        nodes = int(rng.integers(4, 9))
        max_edges = nodes * (nodes - 1) // 2
        edges = int(rng.integers(nodes - 1, max_edges + 1))
        alpha = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e-2))))
        beta = float(np.exp(rng.uniform(np.log(1e-5), np.log(1e-3))))
        gamma = float(rng.uniform(0.5, 4.0))
        params = ModelParams(alpha, beta, gamma)
        graph_seed = int(rng.integers(0, 2**32))
        network, _ = generate_synthetic(
            nodes, edges, (0.05, 0.95), params, 1, seed=graph_seed
        )
        steady = fixed_point(network, params, tol=1e-12)
        assert steady.converged
        for i in range(nodes):
            if network.degrees[i] == 0:
                continue
            m = float(steady.p_hat[list(network.adjacency[i])].sum())
            if alpha > 1e-2 or params.beta * m > 1e-2:
                continue  # approximation is only promised for small exponents
            exact, taylor = ext_int_ratio(steady, network, params, i)
            worst = max(worst, abs(exact - taylor) / exact)
            qualifying += 1
    ok = qualifying >= 100 and worst <= 2e-2
    verdict(
        5,
        ok,
        f"worst |exact - taylor|/exact = {worst:.2e} over {qualifying} "
        f"small-exponent risks (limit 2e-2)",
    )


@pytest.mark.parametrize(
    "env_var, params, target",
    [
        ("CARPNET_NETWORK_2013", PARAMS_SLOW, 2.69),
        ("CARPNET_NETWORK_2017", PARAMS_FAST, 3.07),
    ],
)
def test_criterion_5_reference_network_average_ratio(verdict, env_var, params, target):
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(
            f"{env_var} not set; point it at the matching reference network "
            f"file to check the network-average external/internal ratio"
        )
    network = load_network(path)
    steady = fixed_point(network, params, tol=1e-12)
    assert steady.converged
    ratios = [
        ext_int_ratio(steady, network, params, r.id)[0]
        for r in network.risks
        if network.degrees[r.id] > 0
    ]
    average = float(np.mean(ratios))
    ok = abs(average - target) / target <= 0.05
    verdict(
        5,
        ok,
        f"{env_var}: network-average ratio {average:.3f} vs {target} "
        f"(limit 5% relative)",
    )


def test_criterion_6_knockout_influence_lands_on_neighbors(verdict):
    hits = total = 0
    per_network = []
    for k in range(20):
        network, params = _table_one_like_network(k % 2, 400 + k)
        matrix = influence_matrix(network, params)
        net_hits = net_total = 0
        for i in range(len(network.risks)):
            degree = int(network.degrees[i])
            if degree == 0:
                continue
            top = set(matrix.top_influenced(i, degree))
            neighbors = set(int(j) for j in network.adjacency[i])
            net_hits += top == neighbors
            net_total += 1
        per_network.append(net_hits / net_total)
        hits += net_hits
        total += net_total
    fraction = hits / total

    # isolated risks: knocking them out must not move anyone else's inflow
    tol = 1e-10
    isolated_net = make_network(
        [0.3, 0.5, 0.7, 0.4, 0.6, 0.45, 0.55, 0.35],
        edges=[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)],
    )
    isolated = [5, 6, 7]
    matrix = influence_matrix(isolated_net, PARAMS_FAST, tol=tol)
    worst_isolated = max(
        float(np.max(np.abs(matrix.values[i]))) for i in isolated
    )

    ok = fraction >= 0.9 and worst_isolated <= 10 * tol
    verdict(
        6,
        ok,
        f"top-degree influenced == neighbor set for {fraction:.1%} of "
        f"{total} risks across 20 networks (min per-network "
        f"{min(per_network):.1%}, expected >= 90%); worst isolated-risk "
        f"outgoing influence {worst_isolated:.2e} (limit {10 * tol:.0e})",
    )


def test_criterion_7_two_hop_influence_peaks_later(verdict):
    params = PARAMS_FAST
    network, _ = generate_synthetic(30, 275, (0.5, 0.8), params, 1, seed=101)
    horizon, blocks, runs_per_block = 60, 20, 50
    sources = list(range(0, 30, 3))

    one_blocks = np.zeros((blocks, horizon))
    two_blocks = np.zeros((blocks, horizon))
    for source in sources:
        for b in range(blocks):
            config = SimulationConfig(
                runs=runs_per_block, horizon=horizon, seed=1000 + b
            )
            result = temporal_influence(network, params, source, config)
            assert result.one_hop is not None and result.two_hop is not None
            one_blocks[b] += result.one_hop
            two_blocks[b] += result.two_hop
    one_blocks /= len(sources)
    two_blocks /= len(sources)

    one_peak = int(one_blocks.mean(axis=0).argmax())
    two_peak = int(two_blocks.mean(axis=0).argmax())

    # bootstrap over the 20 independent simulation blocks
    rng = np.random.default_rng(7)
    diffs = np.array(
        [
            int(two_blocks[pick].mean(axis=0).argmax())
            - int(one_blocks[pick].mean(axis=0).argmax())
            for pick in (rng.integers(0, blocks, size=blocks) for _ in range(2000))
        ]
    )
    confidence = float((diffs > 0).mean())
    ok = two_peak > one_peak and confidence >= 0.95
    verdict(
        7,
        ok,
        f"one-hop peak at t={one_peak}, two-hop at t={two_peak} "
        f"({len(sources)} sources x {blocks * runs_per_block} runs); "
        f"bootstrap P(two-hop later) = {confidence:.4f} (need >= 0.95)",
    )


def test_criterion_8_simulated_frequencies_match_meanfield(verdict):
    runs, horizon = 1000, 60
    worst_excess = -np.inf
    out_of_band = 0
    for k in range(3):
        network, _ = generate_synthetic(
            20, 76, (0.2, 0.6), PARAMS_FAST, 1, seed=500 + k
        )
        params = PARAMS_FAST
        coupling = params.beta * max(network.degrees) * max(network.likelihoods)
        assert coupling <= 0.1  # weak coupling keeps the mean field honest
        steady = fixed_point(network, params, tol=1e-12)
        assert steady.converged
        trajectory = simulate(
            network,
            params,
            SimulationConfig(runs=runs, horizon=horizon, seed=500 + k, threads=4),
        )
        freq = trajectory.frequencies[:, -1]
        sigma = np.sqrt(steady.p_hat * (1.0 - steady.p_hat) / runs)
        band = 3.0 * sigma + 0.05  # binomial noise plus mean-field allowance
        excess = np.abs(freq - steady.p_hat) - band
        out_of_band += int(np.sum(excess > 0))
        worst_excess = max(worst_excess, float(excess.max()))
    ok = out_of_band == 0
    verdict(
        8,
        ok,
        f"{out_of_band} of 60 risks outside the 3-sigma + 0.05 band after "
        f"{horizon} steps of {runs} runs (worst excess {worst_excess:+.3f})",
    )


def _run_ok(argv, expect=0):
    code = run([str(a) for a in argv])
    assert code == expect, f"{argv[0]} exited {code}, expected {expect}"


def _snapshot(paths):
    return [p.read_bytes() for p in paths]


def test_criterion_9_cli_outputs_are_bit_identical(verdict, tmp_path):
    net = tmp_path / "net.json"
    panel = tmp_path / "panel.csv"
    model = ["--alpha", "6e-3", "--beta", "3e-3", "--gamma", "2.5"]
    commands = {}

    def _with_sidecar(*paths):
        sidecars = [p.parent / (p.name + ".meta.json") for p in paths]
        return list(paths) + sidecars

    generate = [
        "generate", "--nodes", "10", "--edges", "14",
        "--likelihood-range", "0.45", "0.8", *model,
        "--panel-length", "30", "--seed", "7", "--initial-state", "active",
        "--network-out", net, "--panel-out", panel,
    ]
    commands["generate"] = (generate, [net] + _with_sidecar(panel), False)

    fit_out = tmp_path / "fit.json"  # self-describing document, no sidecar
    commands["fit"] = (
        ["fit", "--network", net, "--panel", panel, "--output", fit_out],
        [fit_out],
        True,
    )
    steady_out = tmp_path / "steady.csv"
    commands["steady-state"] = (
        ["steady-state", "--network", net, *model, "--output", steady_out],
        _with_sidecar(steady_out),
        False,
    )
    transitions_out = tmp_path / "transitions.csv"
    commands["transitions"] = (
        ["transitions", "--network", net, *model, "--output", transitions_out],
        _with_sidecar(transitions_out),
        False,
    )
    simulate_out = tmp_path / "simulate.csv"
    commands["simulate"] = (
        ["simulate", "--network", net, *model, "--runs", "200",
         "--horizon", "40", "--seed", "3", "--output", simulate_out],
        _with_sidecar(simulate_out),
        True,
    )
    temporal_out = tmp_path / "temporal.csv"
    commands["temporal-influence"] = (
        ["temporal-influence", "--network", net, *model, "--source", "0",
         "--runs", "40", "--horizon", "20", "--seed", "3",
         "--output", temporal_out],
        _with_sidecar(temporal_out),
        True,
    )
    influence_out = tmp_path / "influence.csv"
    commands["influence"] = (
        ["influence", "--network", net, *model, "--output", influence_out],
        _with_sidecar(influence_out),
        True,
    )
    category_out = tmp_path / "categories.csv"
    commands["category-influence"] = (
        ["category-influence", "--network", net, *model,
         "--output", category_out],
        _with_sidecar(category_out),
        True,
    )

    checked = 0
    for name, (argv, outputs, threaded) in commands.items():
        _run_ok(argv)
        first = _snapshot(outputs)
        _run_ok(argv)
        assert _snapshot(outputs) == first, f"{name}: rerun changed output bytes"
        if threaded:
            for threads in ("1", "3"):
                _run_ok(argv + ["--threads", threads])
                assert _snapshot(outputs) == first, (
                    f"{name}: --threads {threads} changed output bytes"
                )
        checked += 1
    verdict(
        9,
        checked == len(commands),
        f"{checked} subcommands byte-identical across reruns, "
        f"including --threads 1 vs 3 where supported",
    )
