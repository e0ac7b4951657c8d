"""Monte Carlo ensembles: determinism, coupling properties, temporal influence."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carpnet import (
    ConvergenceError,
    ModelParams,
    NetworkState,
    SimulationConfig,
    SteadyState,
    ValidationError,
    fixed_point,
    activation_prob,
    philox_stream,
    simulate,
    step,
    survival_prob,
    temporal_influence,
)
from carpnet import montecarlo
from tests.helpers import PARAMS_FAST, bfs_distances, make_network, random_network, small_graphs


def small_network():
    return make_network([0.5, 0.6, 0.7, 0.4], [(0, 1), (1, 2), (2, 3)])


class TestSimulate:
    def test_bit_identical_across_reruns_and_thread_counts(self):
        net = small_network()
        base = simulate(net, PARAMS_FAST, SimulationConfig(runs=50, horizon=40, seed=9, threads=1))
        rerun = simulate(net, PARAMS_FAST, SimulationConfig(runs=50, horizon=40, seed=9, threads=1))
        threaded = simulate(net, PARAMS_FAST, SimulationConfig(runs=50, horizon=40, seed=9, threads=4))
        assert (base.counts == rerun.counts).all()
        assert (base.counts == threaded.counts).all()

    def test_first_column_is_the_initial_condition(self):
        net = small_network()
        dormant = simulate(net, PARAMS_FAST, SimulationConfig(runs=30, horizon=10, seed=2))
        active = simulate(
            net, PARAMS_FAST, SimulationConfig(runs=30, horizon=10, seed=2, initial_state="active")
        )
        assert (dormant.counts[:, 0] == 0).all()
        assert (active.counts[:, 0] == 30).all()

    def test_explicit_initial_vector(self):
        net = small_network()
        config = SimulationConfig(runs=10, horizon=5, seed=2, initial_state=[1, 0, 0, 1])
        trajectory = simulate(net, PARAMS_FAST, config)
        assert list(trajectory.counts[:, 0]) == [10, 0, 0, 10]

    def test_frequencies_are_exact_multiples_of_one_over_runs(self):
        net = small_network()
        trajectory = simulate(net, PARAMS_FAST, SimulationConfig(runs=16, horizon=12, seed=3))
        scaled = trajectory.frequencies * 16
        assert np.allclose(scaled, np.round(scaled), atol=0.0)

    def test_adding_runs_never_changes_earlier_runs(self):
        net = small_network()
        short = simulate(
            net, PARAMS_FAST, SimulationConfig(runs=5, horizon=15, seed=4, record_panels=True)
        )
        longer = simulate(
            net, PARAMS_FAST, SimulationConfig(runs=9, horizon=15, seed=4, record_panels=True)
        )
        for a, b in zip(short.panels, longer.panels[:5]):
            assert (a.states == b.states).all()

    def test_recorded_panels_reproduce_the_counts(self):
        net = small_network()
        trajectory = simulate(
            net, PARAMS_FAST, SimulationConfig(runs=7, horizon=20, seed=5, record_panels=True)
        )
        stacked = sum(np.asarray(p.states, dtype=np.int64) for p in trajectory.panels)
        assert (stacked == trajectory.counts).all()

    def test_monotone_coupling_in_likelihoods(self):
        # with gamma >= alpha + beta * max degree, continuation dominates any
        # activation probability, so sharing uniforms preserves the state
        # order between a network and a pointwise-riskier copy
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        low = make_network([0.2, 0.3, 0.25, 0.35], edges)
        high = make_network([0.4, 0.5, 0.45, 0.55], edges)
        params = ModelParams(0.05, 0.05, 0.3)
        config = SimulationConfig(runs=60, horizon=40, seed=6)
        counts_low = simulate(low, params, config).counts
        counts_high = simulate(high, params, config).counts
        assert (counts_high >= counts_low).all()

    def test_long_run_frequency_of_single_risk_matches_theory(self):
        # for one isolated risk the chain is a two-state Markov chain with
        # stationary probability p_int / (p_int + p_rec)
        net = make_network([0.6])
        params = ModelParams(0.4, 0.1, 0.8)
        p_int, p_rec = activation_prob(0.6, params.alpha), survival_prob(0.6, params.gamma)
        expected = p_int / (p_int + p_rec)
        config = SimulationConfig(runs=4000, horizon=60, seed=8)
        freq = simulate(net, params, config).frequencies[0, -1]
        sigma = np.sqrt(expected * (1.0 - expected) / 4000)
        assert abs(freq - expected) < 4 * sigma

    def test_cell_budget_guard(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "MAX_CELLS", 100)
        net = small_network()  # R = 4
        with pytest.raises(ValidationError, match="requested 400 state cells"):
            simulate(net, PARAMS_FAST, SimulationConfig(runs=1, horizon=100))
        with pytest.raises(ValidationError, match="requested 120 state cells"):  # counts and two panels
            simulate(net, PARAMS_FAST, SimulationConfig(runs=2, horizon=10, record_panels=True))
        with pytest.raises(ValidationError, match="requested 160 state cells"):  # two count tables
            temporal_influence(net, PARAMS_FAST, 1, SimulationConfig(runs=1, horizon=20))

    def test_run_count_alone_does_not_hit_the_cell_budget(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "MAX_CELLS", 100)
        net = small_network()
        # 400 runs x 25 steps x 4 risks is 40000 cells stepped, but the count table holds 100
        trajectory = simulate(net, PARAMS_FAST, SimulationConfig(runs=400, horizon=25, seed=3))
        assert trajectory.counts.shape == (4, 25)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SimulationConfig(runs=0)
        with pytest.raises(ValidationError):
            SimulationConfig(horizon=0)
        with pytest.raises(ValidationError):
            SimulationConfig(threads=0)
        net = small_network()
        with pytest.raises(ValidationError):
            simulate(net, PARAMS_FAST, SimulationConfig(initial_state="everything"))
        with pytest.raises(ValidationError):
            simulate(net, PARAMS_FAST, SimulationConfig(initial_state=[1, 0]))


def bfs_layers(size: int, edges, source: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    distances = bfs_distances(size, edges, source)
    one, two = (tuple(sorted(n for n, d in distances.items() if d == hop)) for hop in (1, 2))
    return one, two


def layer_ids(size: int, edges, source: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    net = make_network([0.5] * size, edges)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty two-hop layer warns
        result = temporal_influence(net, PARAMS_FAST, source, SimulationConfig(runs=1, horizon=1))
    return result.one_hop_ids, result.two_hop_ids


STAR = [(0, leaf) for leaf in range(1, 6)]
LAYER_CASES = {  # name -> (size, edges, source, one-hop ids, two-hop ids)
    "isolated-source": (4, [(1, 2), (2, 3)], 0, (), ()),
    "degree-1-source": (4, [(0, 1), (1, 2), (2, 3)], 0, (1,), (2,)),
    "star-center": (6, STAR, 0, (1, 2, 3, 4, 5), ()),
    "star-leaf": (6, STAR, 3, (0,), (1, 2, 4, 5)),
    "disconnected": (7, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6)], 1, (0, 2), (3,)),
    "triangle-is-not-two-hop": (3, [(0, 1), (1, 2), (0, 2)], 0, (1, 2), ()),
}


class TestDistanceLayers:
    @pytest.mark.parametrize("size, edges, source, one, two", LAYER_CASES.values(), ids=LAYER_CASES.keys())
    def test_named_graphs(self, size, edges, source, one, two):
        assert bfs_layers(size, edges, source) == (one, two)
        assert layer_ids(size, edges, source) == (one, two)

    @settings(deadline=None)
    @given(st.data(), small_graphs())
    def test_match_breadth_first_search_on_random_graphs(self, data, graph):
        size, edges = graph
        source = data.draw(st.integers(min_value=0, max_value=size - 1))
        assert layer_ids(size, edges, source) == bfs_layers(size, edges, source)


class TestTemporalInfluence:
    def test_influence_cannot_reach_beyond_distance_t(self):
        # shared uniforms make runs identical until the source's effect has
        # had time to travel, so the influence on a risk at graph distance d
        # is exactly zero for all t < d
        net = make_network([0.5, 0.5, 0.5, 0.5], [(0, 1), (1, 2), (2, 3)])
        config = SimulationConfig(runs=40, horizon=12, seed=11)
        result = temporal_influence(net, ModelParams(0.3, 0.4, 0.5), 0, config)
        assert result.per_risk[1, 0] == 0.0
        assert result.per_risk[2, 0] == 0.0
        assert result.per_risk[2, 1] == 0.0
        assert result.per_risk[3, 0] == 0.0
        assert result.per_risk[3, 1] == 0.0
        assert result.per_risk[3, 2] == 0.0
        assert result.per_risk[0, 0] == 1.0

    def test_layers_are_graph_distances(self):
        net = make_network([0.5] * 5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        config = SimulationConfig(runs=5, horizon=5, seed=1)
        result = temporal_influence(net, PARAMS_FAST, 0, config)
        assert result.one_hop_ids == (1, 2)
        assert result.two_hop_ids == (3,)
        assert result.one_hop is not None
        assert result.two_hop is not None
        assert result.one_hop[0] == 0.0

    def test_isolated_source_influences_nothing(self):
        net = make_network([0.5, 0.6, 0.7], [(1, 2)])
        config = SimulationConfig(runs=30, horizon=15, seed=13)
        with pytest.warns(UserWarning):
            result = temporal_influence(net, PARAMS_FAST, 0, config)
        assert (result.per_risk[1] == 0.0).all()
        assert (result.per_risk[2] == 0.0).all()
        assert result.one_hop is None
        assert result.two_hop is None

    def test_missing_two_hop_layer_warns(self):
        net = make_network([0.5, 0.6], [(0, 1)])
        config = SimulationConfig(runs=5, horizon=5, seed=1)
        with pytest.warns(UserWarning):
            result = temporal_influence(net, PARAMS_FAST, 0, config)
        assert result.two_hop is None
        assert result.one_hop is not None

    def test_one_hop_influence_is_positive_once_contagion_kicks_in(self):
        net = make_network([0.5, 0.5, 0.5], [(0, 1), (1, 2)])
        params = ModelParams(0.01, 0.8, 1.2)
        config = SimulationConfig(runs=400, horizon=8, seed=17)
        result = temporal_influence(net, params, 0, config)
        assert result.one_hop[1] > 0.1

    def test_steady_baseline_starts_near_the_fixed_point(self):
        net = small_network()
        steady = fixed_point(net, PARAMS_FAST)
        config = SimulationConfig(runs=3000, horizon=3, seed=19)
        result = temporal_influence(net, PARAMS_FAST, 0, config, baseline="steady")
        # ensemble B draws initial bits from p_hat; influence at t=0 away
        # from the source is exactly zero because the draws are shared
        others = [j for j in range(net.size) if j != 0]
        assert all(result.per_risk[j, 0] == 0.0 for j in others)
        assert 0.0 < result.per_risk[0, 0] <= 1.0

    def test_deterministic_across_threads(self):
        net = small_network()
        config_a = SimulationConfig(runs=30, horizon=10, seed=23, threads=1)
        config_b = SimulationConfig(runs=30, horizon=10, seed=23, threads=3)
        a = temporal_influence(net, PARAMS_FAST, 1, config_a)
        b = temporal_influence(net, PARAMS_FAST, 1, config_b)
        assert (a.per_risk == b.per_risk).all()

    def test_validation(self):
        net = small_network()
        config = SimulationConfig(runs=3, horizon=3)
        with pytest.raises(ValidationError):
            temporal_influence(net, PARAMS_FAST, 99, config)
        with pytest.raises(ValidationError):
            temporal_influence(net, PARAMS_FAST, 0, config, baseline="noise")

    def test_unconverged_steady_baseline_raises_convergence_error(self, monkeypatch):
        net = small_network()
        unconverged = SteadyState(np.full(net.size, 0.5), iterations=1, residual=1.0, converged=False)
        monkeypatch.setattr(montecarlo, "fixed_point", lambda network, params: unconverged)
        with pytest.raises(ConvergenceError, match="^steady baseline requires a converged mean-field solve$"):
            temporal_influence(net, PARAMS_FAST, 0, SimulationConfig(runs=3, horizon=3), baseline="steady")


def loop_track(network, params, bits, horizon, rng):
    """One run as a loop of public ``step`` calls: the (R × horizon) 0/1 track."""
    state = NetworkState(bits)
    track = [state.bits]
    for _ in range(1, horizon):
        state = step(state, network, params, rng)
        track.append(state.bits)
    return np.stack(track, axis=1)


def loop_simulate(network, params, config, init_bits):
    """Per-run tracks of ``simulate``, run r stepped alone on ``philox_stream(seed, r)``."""
    return [
        loop_track(network, params, init_bits, config.horizon, philox_stream(config.seed, r))
        for r in range(config.runs)
    ]


def loop_temporal_influence(network, params, source, config, baseline):
    """``per_risk`` of ``temporal_influence``, each ensemble replaying every run's stream alone."""
    p_steady = fixed_point(network, params).p_hat if baseline == "steady" else None
    counts = np.zeros((2, network.size, config.horizon), dtype=np.int64)
    for r in range(config.runs):
        rng_a, rng_b = philox_stream(config.seed, r), philox_stream(config.seed, r)
        base = np.zeros(network.size, dtype=np.int8)
        if p_steady is not None:
            base = (rng_a.random(network.size) < p_steady).astype(np.int8)
            rng_b.random(network.size)
        forced = base.copy()
        forced[source] = 1
        counts[0] += loop_track(network, params, forced, config.horizon, rng_a)
        counts[1] += loop_track(network, params, base, config.horizon, rng_b)
    return (counts[0] - counts[1]) / float(config.runs)


# BLOCK_CELLS values giving (runs per block, steps per chunk) of one block,
# (2, 2) and (1, 1) on the 12-risk network below
BLOCK_CELLS = [montecarlo.BLOCK_CELLS, 60, 1]


class TestBatchedEnsembleMatchesStepLoop:
    """Blocked, chunked stepping reproduces a loop of single ``step`` calls exactly."""

    NETWORK = random_network(np.random.default_rng(5), 12, 30, 0.4, 0.8)
    PARAMS = ModelParams(0.05, 0.08, 1.5)

    @pytest.fixture(params=BLOCK_CELLS, ids=lambda cells: f"cells{cells}")
    def block_cells(self, request, monkeypatch):
        monkeypatch.setattr(montecarlo, "BLOCK_CELLS", request.param)
        return request.param

    @pytest.mark.parametrize("horizon", [1, 2, 9])
    @pytest.mark.parametrize(
        "initial, init_bits",
        [("dormant", [0] * 12), ("active", [1] * 12), ([1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1],) * 2],
        ids=["dormant", "active", "vector"],
    )
    def test_simulate_counts_and_panels(self, block_cells, horizon, initial, init_bits):
        net = self.NETWORK
        config = SimulationConfig(runs=7, horizon=horizon, seed=31, initial_state=initial, record_panels=True)
        tracks = loop_simulate(net, self.PARAMS, config, init_bits)
        trajectory = simulate(net, self.PARAMS, config)
        assert [panel.states.tolist() for panel in trajectory.panels] == [t.tolist() for t in tracks]
        assert np.array_equal(trajectory.counts, sum(t.astype(np.int64) for t in tracks))

    @pytest.mark.parametrize("baseline", ["dormant", "steady"])
    def test_temporal_influence_per_risk(self, block_cells, baseline):
        net = self.NETWORK
        config = SimulationConfig(runs=7, horizon=9, seed=37)
        expected = loop_temporal_influence(net, self.PARAMS, 2, config, baseline)
        result = temporal_influence(net, self.PARAMS, 2, config, baseline=baseline)
        assert np.array_equal(result.per_risk, expected)
