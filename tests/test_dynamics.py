"""Transition kernel: activation probabilities, stepping, streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carpnet import (
    EventPanel,
    ModelParams,
    NetworkState,
    PanelStats,
    ValidationError,
    activation_prob,
    philox_stream,
    step,
    survival_prob,
)
from tests.helpers import PARAMS_SLOW, make_network, python_neighbor_counts, small_graphs

likelihood_values = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
exponent_values = st.floats(min_value=1e-4, max_value=50.0)


class TestActivationProb:
    def test_matches_hand_computed_internal_probability(self):
        # 1 - (1 - 0.5)**3.04e-3, evaluated independently at high precision
        assert activation_prob(0.5, PARAMS_SLOW.alpha) == pytest.approx(0.0021049489101525921, rel=1e-14)

    def test_hand_computed_value_with_two_active_neighbors(self):
        # alpha, beta chosen so p_int = 0.1 and p_ext = 0.2 at L = 0.5:
        # activation = 1 - 0.9 * 0.8**2 = 0.424
        alpha, beta = 0.15200309344504998, 0.32192809488736235
        assert activation_prob(0.5, alpha + 2 * beta) == pytest.approx(0.424, rel=1e-12)

    def test_exponent_one_reduces_to_likelihood(self):
        assert activation_prob(0.42, 1.0) == 0.42

    def test_exponent_one_survival_is_the_exact_complement(self):
        assert survival_prob(0.37, 1.0) == 1.0 - 0.37

    def test_recovery_complements_continuation_exactly(self):
        # mean field takes p_rec from survival_prob, the stepping kernel p_con from activation_prob
        assert survival_prob(0.73, 2.8) + activation_prob(0.73, 2.8) == 1.0

    @given(likelihood=likelihood_values, exponent=exponent_values)
    def test_probabilities_stay_inside_unit_interval(self, likelihood, exponent):
        for value in (activation_prob(likelihood, exponent), survival_prob(likelihood, exponent)):
            assert 0.0 <= value <= 1.0

    @given(
        low=likelihood_values,
        high=likelihood_values,
        alpha=exponent_values,
    )
    def test_internal_probability_monotone_in_likelihood(self, low, high, alpha):
        if low > high:
            low, high = high, low
        assert activation_prob(low, alpha) <= activation_prob(high, alpha)

    def test_tiny_exponent_keeps_relative_accuracy(self):
        # 1 - (1-L)**e ~ -e*log1p(-L) for tiny e; a naive power would round to 0
        p_int = activation_prob(0.5, 1e-12)
        assert p_int == pytest.approx(1e-12 * np.log(2.0), rel=1e-9)
        assert p_int > 0.0


class TestNetworkState:
    @pytest.mark.parametrize("bad", [2, 0.5, np.nan, -1])
    def test_rejects_non_binary_bits(self, bad):
        with pytest.raises(ValidationError):
            NetworkState(np.array([0, bad]))

    @pytest.mark.parametrize("one", [1.0, True])
    def test_accepts_binary_values_of_any_dtype(self, one):
        state = NetworkState(np.array([0, one]))
        assert state.bits.dtype == np.int8
        assert state.bits.tolist() == [0, 1]

    def test_constructors(self):
        assert NetworkState.dormant(3).n_active == 0
        assert NetworkState.active(3).n_active == 3

    def test_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            NetworkState(np.array([0, 1]), time=-1)


class TestStep:
    def test_same_stream_replays_identically(self):
        net = make_network([0.4, 0.6, 0.7], [(0, 1), (1, 2)])
        params = ModelParams(0.3, 0.2, 0.8)
        state = NetworkState(np.array([1, 0, 1]))
        first = step(state, net, params, philox_stream(11, 4))
        second = step(state, net, params, philox_stream(11, 4))
        assert (first.bits == second.bits).all()
        assert first.time == state.time + 1

    def test_consumes_exactly_one_uniform_per_risk(self):
        net = make_network([0.4, 0.6, 0.7], [(0, 1), (1, 2)])
        params = ModelParams(0.3, 0.2, 0.8)
        consumed = philox_stream(5, 0)
        step(NetworkState.dormant(3), net, params, consumed)
        reference = philox_stream(5, 0)
        reference.random(3)
        assert consumed.random() == reference.random()

    def test_single_risk_stay_active_frequency_matches_p_con(self):
        net = make_network([0.55])
        params = ModelParams(0.02, 0.01, 1.7)
        p_con = activation_prob(0.55, params.gamma)
        rng = philox_stream(123, 0)
        active_state = NetworkState.active(1)
        stays = sum(int(step(active_state, net, params, rng).bits[0]) for _ in range(20000))
        freq = stays / 20000
        sigma = np.sqrt(p_con * (1.0 - p_con) / 20000)
        assert abs(freq - p_con) < 4 * sigma

    def test_state_size_must_match_network(self):
        net = make_network([0.4, 0.6])
        with pytest.raises(ValidationError):
            step(NetworkState.dormant(3), net, ModelParams(0.1, 0.1, 1.0), philox_stream(0))


def python_transition_counts(network, states):
    """``PanelStats`` tables (c01, c00, n11, n10) by plain Python counting."""
    degree = max(len(network.neighbors(i)) for i in range(network.size))
    c01 = np.zeros((network.size, degree + 1), dtype=np.int64)
    c00 = np.zeros_like(c01)
    n11 = np.zeros(network.size, dtype=np.int64)
    n10 = np.zeros_like(n11)
    for t in range(states.shape[1] - 1):
        counts = python_neighbor_counts(network, states[:, t])
        for i, k in enumerate(counts):
            old, new = states[i, t], states[i, t + 1]
            if old == 0:
                (c01 if new else c00)[i, k] += 1
            else:
                (n11 if new else n10)[i] += 1
    return c01, c00, n11, n10


def python_step(network, bits, params, uniforms):
    """One synchronous step with plain ``**`` arithmetic and Python neighbor counts."""
    counts = python_neighbor_counts(network, bits)
    alpha, beta, gamma = params.as_tuple()
    return [
        int(u < 1.0 - (1.0 - risk.normalized_likelihood) ** (gamma if b else alpha + k * beta))
        for u, b, k, risk in zip(uniforms, bits, counts, network.risks)
    ]


def hub_star(leaves=200):
    """Hub 0 joined to ``leaves`` leaves: past 127 active leaves an int8 count would wrap."""
    return make_network([0.5] * (leaves + 1), [(0, j) for j in range(1, leaves + 1)])


HUB_PARAMS = ModelParams(0.01, 0.05, 1.5)


def assert_panel_stats_match_python(network, states):
    stats = PanelStats(EventPanel(states), network)
    c01, c00, n11, n10 = python_transition_counts(network, states)
    assert np.array_equal(stats.c01, c01)
    assert np.array_equal(stats.c00, c00)
    assert np.array_equal(stats.n11, n11)
    assert np.array_equal(stats.n10, n10)


class TestNeighborCountOracle:
    """Kernel consumers against a pure-Python neighbor count on high-degree hubs."""

    def _hub_dormant_leaves_active(self, network):
        return np.array([0] + [1] * (network.size - 1))

    def test_neighbor_counts_count_every_active_leaf(self):
        network = hub_star()
        bits = self._hub_dormant_leaves_active(network).astype(np.int8)
        assert network.neighbor_counts(bits).tolist() == [200] + [0] * 200  # past int8's 127
        counts = network.neighbor_counts(np.zeros_like(bits))
        network.update_counts(counts, np.zeros_like(bits), bits)
        assert counts.tolist() == [200] + [0] * 200

    @pytest.mark.parametrize("leaves", [3, 200])  # dense matrix product, sparse scatter
    def test_own_state_is_ignored(self, leaves):
        network = hub_star(leaves)
        dormant_hub = self._hub_dormant_leaves_active(network).astype(np.int8)
        active_hub = np.ones_like(dormant_hub)
        assert network.dense_products == (leaves == 3)
        assert network.neighbor_counts(active_hub)[0] == network.neighbor_counts(dormant_hub)[0] == leaves

    def test_step_matches_a_python_reference_step(self):
        network = hub_star()
        bits = self._hub_dormant_leaves_active(network)
        for seed in range(5):
            uniforms = philox_stream(seed, 0).random(network.size)
            got = step(NetworkState(bits), network, HUB_PARAMS, philox_stream(seed, 0))
            assert got.bits.tolist() == python_step(network, bits, HUB_PARAMS, uniforms)

    def test_panel_stats_match_python_transition_counts(self):
        network = hub_star()
        assert not network.dense_products  # counted by a running sum of each month's changes
        states = np.ones((network.size, 6), dtype=np.int8)
        states[0] = [0, 0, 1, 0, 0, 1]  # hub stays dormant, then activates, under 200 active leaves
        states[1:, 3] = 0  # then every leaf turns off, half of them on again, and then all of them
        states[1::2, 4] = 0
        assert_panel_stats_match_python(network, states)

    @settings(max_examples=50, deadline=None)
    @given(graph=small_graphs(), months=st.integers(min_value=2, max_value=8), seed=st.integers(0, 2**32 - 1))
    def test_panel_stats_match_python_on_any_graph(self, graph, months, seed):
        size, edges = graph
        network = make_network([0.5] * size, edges)
        rng = np.random.default_rng(seed)
        states = (rng.random((size, months)) < rng.random()).astype(np.int8)
        assert_panel_stats_match_python(network, states)

    @settings(max_examples=25, deadline=None)
    @given(
        leaves=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_any_degree_and_active_set_matches_python(self, leaves, seed, density):
        network = hub_star(leaves)
        rng = np.random.default_rng(seed)
        states = (rng.random((network.size, 2)) < density).astype(np.int8)
        bits = states[:, 0]
        assert network.neighbor_counts(bits).tolist() == list(python_neighbor_counts(network, bits))
        uniforms = philox_stream(seed, 0).random(network.size)
        got = step(NetworkState(bits), network, HUB_PARAMS, philox_stream(seed, 0))
        assert got.bits.tolist() == python_step(network, bits, HUB_PARAMS, uniforms)
        assert_panel_stats_match_python(network, states)


class TestPhiloxStream:
    def test_keyed_replay_and_divergence(self):
        assert philox_stream(42, 3).random(4).tolist() == philox_stream(42, 3).random(4).tolist()
        assert philox_stream(42, 3).random() != philox_stream(42, 4).random()
        assert philox_stream(42, 3).random() != philox_stream(43, 3).random()

    def test_rejects_out_of_range_keys(self):
        for seed, stream in ((-1, 0), (2**64, 0), (0, -5), (0, 2**64)):
            with pytest.raises(ValidationError):
                philox_stream(seed, stream)

    def test_rejects_non_integer_keys(self):
        with pytest.raises(ValidationError):
            philox_stream(1.5)
