"""Mean-field fixed point, stationarity, and transition decomposition."""

import numpy as np
import pytest

from carpnet import (
    InitMode,
    ModelParams,
    ValidationError,
    activation_prob,
    ext_int_ratio,
    ext_int_ratios,
    fixed_point,
    generate_synthetic,
    philox_stream,
    stationarity_residual,
    survival_prob,
    transition_fractions,
)
from carpnet.meanfield import solve_block
from tests.helpers import PARAMS_FAST, DenseOperand, dense_adjacency, make_network, random_network

TWO_NODE_PARAMS = ModelParams(0.1, 0.05, 1.0)


def two_node_network():
    return make_network([0.3, 0.6], [(0, 1)])


class TestFixedPoint:
    def test_two_node_solution_matches_high_precision_oracle(self):
        # solved independently at 40-digit precision
        steady = fixed_point(two_node_network(), TWO_NODE_PARAMS, tol=1e-14)
        assert steady.converged
        assert steady.p_hat[0] == pytest.approx(0.051730072272846801, rel=1e-11)
        assert steady.p_hat[1] == pytest.approx(0.183200699864184183, rel=1e-11)

    def test_isolated_risk_has_closed_form_solution(self):
        params = ModelParams(0.02, 0.01, 1.3)
        steady = fixed_point(make_network([0.45]), params, tol=1e-14)
        p_int, p_rec = activation_prob(0.45, params.alpha), survival_prob(0.45, params.gamma)
        expected = p_int / (p_int + p_rec)
        assert steady.p_hat[0] == pytest.approx(expected, rel=1e-12)

    def test_reports_iterations_and_residual(self):
        steady = fixed_point(two_node_network(), TWO_NODE_PARAMS, tol=1e-12)
        assert steady.converged
        assert steady.iterations >= 1
        assert 0.0 <= steady.residual <= 1e-12

    def test_all_init_modes_reach_the_same_point(self):
        results = [
            fixed_point(two_node_network(), TWO_NODE_PARAMS, tol=1e-13, init=mode).p_hat
            for mode in InitMode
        ]
        for other in results[1:]:
            assert np.allclose(results[0], other, atol=1e-11)

    def test_damping_reaches_the_same_point(self):
        full = fixed_point(two_node_network(), TWO_NODE_PARAMS, tol=1e-13)
        damped = fixed_point(two_node_network(), TWO_NODE_PARAMS, tol=1e-13, damping=0.5)
        assert np.allclose(full.p_hat, damped.p_hat, atol=1e-11)
        assert damped.iterations >= full.iterations

    def test_exhausted_budget_reports_not_converged(self):
        steady = fixed_point(two_node_network(), TWO_NODE_PARAMS, tol=1e-14, max_iter=2)
        assert not steady.converged
        assert steady.iterations == 2

    def test_probabilities_stay_inside_unit_interval(self):
        rng = philox_stream(901)
        for _ in range(5):
            net = random_network(rng, 12, 30, 0.2, 0.9)
            steady = fixed_point(net, PARAMS_FAST)
            assert steady.converged
            assert ((steady.p_hat > 0.0) & (steady.p_hat < 1.0)).all()

    def test_raising_one_likelihood_raises_every_probability(self):
        net = make_network([0.4, 0.5, 0.6], [(0, 1), (1, 2)])
        params = ModelParams(0.02, 0.015, 1.2)
        base = fixed_point(net, params, tol=1e-13).p_hat
        bumped = fixed_point(net.with_normalized_likelihood(1, 0.7), params, tol=1e-13).p_hat
        assert (bumped >= base - 1e-12).all()
        assert bumped[1] > base[1]

    def test_parameter_validation(self):
        net = two_node_network()
        with pytest.raises(ValidationError):
            fixed_point(net, TWO_NODE_PARAMS, tol=0.0)
        with pytest.raises(ValidationError):
            fixed_point(net, TWO_NODE_PARAMS, max_iter=0)
        with pytest.raises(ValidationError):
            fixed_point(net, TWO_NODE_PARAMS, damping=0.0)
        with pytest.raises(ValidationError):
            fixed_point(net, TWO_NODE_PARAMS, init="zeros")


class TestSparseSolve:
    """On sparse graphs the one-row products sum over the neighbor arrays, never the dense matrix."""

    @pytest.mark.parametrize("nodes, edges, seed", [(120, 200, 1), (300, 900, 2), (1000, 5000, 3)])
    def test_matches_a_dense_reference_solve(self, nodes, edges, seed):
        net, _ = generate_synthetic(nodes, edges, (0.5, 0.8), PARAMS_FAST, 1, seed=seed)
        assert not net.dense_products
        for mode in (InitMode.ZEROS, InitMode.LIKELIHOODS):
            steady = fixed_point(net, PARAMS_FAST, init=mode)
            start = np.zeros(nodes) if mode is InitMode.ZEROS else net.likelihoods
            p, iterations, _ = solve_block(net.likelihoods[None], DenseOperand(net), PARAMS_FAST, start[None])
            assert np.abs(steady.p_hat - p[0]).max() <= 1e-14
            assert steady.iterations == iterations[0]

    def test_never_builds_the_dense_matrix(self):
        net, _ = generate_synthetic(300, 900, (0.5, 0.8), PARAMS_FAST, 1, seed=4)
        steady = fixed_point(net, PARAMS_FAST)
        stationarity_residual(steady.p_hat, net, PARAMS_FAST)
        transition_fractions(steady, net, PARAMS_FAST)
        ext_int_ratios(steady, net, PARAMS_FAST)
        assert "adjacency_matrix" not in net.__dict__


class TestStationarityResidual:
    def test_zero_only_at_the_fixed_point(self):
        net = two_node_network()
        steady = fixed_point(net, TWO_NODE_PARAMS, tol=1e-14)
        assert stationarity_residual(steady.p_hat, net, TWO_NODE_PARAMS) <= 2e-14
        assert stationarity_residual(np.array([0.5, 0.5]), net, TWO_NODE_PARAMS) > 1e-3

    def test_all_dormant_vector_drifts_by_internal_probability(self):
        net = two_node_network()
        drift = stationarity_residual(np.zeros(2), net, TWO_NODE_PARAMS)
        expected = max(activation_prob(0.3, TWO_NODE_PARAMS.alpha), activation_prob(0.6, TWO_NODE_PARAMS.alpha))
        assert drift == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_vectors(self):
        net = two_node_network()
        with pytest.raises(ValidationError):
            stationarity_residual(np.array([0.5]), net, TWO_NODE_PARAMS)
        with pytest.raises(ValidationError):
            stationarity_residual(np.array([0.5, 1.5]), net, TWO_NODE_PARAMS)


class TestTransitionFractions:
    def _solved(self, net, params):
        steady = fixed_point(net, params, tol=1e-13)
        return steady, transition_fractions(steady, net, params)

    def test_fractions_sum_to_one_per_risk(self):
        rng = philox_stream(902)
        for _ in range(5):
            net = random_network(rng, 10, 22, 0.3, 0.85)
            _, fractions = self._solved(net, PARAMS_FAST)
            total = fractions.a_int + fractions.a_ext + fractions.a_rec
            assert np.abs(total - 1.0).max() <= 1e-12

    def test_recovery_share_is_half_up_to_the_overlap_term(self):
        # a_rec = 1/2 - overlap / (2 * total) exactly, where overlap is the
        # simultaneous internal+external activation rate
        rng = philox_stream(903)
        for _ in range(5):
            net = random_network(rng, 10, 22, 0.3, 0.85)
            steady, fractions = self._solved(net, PARAMS_FAST)
            overlap = _overlap_rate(net, steady.p_hat, PARAMS_FAST)
            total = fractions.raw_int + fractions.raw_ext + fractions.raw_rec
            bound = overlap / (2.0 * total) + 1e-13
            assert (np.abs(fractions.a_rec - 0.5) <= bound).all()

    def test_isolated_risk_has_zero_external_fraction(self):
        net = make_network([0.4, 0.6], [])
        _, fractions = self._solved(net, PARAMS_FAST)
        assert fractions.a_ext[0] == 0.0
        assert fractions.a_ext[1] == 0.0

    def test_requires_converged_steady_state(self):
        net = two_node_network()
        steady = fixed_point(net, TWO_NODE_PARAMS, tol=1e-14, max_iter=1)
        with pytest.raises(ValidationError):
            transition_fractions(steady, net, TWO_NODE_PARAMS)


def _overlap_rate(net, p_hat, params):
    # (1 - p) * p_int * (1 - (1 - p_ext)**m) with plain arithmetic
    likelihoods = np.array([r.normalized_likelihood for r in net.risks])
    m = dense_adjacency(net) @ p_hat
    p_int = 1.0 - (1.0 - likelihoods) ** params.alpha
    ext_any = 1.0 - (1.0 - likelihoods) ** (params.beta * m)
    return (1.0 - p_hat) * p_int * ext_any


class TestExtIntRatio:
    def test_taylor_term_is_beta_m_over_alpha(self):
        net = two_node_network()
        steady = fixed_point(net, TWO_NODE_PARAMS, tol=1e-14)
        _, taylor = ext_int_ratio(steady, net, TWO_NODE_PARAMS, 0)
        expected = TWO_NODE_PARAMS.beta * steady.p_hat[1] / TWO_NODE_PARAMS.alpha
        assert taylor == pytest.approx(expected, rel=1e-14)

    def test_small_exponents_make_the_ratio_nearly_linear(self):
        net = make_network([0.5, 0.7, 0.6], [(0, 1), (0, 2)])
        params = ModelParams(2e-3, 1e-3, 2.0)
        steady = fixed_point(net, params, tol=1e-13)
        exact, taylor = ext_int_ratio(steady, net, params, 0)
        assert exact == pytest.approx(taylor, rel=2e-2)

    def test_isolated_risk_has_zero_ratio(self):
        net = make_network([0.4, 0.6], [])
        steady = fixed_point(net, PARAMS_FAST, tol=1e-13)
        exact, taylor = ext_int_ratio(steady, net, PARAMS_FAST, 0)
        assert exact == 0.0
        assert taylor == 0.0

    def test_requires_converged_steady_state_and_valid_id(self):
        net = two_node_network()
        steady = fixed_point(net, TWO_NODE_PARAMS, tol=1e-14)
        with pytest.raises(ValidationError):
            ext_int_ratio(steady, net, TWO_NODE_PARAMS, 5)
        stale = fixed_point(net, TWO_NODE_PARAMS, tol=1e-14, max_iter=1)
        with pytest.raises(ValidationError):
            ext_int_ratio(stale, net, TWO_NODE_PARAMS, 0)

    def test_all_risks_at_once_match_the_per_risk_calls(self):
        net = random_network(philox_stream(904), 30, 60, 0.3, 0.85)
        steady = fixed_point(net, PARAMS_FAST, tol=1e-13)
        exact, taylor = ext_int_ratios(steady, net, PARAMS_FAST)
        pairs = [ext_int_ratio(steady, net, PARAMS_FAST, i) for i in range(net.size)]
        assert list(zip(exact.tolist(), taylor.tolist())) == pairs

    def test_underflow_names_the_first_risk_it_hits(self):
        # alpha * log1p(-L) underflows to 0 for L = 0.01 but not for L >= 0.5
        net = make_network([0.6, 0.01, 0.01, 0.7], [(0, 1), (1, 2), (2, 3)])
        params = ModelParams(5e-324, 3e-3, 2.5)
        steady = fixed_point(net, params)
        assert steady.converged
        with pytest.raises(ValidationError, match="underflowed to zero for risk 1$"):
            ext_int_ratios(steady, net, params)
        with pytest.raises(ValidationError, match="underflowed to zero for risk 2$"):
            ext_int_ratio(steady, net, params, 2)
        assert ext_int_ratio(steady, net, params, 3)[0] > 0.0
