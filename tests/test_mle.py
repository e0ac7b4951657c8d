"""Panel log-likelihood, analytic gradient and Hessian, and maximum-likelihood fitting."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carpnet import (
    EventPanel,
    FitConfig,
    ModelParams,
    PanelStats,
    ValidationError,
    fit,
    generate_synthetic,
    log_likelihood,
)
from carpnet import mle
from carpnet.dynamics import philox_stream
from tests.helpers import count_based_log_likelihood, make_network, small_graphs

HAND_PARAMS = ModelParams(0.2, 0.1, 0.9)


def hand_case():
    # 2 risks, L = (0.3, 0.6), one edge; observed 3 months
    net = make_network([0.3, 0.6], [(0, 1)])
    panel = EventPanel(np.array([[0, 1, 0], [1, 1, 0]]))
    return net, panel


class TestLogLikelihood:
    def test_matches_high_precision_hand_computation(self):
        # ln(1-0.7**0.3) + ln(1-0.4**0.9) + 0.9 ln 0.7 + 0.9 ln 0.4,
        # evaluated independently at 40-digit precision
        net, panel = hand_case()
        value = log_likelihood(panel, net, HAND_PARAMS)
        assert value == pytest.approx(-4.01053224243442, rel=1e-13)

    def test_agrees_with_transition_by_transition_reference(self):
        rng = np.random.default_rng(7)
        net = make_network(
            rng.uniform(0.2, 0.8, size=6),
            [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 4)],
        )
        panel = EventPanel(rng.integers(0, 2, size=(6, 40)))
        params = ModelParams(0.05, 0.02, 1.4)
        fast = log_likelihood(panel, net, params)
        slow = count_based_log_likelihood(panel, net, params)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_additive_over_time_segments(self):
        net, panel = hand_case()
        first = EventPanel(panel.states[:, :2])
        second = EventPanel(panel.states[:, 1:])
        total = log_likelihood(panel, net, HAND_PARAMS)
        assert total == pytest.approx(
            log_likelihood(first, net, HAND_PARAMS) + log_likelihood(second, net, HAND_PARAMS),
            rel=1e-13,
        )

    def test_true_structure_scores_higher_than_wildly_wrong_params(self):
        params = ModelParams(6e-3, 3e-3, 2.5)
        net, panel = generate_synthetic(15, 40, (0.5, 0.8), params, 220, seed=31, initial_state="active")
        good = log_likelihood(panel, net, params)
        bad = log_likelihood(panel, net, ModelParams(0.9, 0.9, 0.01))
        assert good > bad

    def test_single_month_panel_is_an_error(self):
        net, _ = hand_case()
        with pytest.raises(ValidationError):
            log_likelihood(EventPanel(np.array([[0], [1]])), net, HAND_PARAMS)

    def test_size_mismatch_is_an_error(self):
        net, _ = hand_case()
        with pytest.raises(ValidationError):
            log_likelihood(EventPanel(np.zeros((3, 4), dtype=int)), net, HAND_PARAMS)

    def test_always_negative_for_non_degenerate_panels(self):
        net, panel = hand_case()
        assert log_likelihood(panel, net, HAND_PARAMS) < 0.0


class TestGradient:
    def test_matches_high_precision_hand_computation(self):
        net, panel = hand_case()
        grad = PanelStats(panel, net).gradient(HAND_PARAMS)
        assert grad[0] == pytest.approx(0.631635136002774, rel=1e-10)
        assert grad[1] == pytest.approx(0.315817568001387, rel=1e-10)
        assert grad[2] == pytest.approx(-0.5019598213666208, rel=1e-10)

    def test_matches_central_finite_differences(self):
        params = ModelParams(6e-3, 3e-3, 2.5)
        net, panel = generate_synthetic(12, 30, (0.5, 0.8), params, 160, seed=19, initial_state="active")
        point = ModelParams(4e-3, 2e-3, 2.0)
        grad = PanelStats(panel, net).gradient(point)
        h = 1e-6
        for axis in range(3):
            theta = np.log(np.array(point.as_tuple()))
            up, down = theta.copy(), theta.copy()
            up[axis] += h
            down[axis] -= h
            numeric = (
                log_likelihood(panel, net, ModelParams(*np.exp(up)))
                - log_likelihood(panel, net, ModelParams(*np.exp(down)))
            ) / (2 * h)
            assert grad[axis] == pytest.approx(numeric, rel=1e-5)

    def test_zero_activation_panel_pins_beta_and_gamma_gradients(self):
        net = make_network([0.4, 0.5], [(0, 1)])
        panel = EventPanel(np.zeros((2, 10), dtype=int))
        grad = PanelStats(panel, net).gradient(HAND_PARAMS)
        assert grad[1] == 0.0
        assert grad[2] == 0.0
        assert grad[0] < 0.0


@st.composite
def random_panels(draw):
    """A graph of up to 8 risks, likelihoods in [0.05, 0.95] and a random panel."""
    size, edges = draw(small_graphs(max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    network = make_network(rng.uniform(0.05, 0.95, size), edges)
    panel = EventPanel(rng.integers(0, 2, size=(size, draw(st.integers(2, 15)))))
    return network, panel


def log_space_points(bound):
    return st.tuples(*[st.floats(-bound, bound, allow_nan=False)] * 3).map(np.array)


def panel_stats_in_blocks(panel, network, months):
    """``PanelStats`` built with blocks of ``months`` month pairs."""
    with mock.patch.object(mle, "_BLOCK_CELLS", months * network.size):
        return PanelStats(panel, network)


DENSE_CASE = (  # a complete graph, so dense_products
    make_network(np.linspace(0.1, 0.9, 7), [(i, j) for i in range(7) for j in range(i + 1, 7)]),
    EventPanel(np.random.default_rng(3).integers(0, 2, size=(7, 20))),
)
SPARSE_CASE = (  # a path of 40 risks, so not dense_products
    make_network(np.linspace(0.1, 0.9, 40), [(i, i + 1) for i in range(39)]),
    EventPanel(np.random.default_rng(4).integers(0, 2, size=(40, 15))),
)
TWO_MONTH_CASE = (make_network([0.3, 0.5, 0.7], [(0, 1), (1, 2)]), EventPanel(np.array([[0, 1], [1, 1], [0, 0]])))


class TestCompactedStatistics:
    @settings(deadline=None)
    @given(random_panels(), log_space_points(700.0))
    def test_gradient_is_finite_and_matches_central_differences(self, case, theta):
        network, panel = case
        stats = PanelStats(panel, network)
        value = stats.log_likelihood(ModelParams(*np.exp(theta)))
        if not math.isfinite(value):
            return
        grad = stats.gradient(ModelParams(*np.exp(theta)))
        assert np.all(np.isfinite(grad))
        h = 1e-4
        for axis in range(3):
            if abs(theta[axis]) + h > 700.0:
                continue
            up, down = theta.copy(), theta.copy()
            up[axis] += h
            down[axis] -= h
            f_up = stats.log_likelihood(ModelParams(*np.exp(up)))
            f_down = stats.log_likelihood(ModelParams(*np.exp(down)))
            numeric = (f_up - f_down) / (2 * h)
            # truncation O(h^2) per transition, plus the rounding of two huge values
            slack = 1e-6 * (abs(numeric) + stats.n_transitions) + 1e-13 * (abs(f_up) + abs(f_down)) / h
            assert abs(grad[axis] - numeric) <= slack

    @settings(deadline=None)
    @given(random_panels(), log_space_points(5.0).map(lambda theta: np.minimum(theta, 1.0)))
    def test_log_likelihood_matches_transition_by_transition_reference(self, case, theta):
        # the reference takes plain powers, so it is accurate only while no transition
        # probability is within ~1e-4 of 0 or 1: theta stays in [-5, 1]
        network, panel = case
        params = ModelParams(*np.exp(theta))
        fast = PanelStats(panel, network).log_likelihood(params)
        assert fast == pytest.approx(count_based_log_likelihood(panel, network, params), rel=1e-12)

    def test_gradient_stays_finite_where_the_exponent_overflows(self):
        # a hub activates under 2000 active leaves: at alpha = beta = e^700 its exponent
        # y (alpha + beta k) overflows to -inf while the log-likelihood stays finite
        leaves = 2000
        network = make_network([1.0 - 1e-9] + [0.5] * leaves, [(0, j) for j in range(1, leaves + 1)])
        states = np.ones((leaves + 1, 2), dtype=int)
        states[0] = [0, 1]
        stats = PanelStats(EventPanel(states), network)
        params = ModelParams(*np.exp([700.0, 700.0, 0.0]))
        assert math.isfinite(stats.log_likelihood(params))
        assert np.all(np.isfinite(stats.gradient(params)))
        assert_hessian_matches_gradient_differences(stats, np.array([700.0, 700.0, 0.0]))
        # just inside the clip the exponent still overflows, and every axis has central differences
        assert_hessian_matches_gradient_differences(stats, np.array([699.9, 699.9, 0.0]))

    @settings(deadline=None)
    @given(random_panels(), log_space_points(700.0))
    def test_hessian_is_symmetric_finite_and_matches_central_differences(self, case, theta):
        network, panel = case
        stats = PanelStats(panel, network)
        if not math.isfinite(stats.log_likelihood(ModelParams(*np.exp(theta)))):
            return
        assert_hessian_matches_gradient_differences(stats, theta)

    @settings(deadline=None)
    @given(random_panels(), log_space_points(5.0))
    @example(DENSE_CASE, np.array([-3.0, -2.0, 0.5]))
    @example(SPARSE_CASE, np.array([-2.0, -1.0, 0.0]))
    @example(TWO_MONTH_CASE, np.array([-1.0, -1.0, 0.0]))
    def test_block_size_changes_nothing(self, case, theta):
        network, panel = case
        pairs = panel.n_steps - 1
        whole = panel_stats_in_blocks(panel, network, pairs)
        params = ModelParams(*np.exp(theta))
        # one month pair per block, then blocks of all but one, which leaves a short last block
        for months in (1, max(1, pairs - 1)):
            stats = panel_stats_in_blocks(panel, network, months)
            for name in ("c01", "c00", "n11", "n10"):
                assert np.array_equal(getattr(stats, name), getattr(whole, name)), name
            for method in ("log_likelihood", "gradient", "hessian"):
                ours, reference = (np.asarray(getattr(s, method)(params)) for s in (stats, whole))
                assert ours.tobytes() == reference.tobytes(), method

    def test_working_set_does_not_grow_with_the_panel(self):
        network, panel = generate_synthetic(1000, 5000, (0.5, 0.8), ModelParams(5.3e-3, 3e-3, 2.5), 240, seed=0)
        PanelStats(panel, network)  # builds the network's cached graph views outside the measurement

        def traced_peak(build):
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        default = traced_peak(lambda: PanelStats(panel, network))
        whole = traced_peak(lambda: panel_stats_in_blocks(panel, network, panel.n_steps - 1))
        assert default <= whole / 2

    def test_hessian_of_the_zero_activation_panel(self):
        net = make_network([0.4, 0.5], [(0, 1)])
        stats = PanelStats(EventPanel(np.zeros((2, 10), dtype=int)), net)
        hess = stats.hessian(HAND_PARAMS)
        # the log-likelihood is alpha w00 + beta (w00 @ k): linear, so H is diag(gradient)
        assert np.array_equal(hess, np.diag(stats.gradient(HAND_PARAMS)))
        assert_hessian_matches_gradient_differences(stats, np.log(np.array(HAND_PARAMS.as_tuple())))


def assert_hessian_matches_gradient_differences(stats, theta, h=1e-4):
    """``stats.hessian`` is finite, symmetric and matches central differences of the gradient."""
    hess = stats.hessian(ModelParams(*np.exp(theta)))
    assert hess.shape == (3, 3)
    assert np.all(np.isfinite(hess))
    assert np.array_equal(hess, hess.T)
    assert hess[0, 2] == hess[1, 2] == 0.0
    for axis in range(3):
        if abs(theta[axis]) + h > 700.0:
            continue
        up, down = theta.copy(), theta.copy()
        up[axis] += h
        down[axis] -= h
        g_up = stats.gradient(ModelParams(*np.exp(up)))
        g_down = stats.gradient(ModelParams(*np.exp(down)))
        numeric = (g_up - g_down) / (2 * h)
        # truncation O(h^2) per transition, plus the rounding of two huge gradients
        slack = 1e-6 * (np.abs(numeric) + stats.n_transitions) + 1e-13 * (np.abs(g_up) + np.abs(g_down)) / h
        assert np.all(np.abs(hess[:, axis] - numeric) <= slack)


class TestFit:
    def test_recovers_parameters_on_a_well_excited_panel(self):
        true = ModelParams(2e-2, 1e-2, 1.5)
        net, panel = generate_synthetic(20, 60, (0.4, 0.8), true, 400, seed=5, initial_state="active")
        result = fit(panel, net, config=FitConfig(starts=3, seed=1))
        assert result.converged
        assert not result.degenerate
        for fitted, truth in zip(result.params.as_tuple(), true.as_tuple()):
            assert abs(fitted - truth) / truth < 0.35
        assert result.log_likelihood >= log_likelihood(panel, net, true)

    def test_fit_never_scores_below_the_initial_guess(self):
        params = ModelParams(6e-3, 3e-3, 2.5)
        net, panel = generate_synthetic(10, 20, (0.5, 0.8), params, 120, seed=23, initial_state="active")
        init = ModelParams(0.05, 0.05, 0.5)
        result = fit(panel, net, init=init, config=FitConfig(starts=0))
        assert result.log_likelihood >= log_likelihood(panel, net, init)

    def test_all_dormant_panel_is_flagged_degenerate(self):
        net = make_network([0.4, 0.5], [(0, 1)])
        panel = EventPanel(np.zeros((2, 30), dtype=int))
        result = fit(panel, net, config=FitConfig(starts=1, max_iter=200))
        assert result.degenerate

    def test_deterministic_given_seed(self):
        params = ModelParams(6e-3, 3e-3, 2.5)
        net, panel = generate_synthetic(10, 20, (0.5, 0.8), params, 120, seed=29, initial_state="active")
        config = FitConfig(starts=2, seed=7, max_iter=400)
        first = fit(panel, net, config=config)
        second = fit(panel, net, config=config)
        assert first.params == second.params
        assert first.log_likelihood == second.log_likelihood

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("nodes, edges, months", [(30, 275, 120), (50, 515, 156)])
    def test_scores_at_least_an_lbfgsb_reference(self, nodes, edges, months, seed):
        net, panel = generate_synthetic(nodes, edges, (0.5, 0.8), ModelParams(5.3e-3, 3e-3, 2.5), months, seed=seed)
        assert_fit_scores_at_least_an_lbfgsb_reference(panel, net)

    @settings(deadline=None, max_examples=40)
    @given(random_panels())
    def test_scores_at_least_an_lbfgsb_reference_on_small_panels(self, case):
        # short random panels often put the supremum on the boundary, or have several maxima
        network, panel = case
        assert_fit_scores_at_least_an_lbfgsb_reference(panel, network)

    def test_edgeless_network_holds_beta_at_its_start(self):
        rng = np.random.default_rng(3)
        net = make_network(rng.uniform(0.3, 0.7, 4))
        panel = EventPanel(rng.integers(0, 2, size=(4, 30)))
        init = ModelParams(0.05, 0.01, 1.0)
        result = fit(panel, net, init=init, config=FitConfig(starts=0))
        assert result.converged
        assert result.params.beta == np.exp(np.log(init.beta))  # no step moves ln beta
        assert result.params.alpha != init.alpha

    def test_all_active_panel_is_flagged_degenerate(self):
        net = make_network([0.4, 0.5, 0.6], [(0, 1), (1, 2)])
        result = fit(EventPanel(np.ones((3, 20), dtype=int)), net, config=FitConfig(starts=2))
        assert result.degenerate
        assert result.converged
        assert result.log_likelihood > -1e-12  # the supremum 0 is approached as gamma grows

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            FitConfig(starts=-1)
        with pytest.raises(ValidationError):
            FitConfig(max_iter=0)


def assert_fit_scores_at_least_an_lbfgsb_reference(panel, network):
    """``fit`` converges, no lower than scipy's L-BFGS-B from the same starts less 1e-9 relative.

    The reference starts from the default init and the 5 points ``fit`` draws
    log-uniformly from [1e-5, 10] per component with seed 0, with the
    tolerances ``ftol=1e-12`` and ``gtol=1e-8``.
    """
    from scipy.optimize import minimize

    stats = PanelStats(panel, network)

    def params_at(theta):
        return ModelParams(*np.exp(np.clip(theta, -700.0, 700.0)))

    def objective(theta):
        value = stats.log_likelihood(params_at(theta))
        return math.inf if math.isnan(value) else -value

    def slope(theta):
        return np.where(np.abs(theta) <= 700.0, -stats.gradient(params_at(theta)), 0.0)

    config = FitConfig()
    box = philox_stream(config.seed, 0).uniform(math.log(1e-5), math.log(10.0), size=(config.starts, 3))
    options = {"maxiter": config.max_iter, "ftol": 1e-12, "gtol": 1e-8}
    reference = max(
        -minimize(objective, theta, jac=slope, method="L-BFGS-B", options=options).fun
        for theta in [np.log([0.01, 0.01, 1.0]), *box]
    )
    result = fit(panel, network, config=config)
    assert result.converged
    assert result.log_likelihood >= reference - 1e-9 * max(1.0, abs(reference))
