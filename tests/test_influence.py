"""Knockout influence: pairwise matrix and category aggregation."""

import numpy as np
import pytest

from carpnet import (
    CATEGORIES,
    Category,
    ConvergenceError,
    InfluenceMatrix,
    InitMode,
    KNOCKOUT_FLOOR,
    ModelParams,
    RiskNetwork,
    ValidationError,
    category_influence,
    fixed_point,
    generate_synthetic,
    influence_matrix,
    knockout,
    transition_fractions,
)
from carpnet.influence import BLOCK_CELLS
from carpnet.meanfield import solve_block
from tests.helpers import PARAMS_FAST, PARAMS_SLOW, DenseOperand, make_network, random_network

STAR_PARAMS = ModelParams(0.02, 0.03, 1.2)


def star_network():
    # hub 0 with three leaves
    return make_network([0.6, 0.5, 0.5, 0.5], [(0, 1), (0, 2), (0, 3)])


class TestKnockout:
    def test_floors_the_likelihood_and_keeps_everything_else(self):
        net = star_network()
        reduced = knockout(net, 0)
        assert reduced.risks[0].normalized_likelihood == KNOCKOUT_FLOOR
        assert reduced.edges == net.edges
        assert [r.normalized_likelihood for r in reduced.risks[1:]] == [0.5, 0.5, 0.5]
        assert net.risks[0].normalized_likelihood == 0.6

    def test_rejects_bad_id(self):
        with pytest.raises(ValidationError):
            knockout(star_network(), 4)

    def test_copy_shares_the_built_graph_views_but_not_the_likelihoods(self):
        net = star_network()
        fixed_point(net, STAR_PARAMS)  # builds the likelihoods and this dense star's matrix from neighbor_arrays
        reduced = knockout(net, 1)
        assert "edges" not in net.__dict__  # no edge tuple decoded, no edge checked again
        assert reduced.neighbor_arrays is net.neighbor_arrays
        assert reduced.adjacency_matrix is net.adjacency_matrix
        assert reduced.likelihoods.tolist() == [0.6, KNOCKOUT_FLOOR, 0.5, 0.5]
        assert net.likelihoods.tolist() == [0.6, 0.5, 0.5, 0.5]
        assert reduced.degrees.tolist() == [3, 1, 1, 1] and "degrees" not in net.__dict__


def isolated_network():
    # risks 3 and 4 have no edges
    return make_network([0.5, 0.6, 0.7, 0.55, 0.65], [(0, 1), (1, 2)])


def generated_network():
    # R=150 needs two row blocks of at most BLOCK_CELLS cells
    return random_network(np.random.default_rng(2024), 150, 1500, 0.5, 0.8)


def per_row_reference(network, params):
    """Influence matrix from one rebuilt network and one solve per knockout."""
    base_ext = transition_fractions(fixed_point(network, params), network, params).a_ext
    values = np.zeros((network.size, network.size))
    for i in range(network.size):
        reduced = knockout(network, i)
        steady = fixed_point(reduced, params)
        values[i] = base_ext - transition_fractions(steady, reduced, params).a_ext
        values[i, i] = 0.0
    return values


class TestBlockSolve:
    @pytest.mark.parametrize(
        "build, params",
        [(star_network, STAR_PARAMS), (isolated_network, PARAMS_FAST), (generated_network, PARAMS_FAST)],
        ids=["star", "isolated", "generated-r150"],
    )
    def test_matches_per_row_knockout_reference(self, build, params):
        network = build()
        matrix = influence_matrix(network, params)
        assert np.abs(matrix.values - per_row_reference(network, params)).max() <= 1e-12

    def test_thread_count_is_bit_identical_across_blocks(self):
        network = generated_network()
        assert network.size > BLOCK_CELLS // network.size  # more than one row block
        serial = influence_matrix(network, PARAMS_FAST, threads=1)
        threaded = influence_matrix(network, PARAMS_FAST, threads=3)
        assert np.array_equal(serial.values, threaded.values)

    @pytest.mark.parametrize(
        "nodes, edges, built",
        [(300, 400, False), (300, 900, True), (150, 1500, True)],
        ids=["sparse", "sparse-rows-dense-blocks", "dense"],
    )
    def test_matches_the_dense_operand_reference(self, monkeypatch, nodes, edges, built):
        network, _ = generate_synthetic(nodes, edges, (0.5, 0.8), PARAMS_FAST, 1, seed=0)
        values = influence_matrix(network, PARAMS_FAST).values
        # sparse graphs sum rows over the neighbor arrays; blocks take the dense product from 2E * 80 >= R**2
        assert ("adjacency_matrix" in network.__dict__) is built
        operand = DenseOperand(network)
        monkeypatch.setattr(RiskNetwork, "neighbor_sums", lambda self, p: operand.neighbor_sums(p))
        reference = influence_matrix(network, PARAMS_FAST).values
        if network.dense_products:
            assert np.array_equal(values, reference)
        else:
            assert np.abs(values - reference).max() <= 1e-14

    def test_each_row_takes_the_sweeps_of_its_own_solve(self):
        network = star_network()
        likelihoods = np.tile(network.likelihoods, (network.size, 1))
        np.fill_diagonal(likelihoods, KNOCKOUT_FLOOR)
        _, iterations, _ = solve_block(likelihoods, DenseOperand(network), STAR_PARAMS, likelihoods)
        expected = [fixed_point(knockout(network, i), STAR_PARAMS).iterations for i in range(network.size)]
        assert iterations.tolist() == expected

    def test_exhausted_rows_report_max_iter_and_a_large_residual(self):
        network = star_network()
        likelihoods = np.tile(network.likelihoods, (2, 1))
        _, iterations, residuals = solve_block(likelihoods, DenseOperand(network), STAR_PARAMS, likelihoods, max_iter=1)
        assert iterations.tolist() == [1, 1]
        assert (residuals > 1e-10).all()

    @pytest.mark.parametrize(
        "params, init, damping, iterations",
        [
            (PARAMS_FAST, InitMode.LIKELIHOODS, 1.0, 32),
            (PARAMS_FAST, InitMode.ZEROS, 0.5, 73),
            (PARAMS_FAST, InitMode.ONES, 0.5, 74),
            (PARAMS_SLOW, InitMode.LIKELIHOODS, 1.0, 24),
            (PARAMS_SLOW, InitMode.ONES, 1.0, 25),
        ],
    )
    def test_fixed_point_keeps_its_iteration_counts(self, params, init, damping, iterations):
        # counts of the plain one-vector iteration on this network; the one-row block must keep them
        steady = fixed_point(generated_network(), params, init=init, damping=damping)
        assert steady.converged
        assert steady.iterations == iterations


class TestInfluenceMatrix:
    def test_diagonal_is_zero_and_shape_is_square(self):
        matrix = influence_matrix(star_network(), STAR_PARAMS)
        assert matrix.values.shape == (4, 4)
        assert (np.diag(matrix.values) == 0.0).all()

    def test_hub_influences_leaves_more_than_leaves_influence_each_other(self):
        matrix = influence_matrix(star_network(), STAR_PARAMS)
        assert matrix.values[0, 1] > matrix.values[2, 1] > 0.0

    def test_top_influenced_of_the_hub_are_its_leaves(self):
        matrix = influence_matrix(star_network(), STAR_PARAMS)
        assert set(matrix.top_influenced(0, 3)) == {1, 2, 3}

    def test_isolated_risk_has_no_outgoing_influence(self):
        net = make_network([0.5, 0.6, 0.7], [(0, 1)])
        tol = 1e-10
        matrix = influence_matrix(net, PARAMS_FAST, tol=tol)
        assert np.abs(matrix.values[2]).max() <= 10 * tol

    def test_knocking_out_a_neighbor_lowers_external_share(self):
        matrix = influence_matrix(star_network(), STAR_PARAMS)
        # every directed neighbor pair has strictly positive influence here
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)):
            assert matrix.values[i, j] > 0.0

    def test_threads_do_not_change_values(self):
        serial = influence_matrix(star_network(), STAR_PARAMS, threads=1)
        threaded = influence_matrix(star_network(), STAR_PARAMS, threads=3)
        assert (serial.values == threaded.values).all()

    def test_non_convergence_raises(self):
        with pytest.raises(ConvergenceError):
            influence_matrix(star_network(), STAR_PARAMS, max_iter=1)

    def test_top_influenced_validation_and_tie_break(self):
        values = np.zeros((3, 3))
        values[0, 1] = values[0, 2] = 0.5
        matrix = InfluenceMatrix(values=values, tol=1e-10)
        assert matrix.top_influenced(0, 1) == (1,)
        with pytest.raises(ValidationError):
            matrix.top_influenced(0, 3)
        with pytest.raises(ValidationError):
            matrix.top_influenced(5, 1)

    def test_top_influenced_matches_sorted_reference_on_ties(self):
        rng = np.random.default_rng(7)
        values = rng.choice([-0.25, 0.0, 0.125, 0.5], size=(12, 12))  # every row has many ties
        values[3, 4] = -0.0  # equal to 0.0, so it ties with the zeros by id
        np.fill_diagonal(values, 1.0)  # the diagonal must never be ranked
        matrix = InfluenceMatrix(values=values, tol=1e-10)
        for i in range(12):
            reference = sorted((j for j in range(12) if j != i), key=lambda j: (-values[i, j], j))
            for count in (0, 1, 5, 11):
                top = matrix.top_influenced(i, count)
                assert top == tuple(reference[:count])
                assert all(type(j) is int for j in top)


class TestCategoryInfluence:
    def _network_two_categories(self):
        return make_network(
            [0.5, 0.5, 0.5, 0.5],
            [(0, 1), (1, 2), (2, 3)],
            categories=[
                Category.ECONOMIC,
                Category.ECONOMIC,
                Category.GEOPOLITICAL,
                Category.GEOPOLITICAL,
            ],
        )

    def _hand_matrix(self):
        values = np.array(
            [
                [0.0, 0.10, 0.02, 0.01],
                [0.08, 0.0, 0.05, 0.02],
                [0.01, 0.06, 0.0, 0.09],
                [0.00, 0.01, 0.07, 0.0],
            ]
        )
        return InfluenceMatrix(values=values, tol=1e-10)

    def test_exact_aggregation_of_a_hand_example(self):
        result = category_influence(self._hand_matrix(), self._network_two_categories())
        assert result.categories == (Category.ECONOMIC, Category.GEOPOLITICAL)
        # diagonal: ordered cross pairs inside the category
        assert result.raw[0, 0] == pytest.approx((0.10 + 0.08) / 2, rel=1e-12)
        assert result.raw[1, 1] == pytest.approx((0.09 + 0.07) / 2, rel=1e-12)
        # off-diagonal: all ordered pairs across the two categories
        assert result.raw[0, 1] == pytest.approx((0.02 + 0.01 + 0.05 + 0.02) / 4, rel=1e-12)
        assert result.raw[1, 0] == pytest.approx((0.01 + 0.06 + 0.00 + 0.01) / 4, rel=1e-12)

    def test_unity_normalization_spans_zero_to_one(self):
        result = category_influence(self._hand_matrix(), self._network_two_categories())
        assert result.normalized.min() == 0.0
        assert result.normalized.max() == 1.0
        order_raw = np.argsort(result.raw, axis=None)
        order_norm = np.argsort(result.normalized, axis=None)
        assert (order_raw == order_norm).all()

    def test_full_pipeline_on_a_real_solve(self):
        net = make_network(
            [0.5, 0.6, 0.55, 0.65, 0.45, 0.6],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
            categories=[
                Category.ECONOMIC,
                Category.ECONOMIC,
                Category.SOCIETAL,
                Category.SOCIETAL,
                Category.TECHNOLOGICAL,
                Category.TECHNOLOGICAL,
            ],
        )
        matrix = influence_matrix(net, PARAMS_FAST)
        result = category_influence(matrix, net)
        assert result.raw.shape == (3, 3)
        assert (result.normalized >= 0.0).all()
        assert (result.normalized <= 1.0).all()

    def test_singleton_category_warns_and_reports_zero_diagonal(self):
        net = make_network(
            [0.5, 0.5, 0.5],
            [(0, 1), (1, 2)],
            categories=[Category.ECONOMIC, Category.ECONOMIC, Category.SOCIETAL],
        )
        matrix = influence_matrix(net, PARAMS_FAST)
        with pytest.warns(UserWarning):
            result = category_influence(matrix, net)
        societal = result.categories.index(Category.SOCIETAL)
        assert result.raw[societal, societal] == 0.0

    def test_constant_matrix_normalizes_to_zeros_with_warning(self):
        net = self._network_two_categories()
        constant = InfluenceMatrix(values=np.zeros((4, 4)), tol=1e-10)
        with pytest.warns(UserWarning):
            result = category_influence(constant, net)
        assert (result.normalized == 0.0).all()

    def test_size_mismatch_is_an_error(self):
        matrix = InfluenceMatrix(values=np.zeros((3, 3)), tol=1e-10)
        with pytest.raises(ValidationError):
            category_influence(matrix, self._network_two_categories())

    def test_categories_follow_enum_order(self):
        net = make_network(
            [0.5, 0.5],
            [(0, 1)],
            categories=[Category.TECHNOLOGICAL, Category.ENVIRONMENTAL],
        )
        matrix = influence_matrix(net, PARAMS_FAST)
        with pytest.warns(UserWarning):
            result = category_influence(matrix, net)
        assert result.categories == (Category.ENVIRONMENTAL, Category.TECHNOLOGICAL)
        assert [c for c in CATEGORIES if c in result.categories] == list(result.categories)
