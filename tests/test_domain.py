"""Data model: normalization, network validation, file round trips, panels."""

import gc
import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carpnet import (
    Category,
    EventPanel,
    ModelParams,
    NormalizationScheme,
    Risk,
    RiskNetwork,
    ValidationError,
    generate_synthetic,
    load_network,
    load_panel,
    normalize_likelihoods,
    save_network,
    save_panel,
)
from carpnet.domain import _read_panel_csv, _saved_panel
from carpnet.dynamics import _step_block
from tests.helpers import (
    canonical_edges,
    dense_adjacency,
    make_network,
    messy_edge_lists,
    per_entry_network,
    python_neighbor_counts,
    random_graph_edges,
    risk_documents,
    small_graphs,
)

positive_raws = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False), min_size=1, max_size=30
)


class TestNormalizeLikelihoods:
    def test_minmax_maps_extremes_to_epsilon_band(self):
        out = normalize_likelihoods([1.0, 3.0, 5.0], NormalizationScheme.MINMAX, epsilon=0.01)
        assert out == pytest.approx([0.01, 0.5, 0.99], rel=1e-12)

    def test_minmax_degenerate_range_errors(self):
        with pytest.raises(ValidationError):
            normalize_likelihoods([2.0, 2.0, 2.0], NormalizationScheme.MINMAX)

    def test_divide_by_max(self):
        out = normalize_likelihoods([2.0, 4.0], NormalizationScheme.DIVIDE_BY_MAX, epsilon=0.01)
        assert out == pytest.approx([0.495, 0.99], rel=1e-12)

    def test_identity_passes_valid_values_through(self):
        assert normalize_likelihoods([0.2, 0.4], NormalizationScheme.IDENTITY) == [0.2, 0.4]

    def test_identity_rejects_endpoints(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValidationError):
                normalize_likelihoods([0.5, bad], NormalizationScheme.IDENTITY)

    def test_identity_clamps_into_epsilon_band(self):
        out = normalize_likelihoods([0.001, 0.9999], NormalizationScheme.IDENTITY, epsilon=0.01)
        assert out == [0.01, 0.99]

    def test_rejects_nonpositive_and_nonfinite_raws(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                normalize_likelihoods([1.0, bad])

    def test_rejects_empty_input(self):
        with pytest.raises(ValidationError):
            normalize_likelihoods([])

    def test_epsilon_must_lie_in_open_band(self):
        for bad in (0.0, 0.1, -0.5, 0.9):
            with pytest.raises(ValidationError):
                normalize_likelihoods([1.0, 2.0], epsilon=bad)

    @given(raws=positive_raws, scheme=st.sampled_from(list(NormalizationScheme)))
    def test_outputs_inside_unit_interval(self, raws, scheme):
        if scheme is NormalizationScheme.MINMAX and max(raws) == min(raws):
            return
        if scheme is NormalizationScheme.IDENTITY:
            raws = [min(max(v / (max(raws) + 1.0), 1e-9), 1.0 - 1e-9) for v in raws]
        out = normalize_likelihoods(raws, scheme)
        assert all(0.0 < v < 1.0 for v in out)

    @given(raws=positive_raws, scheme=st.sampled_from(list(NormalizationScheme)))
    def test_monotone_in_raw_values(self, raws, scheme):
        if scheme is NormalizationScheme.MINMAX and max(raws) == min(raws):
            return
        if scheme is NormalizationScheme.IDENTITY:
            raws = [min(max(v / (max(raws) + 1.0), 1e-9), 1.0 - 1e-9) for v in raws]
        out = normalize_likelihoods(raws, scheme)
        order = np.argsort(raws, kind="stable")
        assert all(
            out[order[a]] <= out[order[a + 1]] + 1e-15 for a in range(len(order) - 1)
        )


class TestModelParams:
    def test_rejects_nonpositive_components(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                ModelParams(bad, 0.1, 1.0)

    def test_as_tuple(self):
        assert ModelParams(0.1, 0.2, 0.3).as_tuple() == (0.1, 0.2, 0.3)


class TestRiskNetwork:
    def test_known_graph_statistics(self):
        # triangle 0-1-2 plus pendant 3 attached to 2
        net = make_network([0.5, 0.5, 0.5, 0.5], [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert net.size == 4
        assert net.edge_count == 4
        assert list(net.degrees) == [2, 2, 3, 1]
        assert net.neighbors(2) == (0, 1, 3)

    def test_adjacency_matrix_is_symmetric_with_zero_diagonal(self):
        net = make_network([0.3, 0.4, 0.5], [(0, 2), (1, 2)])
        mat = net.adjacency_matrix
        assert (mat == mat.T).all()
        assert (np.diag(mat) == 0).all()

    def test_edges_are_canonicalized(self):
        net = make_network([0.3, 0.4, 0.5], [(2, 0), (1, 0)])
        assert net.edges == ((0, 1), (0, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            make_network([0.3, 0.4], [(1, 1)])

    def test_rejects_duplicate_edge_even_reversed(self):
        with pytest.raises(ValidationError):
            make_network([0.3, 0.4], [(0, 1), (1, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValidationError):
            make_network([0.3, 0.4], [(0, 2)])

    def test_rejects_gapped_ids(self):
        risks = (
            Risk(0, "a", Category.ECONOMIC, 0.5, 0.5),
            Risk(2, "b", Category.SOCIETAL, 0.5, 0.5),
        )
        with pytest.raises(ValidationError):
            RiskNetwork(risks, ())

    def test_rejects_empty_network(self):
        with pytest.raises(ValidationError):
            RiskNetwork((), ())

    def test_accepts_unsorted_risks(self):
        risks = (
            Risk(1, "b", Category.SOCIETAL, 0.5, 0.4),
            Risk(0, "a", Category.ECONOMIC, 0.5, 0.3),
        )
        net = RiskNetwork(risks, ())
        assert [r.id for r in net.risks] == [0, 1]
        assert list(net.likelihoods) == [0.3, 0.4]

    def test_with_normalized_likelihood_replaces_single_value(self):
        net = make_network([0.3, 0.4, 0.5], [(2, 1), (1, 0)])
        swapped = net.with_normalized_likelihood(1, 0.9)
        assert swapped.risks[1].normalized_likelihood == 0.9
        assert swapped.risks[0].normalized_likelihood == 0.3
        assert swapped.edges == net.edges == ((0, 1), (1, 2))
        assert swapped.neighbor_arrays[1].tolist() == net.neighbor_arrays[1].tolist()
        assert net.risks[1].normalized_likelihood == 0.4
        with pytest.raises(ValidationError, match="risk 1 normalized likelihood"):
            net.with_normalized_likelihood(1, 1.0)

    def test_risk_rejects_out_of_range_normalized_likelihood(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                Risk(0, "a", Category.ECONOMIC, 0.5, bad)


ADJACENCY_CASES = {
    "no-edges": (5, ()),
    "isolated-risks": (7, ((1, 2), (5, 2), (3, 5))),  # risks 0, 4 and 6 have no neighbor
    # given as (high, low) pairs, so the views are built from canonicalized edges
    "random": (40, tuple((j, i) for i, j in random_graph_edges(np.random.default_rng(8), 40, 150))),
    "hub-200": (201, tuple((0, j) for j in range(1, 201))),
}


class TestAdjacencyViews:
    """Every adjacency view is the graph of ``edges``, in its documented dtype."""

    @pytest.mark.parametrize("size, edges", ADJACENCY_CASES.values(), ids=list(ADJACENCY_CASES))
    def test_views_agree_with_edges(self, size, edges):
        net = make_network([0.5] * size, edges)
        expected = [set() for _ in range(size)]
        dense = np.zeros((size, size))
        for i, j in net.edges:
            expected[i].add(j)
            expected[j].add(i)
            dense[i, j] = dense[j, i] = 1.0

        assert net.degrees.dtype == np.int64
        assert net.degrees.tolist() == [len(ns) for ns in expected]
        assert net.adjacency == tuple(tuple(sorted(ns)) for ns in expected)
        assert net.adjacency_matrix.dtype == np.float64
        assert np.array_equal(net.adjacency_matrix, dense)


NEIGHBOR_SUM_CASES = {  # name -> (size, edges, dense_products, whether a block of rows takes the dense product)
    "empty-graph": (5, (), False, False),
    "single-risk": (1, (), False, False),
    # risks 0, 4 and 6..29 have no neighbor, the last ones at the end of the arrays
    "isolated-and-trailing-isolated": (30, ((1, 2), (5, 2), (3, 5)), False, False),
    "isolated-dense": (7, ((1, 2), (5, 2), (3, 5)), True, True),
    "below-threshold": (20, tuple(zip(range(9), range(1, 10))), False, True),  # 2E * 20 = 360 < R**2
    "at-threshold": (20, tuple(zip(range(10), range(1, 11))), True, True),  # 2E * 20 = 400 = R**2
    "below-block-threshold": (40, tuple(zip(range(9), range(1, 10))), False, False),  # 2E * 80 = 1440 < R**2
    "at-block-threshold": (40, tuple(zip(range(10), range(1, 11))), False, True),  # 2E * 80 = 1600 = R**2
    "random-sparse": (200, random_graph_edges(np.random.default_rng(9), 200, 400), False, True),
    "random-sparse-blocks": (200, random_graph_edges(np.random.default_rng(9), 200, 200), False, False),
}


class TestNeighborSums:
    """``neighbor_sums`` against the dense reference ``p @ A`` on both sides of the density rules."""

    @staticmethod
    def _check(net, p):
        sums = net.neighbor_sums(p)
        assert sums.dtype == np.float64
        assert sums.shape == p.shape
        np.testing.assert_allclose(sums, p @ dense_adjacency(net), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize(
        "size, edges, dense, block_dense", NEIGHBOR_SUM_CASES.values(), ids=list(NEIGHBOR_SUM_CASES)
    )
    def test_cases_match_the_dense_reference(self, size, edges, dense, block_dense):
        net = make_network([0.5] * size, edges)
        assert net.dense_products is dense
        p = np.random.default_rng(size).uniform(size=(3, size))
        self._check(net, p[0])
        self._check(net, p[:1])
        self._check(net, p[:0])
        assert ("adjacency_matrix" in net.__dict__) is dense
        self._check(net, p)
        assert ("adjacency_matrix" in net.__dict__) is block_dense

    @settings(deadline=None, max_examples=200)
    @given(small_graphs(), st.data())
    def test_matches_the_dense_reference(self, graph, data):
        size, edges = graph
        net = make_network([0.5] * size, edges)
        unit = st.floats(min_value=0.0, max_value=1.0)
        rows = data.draw(st.integers(min_value=1, max_value=3))
        p = np.array(data.draw(st.lists(unit, min_size=rows * size, max_size=rows * size))).reshape(rows, size)
        self._check(net, p[0])
        self._check(net, p)


NEIGHBOR_COUNT_CASES = {  # name -> (size, edges, dense_products); the first two reach degree 299 and 200
    "complete-300": (300, tuple(itertools.combinations(range(300), 2)), True),
    "star-200-leaves": (201, tuple((0, j) for j in range(1, 201)), False),
    "random-dense": (60, random_graph_edges(np.random.default_rng(4), 60, 400), True),  # 2E * 20 >= R**2
    "random-sparse": (200, random_graph_edges(np.random.default_rng(5), 200, 400), False),
    "empty-graph": (5, (), False),
}


class TestNeighborCounts:
    """``neighbor_counts`` against a pure-Python count on both sides of the density rule."""

    @pytest.mark.parametrize("size, edges, dense", NEIGHBOR_COUNT_CASES.values(), ids=list(NEIGHBOR_COUNT_CASES))
    def test_cases_match_the_python_count(self, size, edges, dense):
        net = make_network([0.5] * size, edges)
        assert net.dense_products is dense
        rng = np.random.default_rng(size)
        bits = np.vstack([np.ones(size), np.zeros(size), rng.random((2, size)) < 0.5]).astype(np.int8)
        counts = net.neighbor_counts(bits)
        assert counts.dtype == np.int32
        assert counts.tolist() == [python_neighbor_counts(net, row) for row in bits]
        assert counts[0].tolist() == net.degrees.tolist()  # every neighbor active
        one = net.neighbor_counts(bits[3])
        assert one.dtype == np.int32
        assert one.tolist() == counts[3].tolist()
        assert net.neighbor_counts(bits.T.copy().T).tolist() == counts.tolist()  # a strided block
        repeated = bits[[2, 2, 3, 3, 3, 0, 0, 2]]  # rows that repeat, as months and tiled starts do
        assert net.neighbor_counts(repeated).tolist() == [python_neighbor_counts(net, row) for row in repeated]
        cube = bits[[0, 3, 1, 2, 3, 3]].reshape(3, 2, size)  # a 3-D block
        cube_counts = net.neighbor_counts(cube)
        assert cube_counts.dtype == np.int32
        assert cube_counts.tolist() == [[python_neighbor_counts(net, row) for row in pair] for pair in cube]
        # dense graphs count through adjacency_matrix, sparse ones over neighbor_arrays
        assert ("adjacency_matrix" in net.__dict__) is dense

    @settings(deadline=None, max_examples=200)
    @given(small_graphs(), st.data())
    def test_matches_the_python_count(self, graph, data):
        size, edges = graph
        net = make_network([0.5] * size, edges)
        rows = data.draw(st.integers(min_value=1, max_value=3))
        bits = np.array(data.draw(st.lists(st.sampled_from((0, 1)), min_size=rows * size, max_size=rows * size)))
        bits = bits.astype(np.int8).reshape(rows, size)
        counts = net.neighbor_counts(bits)
        assert counts.dtype == np.int32
        assert counts.tolist() == [python_neighbor_counts(net, row) for row in bits]


class TestCarriedCounts:
    """Counts carried through ``_step_block`` steps by ``update_counts``, against the pure-Python count."""

    PARAMS = ModelParams(0.5, 0.3, 1.5)

    def _carry(self, net, bits, steps):
        """Step ``bits`` once per block of uniforms in ``steps``, checking the carried counts; return the last state."""
        counts = net.neighbor_counts(bits)
        for uniforms in steps:
            new = _step_block(bits, uniforms, net, self.PARAMS, counts)
            net.update_counts(counts, bits, new)
            assert counts.dtype == np.int32
            assert counts.shape == bits.shape
            assert np.atleast_2d(counts).tolist() == [python_neighbor_counts(net, row) for row in np.atleast_2d(new)]
            bits = new
        return bits

    @pytest.mark.parametrize("size, edges, dense", NEIGHBOR_COUNT_CASES.values(), ids=list(NEIGHBOR_COUNT_CASES))
    def test_cases_match_the_python_count(self, size, edges, dense):
        net = make_network([0.5] * size, edges)
        assert net.dense_products is dense
        rng = np.random.default_rng(size)
        bits = (rng.random((4, size)) < 0.5).astype(np.int8)
        # every cell turns on, then off (a hub of degree 200 or 299 flips both ways), then random steps
        bits = self._carry(net, bits, [np.zeros((4, size)), np.ones((4, size)), *rng.random((3, 4, size))])
        self._carry(net, bits[2].copy(), rng.random((3, size)))  # B = 1, a 1-D state
        self._carry(net, bits.T.copy().T, rng.random((3, 4, size)))  # a strided block
        hub_on = np.ones(size)
        hub_on[0] = 0.0
        self._carry(net, np.zeros((1, size), dtype=np.int8), [hub_on, np.ones(size)])  # risk 0 alone turns on, then off
        assert ("adjacency_matrix" in net.__dict__) is dense

    @settings(deadline=None, max_examples=200)
    @given(small_graphs(), st.data())
    def test_matches_the_python_count(self, graph, data):
        size, edges = graph
        net = make_network([0.5] * size, edges)
        rows = data.draw(st.integers(min_value=1, max_value=3))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        bits = (rng.random((rows, size)) < rng.random()).astype(np.int8)
        self._carry(net, bits, rng.random((4, rows, size)))


class TestEdgeCanonicalization:
    """The vectorized edge checks against the per-edge reference in ``tests.helpers``."""

    @settings(deadline=None, max_examples=300)
    @given(messy_edge_lists())
    def test_matches_the_per_edge_oracle(self, case):
        size, edges = case
        risks = make_network([0.5] * size).risks
        inputs = (edges, tuple(edges), np.array(edges, dtype=np.int64).reshape(-1, 2))
        try:
            expected = canonical_edges(edges, size)
        except ValidationError as exc:
            for given_edges in inputs:
                with pytest.raises(ValidationError) as raised:
                    RiskNetwork(risks, given_edges)
                assert str(raised.value) == str(exc)
            return
        for given_edges in inputs:
            net = RiskNetwork(risks, given_edges)
            assert net.edges == expected
            assert {type(v) for pair in net.edges for v in pair} <= {int}
            assert repr(net) == (
                f"RiskNetwork(risks={net.risks!r}, edges={expected!r}, scheme={net.scheme!r}, epsilon={net.epsilon!r})"
            )
        neighbors = [[] for _ in range(size)]
        for i, j in expected:
            neighbors[i].append(j)
            neighbors[j].append(i)
        indptr, indices = net.neighbor_arrays
        assert indptr.dtype == indices.dtype == np.int32
        assert indptr.tolist() == [0, *itertools.accumulate(map(len, neighbors))]
        assert indices.tolist() == [j for row in neighbors for j in sorted(row)]


class TestRiskColumns:
    """The column checks of ``RiskNetwork.from_dict`` against the per-entry reference in ``tests.helpers``."""

    @settings(deadline=None, max_examples=400)
    @given(risk_documents())
    def test_matches_the_per_entry_reference(self, document):
        try:
            expected = per_entry_network(document)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                RiskNetwork.from_dict(document)
            assert str(raised.value) == str(exc)
            return
        net = RiskNetwork.from_dict(document)
        assert net.risks == expected.risks
        assert repr(net.risks) == repr(expected.risks)
        assert hash(net.risks) == hash(expected.risks)
        assert net.edges == expected.edges
        assert net.likelihoods.tobytes() == expected.likelihoods.tobytes()
        assert (net.scheme, net.epsilon) == (expected.scheme, expected.epsilon)

    def test_loaded_risks_behave_like_constructed_ones(self):
        entries = [{"id": 0, "name": 7, "category": "Societal", "likelihood": 2**53 + 1, "normalized_likelihood": 0.25}]
        (loaded,) = RiskNetwork.from_dict({"risks": entries}).risks
        built = Risk(0, "7", Category.SOCIETAL, float(2**53 + 1), 0.25)
        assert loaded == built and hash(loaded) == hash(built) and repr(loaded) == repr(built)
        assert [type(getattr(loaded, f)) for f in ("id", "name", "raw_likelihood", "normalized_likelihood")] == [
            int, str, float, float,
        ]
        assert replace(loaded, name="x") == replace(built, name="x")
        with pytest.raises(ValidationError, match="normalized likelihood must lie strictly inside"):
            replace(loaded, normalized_likelihood=1.0)  # replace runs Risk's own checks


class TestNetworkFiles:
    def _sample(self):
        return make_network(
            [0.25, 0.5, 0.75],
            [(0, 1), (1, 2)],
            categories=[Category.ECONOMIC, Category.GEOPOLITICAL, Category.TECHNOLOGICAL],
        )

    def test_round_trip_is_bit_exact(self, tmp_path):
        first = tmp_path / "net.json"
        second = tmp_path / "net2.json"
        net = self._sample()
        save_network(net, first)
        reloaded = load_network(first)
        save_network(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert reloaded.edges == net.edges == ((0, 1), (1, 2))
        assert {type(v) for pair in reloaded.edges for v in pair} == {int}
        assert list(reloaded.likelihoods) == list(net.likelihoods)

    def test_a_loaded_network_keeps_no_edge_tuple(self, tmp_path):
        path = tmp_path / "net.json"
        network, _ = generate_synthetic(1000, 5000, (0.5, 0.8), ModelParams(5.3e-3, 3e-3, 2.5), 1, seed=0)
        save_network(network, path)
        del network
        load_network(path)  # any first-load caches stay outside the measurement
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_network(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert "edges" not in loaded.__dict__  # built on first read only
        assert loaded.edge_count == 5000
        assert retained < 0.6 * 2**20  # 0.40 MiB: risks, keys and likelihoods; the tuple of pairs held 0.53 MiB more

    def test_file_without_normalization_block_is_identity(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(
            json.dumps(
                {
                    "risks": [
                        {"id": 0, "name": "a", "category": "Economic", "likelihood": 0.5},
                        {"id": 1, "name": "b", "category": "Societal", "likelihood": 0.25},
                    ],
                    "edges": [[0, 1]],
                }
            )
        )
        net = load_network(path)
        assert list(net.likelihoods) == [0.5, 0.25]

    def test_out_of_range_likelihood_without_block_is_an_error(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(
            json.dumps(
                {
                    "risks": [{"id": 0, "name": "a", "category": "Economic", "likelihood": 1.0}],
                    "edges": [],
                }
            )
        )
        with pytest.raises(ValidationError):
            load_network(path)

    def test_minmax_block_normalizes_raws(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(
            json.dumps(
                {
                    "risks": [
                        {"id": 0, "name": "a", "category": "Economic", "likelihood": 1.0},
                        {"id": 1, "name": "b", "category": "Societal", "likelihood": 3.0},
                        {"id": 2, "name": "c", "category": "Environmental", "likelihood": 5.0},
                    ],
                    "edges": [],
                    "normalization": {"scheme": "minmax", "epsilon": 0.01},
                }
            )
        )
        net = load_network(path)
        assert list(net.likelihoods) == pytest.approx([0.01, 0.5, 0.99], rel=1e-12)

    def test_missing_field_is_an_error(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"risks": [{"id": 0, "name": "a"}], "edges": []}))
        with pytest.raises(ValidationError):
            load_network(path)

    @pytest.mark.parametrize("key", ["id", "name", "category", "likelihood"])
    def test_missing_field_error_names_the_field(self, tmp_path, key):
        entry = {"id": 0, "name": "a", "category": "Economic", "likelihood": 0.5}
        del entry[key]
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"risks": [entry], "edges": []}))
        with pytest.raises(ValidationError, match=f"^risk entry missing field '{key}': "):
            load_network(path)

    def test_unknown_category_is_an_error(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(
            json.dumps(
                {
                    "risks": [{"id": 0, "name": "a", "category": "Cosmic", "likelihood": 0.5}],
                    "edges": [],
                }
            )
        )
        with pytest.raises(ValidationError):
            load_network(path)

    def test_invalid_json_is_an_error(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_network(path)

    def test_partial_explicit_normalized_values_error(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(
            json.dumps(
                {
                    "risks": [
                        {
                            "id": 0,
                            "name": "a",
                            "category": "Economic",
                            "likelihood": 0.5,
                            "normalized_likelihood": 0.5,
                        },
                        {"id": 1, "name": "b", "category": "Societal", "likelihood": 0.25},
                    ],
                    "edges": [],
                }
            )
        )
        with pytest.raises(ValidationError):
            load_network(path)


class TestEventPanel:
    def test_rejects_values_outside_binary(self):
        with pytest.raises(ValidationError):
            EventPanel(np.array([[0, 2]]))

    def test_rejects_empty_and_one_dimensional(self):
        with pytest.raises(ValidationError):
            EventPanel(np.zeros((0, 4)))
        with pytest.raises(ValidationError):
            EventPanel(np.zeros(4))

    def test_default_labels_are_step_indices(self):
        panel = EventPanel(np.zeros((2, 3), dtype=int))
        assert panel.labels == ["t0", "t1", "t2"]

    def test_calendar_labels_wrap_across_years(self):
        panel = EventPanel(np.zeros((1, 4), dtype=int), start_label="2013-11")
        assert panel.labels == ["2013-11", "2013-12", "2014-01", "2014-02"]

    def test_bad_start_label_is_an_error(self):
        for bad in ("2013", "13-01", "2013-13", "2013/01"):
            with pytest.raises(ValidationError):
                EventPanel(np.zeros((1, 2), dtype=int), start_label=bad)

    def test_csv_round_trip_preserves_states_and_label(self, tmp_path):
        states = np.array([[0, 1, 1, 0], [1, 0, 0, 1]])
        panel = EventPanel(states, start_label="2020-12")
        path = tmp_path / "panel.csv"
        save_panel(panel, path)
        back = load_panel(path)
        assert (back.states == states).all()
        assert back.start_label == "2020-12"

    def test_plain_labels_round_trip_without_start(self, tmp_path):
        panel = EventPanel(np.array([[1, 0]]))
        path = tmp_path / "panel.csv"
        save_panel(panel, path)
        assert load_panel(path).start_label is None

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 30)),
        start=st.sampled_from([None, "1999-12", "2013-01"]),
    )
    def test_saved_bytes_match_a_per_cell_writer(self, tmp_path_factory, seed, shape, start):
        states = np.random.default_rng(seed).integers(0, 2, size=shape)
        panel = EventPanel(states, start_label=start)
        lines = [",".join(panel.labels)]
        for row in panel.states:
            lines.append(",".join(str(int(v)) for v in row))
        path = tmp_path_factory.mktemp("panel") / "panel.csv"
        save_panel(panel, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 30)),
        start=st.sampled_from([None, "1999-12"]),
    )
    def test_saved_files_take_the_byte_path_to_the_csv_result(self, tmp_path_factory, seed, shape, start):
        panel = EventPanel(np.random.default_rng(seed).integers(0, 2, size=shape), start_label=start)
        path = tmp_path_factory.mktemp("panel") / "panel.csv"
        save_panel(panel, path)
        assert _saved_panel(path.read_bytes()) is not None
        fast, slow = load_panel(path), _read_panel_csv(path)
        assert fast.states.tolist() == slow.states.tolist() == panel.states.tolist()
        assert fast.states.dtype == slow.states.dtype == np.int8
        assert fast.start_label == slow.start_label == start

    @pytest.mark.parametrize(
        "variant",
        [
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.replace("\n", "\n\n", 2),
            lambda text: '"' + text.replace(",", '",', 1),
            lambda text: text[:-1],
        ],
        ids=["crlf", "blank-lines", "quoted-header", "no-final-newline"],
    )
    def test_other_layouts_take_the_csv_path(self, tmp_path, variant):
        panel = EventPanel(np.array([[0, 1, 1], [1, 0, 1]]), start_label="2020-11")
        path = tmp_path / "panel.csv"
        save_panel(panel, path)
        path.write_bytes(variant(path.read_text()).encode("ascii"))
        assert _saved_panel(path.read_bytes()) is None
        back = load_panel(path)
        assert back.states.tolist() == panel.states.tolist()
        assert back.start_label == "2020-11"

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"t0,t1\n0,1\n0,x\n", "cell (1, 1) must be 0 or 1, got 'x'"),
            (b"t0,t1\n0,1\n2,0\n", "cell (1, 0) must be 0 or 1, got '2'"),
            (b"t0,t1\n0;1\n", "row 1 has 1 cells, expected 2"),
            (b"t0,t1\n0,1,0,1\n", "row 1 has 4 cells, expected 2"),
            (b"t" * 131073 + b",t1\n0,1\n", "not a UTF-8 CSV panel: field larger than field limit (131072)"),
        ],
        ids=["letter", "digit-2", "semicolon", "double-width-row", "label-over-csv-limit"],
    )
    def test_near_misses_of_the_saved_layout_get_the_csv_errors(self, tmp_path, content, message):
        path = tmp_path / "panel.csv"
        path.write_bytes(content)
        with pytest.raises(ValidationError) as raised:
            load_panel(path)
        assert str(raised.value) == f"{path}: {message}"

    def test_non_binary_cell_is_an_error(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("t0,t1\n0,x\n")
        with pytest.raises(ValidationError):
            load_panel(path)

    def test_ragged_row_is_an_error(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("t0,t1\n0,1\n1\n")
        with pytest.raises(ValidationError):
            load_panel(path)

    def test_header_only_is_an_error(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("t0,t1\n")
        with pytest.raises(ValidationError):
            load_panel(path)
