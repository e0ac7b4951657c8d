"""Shared builders and independent oracles for the test suite.

The exact-chain oracle deliberately uses plain ``**`` arithmetic and its own
state enumeration rather than any package helper, so it stays an independent
route to the same quantities the mean-field code approximates.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from hypothesis import strategies as st

from carpnet import (
    CATEGORIES,
    DEFAULT_EPSILON,
    Category,
    ModelParams,
    NormalizationScheme,
    Risk,
    RiskNetwork,
    ValidationError,
    normalize_likelihoods,
)

# Two realistic month-scale parameter sets: a slow regime (rare activations,
# long active spells) and a faster one (more contagion, quicker recovery).
PARAMS_SLOW = ModelParams(alpha=3.04e-3, beta=1.17e-3, gamma=3.56)
PARAMS_FAST = ModelParams(alpha=5.28e-3, beta=3.03e-3, gamma=2.50)


def make_network(
    likelihoods,
    edges=(),
    categories=None,
) -> RiskNetwork:
    """Quick network builder: explicit normalized likelihoods and edges."""
    n = len(likelihoods)
    if categories is None:
        categories = [CATEGORIES[i % len(CATEGORIES)] for i in range(n)]
    risks = tuple(
        Risk(
            id=i,
            name=f"risk-{i}",
            category=categories[i],
            raw_likelihood=float(likelihoods[i]),
            normalized_likelihood=float(likelihoods[i]),
        )
        for i in range(n)
    )
    return RiskNetwork(risks, tuple(edges))


def canonical_edges(edges, size: int) -> tuple[tuple[int, int], ...]:
    """Per-edge reference for edge canonicalization: the sorted (low, high) pairs of ``edges``.

    Edges are checked one at a time in input order, each for a self-loop, then
    an id outside 0..size-1, then a pair seen before in either orientation;
    the first fault raises.
    """
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        pair = tuple(edge)
        if len(pair) != 2:
            raise ValidationError(f"edge must be a pair of risk ids, got {pair!r}")
        i, j = int(pair[0]), int(pair[1])
        if i == j:
            raise ValidationError(f"self-loop on risk {i} is not allowed")
        if not (0 <= i < size and 0 <= j < size):
            raise ValidationError(f"edge ({i}, {j}) references a risk id outside 0..{size - 1}")
        key = (i, j) if i < j else (j, i)
        if key in seen:
            raise ValidationError(f"duplicate edge {key}")
        seen.add(key)
    return tuple(sorted(seen))


def _entry_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} must fit in a float, got an integer of {value.bit_length()} bits") from None


def per_entry_network(data) -> RiskNetwork:
    """Per-entry reference for ``RiskNetwork.from_dict``: each risk checked and built one at a time.

    Every entry's likelihood is read in entry order, then the normalized
    values, then each entry's name, category and id, and ``Risk(...)`` runs
    its own range checks; the first fault raises.
    """
    if not isinstance(data, dict):
        raise ValidationError("network document must be a JSON object")
    entries = data.get("risks")
    if not isinstance(entries, list) or not entries:
        raise ValidationError("network document needs a non-empty 'risks' list")
    block = data.get("normalization")
    if block is None:
        scheme, epsilon = NormalizationScheme.IDENTITY, DEFAULT_EPSILON
    else:
        try:
            scheme = NormalizationScheme(block["scheme"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad normalization block: {block!r}") from exc
        epsilon = _entry_number(block.get("epsilon", DEFAULT_EPSILON), "normalization epsilon")

    def field(entry: dict, key: str):
        try:
            return entry[key]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"risk entry missing field {key!r}: {entry!r}") from exc

    raws = [_entry_number(field(e, "likelihood"), "likelihood") for e in entries]
    explicit = ["normalized_likelihood" in e for e in entries]
    if any(explicit) and not all(explicit):
        raise ValidationError("either every risk entry carries 'normalized_likelihood' or none does")
    if all(explicit):
        normalized = [_entry_number(e["normalized_likelihood"], "normalized_likelihood") for e in entries]
    else:
        normalized = normalize_likelihoods(raws, scheme, epsilon)
    risks = []
    for entry, raw, norm in zip(entries, raws, normalized):
        name = field(entry, "name")
        value = field(entry, "category")
        try:
            category = Category(value)
        except ValueError as exc:
            raise ValidationError(f"unknown category {value!r}") from exc
        risk_id = field(entry, "id")
        if type(risk_id) is not int:
            raise ValidationError(f"risk id must be an integer, got {risk_id!r}")
        risks.append(Risk(risk_id, str(name), category, raw, norm))
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise ValidationError("'edges' must be a list of id pairs")
    return RiskNetwork(tuple(risks), edges, scheme, epsilon)


def dense_adjacency(network: RiskNetwork) -> np.ndarray:
    """Dense float64 0/1 adjacency set edge by edge, the reference operand ``p @ A`` of neighbor sums."""
    adjacency = np.zeros((network.size, network.size))
    for i, j in network.edges:
        adjacency[i, j] = 1.0
        adjacency[j, i] = 1.0
    return adjacency


class DenseOperand:
    """A :func:`carpnet.meanfield.solve_block` operand whose neighbor sums are the dense reference ``p @ A``.

    ``A`` is :func:`dense_adjacency`, so a solve with this operand multiplies
    by the dense matrix whatever the network's density.
    """

    def __init__(self, network: RiskNetwork):
        self.adjacency = dense_adjacency(network)

    def neighbor_sums(self, p: np.ndarray) -> np.ndarray:
        return p @ self.adjacency


def python_neighbor_counts(network: RiskNetwork, bits) -> list[int]:
    """Active-neighbor count of every risk by plain Python summation."""
    return [sum(int(bits[j]) for j in network.neighbors(i)) for i in range(network.size)]


def random_graph_edges(rng: np.random.Generator, nodes: int, edges: int):
    """Uniform simple graph with an exact edge count, as an edge tuple."""
    max_edges = nodes * (nodes - 1) // 2
    upper_i, upper_j = np.triu_indices(nodes, k=1)
    chosen = rng.choice(max_edges, size=edges, replace=False)
    return tuple((int(upper_i[e]), int(upper_j[e])) for e in sorted(chosen))


def random_network(
    rng: np.random.Generator,
    nodes: int,
    edges: int,
    likelihood_low: float,
    likelihood_high: float,
) -> RiskNetwork:
    likelihoods = rng.uniform(likelihood_low, likelihood_high, size=nodes)
    return make_network(likelihoods, random_graph_edges(rng, nodes, edges))


def exact_stationary_marginals(
    network: RiskNetwork,
    params: ModelParams,
    tol: float = 1e-13,
    max_iter: int = 200_000,
) -> np.ndarray:
    """Stationary per-risk activation probabilities of the exact 2^R chain.

    Enumerates every joint state, builds the exact synchronous transition
    matrix with plain power arithmetic, and runs power iteration until the
    distribution stops moving in L1. Only feasible for R <= ~12.
    """
    size = network.size
    n_states = 1 << size
    states = np.array(
        [[(s >> i) & 1 for i in range(size)] for s in range(n_states)], dtype=np.float64
    )
    likelihoods = np.array([r.normalized_likelihood for r in network.risks])
    active_neighbors = states @ dense_adjacency(network)  # (n_states, size)
    p_act = 1.0 - (1.0 - likelihoods) ** (params.alpha + params.beta * active_neighbors)
    p_con = 1.0 - (1.0 - likelihoods) ** params.gamma
    next_active = np.where(states == 1, p_con, p_act)  # (n_states, size)

    transition = np.ones((n_states, n_states))
    for i in range(size):
        target_bit = states[:, i][None, :]
        q = next_active[:, i][:, None]
        transition *= np.where(target_bit == 1.0, q, 1.0 - q)

    dist = np.full(n_states, 1.0 / n_states)
    for _ in range(max_iter):
        updated = dist @ transition
        if np.abs(updated - dist).sum() <= tol:
            dist = updated
            break
        dist = updated
    else:
        raise AssertionError("exact chain power iteration did not settle")
    return dist @ states


def count_based_log_likelihood(panel, network, params: ModelParams) -> float:
    """Transition-by-transition panel log-likelihood with plain arithmetic.

    Slow reference route used to check the vectorized implementation.
    """
    states = panel.states
    likelihoods = np.array([r.normalized_likelihood for r in network.risks])
    adjacency = dense_adjacency(network)
    total = 0.0
    for t in range(states.shape[1] - 1):
        active = states[:, t].astype(float)
        counts = adjacency @ active
        for i in range(network.size):
            survival = 1.0 - likelihoods[i]
            if states[i, t] == 0:
                stay_prob = survival ** (params.alpha + params.beta * counts[i])
                total += np.log(1.0 - stay_prob) if states[i, t + 1] == 1 else np.log(stay_prob)
            else:
                con_prob = 1.0 - survival ** params.gamma
                total += np.log(con_prob) if states[i, t + 1] == 1 else np.log(1.0 - con_prob)
    return float(total)


@st.composite
def small_graphs(draw, max_size: int = 40):
    """A risk count of 1..max_size and a simple edge list over it, any density."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    if not pairs:
        return size, []
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=min(len(pairs), 150)))
    return size, edges


@st.composite
def messy_edge_lists(draw, max_size: int = 12):
    """A risk count and an edge list that may break every edge rule.

    Half the draws start from a simple graph, each pair in either
    orientation; the others from pairs of ids in [-3, R+3]. Repeats of drawn
    pairs, either way round, may follow, and the list is shuffled. Each edge
    is a list or a tuple, each id a Python or numpy integer.
    """
    size = draw(st.integers(min_value=1, max_value=max_size))
    if draw(st.booleans()):
        simple = [(i, j) for i in range(size) for j in range(i + 1, size)]
        pairs = draw(st.lists(st.sampled_from(simple), unique=True, max_size=20)) if simple else []
        pairs = [pair[::-1] if draw(st.booleans()) else pair for pair in pairs]
    else:
        ids = st.integers(min_value=-3, max_value=size + 3)
        pairs = draw(st.lists(st.tuples(ids, ids), max_size=30))
    if pairs:
        repeats = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=5))
        pairs = draw(st.permutations(pairs + [pair[::-1] if flip else pair for pair, flip in repeats]))
    containers = st.sampled_from([list, tuple])
    kinds = st.sampled_from([int, np.int64, np.int32, np.int16])
    edges = [draw(containers)(draw(kinds)(v) for v in pair) for pair in pairs]
    return size, edges


RISK_FAULTS = (
    "missing-field",
    "bool-id",
    "non-number-likelihood",
    "huge-integer",
    "unhashable-category",
    "normalized-out-of-range",
    "raw-out-of-range",
    "mixed-explicit",
)


@st.composite
def risk_documents(draw, max_size: int = 8):
    """A network document whose risk list is valid or carries one injected fault (``RISK_FAULTS``).

    Risks come in any id order, with names that may be numbers, likelihoods
    that are all floats in (0, 1) or all small integers, explicit normalized
    values or none, and any normalization block or none. A huge integer,
    beyond 2**53 or beyond the float range, lands in a likelihood or a
    normalized likelihood, where it may be valid or a fault.
    """
    size = draw(st.integers(min_value=1, max_value=max_size))
    explicit = draw(st.booleans())
    raws = st.integers(1, 9) if draw(st.booleans()) else st.floats(0.05, 0.95)
    entries = []
    for risk_id in draw(st.permutations(range(size))):
        entry = {
            "id": risk_id,
            "name": draw(st.one_of(st.text(max_size=3), st.integers(-5, 5))),
            "category": draw(st.sampled_from([c.value for c in CATEGORIES])),
            "likelihood": draw(raws),
        }
        if explicit:
            entry["normalized_likelihood"] = draw(st.floats(0.01, 0.99))
        entries.append(entry)
    fault = draw(st.sampled_from((None, *RISK_FAULTS)))
    entry = draw(st.sampled_from(entries))
    if fault == "missing-field":
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif fault == "bool-id":
        entry["id"] = draw(st.booleans())
    elif fault == "non-number-likelihood":
        entry["likelihood"] = draw(st.sampled_from(["0.5", True, None]))
    elif fault == "huge-integer":
        key = draw(st.sampled_from(sorted(key for key in entry if key.endswith("likelihood"))))
        entry[key] = draw(st.one_of(st.integers(2**53 + 1, 2**80), st.just(10**400)))
    elif fault == "unhashable-category":
        entry["category"] = [entry["category"]]
    elif fault == "normalized-out-of-range":
        entry["normalized_likelihood"] = draw(st.sampled_from([0.0, 1.0, 1.5, -0.25, float("nan")]))
    elif fault == "raw-out-of-range":
        entry["likelihood"] = draw(st.sampled_from([0.0, -0.25, float("inf"), float("nan")]))
    elif fault == "mixed-explicit" and size > 1:
        if explicit:
            del entry["normalized_likelihood"]
        else:
            entry["normalized_likelihood"] = 0.5
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    document = {"risks": entries, "edges": draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []}
    scheme = draw(st.sampled_from((None, *NormalizationScheme)))
    if scheme is not None:
        document["normalization"] = {"scheme": scheme.value, "epsilon": draw(st.sampled_from([0.01, 0.05]))}
    return document


def bfs_distances(size: int, edges, source: int) -> dict[int, int]:
    """Hop distance from ``source`` to every risk it reaches, by plain breadth-first search."""
    neighbors: list[list[int]] = [[] for _ in range(size)]
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for other in neighbors[node]:
            if other not in distances:
                distances[other] = distances[node] + 1
                queue.append(other)
    return distances
