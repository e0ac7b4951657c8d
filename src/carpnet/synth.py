"""Deterministic synthetic network and panel generation for desk-scale studies.

The generator draws a uniform simple graph with an exact edge count, assigns
likelihoods uniformly from a user range, splits risks into five near-equal
contiguous category blocks, and simulates one trajectory panel with the
requested parameters. Graph and likelihood draws use the reserved Philox
stream indices 2**64 - 1 and 2**64 - 2 of the master seed, so they can never
collide with simulation run streams (run indices are bounded far below by
the cell cap).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .domain import CATEGORIES, ModelParams, Risk, RiskNetwork, EventPanel, NormalizationScheme
from .dynamics import philox_stream
from .errors import ValidationError
from .montecarlo import SimulationConfig, simulate

_GRAPH_STREAM = 2**64 - 1
_LIKELIHOOD_STREAM = 2**64 - 2


def generate_synthetic(
    nodes: int,
    edges: int,
    likelihood_range: tuple[float, float],
    params: ModelParams,
    panel_length: int,
    seed: int,
    initial_state: str | Sequence[int] = "dormant",
) -> tuple[RiskNetwork, EventPanel]:
    """Build a random risk network and simulate one activity panel on it.

    The graph is chosen uniformly among simple graphs with exactly ``edges``
    edges; likelihoods are drawn uniformly from ``likelihood_range`` (whose
    endpoints must lie strictly inside (0, 1)) and used as already-normalized
    values. The panel is the single run with stream index 0 of ``seed``,
    started from ``initial_state`` and ``panel_length`` months long.
    """
    if nodes < 1:
        raise ValidationError(f"nodes must be at least 1, got {nodes}")
    max_edges = nodes * (nodes - 1) // 2
    if not (0 <= edges <= max_edges):
        raise ValidationError(
            f"edge count {edges} infeasible for {nodes} nodes (max {max_edges})"
        )
    lo, hi = float(likelihood_range[0]), float(likelihood_range[1])
    if not (0.0 < lo <= hi < 1.0):
        raise ValidationError(
            f"likelihood range must satisfy 0 < low <= high < 1, got ({lo}, {hi})"
        )
    if panel_length < 1:
        raise ValidationError(f"panel length must be at least 1, got {panel_length}")

    graph_rng = philox_stream(seed, _GRAPH_STREAM)
    chosen = graph_rng.choice(max_edges, size=edges, replace=False) if edges else np.zeros(0, dtype=np.int64)
    chosen.sort()
    # pair ids number the upper triangle row by row; row i's first pair (i, i + 1) has id starts[i]
    rows = np.arange(nodes, dtype=np.int64)
    starts = rows * (2 * nodes - rows - 1) // 2
    upper_i = np.searchsorted(starts, chosen, side="right") - 1
    upper_j = chosen - starts[upper_i] + upper_i + 1
    edge_list = tuple(zip(upper_i.tolist(), upper_j.tolist()))

    likelihood_rng = philox_stream(seed, _LIKELIHOOD_STREAM)
    likelihoods = likelihood_rng.uniform(lo, hi, size=nodes)

    risks = tuple(
        Risk(
            id=i,
            name=f"Risk {i:02d}",
            category=CATEGORIES[min(len(CATEGORIES) - 1, i * len(CATEGORIES) // nodes)],
            raw_likelihood=float(likelihoods[i]),
            normalized_likelihood=float(likelihoods[i]),
        )
        for i in range(nodes)
    )
    network = RiskNetwork(risks, edge_list, scheme=NormalizationScheme.IDENTITY)

    config = SimulationConfig(
        runs=1,
        horizon=panel_length,
        seed=seed,
        initial_state=initial_state,
        record_panels=True,
    )
    trajectory = simulate(network, params, config)
    assert trajectory.panels is not None
    return network, trajectory.panels[0]
