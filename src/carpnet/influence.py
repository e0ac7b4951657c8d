"""Knockout influence analysis: how much each risk feeds others' activations.

Disabling a risk (flooring its normalized likelihood at a negligible value)
and recomputing the mean-field steady state isolates that risk's causal
contribution to every other risk's external activation share. The pairwise
matrix aggregates to category level by exact pair counting, excluding
self-pairs inside a category, and the category matrix is additionally
rescaled to [0, 1] by a global min-max transform for comparability.

Block solve
-----------
The R knockouts are not solved one network at a time. Knockout i is row i
of a (B, R) block of likelihood vectors, equal to the network's except for
its own risk, which is floored at ``KNOCKOUT_FLOOR``; the block shares the
network's graph, so each sweep of the mean-field map is one
``network.neighbor_sums(block)`` call (:func:`carpnet.meanfield.solve_block`)
and no network is rebuilt. Every row stops at its own convergence sweep, just
as a one-row :func:`carpnet.meanfield.fixed_point` solve would. Rows are cut
into blocks of at most ``BLOCK_CELLS`` cells, a bound on the working set
that depends on R alone, and each block writes its rows straight into the
one R × R result; blocks are the unit ``--threads`` spreads over, so the
matrix is bit-identical for any thread count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .domain import CATEGORIES, Category, ModelParams, RiskNetwork
from .errors import ConvergenceError, ValidationError
from .meanfield import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    fixed_point,
    solve_block,
    transition_fractions,
    transition_rates,
)
from .utils import ordered_map

KNOCKOUT_FLOOR = 1e-12
BLOCK_CELLS = 2**14


def knockout(network: RiskNetwork, risk_id: int) -> RiskNetwork:
    """Copy of the network with one risk's normalized likelihood floored.

    A literal zero would make the transition kernel degenerate, so the
    likelihood is set to ``KNOCKOUT_FLOOR``; the residual activation mass is
    orders of magnitude below solver tolerances at month-scale parameters.
    Edges are kept, so the risk still counts neighbors, it just never fires.
    """
    return network.with_normalized_likelihood(risk_id, KNOCKOUT_FLOOR)


@dataclass(frozen=True, eq=False)
class InfluenceMatrix:
    """Pairwise knockout influence: entry (i, j) is how much risk i feeds risk j.

    Each entry is the drop in risk j's external-activation share when risk i
    is disabled; the diagonal is zero by definition.
    """

    values: np.ndarray
    tol: float

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"influence matrix must be square, got shape {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return int(self.values.shape[0])

    def top_influenced(self, risk_id: int, count: int) -> tuple[int, ...]:
        """Ids of the ``count`` risks most influenced by ``risk_id``, best first.

        Ties are broken by lower id so the answer is deterministic.
        """
        if not (0 <= risk_id < self.size):
            raise ValidationError(f"risk id {risk_id} outside 0..{self.size - 1}")
        if not (0 <= count <= self.size - 1):
            raise ValidationError(f"count must lie in [0, {self.size - 1}], got {count}")
        others = np.delete(np.arange(self.size), risk_id)
        order = others[np.lexsort((others, -self.values[risk_id, others]))]
        return tuple(order[:count].tolist())


def influence_matrix(
    network: RiskNetwork,
    params: ModelParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    threads: int = 1,
) -> InfluenceMatrix:
    """Knockout influence of every risk on every other risk.

    Solves one baseline and R knockout steady states, the knockouts as rows
    of blocks of at most ``BLOCK_CELLS`` cells; raises
    :class:`ConvergenceError` if any of them fails to converge, since a
    half-converged influence number is worse than none.
    """
    baseline = fixed_point(network, params, tol=tol, max_iter=max_iter)
    if not baseline.converged:
        raise ConvergenceError("baseline steady state did not converge")
    base_ext = transition_fractions(baseline, network, params).a_ext
    size = network.size
    rows_per_block = max(1, BLOCK_CELLS // size)
    values = np.empty((size, size))

    def knocked_block(start: int) -> None:
        stop = min(start + rows_per_block, size)
        ids = np.arange(start, stop)
        likelihoods = np.tile(network.likelihoods, (ids.size, 1))
        likelihoods[np.arange(ids.size), ids] = KNOCKOUT_FLOOR
        p, _, residuals = solve_block(likelihoods, network, params, likelihoods, tol, max_iter)
        failed = ids[~(residuals <= tol)]
        if failed.size:
            raise ConvergenceError(f"steady state with risk {failed[0]} disabled did not converge")
        _, raw_ext, _, total = transition_rates(p, network.neighbor_sums(p), likelihoods, params)
        np.subtract(base_ext, raw_ext / total, out=values[start:stop])

    ordered_map(knocked_block, range(0, size, rows_per_block), threads=threads)
    np.fill_diagonal(values, 0.0)
    return InfluenceMatrix(values=values, tol=tol)


@dataclass(frozen=True, eq=False)
class CategoryInfluence:
    """Category-level aggregation of an influence matrix.

    ``raw[a, b]`` is the mean pairwise influence from risks in category a to
    risks in category b, counting only cross-risk pairs; ``normalized``
    rescales ``raw`` to [0, 1] by a global min-max transform. Categories with
    no risks in the network are omitted.
    """

    categories: tuple[Category, ...]
    raw: np.ndarray
    normalized: np.ndarray

    def __post_init__(self) -> None:
        for name in ("raw", "normalized"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def category_influence(matrix: InfluenceMatrix, network: RiskNetwork) -> CategoryInfluence:
    """Aggregate pairwise influence to the category level.

    Diagonal cells average over ordered cross-risk pairs inside the category,
    so a single-member category has an undefined self-influence, reported as
    0 with a warning. If every cell comes out equal the min-max rescale is
    undefined too; that degenerate case normalizes to all zeros, again with a
    warning.
    """
    if matrix.size != network.size:
        raise ValidationError(
            f"influence matrix covers {matrix.size} risks but the network has {network.size}"
        )
    members: dict[Category, list[int]] = {}
    for risk in network.risks:
        members.setdefault(risk.category, []).append(risk.id)
    present = tuple(cat for cat in CATEGORIES if cat in members)
    count = len(present)
    raw = np.zeros((count, count), dtype=np.float64)
    for a, cat_a in enumerate(present):
        ids_a = members[cat_a]
        for b, cat_b in enumerate(present):
            ids_b = members[cat_b]
            block = matrix.values[np.ix_(ids_a, ids_b)]
            if cat_a is cat_b:
                pairs = len(ids_a) * (len(ids_a) - 1)
                if pairs == 0:
                    warnings.warn(
                        f"category {cat_a.value} has a single risk, self-influence reported as 0",
                        stacklevel=2,
                    )
                    raw[a, b] = 0.0
                else:
                    raw[a, b] = (block.sum() - np.trace(block)) / pairs
            else:
                raw[a, b] = block.mean()
    lo, hi = float(raw.min()), float(raw.max())
    if hi == lo:
        warnings.warn("constant category influence, normalized matrix set to all zeros", stacklevel=2)
        normalized = np.zeros_like(raw)
    else:
        normalized = (raw - lo) / (hi - lo)
    return CategoryInfluence(categories=present, raw=raw, normalized=normalized)
