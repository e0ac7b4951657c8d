"""Mean-field steady state of a risk network and its transition decomposition.

Replacing random neighbor states by their expected activation probabilities
turns the synchronous stochastic kernel into a deterministic self-consistency
problem: each risk's stationary activation probability p_i must satisfy

    p_i = P01_i(p) / (P01_i(p) + p_rec_i)

where ``P01_i(p) = 1 - (1 - L_i)**(alpha + beta * m_i)`` and ``m_i`` is the
sum of the neighbors' probabilities (a real-valued expected active-neighbor
count, unlike the integer counts of the stochastic kernel). The fixed point
is solved by damped successive approximation with synchronous sweeps, so the
iteration is deterministic and independent of risk ordering. The sweep loop
(:func:`solve_block`) runs a (B, R) block of probability rows, one per
likelihood vector over the same graph, with one neighbor sum per sweep;
:func:`fixed_point` is its one-row call and the knockout influence matrix
its many-row call. Every neighbor sum here, of a row or a block, is one
:meth:`RiskNetwork.neighbor_sums` call, which picks the dense product or a
segment sum over the neighbor arrays by density and block height.

Transition decomposition
------------------------
At a steady state the expected per-month rates of the three transition
classes are

    A_int = (1 - p) * p_int                        internal activation
    A_ext = (1 - p) * (1 - (1 - p_ext)**m)         external activation
    A_rec = p * p_rec                              recovery

The internal and external classes overlap on the (tiny) event that both
mechanisms fire in the same month, which this decomposition ignores; the
normalized fractions a_* = A_* / (A_int + A_ext + A_rec) therefore sum to 1
by construction, and recovery accounts for half of all transitions up to
that overlap term. For small exponents the external-to-internal ratio
``A_ext / A_int`` is approximately ``beta * m / alpha``, which is how the
relative strength of contagion versus spontaneous activation is usually
quoted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import ModelParams, RiskNetwork
from .dynamics import activation_prob, survival_prob
from .errors import ValidationError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


class InitMode(Enum):
    """Starting vector for the fixed-point iteration."""

    ZEROS = "zeros"
    LIKELIHOODS = "likelihoods"
    ONES = "ones"


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Result of the fixed-point solve."""

    p_hat: np.ndarray
    iterations: int
    residual: float
    converged: bool

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(self.p_hat, dtype=np.float64)
        p.setflags(write=False)
        object.__setattr__(self, "p_hat", p)


def solve_block(
    likelihoods: np.ndarray,
    network: RiskNetwork,
    params: ModelParams,
    start: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    damping: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped synchronous sweeps on a (B, R) block, each row to its own fixed point.

    Row b solves the self-consistency equations of ``network``'s graph with
    likelihoods ``likelihoods[b]``, starting from ``start[b]``; each sweep
    sums the whole block's neighbors in one ``network.neighbor_sums`` call.
    A row leaves the block at the sweep where its own max-norm update first
    drops to ``tol``, so it takes exactly the sweeps a one-row solve would;
    a row still moving after ``max_iter`` sweeps keeps its last iterate.
    Returns ``(p, iterations, residuals)``, one entry per row; row b
    converged iff ``residuals[b] <= tol``.
    """
    if not (tol > 0.0):
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    if not (0.0 < damping <= 1.0):
        raise ValidationError(f"damping must lie in (0, 1], got {damping}")

    out = np.array(start, dtype=np.float64)
    iterations = np.full(out.shape[0], max_iter, dtype=np.int64)
    residuals = np.full(out.shape[0], math.inf)
    live = np.arange(out.shape[0])
    # activation_prob's log1p, taken once: each sweep only rescales it by its exponent
    p, p_rec, log_survival = out, survival_prob(likelihoods, params.gamma), np.log1p(-likelihoods)
    for iteration in range(1, max_iter + 1):
        p01 = -np.expm1((params.alpha + params.beta * network.neighbor_sums(p)) * log_survival)
        new = p + damping * (p01 / (p01 + p_rec) - p)
        residual = np.max(np.abs(new - p), axis=1)
        p = new
        done = residual <= tol
        if done.any() or iteration == max_iter:
            out[live] = p
            residuals[live] = residual
            iterations[live[done]] = iteration
            keep = ~done
            live, p, log_survival, p_rec = live[keep], p[keep], log_survival[keep], p_rec[keep]
            if live.size == 0:
                break
    return out, iterations, residuals


def fixed_point(
    network: RiskNetwork,
    params: ModelParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    init: InitMode = InitMode.LIKELIHOODS,
    damping: float = 1.0,
) -> SteadyState:
    """Solve the self-consistency equations for every risk at once.

    Iterates ``p <- p + damping * (F(p) - p)`` until the update is at most
    ``tol`` in the max norm. The undamped map is a monotone contraction for
    realistic month-scale parameters, so ``damping=1.0`` is the default;
    smaller values trade speed for robustness. Returns ``converged=False``
    instead of raising when ``max_iter`` is exhausted. This is the one-row
    call of :func:`solve_block`.
    """
    if not isinstance(init, InitMode):
        raise ValidationError(f"init must be an InitMode, got {init!r}")

    if init is InitMode.ZEROS:
        p = np.zeros(network.size)
    elif init is InitMode.ONES:
        p = np.ones(network.size)
    else:
        p = network.likelihoods
    p, iterations, residuals = solve_block(
        network.likelihoods[None], network, params, p[None], tol, max_iter, damping
    )
    residual = float(residuals[0])
    return SteadyState(p[0], int(iterations[0]), residual, residual <= tol)


def stationarity_residual(p: np.ndarray, network: RiskNetwork, params: ModelParams) -> float:
    """Max one-step drift of the mean-field map at probability vector ``p``.

    Computes ``max_i |(1 - p_i) * P01_i(p) + p_i * p_con_i - p_i|``, the gap
    between ``p`` and its image under one expected synchronous update. Zero
    exactly at a fixed point.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (network.size,):
        raise ValidationError(f"probability vector must have shape ({network.size},), got {p.shape}")
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValidationError("probabilities must lie in [0, 1]")
    p01 = activation_prob(network.likelihoods, params.alpha + params.beta * network.neighbor_sums(p))
    p_con = activation_prob(network.likelihoods, params.gamma)
    return float(np.max(np.abs((1.0 - p) * p01 + p * p_con - p)))


@dataclass(frozen=True, eq=False)
class TransitionFractions:
    """Per-risk decomposition of steady-state transition activity.

    ``raw_*`` are expected per-month transition rates; ``a_*`` are the same
    rates normalized to sum to 1 for each risk.
    """

    a_int: np.ndarray
    a_ext: np.ndarray
    a_rec: np.ndarray
    raw_int: np.ndarray
    raw_ext: np.ndarray
    raw_rec: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a_int", "a_ext", "a_rec", "raw_int", "raw_ext", "raw_rec"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def transition_rates(
    p: np.ndarray, m: np.ndarray, likelihoods: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expected per-month internal, external and recovery rates, and their total.

    ``p`` are steady-state probabilities and ``m`` the matching expected
    active-neighbor counts, as a vector or a (B, R) block of rows. Raises
    :class:`ValidationError` if some risk has zero total rate.
    """
    raw_int = (1.0 - p) * activation_prob(likelihoods, params.alpha)
    raw_ext = (1.0 - p) * activation_prob(likelihoods, params.beta * m)
    raw_rec = p * survival_prob(likelihoods, params.gamma)
    total = raw_int + raw_ext + raw_rec
    if not (total > 0.0).all():
        raise ValidationError("degenerate steady state: some risk has zero total transition rate")
    return raw_int, raw_ext, raw_rec, total


def transition_fractions(steady: SteadyState, network: RiskNetwork, params: ModelParams) -> TransitionFractions:
    """Split each risk's steady-state transition rate into its three classes."""
    if not steady.converged:
        raise ValidationError("transition fractions require a converged steady state")
    p = steady.p_hat
    if p.shape != (network.size,):
        raise ValidationError(f"steady state has {p.shape[0]} risks but the network has {network.size}")
    m = network.neighbor_sums(p)
    raw_int, raw_ext, raw_rec, total = transition_rates(p, m, network.likelihoods, params)
    return TransitionFractions(
        a_int=raw_int / total,
        a_ext=raw_ext / total,
        a_rec=raw_rec / total,
        raw_int=raw_int,
        raw_ext=raw_ext,
        raw_rec=raw_rec,
    )


def _ratios(
    steady: SteadyState, network: RiskNetwork, params: ModelParams, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(exact, taylor)`` of :func:`ext_int_ratio` for the risks ``ids``; an underflow names the first."""
    if not steady.converged:
        raise ValidationError("ratio requires a converged steady state")
    likelihoods = network.likelihoods[ids]
    m = network.neighbor_sums(steady.p_hat)[ids]
    denom = activation_prob(likelihoods, params.alpha)
    underflow = denom <= 0.0
    if underflow.any():
        raise ValidationError(
            f"internal activation probability underflowed to zero for risk {ids[underflow.argmax()]}"
        )
    return activation_prob(likelihoods, params.beta * m) / denom, params.beta * m / params.alpha


def ext_int_ratios(steady: SteadyState, network: RiskNetwork, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ext_int_ratio` of every risk at once, as the arrays ``(exact, taylor)``."""
    return _ratios(steady, network, params, np.arange(network.size))


def ext_int_ratio(
    steady: SteadyState,
    network: RiskNetwork,
    params: ModelParams,
    risk_id: int,
) -> tuple[float, float]:
    """External-to-internal activation ratio of one risk, exact and linearized.

    Returns ``(exact, taylor)`` where ``exact = A_ext / A_int`` at the steady
    state and ``taylor = beta * m / alpha`` is its small-exponent expansion
    (both numerator and denominator expanded to first order). The pair lets
    callers check whether the linearized reading is trustworthy for their
    parameters. Each call sums every risk's neighbors; for all risks, call
    :func:`ext_int_ratios` once.
    """
    if not (0 <= risk_id < network.size):
        raise ValidationError(f"risk id {risk_id} outside 0..{network.size - 1}")
    exact, taylor = _ratios(steady, network, params, np.array([risk_id]))
    return float(exact[0]), float(taylor[0])
