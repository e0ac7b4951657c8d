"""Trajectory likelihood of an observed activity panel and parameter fitting.

The probability of one observed month-to-month transition of risk i depends
only on its likelihood L_i, its active-neighbor count k at the earlier month,
and the parameters. Writing ``y_i = log(1 - L_i)``, the four cases are

    dormant -> dormant   (alpha + k beta) * y_i            (log-prob)
    dormant -> active    log(1 - exp((alpha + k beta) * y_i))
    active  -> active    log(1 - exp(gamma * y_i))
    active  -> dormant   gamma * y_i

so the panel log-likelihood collapses onto sufficient statistics: counts of
dormant transitions per (risk, k) cell and of active transitions per risk.
:class:`PanelStats` builds those tables in one pass over the panel; each
likelihood or gradient evaluation is then a small vectorized reduction whose
cost is independent of the panel length.

Fitting maximizes the log-likelihood over ``(ln alpha, ln beta, ln gamma)``
with Nelder-Mead restarted from several random points drawn log-uniformly
from a wide box. Positivity is structural in log space, and the multi-start
guards against the near-flat region where alpha and beta are both tiny. The
supplied initial guess is always included as the first start, so the fitted
log-likelihood can never fall below the initial one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import EventPanel, ModelParams, RiskNetwork
from .dynamics import philox_stream
from .errors import ValidationError
from .utils import ordered_map

_LOG_LIMIT = 700.0  # exp overflows past this, clamp Nelder-Mead excursions


class PanelStats:
    """Sufficient statistics of one panel for repeated likelihood evaluation."""

    def __init__(self, panel: EventPanel, network: RiskNetwork) -> None:
        if panel.n_risks != network.size:
            raise ValidationError(
                f"panel has {panel.n_risks} risks but the network has {network.size}"
            )
        if panel.n_steps < 2:
            raise ValidationError("likelihood evaluation needs a panel with at least 2 months")
        states = panel.states
        old, new = states[:, :-1], states[:, 1:]
        counts = network.adjacency_csr @ old  # active neighbors at the earlier month, exact
        kmax = int(network.degrees.max(initial=0))
        size = network.size
        c01 = np.zeros((size, kmax + 1), dtype=np.int64)
        c00 = np.zeros((size, kmax + 1), dtype=np.int64)
        mask01 = (old == 0) & (new == 1)
        mask00 = (old == 0) & (new == 0)
        for i in range(size):
            c01[i] = np.bincount(counts[i][mask01[i]], minlength=kmax + 1)
            c00[i] = np.bincount(counts[i][mask00[i]], minlength=kmax + 1)
        self.c01 = c01
        self.c00 = c00
        self.n11 = ((old == 1) & (new == 1)).sum(axis=1)
        self.n10 = ((old == 1) & (new == 0)).sum(axis=1)
        self.k_values = np.arange(kmax + 1, dtype=np.float64)
        self.log_survival = np.log1p(-network.likelihoods)  # y_i, strictly negative
        self.n_transitions = int(size * (panel.n_steps - 1))

    def log_likelihood(self, params: ModelParams) -> float:
        y = self.log_survival
        exponents = params.alpha + params.beta * self.k_values  # (K,)
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            u = np.outer(y, exponents)  # (R, K), all entries <= 0
            total = float((self.c00 * u).sum())
            hit = self.c01 > 0
            if hit.any():
                total += float((self.c01[hit] * np.log(-np.expm1(u[hit]))).sum())
            ug = params.gamma * y
            total += float((self.n10 * ug).sum())
            stay = self.n11 > 0
            if stay.any():
                total += float((self.n11[stay] * np.log(-np.expm1(ug[stay]))).sum())
        return total

    def gradient(self, params: ModelParams) -> np.ndarray:
        """Gradient of the log-likelihood with respect to (ln a, ln b, ln g).

        Uses ``d/de log(1 - exp(e y)) = -y exp(e y) / (1 - exp(e y))`` and the
        chain rule through the log reparameterization.
        """
        y = self.log_survival
        exponents = params.alpha + params.beta * self.k_values
        u = np.outer(y, exponents)
        with np.errstate(over="ignore", under="ignore"):
            p01 = -np.expm1(u)  # (R, K)
            ratio = np.zeros_like(u)
            hit = self.c01 > 0
            ratio[hit] = -(1.0 - p01[hit]) / p01[hit]
            d_act = self.c00 * y[:, None] + self.c01 * ratio * y[:, None]
            d_alpha = float(d_act.sum())
            d_beta = float((d_act * self.k_values).sum())
            ug = params.gamma * y
            pcon = -np.expm1(ug)
            ratio_g = np.zeros_like(y)
            stay = self.n11 > 0
            ratio_g[stay] = -(1.0 - pcon[stay]) / pcon[stay]
            d_gamma = float((self.n10 * y + self.n11 * ratio_g * y).sum())
        return np.array(
            [d_alpha * params.alpha, d_beta * params.beta, d_gamma * params.gamma]
        )


def log_likelihood(panel: EventPanel, network: RiskNetwork, params: ModelParams) -> float:
    """Log-likelihood of the observed panel under the given parameters.

    Sums the log transition probabilities of every risk over consecutive
    month pairs. Always finite for positive parameters and likelihoods in
    (0, 1), though it can be very negative. For repeated evaluation on the
    same panel build a :class:`PanelStats` once instead.
    """
    value = PanelStats(panel, network).log_likelihood(params)
    if math.isnan(value):
        raise ValidationError("log-likelihood evaluated to NaN, parameters out of range")
    return value


def log_likelihood_gradient(
    panel: EventPanel, network: RiskNetwork, params: ModelParams
) -> np.ndarray:
    """Gradient of :func:`log_likelihood` with respect to (ln a, ln b, ln g)."""
    return PanelStats(panel, network).gradient(params)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the multi-start Nelder-Mead fit."""

    starts: int = 5
    seed: int = 0
    max_iter: int = 2000
    fun_tol: float = 1e-9
    step_tol: float = 1e-8
    start_low: float = 1e-5
    start_high: float = 10.0
    threads: int = 1
    keep_trace: bool = False

    def __post_init__(self) -> None:
        if self.starts < 0:
            raise ValidationError(f"starts must be non-negative, got {self.starts}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be at least 1, got {self.max_iter}")
        if not (0.0 < self.start_low < self.start_high):
            raise ValidationError("start range must satisfy 0 < low < high")
        if not (self.fun_tol > 0.0 and self.step_tol > 0.0):
            raise ValidationError("tolerances must be positive")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: best parameters plus diagnostics."""

    params: ModelParams
    log_likelihood: float
    iterations: int
    converged: bool
    degenerate: bool
    n_starts: int
    trace: tuple[tuple[ModelParams, float], ...] | None = None


def fit(
    panel: EventPanel,
    network: RiskNetwork,
    init: ModelParams | None = None,
    config: FitConfig = FitConfig(),
) -> FitResult:
    """Maximum-likelihood estimate of (alpha, beta, gamma) from a panel.

    Runs Nelder-Mead in log-parameter space from ``init`` (default
    ``ModelParams(0.01, 0.01, 1.0)``) plus ``config.starts`` random starts
    drawn log-uniformly from ``[start_low, start_high]`` per component, and
    keeps the best final value; ties go to the earliest start. A panel that
    never leaves the all-dormant or all-active state pins some parameters to
    the search boundary, which is reported through ``degenerate`` rather than
    an exception. ``converged`` reflects the winning start only.
    """
    from scipy.optimize import minimize  # here, so only the fit pays for loading the optimizer

    stats = PanelStats(panel, network)
    if init is None:
        init = ModelParams(0.01, 0.01, 1.0)
    degenerate = bool((panel.states == 0).all() or (panel.states == 1).all())

    def objective(theta: np.ndarray) -> float:
        if not np.all(np.isfinite(theta)):
            return math.inf
        a, b, g = np.exp(np.clip(theta, -_LOG_LIMIT, _LOG_LIMIT))
        value = stats.log_likelihood(ModelParams(a, b, g))
        return math.inf if math.isnan(value) else -value

    starts = [np.log(np.array(init.as_tuple()))]
    if config.starts:
        rng = philox_stream(config.seed, 0)
        box = rng.uniform(
            math.log(config.start_low), math.log(config.start_high), size=(config.starts, 3)
        )
        starts.extend(box)

    def solve(theta0: np.ndarray):
        trace: list[np.ndarray] = []
        callback = trace.append if config.keep_trace else None
        result = minimize(
            objective,
            theta0,
            method="Nelder-Mead",
            callback=callback,
            options={
                "maxiter": config.max_iter,
                "fatol": config.fun_tol,
                "xatol": config.step_tol,
                "adaptive": False,
            },
        )
        return result, trace

    outcomes = ordered_map(solve, starts, threads=config.threads)
    best_index = 0
    best_value = math.inf
    for index, (result, _) in enumerate(outcomes):
        if math.isfinite(result.fun) and result.fun < best_value:
            best_index, best_value = index, result.fun
    winner, winner_trace = outcomes[best_index]
    params = ModelParams(*np.exp(np.clip(winner.x, -_LOG_LIMIT, _LOG_LIMIT)))
    trace = None
    if config.keep_trace:
        trace = tuple(
            (
                ModelParams(*np.exp(np.clip(theta, -_LOG_LIMIT, _LOG_LIMIT))),
                -objective(theta),
            )
            for theta in winner_trace
        )
    return FitResult(
        params=params,
        log_likelihood=-float(winner.fun),
        iterations=int(winner.nit),
        converged=bool(winner.success),
        degenerate=degenerate,
        n_starts=len(starts),
        trace=trace,
    )
