"""Trajectory likelihood of an observed activity panel and parameter fitting.

The probability of one observed month-to-month transition of risk i depends
only on its likelihood L_i, its active-neighbor count k at the earlier month,
and the parameters. Writing ``y_i = log(1 - L_i)``, the four cases are

    dormant -> dormant   (alpha + k beta) * y_i            (log-prob)
    dormant -> active    log(1 - exp((alpha + k beta) * y_i))
    active  -> active    log(1 - exp(gamma * y_i))
    active  -> dormant   gamma * y_i

so the panel log-likelihood collapses onto sufficient statistics of
R + 2E numbers for R risks and E edges, none sized by the largest degree (see
:class:`PanelStats`). It adds them up one block of months at a time, each
block at most ``_BLOCK_CELLS`` (month, risk) cells, so its working set does
not grow with the panel length; each likelihood or gradient evaluation then
reduces over the nonzero cells only, at a cost independent of the panel length.

Fitting maximizes the log-likelihood over ``(ln alpha, ln beta, ln gamma)``
by Newton's method on the exact gradient and Hessian, restarted from several
random points drawn log-uniformly from a wide box. Each step solves
``(-H + lambda I) d = g``, in coordinates scaled to a unit Hessian diagonal,
with the least shift ``lambda`` (0 first) for which a Cholesky factorization
succeeds (Nocedal & Wright, *Numerical Optimization*, 2nd ed., section 3.4),
then searches along ``d``: Armijo backtracking from the full step, or doubling
it while the log-likelihood still rises, which crosses the exponential tails
toward a supremum on the boundary in a few steps. The log-parameters are
clipped to ``[-700, 700]``, where exp stays finite; past the clip the
objective is flat and a coordinate there is held fixed, as is one the panel
carries no information on (zero gradient and zero curvature, such as beta on
an edgeless network). Positivity is structural in log space, and the
multi-start guards against the near-flat region where alpha and beta are both
tiny. The supplied initial guess is always included as the first start, so
the fitted log-likelihood never falls below the initial one by more than
``_FTOL`` relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import EventPanel, ModelParams, RiskNetwork
from .dynamics import philox_stream
from .errors import ValidationError

_LOG_LIMIT = 700.0  # exp overflows past this, clip log-parameters to +-700
_FTOL = 1e-12  # relative change of the log-likelihood at which a start stops, and starts tie
_GTOL = 1e-8  # largest free gradient component at which a start stops
_ARMIJO = 1e-4  # sufficient-increase fraction of the line search
_HALVINGS = 60  # backtracking steps before a line search gives up
_START_LOW, _START_HIGH = 1e-5, 10.0  # box of the random starts, per parameter
_BLOCK_CELLS = 2**15  # (month, risk) cells per block of PanelStats: 32 months at R=1000


class PanelStats:
    """Sufficient statistics of one panel for repeated likelihood evaluation.

    Per risk, ``n00`` counts dormant->dormant transitions and ``k00`` sums
    their active-neighbor counts k, which is exact since the stay log-prob is
    linear in alpha and beta; ``n11``/``n10`` count active->active and
    active->dormant transitions. ``c01`` counts dormant->active transitions
    per (risk, k) cell, ragged over ``neighbor_arrays``' ``indptr``: risk r's
    cells, k = 0..degree(r), start at ``indptr[r] + r``, R + 2E in all.
    Evaluations read the nonzero ``c01`` cells as flat arrays and the sums
    ``n00 @ y``, ``k00 @ y`` and ``n10 @ y``, so each costs O(nonzero cells).

    The counts are added up over blocks of ``_BLOCK_CELLS // R`` consecutive
    month pairs (at least one), each block's active-neighbor counts k of its
    earlier months from one :meth:`RiskNetwork.neighbor_counts` call. Every
    count is an exact integer, so the statistics do not depend on the block
    size, and the temporaries never outgrow one block however long the panel is.
    """

    def __init__(self, panel: EventPanel, network: RiskNetwork) -> None:
        if panel.n_risks != network.size:
            raise ValidationError(f"panel has {panel.n_risks} risks but the network has {network.size}")
        if panel.n_steps < 2:
            raise ValidationError("likelihood evaluation needs a panel with at least 2 months")
        size = network.size
        indptr = network.neighbor_arrays[0]
        offsets = indptr[:-1] + np.arange(size, dtype=np.int32)  # risk r's cells, k = 0..degree(r), start here
        c01 = np.zeros(int(indptr[-1]) + size, dtype=np.int64)
        n00, k00, n1, n11 = np.zeros((4, size), dtype=np.int64)
        span = max(1, _BLOCK_CELLS // size)  # month pairs per block
        for start in range(0, panel.n_steps - 1, span):
            months = np.ascontiguousarray(panel.states[:, start : start + span + 1].T)  # row t is month start + t
            old, new = months[:-1], months[1:]
            counts = network.neighbor_counts(old)  # k at the earlier month, exact int32
            dormant = old == 0
            rest = dormant & (new == 0)
            n00 += rest.sum(axis=0)
            k00 += (counts * rest).sum(axis=0)
            counts += offsets  # flat ragged (risk, k) cell
            # unbuffered adds cost per activation, not per cell as a bincount would
            np.add.at(c01, counts[dormant & (new == 1)], 1)
            n1 += old.sum(axis=0)
            n11 += (old & new).sum(axis=0)
        self.c01, self.n00, self.k00 = c01, n00, k00
        self.n11, self.n10 = n11, n1 - n11
        y = np.log1p(-network.likelihoods)  # strictly negative
        self.n_transitions = int(size * (panel.n_steps - 1))

        self._n00y, self._k00y, self._n10y = float(n00 @ y), float(k00 @ y), float(self.n10 @ y)
        cells = np.flatnonzero(c01)
        risk01 = np.searchsorted(offsets, cells, side="right") - 1
        self._n01 = c01[cells].astype(np.float64)
        self._y01 = y[risk01]
        self._k01 = (cells - offsets[risk01]).astype(np.float64)
        stay = self.n11 > 0
        self._n11 = self.n11[stay].astype(np.float64)
        self._y11 = y[stay]

    def log_likelihood(self, params: ModelParams) -> float:
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            u01 = self._y01 * (params.alpha + params.beta * self._k01)
            u11 = params.gamma * self._y11
            return float(
                params.alpha * self._n00y + params.beta * self._k00y
                + self._n01 @ np.log(-np.expm1(u01))
                + params.gamma * self._n10y
                + self._n11 @ np.log(-np.expm1(u11))
            )

    def gradient(self, params: ModelParams) -> np.ndarray:
        """Gradient of the log-likelihood with respect to (ln a, ln b, ln g).

        With ``u = e y`` and ``e = alpha + beta k``, the chain rule gives
        ``d log(1 - exp(u)) / d ln alpha = -f(u) alpha / e`` (``beta k / e``
        for ln beta), where ``f(u) = u exp(u) / -expm1(u)`` lies in [-1, 0).
        Every factor is bounded, so each component is finite wherever
        :meth:`log_likelihood` is.
        """
        alpha, beta, gamma = params.as_tuple()
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            _, f01, r01, s01 = self._activation_terms(alpha, beta)
            d_alpha = alpha * self._n00y - self._n01 @ (f01 * r01)
            d_beta = beta * self._k00y - self._n01 @ (f01 * s01)
            d_gamma = gamma * self._n10y - self._n11 @ _bounded_slope(gamma * self._y11)
        return np.array([d_alpha, d_beta, d_gamma], dtype=np.float64)

    def hessian(self, params: ModelParams) -> np.ndarray:
        """Hessian of the log-likelihood with respect to (ln a, ln b, ln g).

        Differentiating :meth:`gradient` once more, with the shares
        ``r = alpha / e`` and ``s = beta k / e`` and ``q(u) = -f (u + f)``, which
        is ``f - u f'(u)`` and lies in [-1, 0]: the terms linear in a parameter
        repeat on the diagonal, each dormant->active cell adds ``q r^2 - f r``,
        ``q s^2 - f s`` and ``q r s`` to the (a, a), (b, b) and (a, b) entries,
        and each stay-active transition adds ``q - f`` to (g, g); gamma's cross
        entries are 0. Every factor is bounded, so each entry is finite wherever
        :meth:`log_likelihood` is.
        """
        alpha, beta, gamma = params.as_tuple()
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            u01, f01, r01, s01 = self._activation_terms(alpha, beta)
            q01 = -f01 * (u01 + f01)
            h_aa = alpha * self._n00y + self._n01 @ ((q01 * r01 - f01) * r01)
            h_bb = beta * self._k00y + self._n01 @ ((q01 * s01 - f01) * s01)
            h_ab = self._n01 @ (q01 * r01 * s01)
            u11 = gamma * self._y11
            f11 = _bounded_slope(u11)
            h_gg = gamma * self._n10y - self._n11 @ (f11 * (u11 + f11) + f11)
        return np.array([[h_aa, h_ab, 0.0], [h_ab, h_bb, 0.0], [0.0, 0.0, h_gg]], dtype=np.float64)

    def _activation_terms(self, alpha: float, beta: float) -> tuple[np.ndarray, ...]:
        """``u``, ``f(u)`` and the shares ``alpha / e`` and ``beta k / e`` of each nonzero c01 cell."""
        e01 = alpha + beta * self._k01
        # at a hub's large k, u can overflow to -inf, where f's limit is 0; clipping u far
        # below exp's range gives exactly that and leaves every finite u's f unchanged
        u01 = np.maximum(self._y01 * e01, -1e3)
        return u01, _bounded_slope(u01), alpha / e01, beta * self._k01 / e01


def _bounded_slope(u: np.ndarray) -> np.ndarray:
    """``u exp(u) / (1 - exp(u))`` for u < 0, which lies in [-1, 0)."""
    return u * np.exp(u) / -np.expm1(u)


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


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the multi-start Newton fit."""

    starts: int = 5
    seed: int = 0
    max_iter: int = 2000

    def __post_init__(self) -> None:
        if self.starts < 0:
            raise ValidationError(f"starts must be non-negative, got {self.starts}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: best parameters plus diagnostics."""

    params: ModelParams
    log_likelihood: float
    iterations: int
    converged: bool
    degenerate: bool
    n_starts: int


def _params_at(theta: np.ndarray) -> ModelParams:
    return ModelParams(*np.exp(np.clip(theta, -_LOG_LIMIT, _LOG_LIMIT)))


def _value(stats: PanelStats, theta: np.ndarray) -> float:
    value = stats.log_likelihood(_params_at(theta))
    return -math.inf if math.isnan(value) else value


def _newton_step(curvature: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve ``(curvature + shift D^2) d = grad`` with the least shift, 0 first, that is positive definite.

    Nocedal & Wright's Cholesky with added multiple of the identity, applied
    to the matrix scaled to a unit-magnitude diagonal by ``D = sqrt(|diag|)``:
    after a failure the shift starts at ``1e-3 - min(scaled diag)`` and then
    doubles. The scaling lets one shift serve coordinates whose curvatures
    differ by orders of magnitude (unscaled, a shift sized for gamma held a
    tiny alpha in a convex region to steps of 1e-4). Every result is an ascent
    direction, ``grad @ d > 0``.
    """
    scale = np.sqrt(np.abs(np.diag(curvature)))
    scale[scale == 0.0] = 1.0
    scaled = curvature / np.outer(scale, scale)
    eye = np.eye(len(grad))
    shift = 0.0
    for _ in range(64):  # a finite matrix is diagonally dominant long before this
        try:
            np.linalg.cholesky(scaled + shift * eye)
        except np.linalg.LinAlgError:
            shift = max(2 * shift, 1e-3 - min(np.diag(scaled).min(), 0.0))
            continue
        return np.linalg.solve(scaled + shift * eye, grad / scale) / scale
    return grad


def _line_search(stats: PanelStats, theta: np.ndarray, value: float, step: np.ndarray, slope: float):
    """Best point found along ``step`` from ``theta``, with its log-likelihood.

    Backtracks from the full step until the Armijo condition holds. If the full
    step holds, it doubles instead while the log-likelihood still rises and the
    step is shorter than the clip range, so a start crosses an exponential tail
    toward the boundary in a few iterations rather than one unit at a time.
    Returns ``(theta, value)`` unchanged if no tried step increases enough.
    """
    t = 1.0
    for _ in range(_HALVINGS):
        trial = _value(stats, theta + t * step)
        if trial >= value + _ARMIJO * t * slope:
            break
        t /= 2
    else:
        return theta, value
    if t == 1.0:
        while t * np.abs(step).max() <= _LOG_LIMIT:
            farther = _value(stats, theta + 2 * t * step)
            if not farther > trial:
                break
            t, trial = 2 * t, farther
    return theta + t * step, trial


def _ascend(stats: PanelStats, theta: np.ndarray, max_iter: int) -> tuple[np.ndarray, float, int, bool]:
    """Newton iterations from one start: ``(theta, log-likelihood, iterations, converged)``.

    Only free coordinates move: those inside the clip with a nonzero gradient
    or curvature. A start converges once every free gradient component is at
    most ``_GTOL``, or once an iteration raises the log-likelihood by at most
    ``_FTOL`` relative. It then ends on one full Newton step, not counted in
    the iterations and kept unless it lowers the log-likelihood by more than
    ``_FTOL`` relative, so the end point does not follow the last bit.
    """
    value = _value(stats, theta)
    if not math.isfinite(value):
        return theta, value, 0, False
    converged = False
    for iteration in range(max_iter + 1):
        params = _params_at(theta)
        grad, hess = stats.gradient(params), stats.hessian(params)
        free = (np.abs(theta) <= _LOG_LIMIT) & ((grad != 0.0) | (np.diag(hess) != 0.0))
        if not free.any():
            return theta, value, iteration, True
        converged = converged or bool(np.abs(grad[free]).max() <= _GTOL)
        step = np.zeros(3)
        step[free] = _newton_step(-hess[np.ix_(free, free)], grad[free])
        if converged or iteration == max_iter:
            break
        theta, reached = _line_search(stats, theta, value, step, grad @ step)
        converged = reached - value <= _FTOL * max(abs(value), abs(reached), 1.0)
        value = reached
    if converged:
        polished = _value(stats, theta + step)
        if polished >= value - _FTOL * max(abs(value), 1.0):
            theta, value = theta + step, polished
    return theta, value, iteration, converged


def fit(
    panel: EventPanel,
    network: RiskNetwork,
    init: ModelParams | None = None,
    config: FitConfig = FitConfig(),
) -> FitResult:
    """Maximum-likelihood estimate of (alpha, beta, gamma) from a panel.

    Runs safeguarded Newton iterations on the exact gradient and Hessian in
    log-parameter space from ``init`` (default ``ModelParams(0.01, 0.01, 1.0)``)
    plus ``config.starts`` random starts drawn log-uniformly from ``[1e-5, 10]``
    per component, one after the other. The winner is the earliest start whose
    final value lies within ``_FTOL`` relative of the best, so which start wins
    does not follow the last bit. ``iterations`` counts the winning start's Newton
    iterations, at most ``config.max_iter``. A panel that never leaves the
    all-dormant or all-active state pins some parameters to the search
    boundary, which is reported through ``degenerate`` rather than an
    exception. ``converged`` reflects the winning start only.
    """
    stats = PanelStats(panel, network)
    if init is None:
        init = ModelParams(0.01, 0.01, 1.0)
    degenerate = bool((panel.states == 0).all() or (panel.states == 1).all())

    starts = [np.log(np.array(init.as_tuple()))]
    if config.starts:
        rng = philox_stream(config.seed, 0)
        box = rng.uniform(math.log(_START_LOW), math.log(_START_HIGH), size=(config.starts, 3))
        starts.extend(box)

    outcomes = [_ascend(stats, theta0, config.max_iter) for theta0 in starts]
    best = max(outcome[1] for outcome in outcomes)
    floor = best - _FTOL * max(abs(best), 1.0)  # -inf when no start has a finite value; then the first start wins
    theta, value, iterations, converged = next(outcome for outcome in outcomes if outcome[1] >= floor)
    return FitResult(_params_at(theta), value, iterations, converged, degenerate, len(starts))
