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

Fitting maximizes the log-likelihood over the closed orthant alpha, beta,
gamma >= 0, where it is jointly concave: each term is linear in the parameters
or ``log(1 - exp(u))`` with ``u < 0`` affine in them, a concave function of u
(Boyd & Vandenberghe, *Convex Optimization*, 2004, section 3.2.4). So a point
that meets the KKT conditions (section 5.5.3) is a global maximum, and one
start suffices. The fit runs projected Newton (Bertsekas, *SIAM J. Control
Optim.* 20, 1982) from ``init``: each step solves ``-H d = g`` over the free
parameters, those above 0 or at 0 with a positive gradient, then searches
along the projected arc ``max(theta + t d, 0)``: Armijo backtracking from the
full step, or doubling it while the log-likelihood still rises, which crosses
the exponential tail toward a supremum at infinity (gamma on an all-active
panel) in a few steps. A parameter the log-likelihood is linear in (alpha
with no activation, beta with none at k >= 1, gamma with no stay-active
month) is separable too: it goes straight to 0 if its slope is negative, and
is held at its start if the panel carries no information on it (beta on an
edgeless network). A supremum on the boundary is thus reported as exactly 0.
Every step raises the log-likelihood, or lowers it by at most its rounding
(``_FTOL`` relative) once the rise a step predicts is below that rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import EventPanel, ModelParams, RiskNetwork
from .errors import ValidationError

_FTOL = 1e-12  # relative rise of the log-likelihood below its rounding: full Newton steps from there
_GTOL = 1e-8  # KKT tolerance on |theta dL/dtheta| of a positive parameter and on dL/dtheta of one at 0
_ARMIJO = 1e-4  # sufficient-increase fraction of the line search
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

    def log_likelihood(self, params: ModelParams | np.ndarray) -> float:
        """Log-likelihood at ``params``, or at an (alpha, beta, gamma) array whose entries may be 0."""
        alpha, beta, gamma = params.as_tuple() if isinstance(params, ModelParams) else params
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            u01 = self._y01 * (alpha + beta * self._k01)
            u11 = gamma * self._y11
            return float(
                alpha * self._n00y + beta * self._k00y
                + self._n01 @ np.log(-np.expm1(u01))
                + gamma * self._n10y
                + self._n11 @ np.log(-np.expm1(u11))
            )

    def gradient(self, params: ModelParams) -> np.ndarray:
        """Gradient of the log-likelihood with respect to (ln a, ln b, ln g); see :meth:`_derivatives`."""
        theta = np.array(params.as_tuple())
        return self._derivatives(theta, theta)[0]

    def hessian(self, params: ModelParams) -> np.ndarray:
        """Hessian of the log-likelihood with respect to (ln a, ln b, ln g); see :meth:`_derivatives`."""
        theta = np.array(params.as_tuple())
        grad, hess = self._derivatives(theta, theta)
        return hess + np.diag(grad)  # d theta / d ln theta = theta: the chain rule's second term

    def _derivatives(self, theta: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian at ``theta`` = (alpha, beta, gamma) in coordinates z with ``dtheta/dz = scale``.

        ``scale = theta`` gives z = (ln a, ln b, ln g) less the Hessian's
        ``diag(gradient)`` term, ``scale = 1`` the natural parameters. With
        ``u = e y`` and ``e = alpha + beta k``, ``d log(1 - exp(u)) / de =
        -f(u) / e``, where ``f(u) = u exp(u) / -expm1(u)`` lies in [-1, 0), and
        the second derivative is ``q(u) / e^2`` with ``q = -f (u + f)`` in
        [-1, 0]. So with the shares ``r = scale_a / e`` and ``s = scale_b k / e``
        each dormant->active cell adds ``-f r`` and ``-f s`` to the gradient and
        ``q r^2``, ``q s^2`` and ``q r s`` to the (a, a), (b, b) and (a, b)
        entries, gamma's stay-active transitions likewise with
        ``scale_g / gamma``, and the dormant stays and recoveries add their
        linear terms to the gradient; gamma's cross entries are 0. Every factor
        of the log-space terms is bounded, so each is finite wherever
        :meth:`log_likelihood` is. A parameter at 0 keeps its sums finite as
        long as the log-likelihood is, and an empty sum is 0.
        """
        alpha, beta, gamma = theta
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            e01 = alpha + beta * self._k01
            # at a hub's large k, u can overflow to -inf, where f's limit is 0; clipping u far
            # below exp's range gives exactly that and leaves every finite u's f unchanged
            u01 = np.maximum(self._y01 * e01, -1e3)
            u11 = gamma * self._y11
            f01, f11 = _bounded_slope(u01), _bounded_slope(u11)
            q01, q11 = -f01 * (u01 + f01), -f11 * (u11 + f11)
            r01, s01, r11 = scale[0] / e01, scale[1] * self._k01 / e01, scale[2] / gamma
            grad = np.array([
                scale[0] * self._n00y - self._n01 @ (f01 * r01),
                scale[1] * self._k00y - self._n01 @ (f01 * s01),
                scale[2] * self._n10y - self._n11 @ (f11 * r11),
            ])
            h_ab = self._n01 @ (q01 * r01 * s01)
            hess = np.array([
                [self._n01 @ (q01 * r01 * r01), h_ab, 0.0],
                [h_ab, self._n01 @ (q01 * s01 * s01), 0.0],
                [0.0, 0.0, self._n11 @ (q11 * r11 * r11)],
            ])
        return grad, hess


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
class FitResult:
    """Outcome of a fit: the maximizer plus diagnostics.

    ``params`` is (alpha, beta, gamma), each at least 0: a supremum on the
    boundary is reported as exactly 0, which no :class:`ModelParams` holds.
    """

    params: tuple[float, float, float]
    log_likelihood: float
    iterations: int
    converged: bool
    degenerate: bool


def _value(stats: PanelStats, theta: np.ndarray) -> float:
    value = stats.log_likelihood(theta)
    return -math.inf if math.isnan(value) else value


def _newton_step(curvature: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve ``curvature d = grad`` for a positive semidefinite ``curvature``, scaled to a unit diagonal.

    The scaling by ``D = sqrt(|diag|)`` lets one shift serve coordinates whose
    curvatures differ by orders of magnitude. A coordinate whose lone Newton
    step ``grad / diag`` would pass 1e280 sits deep in an exponential tail,
    where every curvature term has underflowed: it counts as flat, with its row
    and column 0, so no step overflows. Where the scaled matrix is singular, as
    there or when every activation is at one k and the (alpha, beta) block has
    rank one, 1e-3 is added to its diagonal (Levenberg-Marquardt), so the step
    follows the gradient along the flat direction until the line search or the
    projection stops it. Every result is an ascent direction, ``grad @ d > 0``.
    """
    flat = ~(np.abs(grad) < 1e280 * np.abs(np.diag(curvature)))
    curvature = np.where(flat | flat[:, None], 0.0, curvature)
    scale = np.where(flat, 1.0, np.sqrt(np.abs(np.diag(curvature))))
    scaled = curvature / np.outer(scale, scale)
    try:
        np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        scaled += 1e-3 * np.eye(len(grad))
    return np.linalg.solve(scaled, grad / scale) / scale


def _line_search(stats: PanelStats, theta: np.ndarray, value: float, step: np.ndarray, grad: np.ndarray):
    """Best point found on the projected arc ``max(theta + t step, 0)`` and its log-likelihood, or None.

    Backtracks from the full step until the Armijo condition holds, which in
    an exponential tail, where the curvature all but vanishes and the Newton
    step overshoots by orders of magnitude, takes as many halvings as that
    overshoot has binary orders. If the full step holds, it doubles instead
    while the log-likelihood still rises, so the ascent crosses a tail toward
    a supremum at infinity in a few iterations rather than one unit at a time;
    the log-likelihood is bounded by 0, so the doubling ends. Returns None once
    the halved step no longer moves ``theta``.
    """
    t = 1.0
    while True:
        point = np.maximum(theta + t * step, 0.0)
        if np.array_equal(point, theta):
            return None
        trial = _value(stats, point)
        if trial >= value + _ARMIJO * grad @ (point - theta):
            break
        t /= 2
    while t >= 1.0:
        far = np.maximum(theta + 2 * t * step, 0.0)
        far_value = _value(stats, far)
        if not far_value > trial:
            break
        t, point, trial = 2 * t, far, far_value
    return point, trial


def _full_step(stats: PanelStats, theta: np.ndarray, value: float, step: np.ndarray):
    """``max(theta + step, 0)`` and its log-likelihood, or None if that is lower by more than ``_FTOL`` relative."""
    point = np.maximum(theta + step, 0.0)
    trial = _value(stats, point)
    return (point, trial) if trial >= value - _FTOL * max(abs(value), 1.0) else None


def fit(panel: EventPanel, network: RiskNetwork, init: ModelParams | None = None, max_iter: int = 2000) -> FitResult:
    """Maximum-likelihood estimate of (alpha, beta, gamma) from a panel.

    Runs projected Newton on the exact gradient and Hessian from ``init``
    (default ``ModelParams(0.01, 0.01, 1.0)``), at most ``max_iter``
    iterations, as the module docstring describes. It converges only where
    the KKT conditions hold: every positive parameter's scaled gradient
    ``|theta dL/dtheta|`` is at most ``_GTOL``, and no parameter at 0 has
    ``dL/dtheta`` above it. Once a step's predicted rise ``grad @ step`` is
    within ``_FTOL`` relative, below what the log-likelihood's rounding can
    judge, it takes full Newton steps instead of searching, each kept unless it
    lowers the log-likelihood by more than ``_FTOL`` relative. A converged fit
    ends on one more such step, not counted in ``iterations``, so the end
    point does not follow the last bit. An ascent that stalls or runs out of
    iterations short of a KKT point reports ``converged=False``. A panel that never leaves the all-dormant or
    all-active state puts a supremum at 0 or at infinity, which is reported
    through ``degenerate`` rather than an exception.
    """
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    stats = PanelStats(panel, network)
    degenerate = bool((panel.states == 0).all() or (panel.states == 1).all())
    theta = np.array((init or ModelParams(0.01, 0.01, 1.0)).as_tuple(), dtype=np.float64)
    natural = np.ones(3)
    linear = np.array([stats._n01.size == 0, not stats._k01.any(), stats._n11.size == 0])
    theta[linear & (stats._derivatives(theta, natural)[0] < 0.0)] = 0.0
    value = _value(stats, theta)
    if not math.isfinite(value):  # an init so extreme that the log-likelihood overflows
        return FitResult(tuple(theta.tolist()), value, 0, False, degenerate)
    for iteration in range(max_iter + 1):
        grad, hess = stats._derivatives(theta, natural)
        # KKT: a positive parameter's scaled gradient is within _GTOL of 0, and none at 0 rises
        converged = bool(np.all(np.where(theta > 0.0, np.abs(theta * grad), grad) <= _GTOL))
        free = ((theta > 0.0) | (grad > _GTOL)) & ((grad != 0.0) | (np.diag(hess) != 0.0))
        step = np.zeros(3)
        step[free] = _newton_step(-hess[np.ix_(free, free)], grad[free])
        if converged or iteration == max_iter:
            break
        if grad @ step > _FTOL * max(abs(value), 1.0):
            moved = _line_search(stats, theta, value, step, grad)
        else:  # the model's rise is within the rounding of the log-likelihood, which cannot judge it
            moved = _full_step(stats, theta, value, step)
        if moved is None:
            break
        theta, value = moved
    if converged:
        theta, value = _full_step(stats, theta, value, step) or (theta, value)
    return FitResult(tuple(theta.tolist()), value, iteration, converged, degenerate)
