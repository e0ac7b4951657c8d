"""Per-risk transition kernel and one synchronous update step.

Each risk alternates between dormant (0) and active (1). Transitions are
driven by three coupled Poisson processes whose per-month probabilities all
derive from the risk's normalized likelihood L and the global parameters
(alpha, beta, gamma):

* internal activation   ``p_int = 1 - (1 - L)**alpha``
* external activation   ``p_ext = 1 - (1 - L)**beta`` per active neighbor
* continuation          ``p_con = 1 - (1 - L)**gamma``; recovery is
  ``p_rec = 1 - p_con`` by construction, exactly.

A dormant risk with k active neighbors activates with
``1 - (1 - p_int) * (1 - p_ext)**k``, which collapses to
``1 - (1 - L)**(alpha + k * beta)``. All powers are evaluated in log space
(``exp(exponent * log1p(-L))``) so small probabilities keep full relative
accuracy, and an exponent of exactly 1 short-circuits to ``1 - L`` / ``L``.

Random streams
--------------
Sampling uses numpy's Philox counter-based generator (4x64, 128-bit key).
A stream is addressed by two 64-bit words, master seed and stream index, via
:func:`philox_stream`; the same pair always replays the same sequence, and
distinct pairs are independent for all practical purposes. One synchronous
step consumes exactly R uniforms from its stream, in risk-id order. Philox
continues a stream across calls, so drawing S steps' uniforms at once equals
S single-step draws; Monte Carlo ensembles use this to step all their runs
as one batched (runs × R) block through the same kernel as :func:`step`,
with the same draws and therefore the same states. The kernel takes each
state's exact active-neighbor counts from its caller, who asks the network
(:meth:`RiskNetwork.neighbor_counts`, then :meth:`RiskNetwork.update_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ModelParams, RiskNetwork
from .errors import ValidationError

_SEED_LIMIT = 2**64


def survival_prob(likelihood, exponent):
    """``(1 - L)**exponent`` computed in log space; exact when exponent == 1.

    Accepts scalars or arrays (broadcast as numpy does).
    """
    if np.isscalar(exponent) and float(exponent) == 1.0:
        return 1.0 - likelihood
    return np.exp(exponent * np.log1p(-likelihood))


def activation_prob(likelihood, exponent):
    """``1 - (1 - L)**exponent`` computed via expm1; exact when exponent == 1."""
    if np.isscalar(exponent) and float(exponent) == 1.0:
        return likelihood
    return -np.expm1(exponent * np.log1p(-likelihood))


@dataclass(frozen=True, eq=False)
class NetworkState:
    """Activity bits of every risk at one time step."""

    bits: np.ndarray
    time: int = 0

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or bits.size == 0:
            raise ValidationError(f"state bits must be a non-empty vector, got shape {bits.shape}")
        if not ((bits == 0) | (bits == 1)).all():
            raise ValidationError("state bits must contain only 0 and 1")
        bits = np.ascontiguousarray(bits, dtype=np.int8)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        if self.time < 0:
            raise ValidationError(f"time must be non-negative, got {self.time}")

    @classmethod
    def dormant(cls, n_risks: int, time: int = 0) -> "NetworkState":
        return cls(np.zeros(n_risks, dtype=np.int8), time)

    @classmethod
    def active(cls, n_risks: int, time: int = 0) -> "NetworkState":
        return cls(np.ones(n_risks, dtype=np.int8), time)

    @property
    def n_active(self) -> int:
        return int(self.bits.sum())


def _step_block(
    bits: np.ndarray,
    uniforms: np.ndarray,
    network: RiskNetwork,
    params: ModelParams,
    counts: np.ndarray,
) -> np.ndarray:
    """One synchronous update of a (B × R) block of states against (B × R) uniforms.

    Row b of ``bits`` is one run's 0/1 state, row b of ``uniforms`` its R
    draws for this step and row b of ``counts`` the exact active-neighbor
    counts of its state (:meth:`RiskNetwork.neighbor_counts`); a 1-D state
    is the B = 1 case. Inputs are not validated: callers own the shapes and
    the 0/1 contract.
    """
    likelihoods = network.likelihoods
    p_act = activation_prob(likelihoods, params.alpha + params.beta * counts)
    p_con = activation_prob(likelihoods, params.gamma)
    return (uniforms < np.where(bits == 0, p_act, p_con)).view(np.int8)


def step(state: NetworkState, network: RiskNetwork, params: ModelParams, rng: np.random.Generator) -> NetworkState:
    """One synchronous update of the whole network.

    Every transition is sampled against the old state: dormant risk i with k
    active neighbors activates with ``1 - (1 - L_i)**(alpha + k beta)`` and
    active risk i stays active with ``p_con``. Consumes exactly
    ``network.size`` uniforms from ``rng``, one per risk in id order,
    regardless of the state.
    """
    if state.bits.shape[0] != network.size:
        raise ValidationError(f"state has {state.bits.shape[0]} risks but the network has {network.size}")
    bits = _step_block(state.bits, rng.random(network.size), network, params, network.neighbor_counts(state.bits))
    return NetworkState(bits, state.time + 1)


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent reproducible uniform stream keyed by (seed, stream).

    Both words must fit in 64 bits. The same pair always replays the same
    sequence; run r of a simulation ensemble uses stream index r, so adding
    runs never perturbs earlier ones.
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if not (isinstance(value, (int, np.integer)) and 0 <= int(value) < _SEED_LIMIT):
            raise ValidationError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
