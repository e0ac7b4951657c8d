"""Seeded ensemble simulation of risk cascades and temporal influence curves.

Runs are independent and exactly reproducible: run r of an ensemble draws
from the Philox stream keyed (master seed, r), one synchronous step consumes
exactly R uniforms, and per-cell activity is accumulated as integer counts
that are divided by the run count once at the end. All runs step together as
one batched (runs × R) block through the kernel behind
:func:`carpnet.dynamics.step`, in blocks of runs and chunks of steps whose
sizes depend on R alone. Each run's stream is drawn in the same order as a
loop of single steps would draw it, so results are exact multiples of
1/runs and bit-identical to that loop; the thread count never changes them.

Temporal influence compares two ensembles that share every random draw: in
ensemble A the source risk starts active, in ensemble B it does not, and
otherwise both start from the same per-run initial condition and consume the
same uniforms. The difference of activation frequencies is the influence of
the source on each risk over time; sharing draws cancels most sampling noise
and makes each ensemble's marginal law identical to a standalone
:func:`simulate` with the same seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import EventPanel, ModelParams, RiskNetwork
from .dynamics import NetworkState, _step_block, philox_stream
from .errors import ConvergenceError, ValidationError
from .meanfield import fixed_point

MAX_CELLS = 2**31  # cells one call may hold in count tables and recorded panels
BLOCK_CELLS = 2**17  # uniforms held at once: 1 MiB of float64


@dataclass(frozen=True)
class SimulationConfig:
    """Ensemble size, horizon and seeding for a simulation.

    ``initial_state`` is ``"dormant"``, ``"active"``, or an explicit 0/1
    vector. ``record_panels`` keeps every run's full trajectory.
    ``threads`` is validated but never changes an output byte: the runs
    step as one batched block.
    """

    runs: int = 1000
    horizon: int = 120
    seed: int = 0
    initial_state: str | Sequence[int] = "dormant"
    record_panels: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValidationError(f"runs must be at least 1, got {self.runs}")
        if self.horizon < 1:
            raise ValidationError(f"horizon must be at least 1, got {self.horizon}")
        if self.threads < 1:
            raise ValidationError(f"threads must be at least 1, got {self.threads}")


def _initial_bits(spec: str | Sequence[int], network: RiskNetwork) -> np.ndarray:
    if isinstance(spec, str):
        if spec == "dormant":
            return np.zeros(network.size, dtype=np.int8)
        if spec == "active":
            return np.ones(network.size, dtype=np.int8)
        raise ValidationError(
            f"initial_state must be 'dormant', 'active', or a 0/1 vector, got {spec!r}"
        )
    bits = np.asarray(spec)
    if bits.shape != (network.size,):
        raise ValidationError(
            f"initial state vector must have shape ({network.size},), got {bits.shape}"
        )
    return NetworkState(bits).bits


@dataclass(frozen=True, eq=False)
class FrequencyTrajectory:
    """Per-risk activation frequencies over time from a finished ensemble.

    ``counts[r, t]`` is the number of runs in which risk r was active at step
    t; column 0 is the initial condition. ``frequencies`` divides by the run
    count, so every value is an exact multiple of ``1 / runs``.
    """

    counts: np.ndarray
    runs: int
    panels: tuple[EventPanel, ...] | None = None

    def __post_init__(self) -> None:
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ValidationError(f"counts must be 2-D, got shape {counts.shape}")
        if self.runs < 1:
            raise ValidationError(f"runs must be at least 1, got {self.runs}")
        if counts.min(initial=0) < 0 or counts.max(initial=0) > self.runs:
            raise ValidationError("counts must lie in [0, runs]")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n_risks(self) -> int:
        return int(self.counts.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.counts.shape[1])

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / float(self.runs)


def _check_cells(network: RiskNetwork, horizon: int, tables: int) -> None:
    """Refuse a call that would hold more than ``MAX_CELLS`` cells in ``tables`` R × horizon arrays.

    The arrays are the count tables and any recorded panels; the kernel's
    uniforms are bounded by ``BLOCK_CELLS`` whatever the run count.
    """
    cells = tables * network.size * horizon
    if cells > MAX_CELLS:
        raise ValidationError(f"requested {cells} state cells, above the cap {MAX_CELLS}")


def _ensemble(network: RiskNetwork, params: ModelParams, config: SimulationConfig, start):
    """Step every run of ``config``; yield ``(first run, t, bits)`` per run block and step.

    Run r draws from ``philox_stream(config.seed, r)``. ``start`` receives a
    block's B streams and returns the block's initial bits: c ≥ 1 stacked
    (B × R) copies of its runs, which may draw from the streams first. Each
    copy then consumes the same R uniforms per step, drawn from every stream
    in chunks of steps, so ``bits`` has c·B rows. Blocks and chunks are
    sized from R alone: one chunk holds at most ``BLOCK_CELLS`` uniforms, or
    one step of one run when R exceeds that.

    Each block's active-neighbor counts come from :meth:`RiskNetwork.neighbor_counts`
    at the start and from :meth:`RiskNetwork.update_counts` after each step.
    """
    size = network.size
    rows = max(1, BLOCK_CELLS // size)  # (run, step) rows of R uniforms per chunk
    runs_per_block = math.isqrt(rows)
    steps_per_chunk = rows // runs_per_block
    for first in range(0, config.runs, runs_per_block):
        last = min(first + runs_per_block, config.runs)
        rngs = [philox_stream(config.seed, r) for r in range(first, last)]
        bits = start(rngs)
        reps = (len(bits) // len(rngs), 1)
        counts = network.neighbor_counts(bits)
        yield first, 0, bits
        chunk = np.empty((len(rngs), steps_per_chunk, size))
        for t in range(1, config.horizon):
            s = (t - 1) % steps_per_chunk
            if s == 0:
                steps = min(steps_per_chunk, config.horizon - t)
                for rng, out in zip(rngs, chunk):
                    rng.random(out=out[:steps])
            new = _step_block(bits, np.tile(chunk[:, s], reps), network, params, counts)
            network.update_counts(counts, bits, new)
            bits = new
            yield first, t, bits


def simulate(network: RiskNetwork, params: ModelParams, config: SimulationConfig) -> FrequencyTrajectory:
    """Run the ensemble and return per-risk activation frequencies over time.

    Column t holds the state after t synchronous steps (column 0 is the
    initial condition), so a horizon of H covers H - 1 steps. Identical
    inputs give bit-identical outputs for any thread count.
    """
    _check_cells(network, config.horizon, 1 + (config.runs if config.record_panels else 0))
    init_bits = _initial_bits(config.initial_state, network)

    def start(rngs):
        return np.tile(init_bits, (len(rngs), 1))

    counts = np.zeros((network.size, config.horizon), dtype=np.int64)
    tracks = None
    if config.record_panels:
        tracks = np.empty((config.runs, network.size, config.horizon), dtype=np.int8)
    for first, t, bits in _ensemble(network, params, config, start):
        counts[:, t] += bits.sum(axis=0)
        if tracks is not None:
            tracks[first:first + len(bits), :, t] = bits
    panels = None if tracks is None else tuple(EventPanel(track) for track in tracks)
    return FrequencyTrajectory(counts=counts, runs=config.runs, panels=panels)


@dataclass(frozen=True, eq=False)
class TemporalInfluence:
    """Influence of one source risk on the rest of the network over time.

    ``per_risk[j, t]`` is the activation-frequency difference of risk j at
    step t between the source-active and source-dormant ensembles. The
    ``one_hop`` and ``two_hop`` curves average ``per_risk`` over the source's
    distance-1 and distance-2 neighborhoods and are ``None`` when the
    corresponding layer is empty.
    """

    source: int
    per_risk: np.ndarray
    one_hop_ids: tuple[int, ...]
    two_hop_ids: tuple[int, ...]
    one_hop: np.ndarray | None
    two_hop: np.ndarray | None
    runs: int


def _distance_layers(network: RiskNetwork, source: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The source's neighbors, sorted, and the risks exactly two hops from it, sorted."""
    indptr, indices = network.neighbor_arrays
    one = indices[indptr[source] : indptr[source + 1]]
    two = np.zeros(network.size, dtype=bool)
    for j in one.tolist():
        two[indices[indptr[j] : indptr[j + 1]]] = True
    two[one] = two[source] = False
    return tuple(one.tolist()), tuple(np.flatnonzero(two).tolist())


def temporal_influence(
    network: RiskNetwork,
    params: ModelParams,
    source: int,
    config: SimulationConfig,
    baseline: str = "dormant",
) -> TemporalInfluence:
    """Trace how activating one risk raises activation frequencies elsewhere.

    ``baseline`` picks the shared initial condition of both ensembles:
    ``"dormant"`` starts every other risk dormant, ``"steady"`` draws each
    run's initial state independently from the mean-field steady state (one
    extra uniform per risk, consumed before any stepping). The source risk is
    forced active at step 0 in ensemble A and left at the baseline in
    ensemble B; all subsequent draws are shared, so for a source with no
    neighbors the per-risk influence is exactly zero everywhere else.
    """
    if not (0 <= source < network.size):
        raise ValidationError(f"risk id {source} outside 0..{network.size - 1}")
    if baseline not in ("dormant", "steady"):
        raise ValidationError(f"baseline must be 'dormant' or 'steady', got {baseline!r}")
    _check_cells(network, config.horizon, 2)
    p_steady = None
    if baseline == "steady":
        solution = fixed_point(network, params)
        if not solution.converged:
            raise ConvergenceError("steady baseline requires a converged mean-field solve")
        p_steady = solution.p_hat

    def start(rngs):
        if p_steady is None:
            base = np.zeros((len(rngs), network.size), dtype=np.int8)
        else:
            base = np.array([rng.random(network.size) < p_steady for rng in rngs], dtype=np.int8)
        forced = base.copy()
        forced[:, source] = 1
        return np.concatenate((forced, base))  # ensembles A and B share every draw

    counts = np.zeros((2, network.size, config.horizon), dtype=np.int64)
    for _, t, bits in _ensemble(network, params, config, start):
        counts[:, :, t] += bits.reshape(2, -1, network.size).sum(axis=1)
    per_risk = (counts[0] - counts[1]) / float(config.runs)
    one_ids, two_ids = _distance_layers(network, source)
    one_curve = per_risk[list(one_ids)].mean(axis=0) if one_ids else None
    two_curve = per_risk[list(two_ids)].mean(axis=0) if two_ids else None
    if not two_ids:
        warnings.warn(
            f"risk {source} has no distance-2 neighborhood, two-hop curve omitted",
            stacklevel=2,
        )
    return TemporalInfluence(
        source=source,
        per_risk=per_risk,
        one_hop_ids=one_ids,
        two_hop_ids=two_ids,
        one_hop=one_curve,
        two_hop=two_curve,
        runs=config.runs,
    )
