"""Core data model: risks, networks, event panels, likelihood normalization.

A risk network couples a set of named risks with an undirected simple graph
of interdependencies. Each risk carries a raw expert-assessed likelihood and
a normalized likelihood in the open interval (0, 1); the normalized value is
what drives every transition probability in the model, so endpoints are
forbidden (a likelihood of exactly 0 or 1 makes the transition kernel
degenerate). All types here validate eagerly on construction: a malformed
network is an error, never a warning.

Likelihood normalization
------------------------
Raw likelihoods arrive on an arbitrary positive scale (survey scores, counts,
probabilities) and must be mapped into (0, 1) first. The mapping is explicit
and configurable through :class:`NormalizationScheme`:

* ``MINMAX``, the default for :func:`normalize_likelihoods`: linear map of
  ``[min, max]`` onto ``[eps, 1 - eps]``. Errors out when all raw values are
  equal, since the range collapses.
* ``DIVIDE_BY_MAX``: ``raw / max * (1 - eps)``, preserving ratios.
* ``IDENTITY``: values are declared already normalized; they are validated
  to lie strictly inside (0, 1) and then clamped into ``[eps, 1 - eps]``.

Every scheme is monotone: raising a raw value never lowers its normalized
counterpart.

File formats
------------
Networks are stored as JSON with a ``risks`` list, an ``edges`` list of id
pairs, and an optional ``normalization`` block. A file without that block
declares its likelihoods pre-normalized (IDENTITY). Saved files always
include each risk's explicit ``normalized_likelihood`` so a save/load round
trip is bit-exact even for networks whose likelihoods were modified after
normalization. Event panels (binary risk-by-month activity matrices) are
stored as CSV with one row per risk and one column per month.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .utils import atomic_write_text

DEFAULT_EPSILON = 0.01

# RiskNetwork.neighbor_sums and neighbor_counts take the dense product once 2E * DENSE_PAIRS >= R**2
DENSE_PAIRS = 20
# neighbor_sums of a block of two or more rows takes it once 2E * DENSE_BLOCK_PAIRS >= R**2
DENSE_BLOCK_PAIRS = 80

# cached RiskNetwork views that depend on the graph alone, which a likelihood copy shares
_GRAPH_VIEWS = frozenset(("edges", "neighbor_arrays", "degrees", "_neighbor_entries", "adjacency_matrix", "adjacency"))
_MONTH_LABEL = re.compile(r"\d{4}-(0[1-9]|1[0-2])")
_BITS = frozenset(("0", "1"))  # the only panel cells
_PLAIN_HEADER = re.compile(rb"[ !#-~]+")  # printable ASCII but the quote


class Category(Enum):
    """The five fixed risk categories used throughout."""

    ECONOMIC = "Economic"
    ENVIRONMENTAL = "Environmental"
    GEOPOLITICAL = "Geopolitical"
    SOCIETAL = "Societal"
    TECHNOLOGICAL = "Technological"


CATEGORIES: tuple[Category, ...] = tuple(Category)


class NormalizationScheme(Enum):
    MINMAX = "minmax"
    DIVIDE_BY_MAX = "divide_by_max"
    IDENTITY = "identity"


def normalize_likelihoods(
    raw: Sequence[float],
    scheme: NormalizationScheme = NormalizationScheme.MINMAX,
    epsilon: float = DEFAULT_EPSILON,
) -> list[float]:
    """Map positive raw likelihoods into the open interval (0, 1).

    ``epsilon`` controls how far the output stays from the endpoints and must
    lie in (0, 0.1). The result is monotone in the input for every scheme.
    """
    values = [float(v) for v in raw]
    if not values:
        raise ValidationError("cannot normalize an empty likelihood list")
    if not (0.0 < epsilon < 0.1):
        raise ValidationError(f"epsilon must lie in (0, 0.1), got {epsilon}")
    for v in values:
        if not (math.isfinite(v) and v > 0.0):
            raise ValidationError(f"raw likelihoods must be positive and finite, got {v}")
    if scheme is NormalizationScheme.MINMAX:
        lo, hi = min(values), max(values)
        if hi == lo:
            raise ValidationError(
                "min-max normalization needs a non-degenerate range, all raw values equal "
                f"{lo}"
            )
        span = (1.0 - 2.0 * epsilon) / (hi - lo)
        return [epsilon + (v - lo) * span for v in values]
    if scheme is NormalizationScheme.DIVIDE_BY_MAX:
        hi = max(values)
        return [v / hi * (1.0 - epsilon) for v in values]
    if scheme is NormalizationScheme.IDENTITY:
        for v in values:
            if not (0.0 < v < 1.0):
                raise ValidationError(
                    f"identity scheme requires likelihoods strictly inside (0, 1), got {v}"
                )
        return [min(max(v, epsilon), 1.0 - epsilon) for v in values]
    raise ValidationError(f"unknown normalization scheme {scheme!r}")


@dataclass(frozen=True)
class Risk:
    """A single risk: dense integer id, display name, category, likelihoods."""

    id: int
    name: str
    category: Category
    raw_likelihood: float
    normalized_likelihood: float

    def __post_init__(self) -> None:
        if not isinstance(self.category, Category):
            raise ValidationError(f"risk {self.id} category must be a Category, got {self.category!r}")
        if not (math.isfinite(self.raw_likelihood) and self.raw_likelihood > 0.0):
            raise ValidationError(
                f"risk {self.id} raw likelihood must be positive and finite, got {self.raw_likelihood}"
            )
        if not (0.0 < self.normalized_likelihood < 1.0):
            raise ValidationError(
                f"risk {self.id} normalized likelihood must lie strictly inside (0, 1), "
                f"got {self.normalized_likelihood}"
            )


@dataclass(frozen=True)
class ModelParams:
    """The three positive scalars that drive every transition probability.

    ``alpha`` scales internal activation, ``beta`` scales external activation
    per active neighbor, and ``gamma`` scales continuation: an active risk
    stays active with p_con and recovers with 1 - p_con.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be strictly positive and finite, got {value!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


def _number(value, what: str) -> float:
    """A JSON number as a float; booleans, strings, null and integers beyond the float range are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} must fit in a float, got an integer of {value.bit_length()} bits") from None


def _integer(value, what: str) -> int:
    """A JSON integer; floats, booleans, strings and null are rejected."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _numbers(values: list) -> bool:
    """Whether every value passes :func:`_number`'s type test: an int or float, booleans excluded."""
    return all(issubclass(kind, (int, float)) and kind is not bool for kind in set(map(type, values)))


def _field(entry, key: str):
    """One field of a risk entry; a missing field, or an entry that is no object, is an error."""
    try:
        return entry[key]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"risk entry missing field {key!r}: {entry!r}") from exc


def _column(entries: list, key: str) -> list | None:
    """Every entry's ``key``, or None when an entry lacks it."""
    try:
        return [entry[key] for entry in entries]
    except (KeyError, TypeError):
        return None


def _number_column(entries: list, key: str, what: str) -> np.ndarray:
    """Every entry's ``key`` as one float64 array, the first missing or bad value in entry order raising.

    Whole-column tests come first; only a column that fails them is converted
    entry by entry through :func:`_field` and :func:`_number`, which raise
    on the first fault.
    """
    values = _column(entries, key)
    if values is not None and _numbers(values):
        try:
            return np.array(values, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            pass
    return np.array([_number(_field(entry, key), what) for entry in entries], dtype=np.float64)


_CATEGORY_OF = {**{c.value: c for c in Category}, **{c: c for c in Category}}  # what Category(value) accepts


def _risk(entry, raw: float, normalized: float) -> Risk:
    """One risk entry as a checked :class:`Risk`: its name, category, id, then its likelihoods' ranges."""
    name = _field(entry, "name")
    value = _field(entry, "category")
    try:
        category = Category(value)
    except ValueError as exc:
        raise ValidationError(f"unknown category {value!r}") from exc
    risk_id = _integer(_field(entry, "id"), "risk id")
    return Risk(risk_id, str(name), category, raw, normalized)


def _risks(entries: list, raws: np.ndarray, normalized: np.ndarray) -> list[Risk]:
    """The risks of ``entries``, each field checked as one column.

    When every column passes, each :class:`Risk` is made without rerunning
    its ``__post_init__`` checks: ``object.__new__`` and one ``__dict__``
    update, which equals, hashes and prints as a constructed one. Otherwise
    the entries are built one by one through :func:`_risk`, so the error
    names the first fault in entry order.
    """
    ids, names, categories = (_column(entries, key) for key in ("id", "name", "category"))
    try:
        categories = None if categories is None else list(map(_CATEGORY_OF.get, categories))
    except TypeError:  # an unhashable category
        categories = None
    in_range = (raws > 0.0) & (raws < np.inf) & (normalized > 0.0) & (normalized < 1.0)
    if None in (ids, names, categories) or set(map(type, ids)) != {int} or None in categories or not in_range.all():
        return list(map(_risk, entries, raws.tolist(), normalized.tolist()))
    risks = []
    for risk_id, name, category, raw, norm in zip(ids, names, categories, raws.tolist(), normalized.tolist()):
        risk = object.__new__(Risk)
        risk.__dict__.update(id=risk_id, name=str(name), category=category, raw_likelihood=raw, normalized_likelihood=norm)
        risks.append(risk)
    return risks


def _id_pairs(edges: Sequence) -> bool:
    """Whether every edge is a list or tuple of two Python or numpy integers (booleans are not ids)."""
    if not (set(map(type, edges)) <= {list, tuple} and set(map(len, edges)) <= {2}):
        return False
    kinds = set(map(type, chain.from_iterable(edges)))
    return all(issubclass(kind, (int, np.integer)) and kind is not bool for kind in kinds)


def _edge_keys(edges: Sequence[Sequence[int]], size: int) -> np.ndarray:
    """The sorted keys ``low * size + high`` of ``edges``, one per undirected edge.

    Whole-list tests check the edges' types before the one conversion to an
    int64 array, and whole-array masks find self-loops, ids outside
    0..size-1 and repeated pairs. An error names the first bad edge in input
    order, each edge tested in that order.
    """
    if not isinstance(edges, (list, tuple)):
        edges = edges.tolist() if isinstance(edges, np.ndarray) else list(edges)
    if not _id_pairs(edges):  # only now scan edge by edge, to name the first bad one
        bad = next(edge for edge in edges if not _id_pairs([edge]))
        raise ValidationError(f"edge must be a pair of integer risk ids, got {bad!r}")
    try:
        ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    except OverflowError:  # an id beyond int64 is outside 0..size-1, and stays so when clipped
        ends = np.clip(np.array(edges, dtype=object), -1, size).astype(np.int64).ravel()
    low, high = np.minimum(ends[0::2], ends[1::2]), np.maximum(ends[0::2], ends[1::2])
    keys = low * size + high
    bad = (low == high) | (low < 0) | (high >= size)
    if not (keys[1:] > keys[:-1]).all():  # strictly increasing keys, as save_network writes them, repeat no pair
        order = np.argsort(keys, kind="stable")  # a repeated pair sorts after its first copy
        keys = keys[order]
        bad[order[1:]] |= keys[1:] == keys[:-1]
    if bad.any():  # every edge before the first bad one is a valid new pair
        i, j = map(int, edges[int(bad.argmax())])
        if i == j:
            raise ValidationError(f"self-loop on risk {i} is not allowed")
        if not (0 <= i < size and 0 <= j < size):
            raise ValidationError(f"edge ({i}, {j}) references a risk id outside 0..{size - 1}")
        raise ValidationError(f"duplicate edge {(min(i, j), max(i, j))}")
    keys.setflags(write=False)
    return keys


@dataclass(frozen=True, eq=False, init=False, repr=False)
class RiskNetwork:
    """Immutable risk network: risks with dense ids plus an undirected simple graph.

    ``edges`` may be given as any list or tuple of integer id pairs, or as an
    integer array of them; self-loops and duplicates are rejected. The graph
    is stored once, as the sorted int64 keys ``low * R + high``, and every
    adjacency view is built from them. The ``edges`` attribute, the sorted
    tuple of (low, high) pairs, is built from the keys on first read, which
    only saving and printing a network do. Risks must carry ids 0..R-1 (any
    input order is accepted and sorted).
    """

    risks: tuple[Risk, ...]
    scheme: NormalizationScheme
    epsilon: float
    _edge_keys: np.ndarray

    def __init__(
        self,
        risks: Sequence[Risk],
        edges: Sequence[Sequence[int]],
        scheme: NormalizationScheme = NormalizationScheme.IDENTITY,
        epsilon: float = DEFAULT_EPSILON,
    ) -> None:
        risks = tuple(sorted(risks, key=attrgetter("id")))
        if not risks:
            raise ValidationError("a risk network needs at least one risk")
        if [r.id for r in risks] != list(range(len(risks))):
            raise ValidationError("risk ids must be exactly 0..R-1 with no gaps or duplicates")
        if not isinstance(scheme, NormalizationScheme):
            raise ValidationError(f"scheme must be a NormalizationScheme, got {scheme!r}")
        if not (0.0 < epsilon < 0.1):
            raise ValidationError(f"epsilon must lie in (0, 0.1), got {epsilon}")
        self.__dict__.update(risks=risks, scheme=scheme, epsilon=epsilon, _edge_keys=_edge_keys(edges, len(risks)))

    def __repr__(self) -> str:
        return f"RiskNetwork(risks={self.risks!r}, edges={self.edges!r}, scheme={self.scheme!r}, epsilon={self.epsilon!r})"

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The sorted (low, high) id pairs as Python ints, decoded from the edge keys."""
        low, high = np.divmod(self._edge_keys, self.size)
        return tuple(zip(low.tolist(), high.tolist()))

    @property
    def size(self) -> int:
        return len(self.risks)

    @property
    def edge_count(self) -> int:
        return self._edge_keys.size

    @cached_property
    def likelihoods(self) -> np.ndarray:
        out = np.array([r.normalized_likelihood for r in self.risks], dtype=np.float64)
        out.setflags(write=False)
        return out

    @cached_property
    def neighbor_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The graph as int32 CSR arrays ``(indptr, indices)``, built from the edge keys.

        Risk i's neighbors are ``indices[indptr[i]:indptr[i + 1]]``, sorted.
        Every other adjacency view is derived from this one pair.
        """
        low, high = np.divmod(self._edge_keys, self.size)
        # each direction of each edge as the key row * R + col; sorting the keys orders the
        # rows and each row's neighbors
        keys = np.sort(np.concatenate((self._edge_keys, high * self.size + low)))
        rows, cols = np.divmod(keys, self.size)
        indices = cols.astype(np.int32)
        indptr = np.zeros(self.size + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=self.size), out=indptr[1:])
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    @cached_property
    def degrees(self) -> np.ndarray:
        out = np.diff(self.neighbor_arrays[0]).astype(np.int64)
        out.setflags(write=False)
        return out

    @cached_property
    def _neighbor_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column of every entry of ``neighbor_arrays``, as intp index arrays."""
        indptr, indices = self.neighbor_arrays
        return np.repeat(np.arange(self.size), np.diff(indptr)), indices.astype(np.intp)

    @property
    def dense_products(self) -> bool:
        """Whether :meth:`neighbor_sums` and :meth:`neighbor_counts` multiply by ``adjacency_matrix``.

        They do once at least one ordered pair of risks in ``DENSE_PAIRS``
        (20, so 5%) is an edge, ``2E * DENSE_PAIRS >= R**2``. For one
        probability row the dense product overtook the segment sum at
        ``2E * 14 = R**2`` for R=1000 and at ``2E * 30 = R**2`` for R=300
        (2-core Xeon, numpy 2.4, one OpenBLAS thread). Below it both work
        over ``neighbor_arrays``, except :meth:`neighbor_sums` on a block of
        rows, which has its own rule. Only this class reads the rule: every
        mean-field sum and every active-neighbor count is asked of it.
        """
        return 2 * self.edge_count * DENSE_PAIRS >= self.size**2

    def neighbor_sums(self, p: np.ndarray) -> np.ndarray:
        """Each risk's sum of ``p`` over its neighbors, ``p @ adjacency_matrix``.

        ``p`` is a probability row of R values or a (B, R) block of rows.
        Dense graphs (``dense_products``) take the product with the matrix
        :meth:`neighbor_counts` uses, and so do blocks of two or more rows
        from ``2E * DENSE_BLOCK_PAIRS >= R**2``: the knockout blocks ran
        faster by it from ``2E * 180 = R**2`` at R=300, ``2E * 77`` at
        R=1000 and ``2E * 55`` at R=2000 (same machine). Otherwise each row
        is one segment sum over ``neighbor_arrays``, with no dense matrix.
        """
        if self.dense_products or (p.size > self.size and 2 * self.edge_count * DENSE_BLOCK_PAIRS >= self.size**2):
            return p @ self.adjacency_matrix
        if p.ndim > 1:
            return np.array([self.neighbor_sums(row) for row in p]).reshape(p.shape)
        rows, cols = self._neighbor_entries
        # bincount gives int64 zeros when there are no entries at all
        return np.bincount(rows, weights=p[cols], minlength=self.size).astype(np.float64, copy=False)

    def neighbor_counts(self, bits: np.ndarray) -> np.ndarray:
        """Each risk's exact int32 count of active neighbors in the int8 0/1 ``bits``.

        ``bits`` is a state of R bits or any block of states, risks on the
        last axis. Dense graphs (``dense_products``) multiply by the float64
        ``adjacency_matrix``. Sparse graphs scatter (:meth:`_scatter`) the
        changes from each row of R to the next, from an all-dormant row, and
        sum them over the rows: cheap where rows repeat, as consecutive
        months and the copies of a Monte Carlo start do. Both are exact.
        """
        if self.dense_products:
            return (bits @ self.adjacency_matrix).astype(np.int32)
        changes = np.diff(bits.reshape(-1, self.size), axis=0, prepend=np.int8(0))
        cells = np.flatnonzero(changes != 0)
        counts = self._scatter(cells, changes.size, changes.ravel()[cells]).reshape(changes.shape)
        return np.cumsum(counts, axis=0, out=counts).reshape(bits.shape)

    def update_counts(self, counts: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
        """Turn ``counts``, the :meth:`neighbor_counts` of ``old``, into those of ``new`` in place.

        Dense graphs recount ``new``. Sparse graphs add the scatter of the cells
        that flip, about 1.5% per Monte Carlo step at R=1000 and mean degree 10.
        """
        if self.dense_products:
            counts[...] = self.neighbor_counts(new)
            return
        cells = np.flatnonzero(new != old)
        counts += self._scatter(cells, counts.size, new.ravel()[cells] * 2 - 1).reshape(counts.shape)  # +1 on, -1 off

    def _scatter(self, cells: np.ndarray, slots: int, signs: np.ndarray) -> np.ndarray:
        """The flat int32 change of ``slots`` active-neighbor counts when the flat ``cells`` change.

        Counts and cells are laid out as rows of R, a cell being
        ``row * R + risk``. Each cell adds its sign, +1 (turned on) or -1
        (turned off), to the count of every neighbor of its risk in its row:
        ``np.repeat`` over the cells' degrees lays out every (cell, neighbor)
        pair, and one ``bincount`` sums them exactly.
        """
        indptr, indices = self.neighbor_arrays
        risks = cells % self.size
        starts = indptr[risks]
        degrees = indptr[risks + 1] - starts
        ends = np.cumsum(degrees)
        # the position in indices of each cell's neighbors: starts[c], starts[c] + 1, ... for cell c
        positions = np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + degrees, degrees)
        targets = np.repeat(cells - risks, degrees) + indices[positions]
        return np.bincount(targets, np.repeat(signs, degrees), minlength=slots).astype(np.int32)

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """Dense float64 0/1 adjacency: the operand of every dense neighbor sum and count."""
        mat = np.zeros((self.size, self.size))
        mat[self._neighbor_entries] = 1
        mat.setflags(write=False)
        return mat

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor id tuples, sorted, indexed by risk id."""
        indptr, indices = self.neighbor_arrays
        bounds, ids = indptr.tolist(), indices.tolist()
        return tuple(tuple(ids[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))

    def neighbors(self, risk_id: int) -> tuple[int, ...]:
        if not (0 <= risk_id < self.size):
            raise ValidationError(f"risk id {risk_id} outside 0..{self.size - 1}")
        return self.adjacency[risk_id]

    def with_normalized_likelihood(self, risk_id: int, value: float) -> "RiskNetwork":
        """Copy of the network with one risk's normalized likelihood replaced.

        The copy shares the read-only edge keys and every graph view
        (``_GRAPH_VIEWS``) this network has built, so its edges are not
        checked again; ``Risk`` checks the new value.
        """
        if not (0 <= risk_id < self.size):
            raise ValidationError(f"risk id {risk_id} outside 0..{self.size - 1}")
        risks = list(self.risks)
        risks[risk_id] = replace(risks[risk_id], normalized_likelihood=float(value))
        copy = object.__new__(RiskNetwork)
        copy.__dict__.update(
            {name: view for name, view in self.__dict__.items() if name in _GRAPH_VIEWS},
            risks=tuple(risks), scheme=self.scheme, epsilon=self.epsilon, _edge_keys=self._edge_keys,
        )
        return copy

    def to_dict(self) -> dict:
        return {
            "risks": [
                {
                    "id": r.id,
                    "name": r.name,
                    "category": r.category.value,
                    "likelihood": r.raw_likelihood,
                    "normalized_likelihood": r.normalized_likelihood,
                }
                for r in self.risks
            ],
            "edges": [[i, j] for i, j in self.edges],
            "normalization": {"scheme": self.scheme.value, "epsilon": self.epsilon},
        }

    @staticmethod
    def from_dict(data: dict) -> "RiskNetwork":
        """The network of a parsed JSON document, each risk field checked as one column.

        Risk entries are checked in this order: every entry's likelihood, then
        the normalized likelihoods (every explicit value, or the
        normalization of the raw ones), then each entry's name, category, id
        and the ranges of its two likelihoods. A column that fails its test
        is redone entry by entry, so the error names the first fault.
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
            epsilon = _number(block.get("epsilon", DEFAULT_EPSILON), "normalization epsilon")
        raws = _number_column(entries, "likelihood", "likelihood")
        explicit = ["normalized_likelihood" in e for e in entries]
        if any(explicit) and not all(explicit):
            raise ValidationError(
                "either every risk entry carries 'normalized_likelihood' or none does"
            )
        if all(explicit):
            normalized = _number_column(entries, "normalized_likelihood", "normalized_likelihood")
        else:
            normalized = np.array(normalize_likelihoods(raws.tolist(), scheme, epsilon))
        risks = _risks(entries, raws, normalized)
        edges = data.get("edges", [])
        if not isinstance(edges, list):
            raise ValidationError("'edges' must be a list of id pairs")
        return RiskNetwork(tuple(risks), edges, scheme, epsilon)


def load_network(path: str | Path) -> RiskNetwork:
    """Load a risk network from a JSON file.

    A file without a ``normalization`` block is treated as pre-normalized
    (IDENTITY scheme), so out-of-range likelihoods in such a file are load
    errors.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: JSON nested too deeply to read: {exc}") from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ValidationError(f"{path}: JSON number too long to read: {exc}") from exc
    del text  # the parsed document holds all the network needs
    return RiskNetwork.from_dict(data)


def save_network(network: RiskNetwork, path: str | Path) -> None:
    """Write a network as JSON, atomically; a reload is bit-exact."""
    atomic_write_text(path, json.dumps(network.to_dict(), indent=2, sort_keys=True) + "\n")


def _month_labels(start_label: str | None, n_steps: int) -> list[str]:
    if start_label is None:
        return [f"t{t}" for t in range(n_steps)]
    year, month = int(start_label[:4]), int(start_label[5:7])
    labels = []
    for _ in range(n_steps):
        labels.append(f"{year:04d}-{month:02d}")
        month += 1
        if month == 13:
            year, month = year + 1, 1
    return labels


@dataclass(frozen=True, eq=False)
class EventPanel:
    """Binary activity matrix: row r is risk id r, column t is month t.

    ``states[r, t]`` is 1 when risk r was active during month t. The optional
    ``start_label`` ("YYYY-MM") names column 0; later columns advance by one
    month. Time steps are always months.
    """

    states: np.ndarray
    start_label: str | None = None

    def __post_init__(self) -> None:
        mat = np.asarray(self.states)
        if mat.ndim != 2 or mat.size == 0:
            raise ValidationError(f"panel states must be a non-empty 2-D matrix, got shape {mat.shape}")
        if not ((mat == 0) | (mat == 1)).all():
            raise ValidationError("panel states must contain only 0 and 1")
        mat = np.ascontiguousarray(mat, dtype=np.int8)
        mat.setflags(write=False)
        object.__setattr__(self, "states", mat)
        if self.start_label is not None and not _MONTH_LABEL.fullmatch(self.start_label):
            raise ValidationError(f"start label must look like YYYY-MM, got {self.start_label!r}")

    @property
    def n_risks(self) -> int:
        return int(self.states.shape[0])

    @property
    def n_steps(self) -> int:
        return int(self.states.shape[1])

    @property
    def labels(self) -> list[str]:
        return _month_labels(self.start_label, self.n_steps)


def save_panel(panel: EventPanel, path: str | Path) -> None:
    """Write a panel as CSV: header of time labels, one row of 0/1 per risk."""
    states = panel.states
    text = np.full((states.shape[0], 2 * states.shape[1]), ord(","), dtype=np.uint8)
    text[:, 0::2] = states + ord("0")  # "d,d,...,d\n": each row's last comma becomes the newline
    text[:, -1] = ord("\n")
    atomic_write_text(path, ",".join(panel.labels) + "\n" + text.tobytes().decode("ascii"))


def _saved_panel(data: bytes) -> tuple[list[str], np.ndarray] | None:
    """The header labels and (risks, months) 0/1 digits of a file in ``save_panel``'s exact layout, else None.

    That layout is a header line of printable ASCII without quotes, whose
    labels fit the csv module's field limit, then rows ``d,d,...,d\\n`` of 0/1
    digits as wide as the header. One reshape of the body checks every row.
    """
    end = data.find(b"\n")
    if end < 1 or not _PLAIN_HEADER.fullmatch(data[:end]):
        return None
    labels = data[:end].decode("ascii").split(",")
    body = np.frombuffer(data, dtype=np.uint8, offset=end + 1)
    if body.size == 0 or body.size % (2 * len(labels)) or max(map(len, labels)) > csv.field_size_limit():
        return None
    text = body.reshape(-1, 2 * len(labels))
    digits = text[:, 0::2] - np.uint8(ord("0"))  # wraps, so every byte but "0" and "1" exceeds 1
    separators = np.full(len(labels), ord(","), dtype=np.uint8)
    separators[-1] = ord("\n")
    if (digits > 1).any() or (text[:, 1::2] != separators).any():
        return None
    return labels, digits


def load_panel(path: str | Path) -> EventPanel:
    """Load a CSV panel; calendar labels in the header are recovered if present.

    A file as ``save_panel`` writes it is read as bytes and checked as a
    whole; any other file goes through the csv module, which also accepts
    CRLF line ends, blank lines and quoted labels, and names the first bad
    row or cell.
    """
    with open(path, "rb") as handle:
        saved = _saved_panel(handle.read())
    if saved is None:
        return _read_panel_csv(path)
    labels, digits = saved
    start = labels[0] if _MONTH_LABEL.fullmatch(labels[0]) else None
    return EventPanel(digits, start_label=start)


def _read_panel_csv(path: str | Path) -> EventPanel:
    """Load a CSV panel of any layout the csv module reads, row by row."""
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            rows = [row for row in csv.reader(handle) if row]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"{path}: not a UTF-8 CSV panel: {exc}") from exc
    if len(rows) < 2:
        raise ValidationError(f"{path}: panel needs a header row and at least one risk row")
    header, body = rows[0], rows[1:]
    width = len(header)
    for r, row in enumerate(body):  # rows in file order, so the first bad row or cell is reported
        if len(row) != width:
            raise ValidationError(f"{path}: row {r + 1} has {len(row)} cells, expected {width}")
        if not _BITS.issuperset(row):
            t, cell = next((t, cell) for t, cell in enumerate(row) if cell not in _BITS)
            raise ValidationError(f"{path}: cell ({r}, {t}) must be 0 or 1, got {cell!r}")
    # every cell is now one character, "0" or "1"
    digits = np.frombuffer("".join(map("".join, body)).encode("ascii"), dtype=np.int8)
    states = (digits - ord("0")).reshape(len(body), width)
    start = header[0] if _MONTH_LABEL.fullmatch(header[0]) else None
    return EventPanel(states, start_label=start)
