"""Objective-space vocabulary: one dominance kernel, non-dominated sorting,
crowding distance, Pareto ranks.

All comparisons are under minimization. Every dominance matrix comes from
:func:`weak_dominance`; two-objective ranks come from ordered ``(f2, f1)``
keys. Optimizers compare points by their sample means, never by individual
noisy samples; every function here is a pure function of its inputs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import MISSING, dataclass, field, fields

import numpy as np


class EvaluationError(ValueError):
    """Raised when an operation is called on inconsistent or empty inputs."""


def from_mapping(cls, raw: dict, what: str):
    """``cls(**raw)`` for a dataclass ``cls``. Raises :class:`EvaluationError`
    if the config mapping ``raw`` is not a mapping, naming every key that is
    not an init field of ``cls``, every required field it lacks, and the
    first value whose type is not that of its field's ``bool``, ``int``,
    ``float`` or ``str`` default (a ``float`` field also takes an ``int``,
    but no NaN or infinity; a ``bool`` is no ``int``)."""
    if not isinstance(raw, dict):
        raise EvaluationError(f"expected a mapping of {what}s, got {type(raw).__name__}")
    init = [f for f in fields(cls) if f.init]
    unknown = sorted(set(raw) - {f.name for f in init})
    if unknown:
        raise EvaluationError(f"unknown {what}(s): {', '.join(unknown)}")
    missing = [f.name for f in init if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise EvaluationError(f"missing {what}(s): {', '.join(missing)}")
    for f in init:
        value = raw.get(f.name, f.default)
        want, got = type(f.default), type(value)
        if want in (bool, int, float, str) and got is not want \
                and not (want is float and got is int):
            raise EvaluationError(f"{what} {f.name} must be {want.__name__}, "
                                  f"got {got.__name__}")
        if got is float and not np.isfinite(value):
            raise EvaluationError(f"{what} {f.name} must be finite, got {value}")
    return cls(**raw)


def require_at_least(obj, least: int, *names: str, what: str = "") -> None:
    """Raise :class:`EvaluationError` naming the first of the attributes
    ``names`` of ``obj`` whose value is not at least ``least`` (NaN included)."""
    for name in names:
        if not getattr(obj, name) >= least:
            raise EvaluationError(f"{what}{name} must be at least {least}, got {getattr(obj, name)}")


def weak_dominance(a: np.ndarray, b: np.ndarray, *, strict: bool = False) -> np.ndarray:
    """The kernel: out[i, j] is True iff row i of ``a`` is <= row j of ``b``
    in every objective (< with ``strict``), one comparison per objective.
    Raises :class:`EvaluationError` if the objective counts differ."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[1] != b.shape[1]:
        raise EvaluationError(f"objective counts differ: {a.shape[1]} vs {b.shape[1]}")
    beats = np.less if strict else np.less_equal
    out = beats(a[:, 0][:, None], b[:, 0][None, :])
    for t in range(1, a.shape[1]):
        out &= beats(a[:, t][:, None], b[:, t][None, :])
    return out


def dominance_matrix(objectives: np.ndarray) -> np.ndarray:
    """Pareto dominance: out[i, j] is True iff row i dominates row j. Given
    a_t <= b_t everywhere, a_t < b_t somewhere is the same as b not weakly
    dominating a, so the relation is ``weak & ~weak.T``."""
    weak = weak_dominance(objectives, objectives)
    return weak & ~weak.T


def front_ranks(objectives: np.ndarray) -> np.ndarray:
    """1-based Pareto ranks: rank k members are non-dominated once ranks < k
    are removed. Two objectives take Jensen's (2003) O(n log n) pass: in
    lexicographic order, a point joins the first front whose last member,
    kept as an ``(f2, f1)`` key in an ascending list, does not dominate it,
    i.e. whose key is not smaller (a duplicate's is equal): that is
    ``bisect_left``. Other objective counts peel fronts, O(n^2 * T).
    """
    objs = np.asarray(objectives, dtype=float)
    n = objs.shape[0]
    if n == 0:
        raise EvaluationError("cannot rank an empty set")
    ranks = np.zeros(n, dtype=np.int64)
    if objs.shape[1] == 2:
        keys = objs[:, ::-1].tolist()  # [f2, f1], compared lexicographically
        tails: list[list[float]] = []
        for i in np.lexsort((objs[:, 1], objs[:, 0])).tolist():
            k = bisect_left(tails, keys[i])
            tails[k:k + 1] = [keys[i]]  # replace that tail, or open a front
            ranks[i] = k + 1
        return ranks
    dom = dominance_matrix(objs)
    n_dominators = dom.sum(axis=0)
    remaining = np.arange(n)
    rank = 1
    while remaining.size:
        in_front = n_dominators[remaining] == 0
        front = remaining[in_front]
        ranks[front] = rank
        remaining = remaining[~in_front]
        n_dominators[remaining] -= dom[np.ix_(front, remaining)].sum(axis=0)
        rank += 1
    return ranks


def crowding_distance(objectives: np.ndarray, ranks: np.ndarray | None = None) -> np.ndarray:
    """NSGA-II cuboid crowding distance of each point within its front, the
    points of equal ``ranks`` (all points without ``ranks``): one pass per
    objective covers every front. Boundary points of each objective get
    infinite distance; interior points accumulate the normalized gap between
    their two neighbours, summed over objectives. A zero-range objective
    adds nothing to a front. Ties in the per-objective ordering are broken
    by input index (stable sort), so interior values are invariant under
    permutation of the input.
    """
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    n, n_obj = objs.shape
    if n == 0:
        raise EvaluationError("crowding distance of an empty front")
    ranks = np.zeros(n, dtype=np.int64) if ranks is None else np.asarray(ranks)
    r = np.sort(ranks)  # fronts' positions in every (rank, value) order
    edge = np.concatenate(([True], r[1:] != r[:-1], [True]))  # edge[j]: a front ends before j
    first, last = np.flatnonzero(edge[:-1]), np.flatnonzero(edge[1:])
    inner = np.flatnonzero(~(edge[:-1] | edge[1:]))
    front_of = np.cumsum(edge[:-1])[inner] - 1
    dist = np.zeros(n)
    for t in range(n_obj):
        order = np.lexsort((objs[:, t], ranks))
        values = objs[order, t]
        span = (values[last] - values[first])[front_of]
        dist[order[first]] = dist[order[last]] = np.inf
        wide = span > 0
        at = inner[wide]
        dist[order[at]] += (values[at + 1] - values[at - 1]) / span[wide]
    return dist


@dataclass
class EvaluatedPoint:
    """A decision vector with its raw objective samples and cached mean.

    ``mean`` is kept equal to the component-wise average of ``samples``: a
    running sum over the samples in arrival order, divided by the count.
    numpy's ``np.mean(samples, axis=0)`` sums the rows in that same order
    for T >= 2 objectives, so the two agree bit for bit. ``true_mean`` is
    the noise-free mean the :class:`~noisymoo.optimizers.Evaluator` computed
    when it spawned the point (None for a point built by hand).
    """

    decision: np.ndarray
    samples: list[np.ndarray] = field(default_factory=list)
    mean: np.ndarray | None = None
    uid: int = -1
    true_mean: np.ndarray | None = field(default=None, repr=False, compare=False)
    _sum: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # (sample count, read-only scaled residuals) from the last computation.
    _residuals: tuple[int, np.ndarray] | None = field(default=None, init=False,
                                                      repr=False, compare=False)

    def __post_init__(self) -> None:
        self.decision = np.asarray(self.decision, dtype=float)
        samples, self.samples = self.samples, []
        for y in samples:
            self.add_sample(y)

    @property
    def count(self) -> int:
        return len(self.samples)

    def add_sample(self, y: np.ndarray) -> None:
        y = np.asarray(y, dtype=float)
        self.samples.append(y)
        self._sum = y if self._sum is None else self._sum + y
        self.mean = self._sum / len(self.samples)
        self._residuals = None

    def scaled_residuals(self) -> np.ndarray:
        """The N residuals (y - mean) scaled by sqrt(N / (N - 1)), shape (N, T).

        Undefined for a single sample; the scaling factor blows up at N = 1.
        The array is cached until the next :meth:`add_sample` (or a change
        of sample count) and returned read-only, since callers share it.
        """
        n = self.count
        if n < 2:
            raise EvaluationError("residuals need at least two samples")
        if self._residuals is None or self._residuals[0] != n:
            residuals = np.sqrt(n / (n - 1)) * (np.asarray(self.samples) - self.mean)
            residuals.flags.writeable = False
            self._residuals = (n, residuals)
        return self._residuals[1]


@dataclass
class RankedPopulation:
    """A population with 1-based Pareto ranks and per-member crowding."""

    members: list[EvaluatedPoint]
    rank: np.ndarray
    crowding: np.ndarray

    def __len__(self) -> int:
        return len(self.members)

    @property
    def means(self) -> np.ndarray:
        return np.array([p.mean for p in self.members])

    def first_front(self) -> list[EvaluatedPoint]:
        return [p for p, r in zip(self.members, self.rank) if r == 1]


def nondominated_sort(points: list[EvaluatedPoint]) -> RankedPopulation:
    """Rank a population on its sample means with :func:`front_ranks`, and
    crowd all its fronts in one :func:`crowding_distance` call. Equal-rank
    members keep their input order, so the result is stable with respect to
    the input.
    """
    if not points:
        raise EvaluationError("cannot sort an empty population")
    means = np.array([p.mean for p in points])
    ranks = front_ranks(means)
    return RankedPopulation(members=list(points), rank=ranks,
                            crowding=crowding_distance(means, ranks))
