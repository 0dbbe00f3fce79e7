"""Bootstrap machinery for comparing noisy points.

The pieces, bottom to top:

* ``DispersionSet`` — a sliding pool of scaled, mean-centered residual
  vectors: in an arb run the ``Evaluator`` pushes the newest one of every
  re-evaluation. Assuming dispersion is roughly homogeneous across the
  decision space, the pool lends variability to points observed once.
* ``bootstrap_means_stacked`` (one point: ``bootstrap_means_pooled``) — the
  package's one bootstrap, the mixed scheme: one summand of a replicate
  comes from the pool, the other N - 1 from the point's own scaled
  residuals, for several points from one draw.
* ``dominance_probability`` — cross-pair frequency with which one replicate
  cloud strictly dominates another.
* ``arb_decide`` — spend another evaluation only while p*, the largest
  ``dominance_probability`` of the candidate over a front member, lies in
  :class:`~noisymoo.resampling.ArbStrategy`'s band [alpha_l, alpha_u].

``arb_decide`` first closes the rivals it cannot beat. A point's envelope
is the smallest and largest replicate its draws can give, per objective:
mean + (pool extreme + own extreme added N - 1 times) / N, computed in the
replicate's own operation order. Rounded addition and division by N > 0
are monotone, so the envelope bounds every replicate exactly, with no
slack. If the candidate's low end is at or above a rival's high end on
some objective, no replicate pair has the candidate strictly below there:
that rival's p is exactly 0, and its replicates are neither built nor
counted. The draw still covers every rival, so the stream does not move.

For the rivals left it bounds before it counts. Per objective t it counts
the cross pairs m_t where the candidate's draw beats a rival's on t alone
(one sort, one ``searchsorted``). A pair that beats on every objective
beats on each, so p_r <= min_t m_t; a pair that fails misses at least one,
so p_r >= sum_t m_t - (T - 1) (Frechet), with counts over the B^2 pairs.
Rivals are visited by falling upper bound, and ``dominance_probability``
is called only while the bounds on p* straddle alpha_l or alpha_u. Both
shortcuts are exact, so every decision equals the one on the exact p*.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .pareto import EvaluatedPoint, EvaluationError, weak_dominance

if TYPE_CHECKING:
    from .resampling import ArbStrategy


class DispersionSet:
    """Sliding window of the last ``capacity`` (default 100) scaled residual
    vectors, one (m, T) array, oldest first; :meth:`centered` re-centers
    them so their component-wise mean is exactly zero."""

    def __init__(self, capacity: int = 100):
        if capacity < 1:
            raise EvaluationError("dispersion set capacity must be positive")
        self._capacity = capacity
        self._raw: np.ndarray | None = None
        self._centered: np.ndarray | None = None
        self._range: np.ndarray | None = None

    def __len__(self) -> int:
        return 0 if self._raw is None else len(self._raw)

    def push(self, residual: np.ndarray) -> None:
        """Append one scaled residual vector, evicting the oldest if full."""
        row = np.array(residual, dtype=float, ndmin=2)
        self._raw = row if self._raw is None else np.concatenate((self._raw, row))[-self._capacity:]
        self._centered = None

    def centered(self) -> np.ndarray:
        """The (m, T) view used for sampling: entries minus their column mean."""
        if self._raw is None:
            raise EvaluationError("dispersion set is empty")
        if self._centered is None:
            self._centered = self._raw - self._raw.mean(axis=0)
            self._range = np.sort(self._centered, axis=0)[[0, -1]]
        return self._centered

    def column_range(self) -> np.ndarray:
        """(2, T): column minimum and maximum of :meth:`centered`, cached with it."""
        self.centered()
        return self._range


def bootstrap_means_stacked(points: list[EvaluatedPoint], dispersion: DispersionSet,
                            n_draws: int, rng: np.random.Generator,
                            build: list[bool] | None = None) -> np.ndarray:
    """Mixed bootstrap replicates of several points, shape (k, B, T).

    Row i holds point i's replicates: mean + (1/N) * (E + sum of N - 1 own
    scaled residual draws) with E uniform from the centered dispersion pool,
    or mean + E for N = 1. All indices come from one ``rng.integers`` call
    whose bounds run point by point: B pool indices (bound: pool size), then
    B * (N - 1) own indices (bound: N). numpy draws an array of bounds
    element by element, so the values and the generator state afterwards
    equal those of one sized call per segment in that order. ``build``, one
    flag per point, limits the rows to the flagged points; the draw is the same.
    """
    pool = dispersion.centered()
    counts = [p.count for p in points]
    draws = rng.integers(0, np.repeat(np.array([b for n in counts for b in (pool.shape[0], n)]),
                                      [k for n in counts for k in (n_draws, n_draws * (n - 1))]))
    build = [True] * len(points) if build is None else build
    out = np.empty((sum(build), n_draws, pool.shape[1]))
    i = stop = 0
    for point, n, wanted in zip(points, counts, build):
        start, stop = stop, stop + n_draws * n
        if not wanted:
            continue
        pooled = pool.take(draws[start:start + n_draws], axis=0)
        if n == 1:
            np.add(point.mean, pooled, out=out[i])
        else:
            idx = draws[start + n_draws:stop].reshape(n_draws, n - 1)
            # For T >= 2 objectives, summing the (n - 1, B, T) gather over its
            # first axis adds the same terms in the same order as summing the
            # (B, n - 1, T) gather over its middle axis, so the replicates are
            # bit-identical; an ``np.add.reduceat`` sum reorders the terms and is not.
            own = point.scaled_residuals().take(idx.T, axis=0).sum(axis=0)
            out[i] = point.mean + (pooled + own) / n
        i += 1
    return out


def envelope(mean, own, count, pool) -> np.ndarray:
    """mean + (pool + own) / count, the low (high) envelope from the low (high)
    ends of the residual and pool ranges; arrays broadcast over stacked points."""
    return mean + (pool + own) / count


def bootstrap_means_pooled(point: EvaluatedPoint, dispersion: DispersionSet,
                           n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Mixed bootstrap replicates of one point, shape (B, T): one pooled
    summand, N - 1 own summands (see :func:`bootstrap_means_stacked`)."""
    return bootstrap_means_stacked([point], dispersion, n_draws, rng)[0]


def dominance_probability(draws_a: np.ndarray, draws_b: np.ndarray) -> float:
    """Fraction of cross pairs (a, b) where a_d < b_d in every coordinate d.

    Always in [0, 1], and P(A over B) + P(B over A) <= 1.
    """
    hits = weak_dominance(draws_a, draws_b, strict=True)
    return np.count_nonzero(hits) / hits.size


def _objective_wins(candidate_draws: np.ndarray, rival_draws: np.ndarray) -> np.ndarray:
    """(T, R) counts of cross pairs where the candidate beats rival r on objective t.

    The counts only bound the dominance probability (module docstring).
    ``rival_draws`` has shape (R, B, T). A candidate draw beats a rival
    draw on t when it is smaller. Sorting each rival's keys changes no row
    sum but makes the binary searches run over ascending keys, which roughly
    halves their cost.
    """
    wins = np.empty((rival_draws.shape[2], rival_draws.shape[0]), dtype=np.int64)
    for t in range(rival_draws.shape[2]):
        column = np.sort(candidate_draws[:, t])
        keys = np.sort(rival_draws[:, :, t], axis=1)
        wins[t] = column.searchsorted(keys).sum(axis=1)
    return wins


def arb_decide(candidate: EvaluatedPoint, front: list[EvaluatedPoint],
               dispersion: DispersionSet, strategy: ArbStrategy,
               rng: np.random.Generator, front_high: np.ndarray) -> bool:
    """Decide whether the candidate deserves another evaluation.

    Computes p* = max over front members (the candidate itself excluded) of
    the bootstrap probability that the candidate's mean strictly dominates
    the member's mean, with ``strategy.n_boot`` fresh replicates per point.
    One random draw covers the whole decision, in segments: the candidate's
    first, then each rival's in front order. Returns False when p* > alpha_u
    (confidently good) or p* < alpha_l (hopeless), True inside the band, as
    ``strategy.side`` places it. A sole front member has no comparison
    target, which counts as p* = 0. ``front_high`` holds the (F, T) high
    envelopes of the front under the pool, in front order, as the caller
    keeps them (``DecisionContext.front_high``).
    """
    if not front:
        raise EvaluationError("the front must be nonempty")
    rivals = [s for s in front if s is not candidate]
    if not rivals:
        return False
    pool = dispersion.column_range()
    low = envelope(candidate.mean, candidate.residual_range()[0], candidate.count, pool[0])
    beatable = (low < front_high).all(axis=1).tolist()
    open_rivals = [ok for s, ok in zip(front, beatable) if s is not candidate]
    draws = bootstrap_means_stacked([candidate, *rivals], dispersion, strategy.n_boot, rng,
                                    [any(open_rivals), *open_rivals])
    if not any(open_rivals):  # p* = 0 < alpha_l, and nothing was built
        return False
    return decide_from_draws(draws[0], draws[1:], strategy)


def decide_from_draws(candidate_draws: np.ndarray, rival_draws: np.ndarray,
                      strategy: ArbStrategy) -> bool:
    """Whether p*, the largest ``dominance_probability`` of ``candidate_draws``
    over the rivals in ``rival_draws`` (R, B, T), lies in the band."""
    n_draws = candidate_draws.shape[0]
    wins = _objective_wins(candidate_draws, rival_draws)
    pairs = n_draws * n_draws
    upper = wins.min(axis=0) / pairs
    lower = (wins.sum(axis=0) - (wins.shape[0] - 1) * pairs) / pairs
    p_low = float(lower.max())
    for r in np.argsort(-upper, kind="stable"):
        if strategy.side(p_low) == strategy.side(max(p_low, float(upper[r]))):
            break
        p_low = max(p_low, dominance_probability(candidate_draws, rival_draws[r]))
    return strategy.side(p_low) == 0
