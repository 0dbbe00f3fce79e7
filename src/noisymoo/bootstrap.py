"""Bootstrap machinery for comparing noisy points.

The pieces, bottom to top:

* ``DispersionSet`` — a sliding pool of scaled, mean-centered residual
  vectors: in an arb run the optimizers' ``Evaluator`` pushes the newest
  one of every re-evaluation. Under the working assumption that dispersion
  is roughly homogeneous across the decision space, this pool lends
  variability to points observed only once.
* ``bootstrap_means`` — bootstrap replicates of a point's sample mean from
  its own samples, rescaled by sqrt(N / (N - 1)) so the replicate variance
  matches the unbiased estimate s^2 / N instead of undershooting it.
* ``bootstrap_means_pooled`` — the mixed scheme: one summand of every
  replicate comes from the shared pool, the other N - 1 from the point's
  own samples. With a single observation this degenerates to mean + pool
  draw; as N grows the point's own dispersion dominates.
  ``bootstrap_means_stacked`` is the same scheme for several points at
  once: one random draw covers all of them, point by point, and gives the
  same values and generator state as one call per point in that order.
* ``dominance_probability`` — cross-pair frequency with which one replicate
  cloud strictly dominates another.
* ``arb_decide`` — the adaptive resampling rule: spend another evaluation
  only while the candidate's best chance of dominating a front member sits
  inside the uncertainty band [alpha_l, alpha_u]. That chance p* is the
  maximum of ``dominance_probability`` over the rivals, so the decision
  runs on the same function the oracles check. The band belongs to
  :class:`~noisymoo.resampling.ArbStrategy`, which checks it once when
  built and places p* against it with ``side``.

The decision needs only the side of the band p* falls on, so ``arb_decide``
bounds before it counts. For each objective t and rival r it counts the
cross pairs m_t where the candidate's draw beats the rival's on t alone
(sort the candidate's column once, one ``searchsorted`` over all rivals).
A pair that beats on every objective beats on each, so p_r <= min_t m_t;
a pair that fails misses at least one objective, so p_r >= sum_t m_t -
(T - 1) (the Frechet bound), with counts over the B^2 pairs. Rivals are
then visited by falling upper bound, and ``dominance_probability`` is
called only while the bounds on p* still straddle alpha_l or alpha_u. The
counts are integers divided by the same B^2, so the bounds are exact and
every decision equals the one taken on the exact maximum.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from .pareto import EvaluatedPoint, EvaluationError, weak_dominance

if TYPE_CHECKING:
    from .resampling import ArbStrategy


class DispersionSet:
    """Ring buffer of scaled residual vectors, capacity 100 by default.

    Entries handed out by :meth:`centered` are re-centered so their
    component-wise mean is exactly zero; the raw buffer keeps insertion
    order and evicts the oldest entries beyond capacity.
    """

    def __init__(self, capacity: int = 100):
        if capacity < 1:
            raise EvaluationError("dispersion set capacity must be positive")
        self._entries: deque[np.ndarray] = deque(maxlen=capacity)
        self._centered: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, residual: np.ndarray) -> None:
        """Append one scaled residual vector, evicting the oldest if full."""
        self._entries.append(np.asarray(residual, dtype=float))
        self._centered = None

    def centered(self) -> np.ndarray:
        """The (m, T) view used for sampling: entries minus their column mean."""
        if not self._entries:
            raise EvaluationError("dispersion set is empty")
        if self._centered is None:
            raw = np.asarray(self._entries)
            self._centered = raw - raw.mean(axis=0)
        return self._centered


def bootstrap_means(point: EvaluatedPoint, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Variance-corrected bootstrap replicates of the sample mean, shape (B, T).

    Each replicate is mean + (1/N) * sum of N scaled residuals drawn
    uniformly with replacement from the point's own residuals. The
    sqrt(N / (N - 1)) scaling makes the replicate variance s^2 / N in
    expectation, where s^2 is the unbiased sample variance.
    """
    n = point.count
    if n < 2:
        raise EvaluationError("own-sample bootstrap needs at least two samples; "
                              "route singly evaluated points through the pooled scheme")
    residuals = point.scaled_residuals()
    idx = rng.integers(0, n, size=(n_draws, n))
    return point.mean + residuals[idx].mean(axis=1)


def bootstrap_means_stacked(points: list[EvaluatedPoint], dispersion: DispersionSet,
                            n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Mixed bootstrap replicates of several points, shape (k, B, T).

    Row i holds point i's replicates: mean + (1/N) * (E + sum of N - 1 own
    scaled residual draws) with E uniform from the centered dispersion pool,
    or mean + E for N = 1. All indices come from one ``rng.integers`` call
    whose bounds run point by point: B pool indices (bound: pool size), then
    B * (N - 1) own indices (bound: N). numpy draws an array of bounds
    element by element, so the values and the generator state afterwards
    equal those of one sized call per segment in that order.
    """
    pool = dispersion.centered()
    counts = [p.count for p in points]
    draws = rng.integers(0, np.repeat([b for n in counts for b in (pool.shape[0], n)],
                                      [k for n in counts for k in (n_draws, n_draws * (n - 1))]))
    out = np.empty((len(points), n_draws, pool.shape[1]))
    start = 0
    for i, (point, n) in enumerate(zip(points, counts)):
        pooled = pool.take(draws[start:start + n_draws], axis=0)
        start += n_draws
        if n == 1:
            np.add(point.mean, pooled, out=out[i])
            continue
        residuals = point.scaled_residuals()
        idx = draws[start:start + n_draws * (n - 1)].reshape(n_draws, n - 1)
        start += n_draws * (n - 1)
        # For T >= 2 objectives, summing the (n - 1, B, T) gather over its
        # first axis adds the same terms in the same order as summing the
        # (B, n - 1, T) gather over its middle axis, so the replicates are
        # bit-identical; an ``np.add.reduceat`` sum reorders the terms and is not.
        own = residuals.take(idx.T, axis=0).sum(axis=0)
        out[i] = point.mean + (pooled + own) / n
    return out


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
               rng: np.random.Generator) -> bool:
    """Decide whether the candidate deserves another evaluation.

    Computes p* = max over front members (the candidate itself excluded) of
    the bootstrap probability that the candidate's mean strictly dominates
    the member's mean, with ``strategy.n_boot`` fresh replicates per point.
    One random draw covers the whole decision, in segments: the candidate's
    first, then each rival's in front order. Returns False when p* > alpha_u
    (confidently good) or p* < alpha_l (hopeless), True inside the band, as
    ``strategy.side`` places it. A sole front member has no comparison
    target, which counts as p* = 0. Exact counts are taken only where the
    per-objective bounds (module docstring) leave the side of p* open.
    """
    if not front:
        raise EvaluationError("the front must be nonempty")
    rivals = [s for s in front if s is not candidate]
    if not rivals:
        return False
    n_draws = strategy.n_boot
    draws = bootstrap_means_stacked([candidate, *rivals], dispersion, n_draws, rng)
    candidate_draws, rival_draws = draws[0], draws[1:]
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
