"""Strategy types and the resampling decision functions behind one interface.

Each config ``kind`` names one strategy type (:func:`strategy_type`); its
``family`` groups it for comparison and its ``loop`` is what runs it.

A decision function answers one question for a single point: is another
evaluation worth its cost right now? The budget-share strategies (time,
rank, strength: :class:`BudgetShare`) answer True while a point's count
stays strictly below its share of a maximal per-point budget. The
standard-error strategy resamples until the mean is precise enough; "arb"
delegates to the bootstrap dominance-probability rule. Static decides
nothing per point: ``nsga2_run`` gives each new point its ``n`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Union, get_args

import numpy as np

from . import bootstrap
from .pareto import (EvaluatedPoint, EvaluationError, RankedPopulation, from_mapping,
                     require_at_least, weak_dominance)


@dataclass(frozen=True)
class StaticStrategy:
    """Every point gets exactly ``n`` evaluations (n = 1 is plain NSGA-II)."""

    n: int = 1
    kind: str = field(default="static", init=False)
    family: ClassVar[str] = "static"
    loop: ClassVar[str] = "one_shot"

    def __post_init__(self) -> None:
        require_at_least(self, 1, "n")


@dataclass(frozen=True)
class BudgetShare:
    """Resample member i while its count < ``share(i, ctx) * n_max``, a share
    in [0, 1]; the time, rank and strength kinds differ only in the share."""

    n_max: int = 10
    family: ClassVar[str] = "dynamic"
    loop: ClassVar[str] = "sequential"

    def __post_init__(self) -> None:
        require_at_least(self, 1, "n_max")


@dataclass(frozen=True)
class TimeStrategy(BudgetShare):
    """Budget share grows linearly with the generation counter."""

    kind: str = field(default="time", init=False)

    def share(self, i: int, ctx: DecisionContext) -> float:
        """n_gen / max_gen, capped at 1; reads only the generation counter."""
        return min(1.0, ctx.n_gen / ctx.max_gen)


@dataclass(frozen=True)
class RankStrategy(BudgetShare):
    """Budget share decreases linearly with Pareto rank."""

    kind: str = field(default="rank", init=False)

    def share(self, i: int, ctx: DecisionContext) -> float:
        """1 at rank 1 falling linearly to 0 at the worst rank, 1 if all share
        rank 1; reads ``population.rank``, fixed at the sweep's start."""
        max_rank = int(ctx.population.rank.max())
        if max_rank == 1:
            return 1.0
        return 1.0 - (int(ctx.population.rank[i]) - 1) / (max_rank - 1)


@dataclass(frozen=True)
class StrengthStrategy(BudgetShare):
    """Budget share proportional to how many rivals a point weakly dominates."""

    kind: str = field(default="strength", init=False)

    def share(self, i: int, ctx: DecisionContext) -> float:
        """Strength over the maximal strength, read from the live member means
        (:func:`all_strengths`); 1 when all are zero (up to 1e-12 absolute)."""
        strengths = all_strengths(ctx.population, ctx.weak_matrix())
        s_max = float(strengths.max())
        if s_max <= 1e-12:
            return 1.0
        return float(strengths[i]) / s_max


@dataclass(frozen=True)
class SeErrorStrategy:
    """Resample while the largest per-objective standard error exceeds a
    threshold. A point seen once has no standard error yet and always gets a
    second look.
    """

    threshold: float = 0.05
    kind: str = field(default="sederror", init=False)
    family: ClassVar[str] = "dynamic"
    loop: ClassVar[str] = "sequential"

    def standard_error(self, point: EvaluatedPoint) -> float:
        """Per objective, the unbiased sample standard deviation of ``point``
        divided by sqrt(N), then the max across objectives. Undefined for N = 1."""
        n = point.count
        if n < 2:
            raise EvaluationError("standard error needs at least two samples")
        sd = np.std(np.asarray(point.samples), axis=0, ddof=1) / np.sqrt(n)
        return float(sd.max())


@dataclass(frozen=True)
class ArbStrategy:
    """Adaptive resampling via bootstrap dominance probability.

    ``alpha_l`` in (0, 0.5] is the minimum dominance potential a point must
    show to stay interesting; ``alpha_u`` in (0.5, 1] is the confidence
    level above which further evaluations are considered wasted. Since
    alpha_u > 0.5 >= alpha_l, the band [alpha_l, alpha_u] is never empty.
    """

    alpha_l: float = 0.2
    alpha_u: float = 0.9
    n_boot: int = 100
    capacity: int = 100
    init_popsize: int = 120
    seed_size: int = 100
    kind: str = field(default="arb", init=False)
    family: ClassVar[str] = "arb"
    loop: ClassVar[str] = "sequential"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_l <= 0.5:
            raise EvaluationError("alpha_l must lie in (0, 0.5]")
        if not 0.5 < self.alpha_u <= 1.0:
            raise EvaluationError("alpha_u must lie in (0.5, 1]")
        require_at_least(self, 1, "n_boot", "capacity", "seed_size")

    def side(self, p: float) -> int:
        """-1 below alpha_l, +1 above alpha_u, 0 inside the band."""
        if p < self.alpha_l:
            return -1
        return 1 if p > self.alpha_u else 0


@dataclass(frozen=True)
class RteaStrategy:
    """Rolling Tide: ``k`` front re-evaluations per offspring, ``p`` initial
    points, and the share ``z`` of the budget kept for refinement."""

    k: int = 1
    p: int = 40
    z: float = 0.1
    kind: str = field(default="rtea", init=False)
    family: ClassVar[str] = "rtea"
    loop: ClassVar[str] = "rtea"

    def __post_init__(self) -> None:
        if not 0.0 <= self.z < 1.0:
            raise EvaluationError("refinement fraction must lie in [0, 1)")
        require_at_least(self, 1, "k", "p")


ResamplingStrategy = Union[StaticStrategy, TimeStrategy, RankStrategy,
                           StrengthStrategy, SeErrorStrategy, ArbStrategy, RteaStrategy]
_TYPES = {cls.kind: cls for cls in get_args(ResamplingStrategy)}


def strategy_type(kind) -> type:
    """The strategy type a config ``kind`` names."""
    try:
        return _TYPES[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise EvaluationError(f"unknown strategy kind {kind!r}") from None


@dataclass
class DecisionContext:
    """Everything a decision function may read about the current state.

    NSGA-II builds one per sweep over the combined population and asks
    :func:`should_resample` about each member by index. ``dispersion`` and
    the member means are live (points re-evaluated earlier in the sweep
    carry their new samples); ``rank`` and the front's membership are fixed
    at the sweep's start. The population state each kind reads:

    * ``rank``: ``population.rank``, which no re-evaluation moves;
    * ``strength``: the live means, through :meth:`weak_matrix`;
    * ``arb``: the live means and samples of the point and of the front
      members, and the live dispersion pool, which the run's ``Evaluator``
      feeds on every re-evaluation; the front's envelopes via :meth:`front_high`;
    * ``time``: only ``n_gen``/``max_gen``; ``sederror``: only the point.

    The matrix and the envelopes' terms are built on first use and kept for
    the sweep. Only a re-evaluation moves means, counts or the pool, and its
    granter calls :meth:`reevaluated`, which updates one row and column of
    the matrix and the member's front row, if any.
    """

    population: RankedPopulation
    n_gen: int = 0
    max_gen: int = 1
    front: list[EvaluatedPoint] | None = None
    dispersion: bootstrap.DispersionSet | None = None
    rng: np.random.Generator | None = None
    # Kept state: live means and their matrix; front terms, high envelopes and their pool.
    _means: np.ndarray | None = field(default=None, init=False, repr=False)
    _weak: np.ndarray | None = field(default=None, init=False, repr=False)
    _high_terms: list | None = field(default=None, init=False, repr=False)
    _pool: np.ndarray | None = field(default=None, init=False, repr=False)
    _high: np.ndarray | None = field(default=None, init=False, repr=False)

    def weak_matrix(self) -> np.ndarray:
        """The (n, n) weak-dominance matrix of the live means, self excluded."""
        if self._weak is None:
            self._means = self.population.means
            self._weak = weak_dominance(self._means, self._means)
            np.fill_diagonal(self._weak, False)
        return self._weak

    def front_high(self) -> np.ndarray:
        """The (F, T) high envelopes of the front members under the live pool."""
        if self._high_terms is None:
            self._high_terms = bootstrap.high_terms(self.front)
        pool = self.dispersion.column_range()
        if self._pool is not pool:
            self._pool, self._high = pool, bootstrap.envelope(*self._high_terms, pool[1])
        return self._high

    def reevaluated(self, i: int) -> None:
        """Update the kept state after member ``i`` got one more sample."""
        point = self.population.members[i]
        if self._weak is not None:
            self._means[i] = point.mean
            self._weak[i] = weak_dominance(point.mean[None], self._means)[0]
            self._weak[:, i] = weak_dominance(self._means, point.mean[None])[:, 0]
            self._weak[i, i] = False
        if self._high_terms is not None:
            for k, member in enumerate(self.front):
                if member is point:
                    means, own, counts = self._high_terms
                    means[k], own[k], counts[k] = point.mean, point.residual_range()[1], point.count
                    self._pool = None  # recompute, even under the same pool


def all_strengths(pop: RankedPopulation, weak: np.ndarray) -> np.ndarray:
    """Per-point fraction of the population it weakly dominates, self excluded,
    from its kept matrix ``weak`` (:meth:`DecisionContext.weak_matrix`).

    Self-exclusion keeps the all-strengths-zero case reachable (a point
    always weakly dominates itself).
    """
    return weak.sum(axis=1) / len(pop)


def should_resample(strategy: ResamplingStrategy, ctx: DecisionContext, i: int) -> bool:
    """One resampling decision for member ``i`` of the context's population:
    the budget-share rule, the standard-error threshold, or the arb rule,
    which needs the context's front, dispersion pool and random stream.
    Static and RTEA, which decide nothing, are refused."""
    point = ctx.population.members[i]
    if isinstance(strategy, BudgetShare):
        return point.count < strategy.share(i, ctx) * strategy.n_max
    if isinstance(strategy, SeErrorStrategy):
        return point.count < 2 or strategy.standard_error(point) > strategy.threshold
    if isinstance(strategy, ArbStrategy):
        if ctx.front is None or ctx.dispersion is None or ctx.rng is None:
            raise EvaluationError("arb decisions need front, dispersion and rng in the context")
        return bootstrap.arb_decide(point, ctx.front, ctx.dispersion, strategy, ctx.rng,
                                    ctx.front_high)
    raise EvaluationError(f"no per-point resampling decision for {strategy!r}")


def strategy_from_dict(spec: dict) -> ResamplingStrategy:
    """Build a strategy from a config mapping with a 'kind' key."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    return from_mapping(strategy_type(kind), spec, f"{kind} parameter")
