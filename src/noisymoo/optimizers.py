"""The two loops a strategy names: NSGA-II with pluggable resampling
(one-shot for static, sequential for every other NSGA-II kind) and the
Rolling Tide EA for RTEA, both under a strict shared evaluation budget.

Every objective-function call goes through one :class:`Evaluator`, which
keeps the evaluation log (its length is the spend; two runs with the same
seed replay it), and in an arb run feeds each re-evaluation's residual to the
dispersion pool. An evaluation past the budget raises, so each loop bounds
its own spend with :attr:`Evaluator.remaining` and spends the budget
exactly; once it runs out mid-generation, NSGA-II skips the generation's
remaining evaluations and finishes it with the samples it has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import DispersionSet
from .pareto import (EvaluatedPoint, EvaluationError, RankedPopulation, front_ranks,
                     nondominated_sort)
from .problems import NoisyProblem, evaluate_noisy, true_mean
from .resampling import (ArbStrategy, DecisionContext, ResamplingStrategy, RteaStrategy,
                         should_resample)
from .variation import VariationConfig, make_children


class Evaluator:
    """The single gate to the noisy objective function.

    Spawning computes a new point's ``true_mean`` (raising, before any
    charge, if it is out of bounds) and evaluates it once; re-evaluating
    appends one more sample, one noise draw added to that kept mean, and
    pushes its scaled residual into the ``dispersion`` pool of an arb run.
    ``log`` holds one row per evaluation, in order, exactly as the record's
    ``eval_log`` stores it: ``[uid, generation, [f1, f2]]``; its length is
    the spend. An evaluation asked for once the log holds ``budget`` rows
    raises :class:`EvaluationError` before any draw or charge: the log, the
    uid counter and the random stream stay as they were.
    """

    def __init__(self, problem: NoisyProblem, rng: np.random.Generator, budget: int,
                 dispersion: DispersionSet | None = None):
        self.problem = problem
        self.rng = rng
        self.budget = budget
        self.dispersion = dispersion
        self.log: list[list] = []
        self._next_uid = 0

    @property
    def remaining(self) -> int:
        return self.budget - len(self.log)

    def _afford(self, n: int) -> None:
        if n > self.remaining:
            raise EvaluationError(f"{n} evaluation(s) asked for, {self.remaining} left")

    def spawn(self, x: np.ndarray, generation: int) -> EvaluatedPoint:
        point = EvaluatedPoint(decision=x, uid=self._next_uid, true_mean=true_mean(self.problem, x))
        self.reevaluate(point, generation)
        self._next_uid += 1
        return point

    def spawn_random(self, n: int) -> list[EvaluatedPoint]:
        """Spawn ``n`` uniform random points in generation 0, or raise before the first."""
        self._afford(n)
        return [self.spawn(self.problem.random_decision(self.rng), 0) for _ in range(n)]

    def reevaluate(self, point: EvaluatedPoint, generation: int) -> None:
        self._afford(1)
        y = evaluate_noisy(self.problem, point.true_mean, self.rng)
        point.add_sample(y)
        self.log.append([point.uid, generation, y.tolist()])
        if self.dispersion is not None and point.count > 1:  # a spawn pushes nothing
            self.dispersion.push(point.scaled_residuals()[-1])


@dataclass
class RunResult:
    """What an optimizer hands back: final population, its first front
    under sample means, and the :attr:`Evaluator.log`, whose length is the spend."""

    population: list[EvaluatedPoint]
    front: list[EvaluatedPoint]
    log: list[list]


def tournament_winner(pop: RankedPopulation, i: int, j: int,
                      rng: np.random.Generator) -> int:
    """Lower rank wins, then larger crowding, then a coin."""
    if pop.rank[i] != pop.rank[j]:
        return int(i if pop.rank[i] < pop.rank[j] else j)
    if pop.crowding[i] != pop.crowding[j]:
        return int(i if pop.crowding[i] > pop.crowding[j] else j)
    return int(i if rng.random() < 0.5 else j)


def draw_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    """Two indices in [0, n): the values and state of ``rng.integers(0, n, size=2)``, faster."""
    return int(rng.integers(0, n)), int(rng.integers(0, n))


def tournament_select(pop: RankedPopulation, rng: np.random.Generator) -> int:
    """Binary tournament between two members drawn with replacement."""
    if len(pop) < 2:
        raise EvaluationError("tournament needs at least two members")
    return tournament_winner(pop, *draw_pair(rng, len(pop)), rng)


def environmental_select(points: list[EvaluatedPoint], popsize: int) -> list[EvaluatedPoint]:
    """Keep ``popsize`` survivors: whole fronts by ascending rank, the
    boundary front split by descending crowding (ties by input index)."""
    if len(points) < popsize:
        raise EvaluationError(f"cannot select {popsize} from {len(points)} points")
    ranked = nondominated_sort(points)
    order = np.argsort(ranked.rank, kind="stable")  # by rank, then input index
    keep = order[:popsize]
    if 0 < popsize < len(points) and ranked.rank[order[popsize]] == ranked.rank[keep[-1]]:
        boundary = ranked.rank[keep[-1]]
        whole = keep[ranked.rank[keep] < boundary]
        split = order[ranked.rank[order] == boundary]
        split = split[np.argsort(-ranked.crowding[split], kind="stable")]
        keep = np.concatenate((whole, split[: popsize - len(whole)]))
    return [points[i] for i in keep]


def _initialize_arb(ev: Evaluator, strategy: ArbStrategy, popsize: int) -> list[EvaluatedPoint]:
    # Oversized first generation: everyone evaluated once, the best
    # `seed_size` (NSGA-II criterion) a second time so their residuals seed
    # the dispersion pool, then truncate to the working population size.
    points = ev.spawn_random(strategy.init_popsize)
    ranked = nondominated_sort(points)
    order = np.lexsort((-ranked.crowding, ranked.rank))  # ties by index
    for i in order[: strategy.seed_size]:
        ev.reevaluate(points[i], 0)
    return environmental_select(points, popsize)


def check_run_shape(strategy: ResamplingStrategy, popsize: int | None, budget: int) -> None:
    """Raise :class:`EvaluationError` for a run the strategy's loop cannot
    run: an RTEA ``p`` above the budget (RTEA takes no ``popsize``), or a
    popsize, budget or arb ``init_popsize`` that :func:`nsga2_run` cannot run."""
    if strategy.loop == "rtea":
        if strategy.p > budget:
            raise EvaluationError(f"rtea initial sample p={strategy.p} exceeds the budget {budget}")
        return
    if popsize < 2 or popsize % 2:
        raise EvaluationError(f"popsize must be even and at least 2, got {popsize}")
    arb = isinstance(strategy, ArbStrategy)
    init_cost = strategy.init_popsize + strategy.seed_size if arb else popsize
    if budget < init_cost:
        raise EvaluationError(f"budget {budget} below initialization cost {init_cost}")
    if arb and strategy.init_popsize < max(popsize, strategy.seed_size):
        raise EvaluationError("arb init_popsize must cover popsize and seed_size")


def nsga2_run(problem: NoisyProblem, strategy: ResamplingStrategy, popsize: int,
              budget: int, variation: VariationConfig,
              rng: np.random.Generator) -> RunResult:
    """NSGA-II under a resampling strategy, spending the budget exactly.

    A strategy whose ``loop`` is ``one_shot`` (static) tops each new point
    up to ``n`` samples right after its spawn (the initial population once
    all its members exist) and never returns to it. Every other kind
    evaluates each offspring once and then sweeps the whole combined
    population every generation, granting one extra evaluation per point and
    sweep while the decision function approves. The planning horizon for
    time-based decisions is budget // popsize generations.
    """
    check_run_shape(strategy, popsize, budget)
    arb = isinstance(strategy, ArbStrategy)
    sequential = strategy.loop == "sequential"
    births = 1 if sequential else strategy.n  # samples a new point starts with

    ev = Evaluator(problem, rng, budget, DispersionSet(strategy.capacity) if arb else None)

    def top_up(point: EvaluatedPoint, generation: int) -> None:
        while point.count < births and ev.remaining > 0:
            ev.reevaluate(point, generation)

    pop = _initialize_arb(ev, strategy, popsize) if arb else ev.spawn_random(popsize)
    for point in pop:
        top_up(point, 0)

    max_gen = max(1, budget // popsize)
    gen = 0
    while ev.remaining > 0:
        gen += 1
        ranked_parents = nondominated_sort(pop)
        offspring: list[EvaluatedPoint] = []
        while len(offspring) < popsize and ev.remaining > 0:
            a = tournament_select(ranked_parents, rng)
            b = tournament_select(ranked_parents, rng)
            children = make_children(pop[a].decision, pop[b].decision,
                                     problem.lower, problem.upper, variation, rng)
            for x in children[: popsize - len(offspring)]:
                if ev.remaining == 0:  # the first child's top-up may have spent it
                    break
                child = ev.spawn(x, gen)
                offspring.append(child)
                top_up(child, gen)
        combined = pop + offspring
        if sequential:
            ranked = nondominated_sort(combined)
            ctx = DecisionContext(population=ranked, n_gen=gen, max_gen=max_gen,
                                  front=ranked.first_front(), dispersion=ev.dispersion, rng=rng)
            for i, point in enumerate(combined):
                if ev.remaining <= 0:
                    break
                if should_resample(strategy, ctx, i):
                    ev.reevaluate(point, gen)
                    ctx.reevaluated(i)
        pop = environmental_select(combined, popsize)

    return RunResult(population=pop, front=_first_front(pop), log=ev.log)


def _first_front(points: list[EvaluatedPoint]) -> list[EvaluatedPoint]:
    """The rank-1 points under sample means, in input order."""
    ranks = front_ranks(np.array([p.mean for p in points]))
    return [p for p, r in zip(points, ranks) if r == 1]


def _reevaluate_front(ev: Evaluator, front: list[EvaluatedPoint], n: int, iteration: int,
                      rng: np.random.Generator) -> None:
    """Spend ``n`` evaluations on the front, each on a least-sampled member
    (ties by a uniform draw), keeping only the rank-1 members after each."""
    for _ in range(n):
        counts = np.array([f.count for f in front])
        candidates = np.flatnonzero(counts == counts.min())
        target = front[int(candidates[rng.integers(0, candidates.size)])]
        ev.reevaluate(target, iteration)
        front[:] = _first_front(front)


def rtea_run(problem: NoisyProblem, strategy: RteaStrategy, budget: int,
             variation: VariationConfig, rng: np.random.Generator) -> RunResult:
    """Rolling Tide EA: strong elitism with continual front re-evaluation.

    Initialization samples ``p`` points once. The optimization phase then
    alternates one offspring (bred from two uniformly chosen front members)
    with ``k`` re-evaluations of the least-sampled front members until only
    the refinement share ``z`` of the budget is left; refinement spends the
    rest re-evaluating the front. Returns the front under sample means.
    """
    check_run_shape(strategy, None, budget)
    ev = Evaluator(problem, rng, budget)
    front = _first_front(ev.spawn_random(strategy.p))

    iteration = 0
    refine = int(round(strategy.z * budget))
    while ev.remaining > refine:  # so the spawn below never overspends
        iteration += 1
        a, b = draw_pair(rng, len(front))
        child_x, _ = make_children(front[a].decision, front[b].decision,
                                   problem.lower, problem.upper, variation, rng)
        front = _first_front([*front, ev.spawn(child_x, iteration)])
        _reevaluate_front(ev, front, min(strategy.k, ev.remaining - refine), iteration, rng)

    while ev.remaining > 0:
        iteration += 1
        _reevaluate_front(ev, front, 1, iteration, rng)

    return RunResult(population=list(front), front=front, log=ev.log)
