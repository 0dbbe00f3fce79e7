"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written the slow, obvious way (explicit
double loops, no shared code with the package) so a bug in the library
cannot hide in its oracle.
"""

from __future__ import annotations

import numpy as np


def brute_dominates(a, b) -> bool:
    all_leq = True
    any_lt = False
    for x, y in zip(a, b):
        if x > y:
            all_leq = False
        if x < y:
            any_lt = True
    return all_leq and any_lt


def brute_dominance_matrix(objs: np.ndarray) -> np.ndarray:
    n = len(objs)
    dom = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            dom[i, j] = brute_dominates(objs[i], objs[j])
    return dom


def brute_weak_dominance(a: np.ndarray, b: np.ndarray, strict: bool = False) -> np.ndarray:
    """out[i, j]: row i of a is <= (strict: <) row j of b in every objective."""
    out = np.zeros((len(a), len(b)), dtype=bool)
    for i in range(len(a)):
        for j in range(len(b)):
            ok = True
            for x, y in zip(a[i], b[j]):
                if x > y or (strict and x == y):
                    ok = False
            out[i, j] = ok
    return out


def brute_reseat(front: list, point) -> None:
    """RTEA's front update under means, one case at a time. A new point is
    dropped if a member dominates it; otherwise it evicts the members it
    dominates and joins the end. A member whose mean moved leaves if another
    member dominates it; otherwise it evicts the members it now dominates and
    keeps its place."""
    if any(f is point for f in front):
        others = [f for f in front if f is not point]
        if any(brute_dominates(f.mean, point.mean) for f in others):
            front[:] = others
            return
        front[:] = [f for f in front if f is point or not brute_dominates(point.mean, f.mean)]
        return
    if any(brute_dominates(f.mean, point.mean) for f in front):
        return
    front[:] = [f for f in front if not brute_dominates(point.mean, f.mean)] + [point]


def brute_strengths(objs: np.ndarray) -> np.ndarray:
    """Per point: the share of the n points other than itself it weakly dominates."""
    n = len(objs)
    out = np.zeros(n)
    for i in range(n):
        count = 0
        for j in range(n):
            if i != j and all(x <= y for x, y in zip(objs[i], objs[j])):
                count += 1
        out[i] = count / n
    return out


def brute_front_ranks(objs: np.ndarray) -> np.ndarray:
    """Iterative front peeling from an explicit pairwise dominance matrix."""
    n = len(objs)
    dom = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j:
                dom[i, j] = brute_dominates(objs[i], objs[j])
    ranks = np.zeros(n, dtype=int)
    alive = set(range(n))
    rank = 1
    while alive:
        front = [i for i in alive if not any(dom[j, i] for j in alive if j != i)]
        for i in front:
            ranks[i] = rank
            alive.remove(i)
        rank += 1
    return ranks


def brute_nondominated(objs: np.ndarray) -> list[int]:
    """Indices whose vectors are not strictly dominated by any other vector."""
    keep = []
    for i in range(len(objs)):
        if not any(brute_dominates(objs[j], objs[i]) for j in range(len(objs)) if j != i):
            keep.append(i)
    return keep


def brute_crowding_distance(objs: np.ndarray) -> np.ndarray:
    """NSGA-II crowding of one front. Per objective: order the members by
    (value, index); the two ends get inf, and if the span is positive each
    interior member adds (next value - previous value) / span."""
    n = len(objs)
    dist = [0.0] * n
    for t in range(len(objs[0])):
        order = sorted(range(n), key=lambda i: (objs[i][t], i))
        span = objs[order[-1]][t] - objs[order[0]][t]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span > 0:
            for k in range(1, n - 1):
                gap = objs[order[k + 1]][t] - objs[order[k - 1]][t]
                dist[order[k]] = dist[order[k]] + gap / span
    return np.array(dist, dtype=float)


def brute_environmental_select(objs: np.ndarray, popsize: int) -> list[int]:
    """Reference survivor selection: whole fronts by rank, the boundary
    front by descending crowding with input-index ties."""
    ranks = brute_front_ranks(objs)
    chosen: list[int] = []
    for r in range(1, ranks.max() + 1):
        front = [i for i in range(len(objs)) if ranks[i] == r]
        if len(chosen) + len(front) <= popsize:
            chosen.extend(front)
            if len(chosen) == popsize:
                break
        else:
            crowd = brute_crowding_distance(objs[front])
            order = sorted(range(len(front)), key=lambda k: (-crowd[k], front[k]))
            chosen.extend(front[k] for k in order[: popsize - len(chosen)])
            break
    return chosen


def brute_dominance_probability(draws_a: np.ndarray, draws_b: np.ndarray) -> float:
    hits = 0
    for a in draws_a:
        for b in draws_b:
            ok = True
            for x, y in zip(a, b):
                if not x < y:
                    ok = False
                    break
            if ok:
                hits += 1
    return hits / (len(draws_a) * len(draws_b))


def monte_carlo_hypervolume(points: np.ndarray, nadir: np.ndarray,
                            n_samples: int, rng: np.random.Generator) -> float:
    """Uniform sampling over the bounding box between the point minima and
    the nadir; fraction dominated times box volume."""
    pts = np.asarray(points, dtype=float)
    lo = np.minimum(pts.min(axis=0), nadir)
    volume = float(np.prod(nadir - lo))
    if volume <= 0:
        return 0.0
    samples = rng.uniform(lo, nadir, size=(n_samples, len(nadir)))
    dominated = np.zeros(n_samples, dtype=bool)
    for p in pts:
        dominated |= np.all(samples > p, axis=1)
    return dominated.mean() * volume


def brute_bootstrap_means_pooled(point, dispersion, n_draws: int,
                                 rng: np.random.Generator) -> np.ndarray:
    """One point's mixed bootstrap replicates, shape (B, T), drawn with two
    sized ``rng.integers`` calls: B pool indices, then a (B, N - 1) block of
    own indices. Each replicate is mean + (E + own draws summed) / N, or
    mean + E for N = 1."""
    pool = dispersion.centered()
    pooled = pool.take(rng.integers(0, pool.shape[0], size=n_draws), axis=0)
    n = point.count
    if n == 1:
        return point.mean + pooled
    residuals = point.scaled_residuals()
    idx = rng.integers(0, n, size=(n_draws, n - 1))
    own = residuals.take(idx.T, axis=0).sum(axis=0)
    return point.mean + (pooled + own) / n


def _brute_spread_factor(u, distance_to_bound, gap, eta):
    beta = 1.0 + 2.0 * distance_to_bound / gap
    alpha = 2.0 - beta ** -(eta + 1.0)
    if u <= 1.0 / alpha:
        return (u * alpha) ** (1.0 / (eta + 1.0))
    return (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta + 1.0))


def brute_sbx_pair(p1, p2, lower, upper, eta, prob, rng):
    """Simulated binary crossover with one ``rng.random()`` call per draw:
    the pair's crossover coin, then per gene a mixing coin and, for a mixed
    gene, a spread draw and a side coin."""
    c1 = p1.copy()
    c2 = p2.copy()
    if rng.random() >= prob:
        return c1, c2
    for i in range(p1.size):
        if rng.random() >= 0.5:
            continue
        a, b = (p1[i], p2[i]) if p1[i] <= p2[i] else (p2[i], p1[i])
        if b - a < 1e-14:
            continue
        u = rng.random()
        low = 0.5 * (a + b - _brute_spread_factor(u, a - lower[i], b - a, eta) * (b - a))
        high = 0.5 * (a + b + _brute_spread_factor(u, upper[i] - b, b - a, eta) * (b - a))
        low = min(max(low, lower[i]), upper[i])
        high = min(max(high, lower[i]), upper[i])
        if rng.random() < 0.5:
            c1[i], c2[i] = high, low
        else:
            c1[i], c2[i] = low, high
    return c1, c2


def brute_polynomial_mutate(x, lower, upper, eta, prob, rng):
    """Bounded polynomial mutation with one ``rng.random()`` call per draw:
    a coin per gene and one draw per mutated gene."""
    out = x.copy()
    for i in range(x.size):
        if rng.random() >= prob:
            continue
        span = upper[i] - lower[i]
        if span <= 0:
            continue
        to_lower = (out[i] - lower[i]) / span
        to_upper = (upper[i] - out[i]) / span
        u = rng.random()
        if u < 0.5:
            val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - to_lower) ** (eta + 1.0)
            delta = val ** (1.0 / (eta + 1.0)) - 1.0
        else:
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - to_upper) ** (eta + 1.0)
            delta = 1.0 - val ** (1.0 / (eta + 1.0))
        out[i] += delta * span
    return np.clip(out, lower, upper)


def brute_make_children(p1, p2, lower, upper, cfg, rng):
    """The per-call form of ``variation.make_children``: numpy-scalar
    arithmetic and one ``rng.random()`` call per uniform draw."""
    c1, c2 = brute_sbx_pair(p1, p2, lower, upper, cfg.sbx_eta, cfg.sbx_prob, rng)
    prob = cfg.gene_mutation_prob(p1.size)
    return (brute_polynomial_mutate(c1, lower, upper, cfg.mutation_eta, prob, rng),
            brute_polynomial_mutate(c2, lower, upper, cfg.mutation_eta, prob, rng))


def brute_pair_draw(rng, n):
    """Two indices in [0, n) the way tournaments and RTEA's parent pick drew
    them before: one sized ``rng.integers`` call."""
    i, j = rng.integers(0, n, size=2)
    return int(i), int(j)
