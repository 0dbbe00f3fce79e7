"""Real-coded variation operators shared by all optimizers.

Simulated binary crossover and polynomial mutation with per-variable box
bounds; children are clipped back into the box. Defaults are the canonical
NSGA-II settings (crossover index 15 at rate 0.9, mutation index 20 at one
expected gene per child).

Random-draw accounting per :func:`make_children` call (one child pair):
exactly the uniform doubles, in order, that one ``rng.random()`` call per
draw would take. One ``rng.random(1 + 7 * n_vars)`` batch (an upper bound)
supplies them; the generator is then reset to its entry state and redraws
the doubles used, so its state, PCG64's spare 32-bit half included, is the
per-call loop's. Other bit generators raise :class:`EvaluationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import length_hint

import numpy as np

from .pareto import EvaluationError


@dataclass(frozen=True)
class VariationConfig:
    sbx_eta: float = 15.0
    sbx_prob: float = 0.9
    mutation_eta: float = 20.0
    mutation_prob: float | None = None  # None means 1 / n_vars

    def gene_mutation_prob(self, n_vars: int) -> float:
        return self.mutation_prob if self.mutation_prob is not None else 1.0 / n_vars


def _spread_factor(u: float, distance_to_bound: float, gap: float, eta: float) -> float:
    # Bounded spread: the polynomial distribution is truncated so the child
    # cannot leave the box on this side.
    beta = 1.0 + 2.0 * distance_to_bound / gap
    alpha = 2.0 - beta ** -(eta + 1.0)
    if u <= 1.0 / alpha:
        return (u * alpha) ** (1.0 / (eta + 1.0))
    return (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta + 1.0))


def _sbx(c1: list, c2: list, lower: list, upper: list, eta: float, prob: float, draws) -> None:
    """Simulated binary crossover of the parent genes ``c1``, ``c2`` in place:
    the pair crosses with probability ``prob``, then each gene mixes with
    probability 0.5 (bounded spread, index ``eta``) and the child genes swap
    sides with probability 0.5, so children recombine both parents' genes."""
    if next(draws) >= prob:
        return
    for i, coin in zip(range(len(c1)), draws):  # range first: no draw past the end
        if coin >= 0.5:
            continue
        a, b = (c1[i], c2[i]) if c1[i] <= c2[i] else (c2[i], c1[i])
        if b - a < 1e-14:
            continue
        u = next(draws)
        low = 0.5 * (a + b - _spread_factor(u, a - lower[i], b - a, eta) * (b - a))
        high = 0.5 * (a + b + _spread_factor(u, upper[i] - b, b - a, eta) * (b - a))
        low = min(max(low, lower[i]), upper[i])
        high = min(max(high, lower[i]), upper[i])
        if next(draws) < 0.5:
            c1[i], c2[i] = high, low
        else:
            c1[i], c2[i] = low, high


def _mutate(x: list, lower: list, upper: list, eta: float, prob: float, draws) -> np.ndarray:
    """Bounded polynomial mutation, per gene with probability ``prob``, then np.clip's rule."""
    for i, coin in zip(range(len(x)), draws):
        if coin >= prob:
            continue
        span = upper[i] - lower[i]
        if span <= 0:
            continue
        to_lower = (x[i] - lower[i]) / span
        to_upper = (upper[i] - x[i]) / span
        u = next(draws)
        if u < 0.5:
            val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - to_lower) ** (eta + 1.0)
            delta = val ** (1.0 / (eta + 1.0)) - 1.0
        else:
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - to_upper) ** (eta + 1.0)
            delta = 1.0 - val ** (1.0 / (eta + 1.0))
        x[i] += delta * span
    return np.array([(v if v < hi else hi) if v > lo else (lo if lo < hi else hi)
                     for v, lo, hi in zip(x, lower, upper)])  # np.clip is slower on lists


def make_children(p1: np.ndarray, p2: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                  cfg: VariationConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Crossover two parents and mutate both children (draws: module docstring)."""
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise EvaluationError(f"make_children needs PCG64, got {type(rng.bit_generator).__name__}")
    entry = rng.bit_generator.state
    m = 1 + 7 * p1.size
    draws = iter(rng.random(m).tolist())
    c1, c2, lo, hi = p1.tolist(), p2.tolist(), lower.tolist(), upper.tolist()
    _sbx(c1, c2, lo, hi, cfg.sbx_eta, cfg.sbx_prob, draws)
    prob = cfg.gene_mutation_prob(p1.size)
    children = tuple(_mutate(c, lo, hi, cfg.mutation_eta, prob, draws) for c in (c1, c2))
    rng.bit_generator.state = entry  # not advance(-unused): that drops a spare 32-bit half
    rng.random(m - length_hint(draws))
    return children
