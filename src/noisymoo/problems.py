"""Stochastic bi-objective test problems.

Deterministic mean functions from the CEC'09 unconstrained (UF) suite with
additive standardized noise per objective, plus sampling of the analytic
Pareto front. All three shipped problems (UF1, UF2, UF3) have the front
f2 = 1 - sqrt(f1) with f1 in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .pareto import EvaluationError, require_at_least

NOISE_KINDS = ("none", "gaussian", "chisq")


@dataclass(frozen=True)
class NoiseLaw:
    """Additive noise with zero mean and unit variance before scaling.

    ``gaussian`` draws are standard normal. ``chisq`` draws are
    (chi2_df - df) / sqrt(2 * df), which standardizes the chi-square to
    mean 0 and variance 1 and bounds it below by -sqrt(df / 2). ``sigma``
    is the constant scale multiplying each standardized draw.

    Random-draw accounting per ``evaluate_noisy`` call, that is per sample:
    ``gaussian`` and ``chisq`` consume exactly one batch of T draws from the
    stream (``standard_normal(T)`` resp. ``chisquare(df, T)``); ``none``
    consumes nothing. Computing a point's true mean draws nothing.
    """

    kind: str = "none"
    sigma: float = 0.0
    df: int = 1

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise EvaluationError(f"unknown noise kind {self.kind!r}")
        require_at_least(self, 0, "sigma")
        if self.kind == "chisq" and self.df < 1:
            raise EvaluationError("chisq noise needs df >= 1")

    def standardized(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One batch of `size` standardized draws (zero draws for kind 'none')."""
        if self.kind == "none":
            return np.zeros(size)
        if self.kind == "gaussian":
            return rng.standard_normal(size)
        return (rng.chisquare(self.df, size) - self.df) / np.sqrt(2.0 * self.df)


@dataclass(frozen=True)
class NoisyProblem:
    """A deterministic mean function of :data:`~noisymoo.pareto.N_OBJECTIVES`
    objectives, wrapped with an additive noise law."""

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    mean_fn: Callable[[np.ndarray], np.ndarray]
    noise: NoiseLaw = field(default_factory=NoiseLaw)

    def in_bounds(self, x: np.ndarray) -> bool:
        return bool((x >= self.lower).all() and (x <= self.upper).all())

    def random_decision(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)


def true_mean(problem: NoisyProblem, x: np.ndarray) -> np.ndarray:
    """The noise-free objective vector mean_fn(x), read-only; x must lie in
    bounds. Computed once per point and passed to every :func:`evaluate_noisy`."""
    x = np.asarray(x, dtype=float)
    if not problem.in_bounds(x):
        raise EvaluationError(f"decision vector out of bounds for {problem.name}")
    mean = np.array(problem.mean_fn(x), dtype=float)  # own copy: mean_fn may alias x
    mean.flags.writeable = False
    return mean


def evaluate_noisy(problem: NoisyProblem, mean: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """One noisy evaluation at a point whose :func:`true_mean` is ``mean``:
    mean + sigma * one standardized draw per objective."""
    eps = problem.noise.standardized(rng, mean.size)
    return mean + problem.noise.sigma * eps


@lru_cache(maxsize=None)
def _index_sets(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # The UF suite's 1-based variable indices j = 2..dim, the phase j*pi/dim
    # of UF1 and UF2, and the 0-based positions in x[1:] of the odd and the
    # even j. Built once per dim and shared, hence read-only.
    if dim < 3:
        raise EvaluationError(f"UF problems need dim >= 3, got {dim}")
    j = np.arange(2, dim + 1)
    sets = (j, j * np.pi / dim, np.flatnonzero(j % 2 == 1), np.flatnonzero(j % 2 == 0))
    for a in sets:
        a.flags.writeable = False
    return sets


def mean_fn_uf1(x: np.ndarray) -> np.ndarray:
    """UF1: sine-shifted tail variables, front f2 = 1 - sqrt(f1)."""
    x = np.asarray(x, dtype=float)
    _, j_phase, i_odd, i_even = _index_sets(x.size)
    shift = np.sin(6.0 * np.pi * x[0] + j_phase)
    dev = (x[1:] - shift) ** 2
    f1 = x[0] + 2.0 / i_odd.size * dev[i_odd].sum()
    f2 = 1.0 - np.sqrt(x[0]) + 2.0 / i_even.size * dev[i_even].sum()
    return np.array([f1, f2])


def mean_fn_uf2(x: np.ndarray) -> np.ndarray:
    """UF2: cosine/sine-modulated tail deviations, front f2 = 1 - sqrt(f1)."""
    x = np.asarray(x, dtype=float)
    dim = x.size
    j, j_phase, i_odd, i_even = _index_sets(dim)
    envelope = 0.3 * x[0] ** 2 * np.cos(24.0 * np.pi * x[0] + 4.0 * j * np.pi / dim) + 0.6 * x[0]
    phase = 6.0 * np.pi * x[0] + j_phase
    y = np.where(j % 2 == 1, x[1:] - envelope * np.cos(phase), x[1:] - envelope * np.sin(phase))
    f1 = x[0] + 2.0 / i_odd.size * (y[i_odd] ** 2).sum()
    f2 = 1.0 - np.sqrt(x[0]) + 2.0 / i_even.size * (y[i_even] ** 2).sum()
    return np.array([f1, f2])


def mean_fn_uf3(x: np.ndarray) -> np.ndarray:
    """UF3: power-curve tail with a multiplicative cosine term, front f2 = 1 - sqrt(f1)."""
    x = np.asarray(x, dtype=float)
    dim = x.size
    j, _, i_odd, i_even = _index_sets(dim)
    y = x[1:] - x[0] ** (0.5 * (1.0 + 3.0 * (j - 2.0) / (dim - 2.0)))
    cos_term = np.cos(20.0 * y * np.pi / np.sqrt(j))
    odd = y[i_odd]
    even = y[i_even]
    f1 = x[0] + 2.0 / i_odd.size * (4.0 * (odd ** 2).sum() - 2.0 * cos_term[i_odd].prod() + 2.0)
    f2 = (1.0 - np.sqrt(x[0])
          + 2.0 / i_even.size * (4.0 * (even ** 2).sum() - 2.0 * cos_term[i_even].prod() + 2.0))
    return np.array([f1, f2])


def sample_true_pf(n: int) -> np.ndarray:
    """n points evenly spaced in f1 along f2 = 1 - sqrt(f1), every problem's front."""
    f1 = np.linspace(0.0, 1.0, n)
    return np.column_stack([f1, 1.0 - np.sqrt(f1)])


def _uf_bounds(name: str, dim: int) -> tuple[np.ndarray, np.ndarray]:
    if name == "uf3":
        return np.zeros(dim), np.ones(dim)
    lower = -np.ones(dim)
    upper = np.ones(dim)
    lower[0] = 0.0
    return lower, upper


_MEAN_FNS = {"uf1": mean_fn_uf1, "uf2": mean_fn_uf2, "uf3": mean_fn_uf3}


def make_problem(name: str, dim: int = 10, noise: NoiseLaw | None = None) -> NoisyProblem:
    """Build a registered problem by name ('uf1', 'uf2', 'uf3')."""
    if not isinstance(name, str) or name not in _MEAN_FNS:
        raise EvaluationError(f"unknown problem {name!r}; choose from {sorted(_MEAN_FNS)}")
    _index_sets(dim)  # refuses dim < 3
    lower, upper = _uf_bounds(name, dim)
    return NoisyProblem(name=name, dim=dim, lower=lower, upper=upper,
                        mean_fn=_MEAN_FNS[name], noise=noise or NoiseLaw())
