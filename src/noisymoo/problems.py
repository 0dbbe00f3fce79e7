"""Stochastic bi-objective test problems.

Deterministic mean functions from the CEC'09 unconstrained (UF) suite with
additive standardized noise per objective, plus sampling of the analytic
Pareto front. All three shipped problems (UF1, UF2, UF3) have the front
f2 = 1 - sqrt(f1) with f1 in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .pareto import EvaluationError

NOISE_KINDS = ("none", "gaussian", "chisq")


@dataclass(frozen=True)
class NoiseLaw:
    """Additive noise with zero mean and unit variance before scaling.

    ``gaussian`` draws are standard normal. ``chisq`` draws are
    (chi2_df - df) / sqrt(2 * df), which standardizes the chi-square to
    mean 0 and variance 1 and bounds it below by -sqrt(df / 2). ``sigma``
    is the constant scale multiplying each standardized draw.

    Random-draw accounting per ``evaluate_noisy`` call: ``gaussian`` and
    ``chisq`` consume exactly one batch of T draws from the stream
    (``standard_normal(T)`` resp. ``chisquare(df, T)``); ``none`` consumes
    nothing.
    """

    kind: str = "none"
    sigma: float = 0.0
    df: int = 1

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise EvaluationError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise EvaluationError("sigma must be nonnegative")
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
    """A deterministic mean function wrapped with an additive noise law."""

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    mean_fn: Callable[[np.ndarray], np.ndarray]
    noise: NoiseLaw = field(default_factory=NoiseLaw)
    n_objectives: int = 2

    def in_bounds(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def random_decision(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)


def evaluate_noisy(problem: NoisyProblem, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One noisy evaluation: mean_fn(x) plus an independent scaled draw per objective."""
    x = np.asarray(x, dtype=float)
    if not problem.in_bounds(x):
        raise EvaluationError(f"decision vector out of bounds for {problem.name}")
    y = problem.mean_fn(x)
    eps = problem.noise.standardized(rng, problem.n_objectives)
    return y + problem.noise.sigma * eps


def _odd_even_index_sets(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # 1-based variable indices j = 2..dim split by parity, as in the UF suite.
    j = np.arange(2, dim + 1)
    return j[j % 2 == 1], j[j % 2 == 0]


def mean_fn_uf1(x: np.ndarray) -> np.ndarray:
    """UF1: sine-shifted tail variables, front f2 = 1 - sqrt(f1)."""
    x = np.asarray(x, dtype=float)
    dim = x.size
    if dim < 3:
        raise EvaluationError("UF1 needs at least 3 decision variables")
    j_odd, j_even = _odd_even_index_sets(dim)
    shift = np.sin(6.0 * np.pi * x[0] + np.arange(2, dim + 1) * np.pi / dim)
    dev = (x[1:] - shift) ** 2
    f1 = x[0] + 2.0 / j_odd.size * dev[j_odd - 2].sum()
    f2 = 1.0 - np.sqrt(x[0]) + 2.0 / j_even.size * dev[j_even - 2].sum()
    return np.array([f1, f2])


def mean_fn_uf2(x: np.ndarray) -> np.ndarray:
    """UF2: cosine/sine-modulated tail deviations, front f2 = 1 - sqrt(f1)."""
    x = np.asarray(x, dtype=float)
    dim = x.size
    if dim < 3:
        raise EvaluationError("UF2 needs at least 3 decision variables")
    j_odd, j_even = _odd_even_index_sets(dim)
    j = np.arange(2, dim + 1)
    envelope = 0.3 * x[0] ** 2 * np.cos(24.0 * np.pi * x[0] + 4.0 * j * np.pi / dim) + 0.6 * x[0]
    phase = 6.0 * np.pi * x[0] + j * np.pi / dim
    y = np.where(j % 2 == 1, x[1:] - envelope * np.cos(phase), x[1:] - envelope * np.sin(phase))
    f1 = x[0] + 2.0 / j_odd.size * (y[j_odd - 2] ** 2).sum()
    f2 = 1.0 - np.sqrt(x[0]) + 2.0 / j_even.size * (y[j_even - 2] ** 2).sum()
    return np.array([f1, f2])


def mean_fn_uf3(x: np.ndarray) -> np.ndarray:
    """UF3: power-curve tail with a multiplicative cosine term, front f2 = 1 - sqrt(f1)."""
    x = np.asarray(x, dtype=float)
    dim = x.size
    if dim < 3:
        raise EvaluationError("UF3 needs at least 3 decision variables")
    j_odd, j_even = _odd_even_index_sets(dim)
    j = np.arange(2, dim + 1)
    y = x[1:] - x[0] ** (0.5 * (1.0 + 3.0 * (j - 2.0) / (dim - 2.0)))
    cos_term = np.cos(20.0 * y * np.pi / np.sqrt(j))
    odd = y[j_odd - 2]
    even = y[j_even - 2]
    f1 = x[0] + 2.0 / j_odd.size * (4.0 * (odd ** 2).sum() - 2.0 * cos_term[j_odd - 2].prod() + 2.0)
    f2 = (1.0 - np.sqrt(x[0])
          + 2.0 / j_even.size * (4.0 * (even ** 2).sum() - 2.0 * cos_term[j_even - 2].prod() + 2.0))
    return np.array([f1, f2])


def sample_true_pf(problem: NoisyProblem, n: int) -> np.ndarray:
    """n points evenly spaced in f1 along the analytic front f2 = 1 - sqrt(f1)."""
    if n < 2:
        raise EvaluationError("need at least 2 Pareto front samples")
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
    key = name.lower()
    if key not in _MEAN_FNS:
        raise EvaluationError(f"unknown problem {name!r}; choose from {sorted(_MEAN_FNS)}")
    if dim < 3:
        raise EvaluationError("UF problems need dim >= 3")
    lower, upper = _uf_bounds(key, dim)
    return NoisyProblem(name=key, dim=dim, lower=lower, upper=upper,
                        mean_fn=_MEAN_FNS[key], noise=noise or NoiseLaw())
