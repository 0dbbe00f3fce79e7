"""Quality assessment of returned point sets.

The scoring pipeline evaluates the *true* mean function at each returned
decision vector, drops points whose true means are dominated within the
returned set, and scores what survives: dominated hypervolume against a
nadir point (normalized by the true front's hypervolume) and the power-mean
inverted generational distance against a dense front sample. Scoring real
quality instead of noise luck is the whole point of the filter.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .pareto import EvaluatedPoint, EvaluationError, dominance_matrix, require_at_least
from .problems import NoisyProblem, sample_true_pf


@dataclass(frozen=True)
class MetricParams:
    nadir_delta: float = 0.1
    n_pf: int = 1000
    igd_power: float = 2.0

    def __post_init__(self) -> None:
        # The bounds nadir, sample_true_pf and igd_p need, checked before any run.
        require_at_least(self, 0, "nadir_delta", what="metrics ")
        require_at_least(self, 2, "n_pf", what="metrics ")
        require_at_least(self, 1, "igd_power", what="metrics ")


@dataclass(frozen=True)
class MetricReport:
    hv_raw: float
    hv_normalized: float
    igd: float
    igd_power: float
    nadir: tuple[float, ...]
    pf_sample_size: int
    n_returned: int
    n_filtered: int

    def as_dict(self) -> dict:
        return {**asdict(self), "nadir": list(self.nadir)}


def true_nondominated_filter(returned: list[EvaluatedPoint],
                             problem: NoisyProblem) -> list[EvaluatedPoint]:
    """Keep the points whose true means are not strictly dominated within the set."""
    return _true_nondominated(returned, problem)[0]


def _true_nondominated(returned: list[EvaluatedPoint], problem: NoisyProblem
                       ) -> tuple[list[EvaluatedPoint], np.ndarray]:
    # The filter's survivors and their true means, each mean computed once.
    if not returned:
        return [], np.empty((0, 0))
    mus = np.array([problem.mean_fn(p.decision) for p in returned])
    kept = ~dominance_matrix(mus).any(axis=0)
    return [p for p, k in zip(returned, kept) if k], mus[kept]


def hypervolume(points: np.ndarray, nadir: np.ndarray) -> float:
    """Exact bi-objective dominated hypervolume against a nadir point.

    Points with any coordinate at or beyond the nadir enclose no volume and
    are dropped. The sweep sums rectangle slabs of the remaining points in
    ascending first-objective order, which makes dominated points contribute
    nothing, so the result equals the hypervolume of the non-dominated
    subset.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0.0
    pts = np.atleast_2d(pts)
    if pts.shape[1] != 2:
        raise EvaluationError("hypervolume sweep is implemented for exactly 2 objectives")
    nadir = np.asarray(nadir, dtype=float)
    pts = pts[np.all(pts < nadir, axis=1)]
    if pts.size == 0:
        return 0.0
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    hv = 0.0
    ceiling = nadir[1]
    for a, b in pts[order]:
        if b < ceiling:
            hv += (nadir[0] - a) * (ceiling - b)
            ceiling = b
    return float(hv)


def _nadir(pf: np.ndarray, params: MetricParams) -> np.ndarray:
    """The nadir: (1 + delta) times the objective maxima over the true front."""
    return (1.0 + params.nadir_delta) * pf.max(axis=0)


def _true_front_hypervolume(pf: np.ndarray, nadir: np.ndarray) -> float:
    """Hypervolume of the true front sample; zero means the nadir is degenerate."""
    denom = hypervolume(pf, nadir)
    if denom <= 0.0:
        raise EvaluationError("true-front hypervolume is zero; nadir is degenerate")
    return denom


def igd_p(points: np.ndarray, pf: np.ndarray, power: float = 2.0) -> float:
    """Power mean of distances from front samples to their nearest set member."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.atleast_2d(np.asarray(pf, dtype=float))
    if pts.size == 0 or ref.size == 0:
        raise EvaluationError("igd needs a nonempty set and a nonempty front sample")
    if power < 1.0:
        raise EvaluationError("igd power must be at least 1")
    dists = np.sqrt(((ref[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    return float(np.mean(dists ** power) ** (1.0 / power))


def score_final_set(returned: list[EvaluatedPoint], problem: NoisyProblem,
                    params: MetricParams = MetricParams()) -> MetricReport:
    """Apply the true-mean filter and compute the full metric report."""
    filtered, true_means = _true_nondominated(returned, problem)
    pf = sample_true_pf(params.n_pf)
    nadir = _nadir(pf, params)
    denom = _true_front_hypervolume(pf, nadir)
    if filtered:
        hv_raw = hypervolume(true_means, nadir)
        igd = igd_p(true_means, pf, params.igd_power)
    else:
        hv_raw = 0.0
        igd = float("inf")
    return MetricReport(hv_raw=hv_raw, hv_normalized=hv_raw / denom, igd=igd,
                        igd_power=params.igd_power, nadir=tuple(float(v) for v in nadir),
                        pf_sample_size=params.n_pf, n_returned=len(returned),
                        n_filtered=len(filtered))
