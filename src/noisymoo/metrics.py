"""Quality assessment of returned point sets.

Scoring reads the *true* mean each returned point kept at spawn, drops the
points whose true means are dominated within the returned set, and scores
what survives: dominated hypervolume against a nadir point (normalized by
the true front's hypervolume) and the power-mean inverted generational
distance against a dense front sample. Scoring real quality instead of
noise luck is the whole point of the filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pareto import N_OBJECTIVES, EvaluatedPoint, EvaluationError, front_ranks, require_at_least
from .problems import sample_true_pf


@dataclass(frozen=True)
class MetricParams:
    nadir_delta: float = 0.1
    n_pf: int = 1000
    igd_power: float = 2.0

    def __post_init__(self) -> None:
        # The bounds scoring needs, and a nadir that is not degenerate, checked when built.
        require_at_least(self, 0, "nadir_delta", what="metrics ")
        require_at_least(self, 2, "n_pf", what="metrics ")
        require_at_least(self, 1, "igd_power", what="metrics ")
        reference(self)


@dataclass(frozen=True)
class MetricReport:
    hv_raw: float
    hv_normalized: float
    igd: float
    igd_power: float
    nadir: list
    pf_sample_size: int
    n_returned: int
    n_filtered: int


def true_nondominated_filter(returned: list[EvaluatedPoint]
                             ) -> tuple[list[EvaluatedPoint], np.ndarray]:
    """The points whose kept ``true_mean`` is not strictly dominated within
    the set, that is of Pareto rank 1, and those true means."""
    if not returned:
        return [], np.empty((0, 0))
    if any(p.true_mean is None for p in returned):
        raise EvaluationError("scoring reads each point's true_mean, which Evaluator.spawn keeps")
    mus = np.array([p.true_mean for p in returned])
    kept = front_ranks(mus) == 1
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
    if pts.shape[1] != N_OBJECTIVES:
        raise EvaluationError(f"hypervolume needs {N_OBJECTIVES} objectives, got {pts.shape[1]}")
    nadir = np.asarray(nadir, dtype=float)
    pts = pts[np.all(pts < nadir, axis=1)]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    hv = 0.0
    ceiling = nadir[1]
    for a, b in pts[order]:
        if b < ceiling:
            hv += (nadir[0] - a) * (ceiling - b)
            ceiling = b
    return float(hv)


@lru_cache(maxsize=None)
def reference(params: MetricParams) -> tuple[np.ndarray, np.ndarray, float]:
    """(front sample, nadir: 1 + ``nadir_delta`` times its maxima, its hypervolume),
    built once per setting and shared, hence read-only; raises if the nadir is
    degenerate (the hypervolume is zero)."""
    pf = sample_true_pf(params.n_pf)
    nadir = (1.0 + params.nadir_delta) * pf.max(axis=0)
    hv_true = hypervolume(pf, nadir)
    if hv_true <= 0.0:
        raise EvaluationError("true-front hypervolume is zero; nadir is degenerate")
    pf.flags.writeable = nadir.flags.writeable = False
    return pf, nadir, hv_true


def report_inputs(params: MetricParams) -> dict:
    """The metric inputs a :class:`MetricReport` holds, as a record stores them."""
    return {"igd_power": params.igd_power, "pf_sample_size": params.n_pf,
            "nadir": reference(params)[1].tolist()}


def igd_p(points: np.ndarray, pf: np.ndarray, power: float = 2.0) -> float:
    """Power mean of distances from front samples to their nearest set member;
    ``power`` is at least 1, as :class:`MetricParams` requires."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.atleast_2d(np.asarray(pf, dtype=float))
    if pts.size == 0 or ref.size == 0:
        raise EvaluationError("igd needs a nonempty set and a nonempty front sample")
    dists = np.sqrt(((ref[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    return float(np.mean(dists ** power) ** (1.0 / power))


def score_final_set(returned: list[EvaluatedPoint],
                    params: MetricParams = MetricParams()) -> MetricReport:
    """Apply the true-mean filter and compute the full metric report."""
    filtered, true_means = true_nondominated_filter(returned)
    pf, nadir, denom = reference(params)
    if filtered:
        hv_raw = hypervolume(true_means, nadir)
        igd = igd_p(true_means, pf, params.igd_power)
    else:
        hv_raw, igd = 0.0, float("inf")
    return MetricReport(hv_raw=hv_raw, hv_normalized=hv_raw / denom, igd=igd,
                        n_returned=len(returned), n_filtered=len(filtered),
                        **report_inputs(params))
