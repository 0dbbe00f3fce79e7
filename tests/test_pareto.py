from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from noisymoo.metrics import MetricParams
from noisymoo.pareto import (EvaluatedPoint, EvaluationError, crowding_distance, from_mapping,
                             front_ranks, nondominated_sort, weak_dominance)
from noisymoo.problems import NoiseLaw
from noisymoo.resampling import StaticStrategy, TimeStrategy

from .oracles import (brute_crowding_distance, brute_dominates, brute_front_ranks,
                      brute_weak_dominance)

vec = lambda *v: np.array(v, dtype=float)


def weak_pair(a, b, strict=False):
    return bool(weak_dominance(vec(*a)[None], vec(*b)[None], strict=strict)[0, 0])


def dominates(a, b):
    return front_ranks(np.array([a, b], dtype=float)).tolist() == [1, 2]


def indifferent(*objs):
    return bool((front_ranks(np.array(objs, dtype=float)) == 1).all())


def _points(objs):
    return [EvaluatedPoint(decision=np.zeros(2), samples=[np.asarray(o, float)])
            for o in objs]


def _brute_crowding_per_front(objs, ranks):
    out = np.zeros(len(objs))
    for r in set(ranks.tolist()):
        idx = np.flatnonzero(ranks == r)
        out[idx] = brute_crowding_distance(objs[idx])
    return out


finite_objs = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 50), st.integers(2, 3)),
    elements=st.floats(-10, 10, allow_nan=False),
)


class TestRelations:
    def test_weak_dominance(self):
        assert weak_pair((1, 2), (1, 2))
        assert weak_pair((0, 0), (1, 1))
        assert not weak_pair((0, 2), (1, 1))
        # strict means < in every objective, which is not Pareto dominance
        assert weak_pair((0, 0), (1, 1), strict=True)
        assert not weak_pair((1, 2), (1, 2), strict=True)
        assert not weak_pair((0, 2), (1, 2), strict=True)

    def test_strict_dominance(self):
        assert not dominates((1, 2), (1, 2))
        assert dominates((0, 2), (1, 2))
        assert not dominates((1, 1), (0, 0))

    def test_indifference(self):
        assert indifferent((1, 2), (1, 2))
        assert indifferent((0, 2), (1, 1))
        assert not indifferent((0, 0), (1, 1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            weak_dominance(vec(1, 2)[None], vec(1, 2, 3)[None])

    @given(finite_objs)
    def test_strict_implies_weak(self, objs):
        weak = weak_dominance(objs, objs)
        for i, j in np.argwhere(~weak):
            assert not brute_dominates(objs[i], objs[j])
        for i, j in np.argwhere(weak & weak.T):
            assert np.array_equal(objs[i], objs[j])

    @pytest.mark.parametrize("n_obj", [2, 3])
    def test_kernel_matches_bruteforce_on_non_square_shapes(self, n_obj):
        # Values on a 0.5 grid make ties on single objectives common.
        rng = np.random.default_rng(10 + n_obj)
        for n_a, n_b in ((1, 9), (9, 1), (1, 2), (4, 17), (17, 4)):
            a = rng.integers(0, 5, size=(n_a, n_obj)) * 0.5
            b = rng.integers(0, 5, size=(n_b, n_obj)) * 0.5
            for strict in (False, True):
                assert np.array_equal(weak_dominance(a, b, strict=strict),
                                      brute_weak_dominance(a, b, strict))


class TestSorting:
    def test_small_example(self):
        pop = nondominated_sort(_points([(0, 1), (1, 0), (2, 2)]))
        assert list(pop.rank) == [1, 1, 2]

    def test_identical_means_all_rank_one(self):
        pop = nondominated_sort(_points([(1, 1)] * 4))
        assert list(pop.rank) == [1, 1, 1, 1]

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            nondominated_sort([])

    def test_matches_bruteforce_on_random_points(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            objs = rng.uniform(0, 1, size=(30, 2))
            pop = nondominated_sort(_points(objs))
            assert np.array_equal(pop.rank, brute_front_ranks(objs))

    @pytest.mark.parametrize("n_obj", [2, 3])
    def test_ranks_match_bruteforce_with_ties(self, n_obj):
        # Values from {0, 1, 2, 3} make ties on single objectives and
        # duplicate points common. Ranking refuses any objective count but two.
        rng = np.random.default_rng(n_obj)
        for n in (1, 2, 7, 25, 60):
            objs = rng.integers(0, 4, size=(n, n_obj)).astype(float)
            if n_obj == 2:
                assert np.array_equal(front_ranks(objs), brute_front_ranks(objs))
            else:
                with pytest.raises(EvaluationError, match="ranking needs 2 objectives, got 3"):
                    front_ranks(objs)

    @given(finite_objs)
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce_property(self, objs):
        # Three objectives are refused; their crowding is checked on the oracle's ranks.
        ranks = brute_front_ranks(objs)
        if objs.shape[1] == 2:
            pop = nondominated_sort(_points(objs))
            assert np.array_equal(pop.rank, ranks)
            crowding = pop.crowding
        else:
            with pytest.raises(EvaluationError):
                nondominated_sort(_points(objs))
            crowding = crowding_distance(objs, ranks)
        assert crowding.tobytes() == _brute_crowding_per_front(objs, ranks).tobytes()

    @pytest.mark.parametrize("objs, ranks", [
        ([(0, 1), (1, 1)], [1, 2]),  # equal f2, smaller f1 dominates
        ([(1, 1), (0, 1)], [2, 1]),
        ([(1, 0), (1, 1)], [1, 2]),  # equal f1, smaller f2 dominates
        ([(1, 1), (1, 0)], [2, 1]),
        ([(0, 0), (1, 1), (2, 2), (1, 1)], [1, 2, 3, 2]),  # a duplicate keeps its rank
        ([(0.0, 1), (-0.0, 1), (1, -0.0), (1, 0.0)], [1, 1, 1, 1]),  # signed zeros tie
        ([(-0.0, 2), (0.0, 1)], [2, 1]),
        ([(3, 4)], [1]),
    ])
    def test_two_objective_edge_cases(self, objs, ranks):
        objs = np.array(objs, dtype=float)
        assert front_ranks(objs).tolist() == ranks
        assert np.array_equal(front_ranks(objs), brute_front_ranks(objs))

    def test_two_objective_ranks_match_bruteforce_with_duplicates(self):
        # Half-step grids with random signs make ties, signed zeros and
        # exact duplicates (appended copies of existing rows) common.
        rng = np.random.default_rng(2003)
        for _ in range(3000):
            n = int(rng.integers(1, 11))
            objs = rng.integers(0, 4, size=(n, 2)) * 0.5
            objs = np.where(rng.random((n, 2)) < 0.3, -objs, objs)
            objs = np.vstack([objs, objs[rng.integers(0, n, size=int(rng.integers(0, 4)))]])
            assert np.array_equal(front_ranks(objs), brute_front_ranks(objs))

    @pytest.mark.parametrize("n_obj", [2, 3])
    def test_crowding_of_every_front_matches_bruteforce(self, n_obj):
        # Small integer grids give several fronts, single-member fronts and
        # duplicates; one objective is constant in every other set. Three
        # objectives cannot be sorted, so they are crowded on the oracle's ranks.
        rng = np.random.default_rng(20 + n_obj)
        for case in range(300):
            n = int(rng.integers(1, 30))
            objs = rng.integers(0, 5, size=(n, n_obj)).astype(float)
            objs = np.vstack([objs, objs[rng.integers(0, n, size=int(rng.integers(0, 4)))]])
            if case % 2:
                objs[:, case % n_obj] = 1.5
            ranks = brute_front_ranks(objs)
            if n_obj == 2:
                pop = nondominated_sort(_points(objs))
                assert np.array_equal(pop.rank, ranks)
                crowding = pop.crowding
            else:
                crowding = crowding_distance(objs, ranks)
            assert crowding.tobytes() == _brute_crowding_per_front(objs, ranks).tobytes()

    def test_rank_one_closed_under_true_mean_filter(self):
        # With zero noise the sample means are the true means, so the
        # metrics-level filter keeps the whole first front.
        from noisymoo.metrics import true_nondominated_filter
        from noisymoo.problems import make_problem, true_mean

        problem = make_problem("uf1")
        rng = np.random.default_rng(3)
        pts = []
        for _ in range(30):
            x = problem.random_decision(rng)
            mu = true_mean(problem, x)
            pts.append(EvaluatedPoint(decision=x, samples=[mu], true_mean=mu))
        front = nondominated_sort(pts).first_front()
        assert true_nondominated_filter(front)[0] == front


class TestCrowding:
    def test_single_point_is_boundary(self):
        assert np.isinf(crowding_distance([vec(1, 2)])).all()

    def test_hand_computed_interior(self):
        dist = crowding_distance([vec(0, 1), vec(0.5, 0.5), vec(1, 0)])
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert dist[1] == pytest.approx(2.0)

    def test_interior_invariant_under_permutation(self):
        front = [vec(0, 1), vec(0, 1), vec(0.5, 0.5), vec(1, 0), vec(1, 0)]
        base = crowding_distance(front)
        perm = [front[i] for i in (4, 2, 0, 1, 3)]
        permuted = crowding_distance(perm)
        finite = sorted(d for d in base if np.isfinite(d))
        finite_perm = sorted(d for d in permuted if np.isfinite(d))
        assert finite == pytest.approx(finite_perm)

    def test_zero_range_objective_contributes_nothing(self):
        dist = crowding_distance([vec(0, 1), vec(0.5, 1), vec(1, 1)])
        assert dist[1] == pytest.approx(1.0)


class TestEvaluatedPoint:
    def test_mean_tracks_samples(self):
        pt = EvaluatedPoint(decision=vec(0, 0), samples=[vec(0, 0)])
        pt.add_sample(vec(2, 2))
        assert pt.count == 2
        assert np.allclose(pt.mean, [1, 1], atol=1e-12)

    def test_scaled_residuals(self):
        pt = EvaluatedPoint(decision=vec(0, 0), samples=[vec(0, 0), vec(2, 2)])
        res = pt.scaled_residuals()
        assert np.allclose(sorted(res[:, 0]), [-np.sqrt(2), np.sqrt(2)])

    def test_scaled_residuals_cached_until_next_sample(self):
        pt = EvaluatedPoint(decision=vec(0, 0), samples=[vec(0, 0), vec(2, 2)])
        first = pt.scaled_residuals()
        assert pt.scaled_residuals() is first
        with pytest.raises(ValueError):
            first[0, 0] = 5.0
        pt.add_sample(vec(4, 1))
        fresh = pt.scaled_residuals()
        expected = np.sqrt(3 / 2) * (np.array([[0, 0], [2, 2], [4, 1]]) - pt.mean)
        assert fresh.shape == (3, 2)
        assert np.array_equal(fresh, expected)
        assert np.array_equal(first, np.sqrt(2) * np.array([[-1.0, -1.0], [1.0, 1.0]]))

    def test_residuals_need_two_samples(self):
        pt = EvaluatedPoint(decision=vec(0, 0), samples=[vec(0, 0)])
        with pytest.raises(EvaluationError):
            pt.scaled_residuals()

    @pytest.mark.parametrize("t", [2, 3])
    def test_running_mean_is_bit_equal_to_np_mean(self, t):
        # The running sum adds samples in arrival order, which is the order
        # numpy reduces axis 0 in for T >= 2; the means agree exactly at
        # every count, across scales, whether samples are added one by one
        # or passed to the constructor.
        rng = np.random.default_rng(40 + t)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(10):
                n = int(rng.integers(1, 301))
                centre = rng.uniform(-5, 5, t)
                samples = list(scale * (centre + rng.standard_normal((n, t))))
                pt = EvaluatedPoint(decision=vec(0, 0))
                for k, y in enumerate(samples, 1):
                    pt.add_sample(y)
                    assert np.array_equal(pt.mean, np.mean(samples[:k], axis=0))
                built = EvaluatedPoint(decision=vec(0, 0), samples=samples)
                assert np.array_equal(built.mean, np.mean(samples, axis=0))

    @given(hnp.arrays(dtype=float, shape=st.tuples(st.integers(1, 20), st.just(2)),
                      elements=st.floats(-100, 100, allow_nan=False)))
    def test_mean_within_tolerance(self, samples):
        pt = EvaluatedPoint(decision=vec(0, 0), samples=list(samples))
        assert np.allclose(pt.mean, samples.mean(axis=0), atol=1e-12)


# A bound ``require_at_least`` checks must refuse NaN, which no comparison holds for.
@pytest.mark.parametrize("cls, kwargs", [
    (MetricParams, {"igd_power": float("nan")}),
    (MetricParams, {"nadir_delta": float("nan")}),
    (MetricParams, {"n_pf": float("nan")}),
    (StaticStrategy, {"n": float("nan")}),
    (TimeStrategy, {"n_max": float("nan")}),
    (NoiseLaw, {"kind": "gaussian", "sigma": float("nan")}),
], ids=["igd_power", "nadir_delta", "n_pf", "static_n", "time_n_max", "sigma"])
def test_bounded_fields_refuse_nan(cls, kwargs):
    name = list(kwargs)[-1]
    with pytest.raises(EvaluationError, match=f"{name} must be at least .*, got nan"):
        cls(**kwargs)


@dataclass(frozen=True)
class _Row:
    # String annotations, as under ``from __future__ import annotations``.
    count: "int"
    scale: "float"
    label: "str" = "row"


@pytest.mark.parametrize("raw, error", [
    ({"count": "1", "scale": 1.0}, "row key count must be int, got str"),
    ({"count": True, "scale": 1.0}, "row key count must be int, got bool"),
    ({"count": 1, "scale": "1"}, "row key scale must be float, got str"),
    ({"count": 1, "scale": 1.0, "label": 5}, "row key label must be str, got int"),
])
def test_from_mapping_checks_a_field_by_its_annotation(raw, error):
    with pytest.raises(EvaluationError, match=error):
        from_mapping(_Row, raw, "row key")


@dataclass(frozen=True)
class _Bag:
    items: "list"
    extra: "dict" = field(default_factory=dict)


@pytest.mark.parametrize("raw, error", [
    ({"items": "x"}, "bag key items must be list, got str"),
    ({"items": {}}, "bag key items must be list, got dict"),
    ({"items": [], "extra": [1]}, "bag key extra must be dict, got list"),
])
def test_from_mapping_checks_a_container_field_it_is_given(raw, error):
    with pytest.raises(EvaluationError, match=error):
        from_mapping(_Bag, raw, "bag key")


def test_from_mapping_keeps_the_default_of_an_absent_container():
    assert from_mapping(_Bag, {"items": [1]}, "bag key") == _Bag([1], {})


def test_from_mapping_takes_an_int_for_a_float():
    assert from_mapping(_Row, {"count": 2, "scale": 3}, "row key") == _Row(2, 3.0)
