import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisymoo.metrics import (MetricParams, hypervolume, igd_p, reference, report_inputs,
                              score_final_set, true_nondominated_filter)
from noisymoo.pareto import EvaluatedPoint, EvaluationError
from noisymoo.problems import make_problem, sample_true_pf

from .oracles import brute_nondominated, monte_carlo_hypervolume

vec = lambda *v: np.array(v, dtype=float)
NADIR = vec(1, 1)


def on_front(problem, f1_values):
    # Decision vectors on UF1's optimal manifold have exact true means on
    # the front; off-manifold ones are dominated.
    pts = []
    for f1 in f1_values:
        x = np.zeros(problem.dim)
        x[0] = f1
        j = np.arange(2, problem.dim + 1)
        x[1:] = np.sin(6 * np.pi * f1 + j * np.pi / problem.dim)
        pts.append(EvaluatedPoint(decision=x, samples=[vec(99, 99)]))
    return pts


class TestTrueMeanFilter:
    def test_front_points_all_kept(self):
        problem = make_problem("uf1")
        returned = on_front(problem, [0.0, 0.25, 1.0])
        assert true_nondominated_filter(returned, problem)[0] == returned

    def test_dominated_point_removed(self):
        problem = make_problem("uf1")
        good = on_front(problem, [0.25])[0]
        bad_x = good.decision.copy()
        bad_x[1] = min(bad_x[1] + 0.5, 1.0)  # off the manifold: dominated
        bad = EvaluatedPoint(decision=bad_x, samples=[vec(0, 0)])
        kept = true_nondominated_filter([good, bad], problem)[0]
        assert kept == [good]

    def test_matches_bruteforce_on_random_points(self):
        problem = make_problem("uf2")
        rng = np.random.default_rng(1)
        for _ in range(20):
            returned = [EvaluatedPoint(decision=problem.random_decision(rng),
                                       samples=[vec(0, 0)]) for _ in range(20)]
            mus = np.array([problem.mean_fn(p.decision) for p in returned])
            expected = [returned[i] for i in brute_nondominated(mus)]
            assert true_nondominated_filter(returned, problem)[0] == expected


class TestHypervolume:
    def test_single_point_unit_square(self):
        assert hypervolume(vec(0, 0)[None], NADIR) == pytest.approx(1.0, abs=1e-12)

    def test_single_interior_point(self):
        assert hypervolume(vec(0.5, 0.5)[None], NADIR) == pytest.approx(0.25, abs=1e-12)

    def test_two_point_staircase(self):
        hv = hypervolume(np.array([[0.2, 0.6], [0.6, 0.2]]), NADIR)
        assert hv == pytest.approx(0.48, abs=1e-12)

    def test_empty_set_is_zero(self):
        assert hypervolume(np.empty((0, 2)), NADIR) == 0.0

    def test_points_beyond_nadir_contribute_nothing(self):
        hv = hypervolume(np.array([[0.5, 0.5], [1.5, 0.1], [0.1, 2.0]]), NADIR)
        assert hv == pytest.approx(0.25, abs=1e-12)

    def test_dominated_points_contribute_nothing(self):
        base = np.array([[0.2, 0.6], [0.6, 0.2]])
        with_dominated = np.vstack([base, [[0.7, 0.7], [0.3, 0.9]]])
        assert hypervolume(with_dominated, NADIR) == hypervolume(base, NADIR)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            k = rng.integers(1, 10)
            points = rng.uniform(0, 1, size=(k, 2))
            exact = hypervolume(points, NADIR)
            mc = monte_carlo_hypervolume(points, NADIR, 10 ** 6, rng)
            assert abs(exact - mc) <= 0.002

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_additional_points(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 1, size=(6, 2))
        hv_all = hypervolume(points, NADIR)
        hv_some = hypervolume(points[:3], NADIR)
        assert hv_all >= hv_some - 1e-12

    def test_three_objectives_rejected(self):
        with pytest.raises(EvaluationError):
            hypervolume(np.zeros((2, 3)), vec(1, 1, 1))


class TestNormalizedHypervolume:
    def test_pf_sample_scores_one(self):
        problem = make_problem("uf1")
        pf_points = on_front(problem, np.linspace(0.0, 1.0, 1000))
        report = score_final_set(pf_points, problem)
        assert report.n_filtered == 1000
        assert report.hv_normalized == pytest.approx(1.0)

    def test_empty_set_scores_zero(self):
        report = score_final_set([], make_problem("uf1"))
        assert report.hv_raw == report.hv_normalized == 0.0

    def test_degenerate_nadir_rejected(self):
        # Two front samples are the corners (0, 1) and (1, 0); without a margin
        # (1 + 1e-20 == 1.0) the nadir is their maximum and encloses nothing.
        for delta in (0.0, 1e-20):
            with pytest.raises(EvaluationError, match="nadir is degenerate"):
                MetricParams(n_pf=2, nadir_delta=delta)
        problem = make_problem("uf1")
        for n_pf, delta in ((2, 0.1), (3, 0.0)):
            report = score_final_set(on_front(problem, [0.25]), problem,
                                     MetricParams(nadir_delta=delta, n_pf=n_pf))
            assert report.hv_normalized > 0.0

    def test_nadir_construction(self):
        problem = make_problem("uf1")
        assert reference(MetricParams())[1] == pytest.approx([1.1, 1.1])
        assert score_final_set([], problem).nadir == pytest.approx((1.1, 1.1))

    @pytest.mark.parametrize("params", [MetricParams(),
                                        MetricParams(n_pf=500, nadir_delta=0.3, igd_power=1.0)],
                             ids=["default", "other"])
    def test_report_inputs_are_the_reports(self, params):
        problem = make_problem("uf1")
        for returned in ([], on_front(problem, [0.25, 0.5])):
            report = score_final_set(returned, problem, params)
            assert report_inputs(params) == {"igd_power": report.igd_power,
                                             "pf_sample_size": report.pf_sample_size,
                                             "nadir": report.nadir}
        assert report_inputs(params)["nadir"] == reference(params)[1].tolist()

    def test_reference_is_shared_read_only(self):
        pf, nadir, hv_true = reference(MetricParams())
        assert reference(MetricParams()) is reference(MetricParams())
        assert pf.shape == (1000, 2) and hv_true == hypervolume(pf, nadir)
        for shared in (pf, nadir):
            with pytest.raises(ValueError):
                shared[0] = 0.0


class TestIgd:
    def test_exact_cover_is_zero(self):
        pf = sample_true_pf(100)
        assert igd_p(pf, pf) == 0.0

    def test_hand_computed_power_one(self):
        assert igd_p(np.array([[0.0, 0.0]]), np.array([[0, 0], [1, 0]]),
                     power=1) == pytest.approx(0.5)

    def test_hand_computed_power_two(self):
        assert igd_p(np.array([[0.0, 0.0]]), np.array([[0, 0], [1, 0]]),
                     power=2) == pytest.approx(np.sqrt(0.5))

    def test_empty_inputs_rejected(self):
        with pytest.raises(EvaluationError):
            igd_p(np.empty((0, 2)), np.array([[0, 0]]))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonincreasing_when_adding_points(self, seed):
        rng = np.random.default_rng(seed)
        pf = rng.uniform(0, 1, size=(15, 2))
        small = rng.uniform(0, 1, size=(3, 2))
        bigger = np.vstack([small, rng.uniform(0, 1, size=(3, 2))])
        assert igd_p(bigger, pf) <= igd_p(small, pf) + 1e-12


class TestScoreFinalSet:
    def test_report_fields_consistent(self):
        problem = make_problem("uf1")
        rng = np.random.default_rng(3)
        returned = [EvaluatedPoint(decision=problem.random_decision(rng),
                                   samples=[vec(0, 0)]) for _ in range(10)]
        report = score_final_set(returned, problem, MetricParams())
        assert report.n_returned == 10
        assert 1 <= report.n_filtered <= 10
        assert report.hv_normalized == pytest.approx(
            report.hv_raw / hypervolume(*reference(MetricParams())[:2]))
        assert np.isfinite(report.igd)
