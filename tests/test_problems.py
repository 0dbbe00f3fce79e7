import math

import numpy as np
import pytest

from noisymoo.pareto import N_OBJECTIVES, EvaluationError
from noisymoo.problems import (_MEAN_FNS, NoiseLaw, _index_sets, evaluate_noisy, make_problem,
                               mean_fn_uf1, mean_fn_uf2, mean_fn_uf3,
                               sample_true_pf, true_mean)

from .oracles import brute_dominates


# Independent transcription of the three test functions, scalar loops only,
# kept deliberately separate from the vectorized library versions.

def oracle_uf1(x):
    n = len(x)
    s1, s2, c1, c2 = 0.0, 0.0, 0, 0
    for j in range(2, n + 1):
        d = x[j - 1] - math.sin(6 * math.pi * x[0] + j * math.pi / n)
        if j % 2 == 1:
            s1 += d * d
            c1 += 1
        else:
            s2 += d * d
            c2 += 1
    return [x[0] + 2 * s1 / c1, 1 - math.sqrt(x[0]) + 2 * s2 / c2]


def oracle_uf2(x):
    n = len(x)
    s1, s2, c1, c2 = 0.0, 0.0, 0, 0
    for j in range(2, n + 1):
        body = 0.3 * x[0] ** 2 * math.cos(24 * math.pi * x[0] + 4 * j * math.pi / n) + 0.6 * x[0]
        if j % 2 == 1:
            d = x[j - 1] - body * math.cos(6 * math.pi * x[0] + j * math.pi / n)
            s1 += d * d
            c1 += 1
        else:
            d = x[j - 1] - body * math.sin(6 * math.pi * x[0] + j * math.pi / n)
            s2 += d * d
            c2 += 1
    return [x[0] + 2 * s1 / c1, 1 - math.sqrt(x[0]) + 2 * s2 / c2]


def oracle_uf3(x):
    n = len(x)
    s1, s2, p1, p2, c1, c2 = 0.0, 0.0, 1.0, 1.0, 0, 0
    for j in range(2, n + 1):
        y = x[j - 1] - x[0] ** (0.5 * (1.0 + 3.0 * (j - 2.0) / (n - 2.0)))
        cos = math.cos(20.0 * y * math.pi / math.sqrt(j))
        if j % 2 == 1:
            s1 += y * y
            p1 *= cos
            c1 += 1
        else:
            s2 += y * y
            p2 *= cos
            c2 += 1
    f1 = x[0] + 2.0 / c1 * (4 * s1 - 2 * p1 + 2)
    f2 = 1 - math.sqrt(x[0]) + 2.0 / c2 * (4 * s2 - 2 * p2 + 2)
    return [f1, f2]


def manifold_point(name, x1, dim=10):
    """A decision vector on the problem's documented optimal manifold."""
    x = np.zeros(dim)
    x[0] = x1
    j = np.arange(2, dim + 1)
    if name == "uf1":
        x[1:] = np.sin(6 * np.pi * x1 + j * np.pi / dim)
    elif name == "uf2":
        body = 0.3 * x1 ** 2 * np.cos(24 * np.pi * x1 + 4 * j * np.pi / dim) + 0.6 * x1
        x[1:] = np.where(j % 2 == 1,
                         body * np.cos(6 * np.pi * x1 + j * np.pi / dim),
                         body * np.sin(6 * np.pi * x1 + j * np.pi / dim))
    else:
        x[1:] = x1 ** (0.5 * (1.0 + 3.0 * (j - 2.0) / (dim - 2.0)))
    return x


MEAN_FNS = {"uf1": (mean_fn_uf1, oracle_uf1),
            "uf2": (mean_fn_uf2, oracle_uf2),
            "uf3": (mean_fn_uf3, oracle_uf3)}


class TestMeanFunctions:
    @pytest.mark.parametrize("name", sorted(MEAN_FNS))
    @pytest.mark.parametrize("x1,expected", [(0.25, (0.25, 0.5)), (0.0, (0.0, 1.0)),
                                             (1.0, (1.0, 0.0))])
    def test_optimal_manifold_values(self, name, x1, expected):
        fn = MEAN_FNS[name][0]
        y = fn(manifold_point(name, x1))
        assert y == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(MEAN_FNS))
    def test_matches_independent_transcription(self, name):
        fn, oracle = MEAN_FNS[name]
        problem = make_problem(name)
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = problem.random_decision(rng)
            assert fn(x) == pytest.approx(oracle(list(x)), abs=1e-12)

    @pytest.mark.parametrize("name", sorted(_MEAN_FNS))
    def test_every_registered_problem_has_the_stated_objective_count(self, name):
        problem = make_problem(name, noise=NoiseLaw(kind="gaussian", sigma=0.5))
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = problem.random_decision(rng)
            assert np.shape(problem.mean_fn(x)) == (N_OBJECTIVES,)
            assert evaluate_noisy(problem, true_mean(problem, x), rng).shape == (N_OBJECTIVES,)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(EvaluationError):
            mean_fn_uf1(np.array([0.5, 0.5]))


class TestNoiseLaw:
    def test_no_noise_is_exact_mean(self):
        problem = make_problem("uf1")
        rng = np.random.default_rng(0)
        x = problem.random_decision(rng)
        assert np.array_equal(evaluate_noisy(problem, true_mean(problem, x), rng),
                              problem.mean_fn(x))

    def test_gaussian_monte_carlo_mean(self):
        # CLT bound 3 * sigma / sqrt(n): 0.003 for the 10^4-call loop through
        # evaluate_noisy, 0.0003 for the 10^6 batched law draws.
        problem = make_problem("uf1", noise=NoiseLaw(kind="gaussian", sigma=0.1))
        rng = np.random.default_rng(1)
        x = manifold_point("uf1", 0.25)
        mean = true_mean(problem, x)
        calls = np.array([evaluate_noisy(problem, mean, rng) for _ in range(10 ** 4)])
        assert np.all(np.abs(calls.mean(axis=0) - problem.mean_fn(x)) < 0.003)
        eps = problem.noise.standardized(rng, 10 ** 6)
        assert abs(0.1 * eps.mean()) < 0.001

    @pytest.mark.parametrize("law", [NoiseLaw(kind="gaussian", sigma=1.0),
                                     NoiseLaw(kind="chisq", sigma=1.0, df=1),
                                     NoiseLaw(kind="chisq", sigma=1.0, df=2)])
    def test_standardization(self, law):
        rng = np.random.default_rng(7)
        eps = law.standardized(rng, 10 ** 6)
        assert abs(eps.mean()) < 0.005
        assert abs(eps.var() - 1.0) < 0.02

    @pytest.mark.parametrize("df", [1, 2])
    def test_chisq_lower_bound(self, df):
        law = NoiseLaw(kind="chisq", sigma=1.0, df=df)
        rng = np.random.default_rng(8)
        eps = law.standardized(rng, 10 ** 6)
        assert eps.min() >= -np.sqrt(df / 2.0)
        assert eps.min() == pytest.approx(-np.sqrt(df / 2.0), abs=0.01)

    def test_chisq_skewness(self):
        law = NoiseLaw(kind="chisq", sigma=1.0, df=1)
        rng = np.random.default_rng(9)
        eps = law.standardized(rng, 10 ** 6)
        skew = np.mean(((eps - eps.mean()) / eps.std()) ** 3)
        assert skew == pytest.approx(np.sqrt(8.0), abs=0.1)

    def test_seeded_reproducibility(self):
        problem = make_problem("uf2", noise=NoiseLaw(kind="gaussian", sigma=0.5))
        x = manifold_point("uf2", 0.5)
        a = evaluate_noisy(problem, true_mean(problem, x), np.random.default_rng(123))
        b = evaluate_noisy(problem, true_mean(problem, x), np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_out_of_bounds_rejected(self):
        # The bounds check lives in true_mean, which Evaluator.spawn calls;
        # tests/test_optimizers.py checks that a refused spawn charges nothing.
        problem = make_problem("uf1")
        x = np.full(10, 2.0)
        with pytest.raises(EvaluationError):
            true_mean(problem, x)

    def test_unknown_kind_rejected(self):
        with pytest.raises(EvaluationError):
            NoiseLaw(kind="cauchy", sigma=1.0)


class TestCachedMean:
    """A point's true mean is computed once and reused for every sample."""

    @pytest.mark.parametrize("name", sorted(MEAN_FNS))
    @pytest.mark.parametrize("law", [NoiseLaw(kind="none"),
                                     NoiseLaw(kind="gaussian", sigma=0.5),
                                     NoiseLaw(kind="chisq", sigma=1.0, df=1)])
    def test_sample_is_mean_plus_scaled_draw(self, name, law):
        # Same bits as mean_fn(x) + sigma * standardized(...), and the same
        # generator state afterwards, sample after sample.
        problem = make_problem(name, noise=law)
        rng = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        for _ in range(20):
            x = problem.random_decision(rng)
            problem.random_decision(twin)
            mean = true_mean(problem, x)
            assert np.array_equal(mean, problem.mean_fn(x))
            for _ in range(3):
                got = evaluate_noisy(problem, mean, rng)
                want = problem.mean_fn(x) + law.sigma * law.standardized(twin, 2)
                assert np.array_equal(got, want)
                assert rng.bit_generator.state == twin.bit_generator.state

    def test_true_mean_is_read_only_and_leaves_decision_writable(self):
        problem = make_problem("uf1")
        x = problem.random_decision(np.random.default_rng(0))
        mean = true_mean(problem, x)
        with pytest.raises(ValueError):
            mean[0] = 0.0
        x[0] = 0.5  # the decision itself is not frozen

    @pytest.mark.parametrize("dim", [3, 10, 30])
    def test_index_sets_cached_and_read_only(self, dim):
        j, j_phase, i_odd, i_even = _index_sets(dim)
        assert _index_sets(dim)[0] is j
        assert np.array_equal(j, np.arange(2, dim + 1))
        assert np.array_equal(j_phase, np.arange(2, dim + 1) * np.pi / dim)
        assert np.array_equal(i_odd + 2, j[j % 2 == 1])
        assert np.array_equal(i_even + 2, j[j % 2 == 0])
        for a in (j, j_phase, i_odd, i_even):
            with pytest.raises(ValueError):
                a[0] = 0


class TestTruePfSample:
    def test_endpoints(self):
        pf = sample_true_pf(2)
        assert pf == pytest.approx(np.array([[0, 1], [1, 0]]))

    def test_even_spacing_midpoint(self):
        pf = sample_true_pf(3)
        assert pf[1] == pytest.approx([0.5, 1 - np.sqrt(0.5)])

    def test_mutually_indifferent(self):
        pf = sample_true_pf(25)
        for i in range(len(pf)):
            for j in range(len(pf)):
                if i != j:
                    assert not brute_dominates(pf[i], pf[j])
