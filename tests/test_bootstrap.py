import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisymoo import bootstrap
from noisymoo.bootstrap import (DispersionSet, arb_decide, bootstrap_means_pooled,
                                bootstrap_means_stacked, dominance_probability)
from noisymoo.optimizers import Evaluator
from noisymoo.pareto import EvaluatedPoint, EvaluationError, nondominated_sort
from noisymoo.problems import NoiseLaw, make_problem
from noisymoo.resampling import ArbStrategy, DecisionContext

from .oracles import (brute_arb_decide, brute_bootstrap_means_pooled,
                      brute_dominance_probability)

vec = lambda *v: np.array(v, dtype=float)


def point(*samples):
    return EvaluatedPoint(decision=np.zeros(2), samples=[vec(*s) for s in samples])


def decide(candidate, front, ds, strategy, rng):
    """``arb_decide`` with the front envelopes a sweep's context keeps."""
    front_high = DecisionContext(population=None, front=front, dispersion=ds).front_high
    return arb_decide(candidate, front, ds, strategy, rng, front_high)


def own_draws(pt, n_draws, rng):
    """Mixed replicates of ``pt`` under a pool of one zero vector, so only
    the N - 1 own draws vary."""
    pool = DispersionSet()
    pool.push(np.zeros(pt.mean.size))
    return bootstrap_means_stacked([pt], pool, n_draws, rng)[0]


def pooled_evaluator(capacity=100, noise=None, budget=10):
    problem = make_problem("uf1", noise=noise)
    return Evaluator(problem, np.random.default_rng(0), budget, DispersionSet(capacity))


def reevaluated(ev, first, true_mean):
    """A point whose first sample is ``first``, re-evaluated once by ``ev``
    on a noise-free problem, so its second sample is ``true_mean``."""
    pt = EvaluatedPoint(decision=np.zeros(2), samples=[vec(*first)], true_mean=vec(*true_mean))
    ev.reevaluate(pt, 0)
    return pt


def replay_pool(log, capacity):
    """The pool an evaluation log should leave: the newest scaled residual
    of every evaluation that is not a point's first, the last ``capacity`` kept."""
    samples, pushed = {}, []
    for row in log:
        seen = samples.setdefault(row[0], [])
        seen.append(np.array(row[2]))
        n = len(seen)
        if n > 1:
            pushed.append(np.sqrt(n / (n - 1)) * (seen[-1] - np.mean(seen, axis=0)))
    return np.asarray(pushed[-capacity:]).reshape(-1, len(log[0][2]))


class TestDispersionSet:
    def test_push_residuals_scales_by_count_factor(self):
        ev = pooled_evaluator()
        reevaluated(ev, (0, 0), (2, 2))
        reevaluated(ev, (2, 2), (0, 0))
        raw = sorted(tuple(e) for e in ev.dispersion._raw)
        r2 = np.sqrt(2)
        assert raw == [(-r2, -r2), (r2, r2)]

    def test_ring_buffer_keeps_last_hundred(self):
        ds = DispersionSet()
        for i in range(60):
            ds.push(vec(i, i))
        for i in range(60, 120):
            ds.push(vec(i, i))
        assert len(ds) == 100
        assert ds._raw[0, 0] == 20

    def test_sampled_view_is_centered(self):
        ds = DispersionSet()
        for i in range(7):
            ds.push(vec(i, 2 * i + 1))
        assert np.allclose(ds.centered().mean(axis=0), 0.0, atol=1e-12)

    def test_single_observation_rejected(self):
        ev = pooled_evaluator(noise=NoiseLaw(kind="gaussian", sigma=0.5))
        pt = ev.spawn(ev.problem.random_decision(ev.rng), 0)
        assert pt.count == 1 and len(ev.dispersion) == 0

    def test_newest_residual_is_latest_sample(self):
        ev = pooled_evaluator()
        reevaluated(ev, (0, 0), (2, 2))
        assert len(ev.dispersion) == 1
        assert np.allclose(ev.dispersion._raw[0], np.sqrt(2) * (vec(2, 2) - vec(1, 1)))

    @pytest.mark.parametrize("capacity", [1, 5, 100])
    @pytest.mark.parametrize("noise", [NoiseLaw(), NoiseLaw(kind="gaussian", sigma=0.5),
                                       NoiseLaw(kind="chisq", df=1, sigma=1.0)],
                             ids=["none", "gaussian", "chisq"])
    def test_pool_replays_the_evaluation_log(self, noise, capacity):
        for seed in range(4):
            ev = pooled_evaluator(capacity, noise, budget=150)
            choice = np.random.default_rng(seed)
            points = []
            while ev.remaining > 0:
                if not points or choice.random() < 0.3:
                    points.append(ev.spawn(ev.problem.random_decision(ev.rng), 0))
                else:
                    ev.reevaluate(points[choice.integers(0, len(points))], 0)
            pool = ev.dispersion._raw
            expected = replay_pool(ev.log, capacity)
            assert pool.shape == expected.shape and pool.tobytes() == expected.tobytes()

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                    min_size=1, max_size=150))
    def test_capacity_never_exceeded(self, entries):
        ds = DispersionSet()
        for e in entries:
            ds.push(vec(*e))
        assert len(ds) <= 100
        assert np.allclose(ds.centered().mean(axis=0), 0.0, atol=1e-12)


class TestOwnSampleBootstrap:
    """The N - 1 own summands of each mixed replicate, the only own-sample
    draws the package makes."""

    def test_identical_samples_collapse_to_mean(self):
        pt = point((3, 4), (3, 4), (3, 4))
        draws = own_draws(pt, 50, np.random.default_rng(0))
        assert np.allclose(draws, [3, 4])

    def test_variance_correction_matches_unbiased_variance(self):
        # A pool of the point's own scaled residuals: ((N - 1) s^2 + s^2) / N^2.
        rng = np.random.default_rng(5)
        pt = point(*[tuple(rng.normal(size=2)) for _ in range(5)])
        pool = DispersionSet()
        for residual in pt.scaled_residuals():
            pool.push(residual)
        draws = bootstrap_means_stacked([pt], pool, 100_000, rng)[0]
        s2 = np.var(np.asarray(pt.samples), axis=0, ddof=1)
        assert np.all(np.abs(draws.var(axis=0) / (s2 / 5) - 1) < 0.05)

    def test_two_samples_give_two_distinct_means(self):
        # Rounding merges float summation-order noise; distinct multisets
        # stay far apart with these sample values.
        pt = point((0, 0), (3, 3))
        draws = own_draws(pt, 2000, np.random.default_rng(1))
        assert len({tuple(np.round(d, 9)) for d in draws}) == 2

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 6), (4, 20)])
    def test_resample_multiset_count(self, n, expected):
        # Exhaustive enumeration over index tuples; the number of distinct
        # multisets of size n - 1 from n items is C(2n - 2, n - 1).
        multisets = {tuple(sorted(t)) for t in itertools.product(range(n), repeat=n - 1)}
        assert len(multisets) == expected == math.comb(2 * n - 2, n - 1)

    def test_three_samples_give_six_distinct_means(self):
        pt = point((0, 0), (1, 1), (10, 10))
        draws = own_draws(pt, 5000, np.random.default_rng(2))
        assert len({tuple(np.round(d, 9)) for d in draws}) == 6


class TestPooledBootstrap:
    def _pool(self, entries):
        ds = DispersionSet()
        for e in entries:
            ds.push(vec(*e))
        return ds

    def test_single_observation_reduces_to_mean_plus_pool(self):
        ds = self._pool([(1, 0), (-1, 0)])
        pt = point((5, 5))
        draws = bootstrap_means_pooled(pt, ds, 4000, np.random.default_rng(3))
        values = {tuple(d) for d in draws}
        assert values == {(6.0, 5.0), (4.0, 5.0)}
        freq = np.mean([d[0] == 6.0 for d in draws])
        assert freq == pytest.approx(0.5, abs=0.05)

    def test_zero_own_dispersion_halves_pool_draw(self):
        ds = self._pool([(2, 2), (-2, -2)])
        pt = point((1, 1), (1, 1))
        draws = bootstrap_means_pooled(pt, ds, 500, np.random.default_rng(4))
        assert {tuple(d) for d in draws} == {(2.0, 2.0), (0.0, 0.0)}

    def test_variance_decomposition(self):
        rng = np.random.default_rng(6)
        ds = self._pool([tuple(rng.normal(size=2)) for _ in range(100)])
        n = 10
        pt = point(*[tuple(rng.normal(size=2)) for _ in range(n)])
        draws = bootstrap_means_pooled(pt, ds, 100_000, rng)
        s2 = np.var(np.asarray(pt.samples), axis=0, ddof=1)
        expected = (s2 * (n - 1) / n + ds.centered().var(axis=0) / n) / n
        assert np.all(np.abs(draws.var(axis=0) / expected - 1) < 0.10)

    def test_empty_pool_rejected(self):
        with pytest.raises(EvaluationError):
            bootstrap_means_pooled(point((1, 1)), DispersionSet(), 10,
                                   np.random.default_rng(0))

    def test_draw_variance_shrinks_with_count(self):
        # Monte Carlo trend: more samples of the same distribution mean a
        # tighter bootstrap cloud, checked as a majority direction.
        rng = np.random.default_rng(7)
        ds = self._pool([tuple(rng.normal(size=2)) for _ in range(100)])
        downward = 0
        for _ in range(20):
            spreads = []
            for n in (2, 5, 10, 20):
                pt = point(*[tuple(rng.normal(size=2)) for _ in range(n)])
                draws = bootstrap_means_pooled(pt, ds, 2000, rng)
                spreads.append(draws.var(axis=0).mean())
            downward += sum(b < a for a, b in zip(spreads, spreads[1:]))
        assert downward > 30  # majority of the 60 adjacent comparisons

    def test_stacked_replicates_match_per_point_calls(self):
        # One array-bound draw must reproduce successive per-point sized
        # draws: replicate bits, generator state and the draws that follow.
        # Half the plans start with a spare 32-bit half in the generator;
        # signed-zero samples give residuals of both signs of zero.
        plans = np.random.default_rng(2024)
        spare_plans = 0
        for case in range(120):
            n_obj = int(plans.integers(2, 4))
            ds = DispersionSet()
            for _ in range(int(plans.integers(1, 101))):
                ds.push(plans.normal(size=n_obj))
            points = []
            for _ in range(int(plans.integers(1, 31))):
                count = int(plans.integers(1, 31))
                samples = plans.normal(size=(count, n_obj))
                if plans.random() < 0.3:
                    samples[:, 0] = plans.choice([0.0, -0.0], size=count)
                points.append(EvaluatedPoint(decision=np.zeros(2), samples=list(samples)))
            n_draws = int(plans.choice([1, 7, 100]))
            seed = int(plans.integers(2**32))
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            if case % 2:
                rng.integers(0, 7)
                twin.integers(0, 7)
                assert rng.bit_generator.state["has_uint32"]
                spare_plans += 1
            stacked = bootstrap_means_stacked(points, ds, n_draws, rng)
            expected = np.stack([brute_bootstrap_means_pooled(pt, ds, n_draws, twin)
                                 for pt in points])
            assert stacked.shape == (len(points), n_draws, n_obj)
            assert np.array_equal(stacked.view(np.uint64), expected.view(np.uint64))
            assert rng.bit_generator.state == twin.bit_generator.state
            assert np.array_equal(rng.integers(0, 1000, size=3), twin.integers(0, 1000, size=3))
            assert rng.random() == twin.random()
        assert spare_plans == 60


def random_point(plans, centre, count, spread=1.0):
    """A point of ``count`` samples within a few ``spread`` of ``centre``,
    rounded to a grid of spread / 2 half of the time so equal values are common."""
    samples = (centre + spread * plans.uniform(-3, 3, size=centre.size)
               + spread * plans.normal(size=(count, centre.size)))
    if plans.random() < 0.5:
        samples = np.round(2 * samples / spread) * spread / 2
    return EvaluatedPoint(decision=np.zeros(2), samples=list(samples))


def random_pool(plans, n_obj, spread=1.0):
    """1 to 100 entries; every fifth pool is all zeros, as without noise."""
    ds = DispersionSet()
    zero = plans.random() < 0.2
    for _ in range(int(plans.integers(1, 101))):
        ds.push(np.zeros(n_obj) if zero else spread * plans.normal(size=n_obj))
    return ds


class TestEnvelope:
    def test_every_replicate_lies_inside_its_envelope(self):
        plans = np.random.default_rng(77)
        at_edge = 0
        for case in range(300):
            n_obj = int(plans.integers(2, 4))
            ds = random_pool(plans, n_obj)
            points = [random_point(plans, np.zeros(n_obj), int(plans.integers(1, 9)))
                      for _ in range(int(plans.integers(1, 6)))]
            draws = bootstrap_means_stacked(points, ds, int(plans.choice([1, 10, 100])),
                                            np.random.default_rng(case))
            for pt, reps in zip(points, draws):
                low, high = bootstrap.envelope(pt.mean, pt.residual_range(), pt.count,
                                               ds.column_range())
                assert (low <= reps).all() and (reps <= high).all()
                at_edge += (reps == low).any() or (reps == high).any()
        assert at_edge > 100  # the envelope is tight: replicates reach it

    def test_a_tie_closes_a_rival_and_one_ulp_below_does_not(self, monkeypatch):
        # With a zero pool every replicate is its point's mean. Under
        # alpha_u = 1, p* = 1 lies in the band and p* = 0 below it. A closed
        # rival is never counted, so a decision without open rivals counts nothing.
        ds = DispersionSet()
        ds.push(np.zeros(2))
        rival = point((1, 1))
        strategy = ArbStrategy(alpha_l=0.2, alpha_u=1.0, n_boot=5)
        below = point((float(np.nextafter(1.0, 0.0)), 0))
        assert decide(below, [rival], ds, strategy, np.random.default_rng(0)) is True
        monkeypatch.setattr(bootstrap, "decide_from_draws", None)
        assert decide(point((1, 0)), [rival], ds, strategy, np.random.default_rng(0)) is False

    def test_built_subset_matches_the_full_build(self):
        plans = np.random.default_rng(78)
        for case in range(50):
            ds = random_pool(plans, 2)
            points = [random_point(plans, np.zeros(2), int(plans.integers(1, 9)))
                      for _ in range(6)]
            build = [bool(b) for b in plans.integers(0, 2, size=6)]
            rng, twin = np.random.default_rng(case), np.random.default_rng(case)
            full = bootstrap_means_stacked(points, ds, 20, rng)
            some = bootstrap_means_stacked(points, ds, 20, twin, build)
            assert some.tobytes() == full[build].tobytes()
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_kept_front_envelopes_follow_reevaluations(self):
        ev = pooled_evaluator(capacity=20, noise=NoiseLaw(kind="gaussian", sigma=0.5),
                              budget=400)
        points = ev.spawn_random(30)
        for pt in points[::3]:
            ev.reevaluate(pt, 0)
        ranked = nondominated_sort(points)
        ctx = DecisionContext(population=ranked, front=ranked.first_front(),
                              dispersion=ev.dispersion)
        choice = np.random.default_rng(5)
        for step in range(200):
            ctx.front_high()
            i = int(choice.integers(0, len(points)))
            if step % 4:
                ev.reevaluate(ranked.members[i], 1)
            else:  # a sample that leaves the pool as it is
                ranked.members[i].add_sample(choice.normal(size=2))
            ctx.reevaluated(i)
            fresh = np.array([bootstrap.envelope(f.mean, f.residual_range(), f.count,
                                                 ev.dispersion.column_range())[1]
                              for f in ctx.front])
            assert ctx.front_high().tobytes() == fresh.tobytes()


class TestArbAgainstBruteForce:
    def test_decision_and_stream_match_the_reference(self):
        # Points sit a few spreads apart and the pool is as wide as the spread
        # or zero, so the envelopes close off none, some or all of the rivals,
        # often a rival whose envelope only just overlaps the candidate's.
        plans = np.random.default_rng(2025)
        by_closed = {"none": 0, "some": 0, "all": 0}
        in_band = 0
        for case in range(2000):
            n_obj = int(plans.integers(2, 4))
            spread = float(plans.choice([0.01, 0.3, 1.0]))
            centre = plans.uniform(0, 3, size=n_obj)
            ds = random_pool(plans, n_obj, spread)
            front = [random_point(plans, centre, int(plans.integers(1, 6)), spread)
                     for _ in range(int(plans.integers(1, 8)))]
            candidate = (front[int(plans.integers(0, len(front)))] if plans.random() < 0.5
                         else random_point(plans, centre, int(plans.integers(1, 6)), spread))
            strategy = ArbStrategy(alpha_l=float(plans.choice([0.05, 0.2, 0.5])),
                                   alpha_u=float(plans.choice([0.6, 0.9, 1.0])),
                                   n_boot=int(plans.integers(1, 13)))
            seed = int(plans.integers(2**32))
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            decision = decide(candidate, front, ds, strategy, rng)
            assert decision is brute_arb_decide(candidate, front, ds, strategy, twin)
            assert rng.bit_generator.state == twin.bit_generator.state
            in_band += decision
            low = bootstrap.envelope(candidate.mean, candidate.residual_range(),
                                     candidate.count, ds.column_range())[0]
            shut = [any(low >= bootstrap.envelope(r.mean, r.residual_range(), r.count,
                                                  ds.column_range())[1])
                    for r in front if r is not candidate]
            if shut:
                by_closed["all" if all(shut) else "some" if any(shut) else "none"] += 1
        assert min(by_closed.values()) > 100 and in_band > 100


class TestDominanceProbability:
    def test_enumerated_example(self):
        assert dominance_probability(vec(0, 0)[None].repeat(1, 0), np.array([[1, 1]])) == 1.0
        p = dominance_probability(np.array([[0, 0], [2, 2]]), np.array([[1, 1]]))
        assert p == 0.5

    def test_identical_singletons(self):
        assert dominance_probability(np.array([[1, 1]]), np.array([[1, 1]])) == 0.0

    def test_all_below_gives_one(self):
        a = np.array([[0, 0], [0.1, 0.1]])
        b = np.array([[1, 1], [2, 2]])
        assert dominance_probability(a, b) == 1.0

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            na, nb = rng.integers(1, 51, size=2)
            t = int(rng.integers(2, 4))
            a = rng.normal(size=(na, t))
            b = rng.normal(size=(nb, t))
            assert dominance_probability(a, b) == brute_dominance_probability(a, b)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sum_bounded_by_one(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rng.integers(1, 30), 2))
        b = rng.normal(size=(rng.integers(1, 30), 2))
        assert dominance_probability(a, b) + dominance_probability(b, a) <= 1.0


class TestArbDecision:
    def _tiny_pool(self, delta=1e-6):
        ds = DispersionSet()
        ds.push(vec(delta, delta))
        ds.push(vec(-delta, -delta))
        return ds

    def test_confidently_good_stops(self):
        # Candidate sits far below the lone front rival: p* is 1.
        ds = self._tiny_pool()
        candidate = point((0, 0))
        rival = point((1, 1), (1, 1))
        assert decide(candidate, [rival], ds, ArbStrategy(alpha_l=0.1, alpha_u=0.9),
                      np.random.default_rng(0)) is False

    def test_hopeless_stops(self):
        ds = self._tiny_pool()
        candidate = point((2, 2))
        rival = point((1, 1), (1, 1))
        assert decide(candidate, [rival], ds, ArbStrategy(alpha_l=0.1, alpha_u=0.9),
                      np.random.default_rng(0)) is False

    def test_uncertain_band_continues(self):
        # Equal means with symmetric jitter put p* near 0.5.
        ds = self._tiny_pool(delta=0.5)
        candidate = point((1, 1))
        rival = point((1, 1), (1, 1))
        assert decide(candidate, [rival], ds, ArbStrategy(alpha_l=0.2, alpha_u=0.9),
                      np.random.default_rng(0)) is True

    def test_candidate_excluded_from_own_front(self):
        ds = self._tiny_pool()
        candidate = point((0, 0))
        assert decide(candidate, [candidate], ds, ArbStrategy(alpha_l=0.2, alpha_u=0.9),
                      np.random.default_rng(0)) is False

    def test_empty_front_rejected(self):
        with pytest.raises(EvaluationError):
            decide(point((0, 0)), [], self._tiny_pool(), ArbStrategy(),
                   np.random.default_rng(0))

    def test_threshold_ranges_enforced(self):
        with pytest.raises(EvaluationError):
            ArbStrategy(alpha_l=0.6, alpha_u=0.9)
        with pytest.raises(EvaluationError):
            ArbStrategy(alpha_l=0.1, alpha_u=0.4)

    def test_alpha_l_boundary_is_one_half(self):
        assert ArbStrategy(alpha_l=0.5, alpha_u=0.75).side(0.5) == 0
        with pytest.raises(EvaluationError):
            ArbStrategy(alpha_l=float(np.nextafter(0.5, 1.0)), alpha_u=0.75)

    def test_matches_pairwise_maximum(self):
        rng = np.random.default_rng(9)
        ds = DispersionSet()
        for _ in range(30):
            ds.push(rng.normal(size=2))
        candidate = point(*[tuple(rng.normal(size=2)) for _ in range(3)])
        rivals = [point(*[tuple(rng.normal(size=2)) for _ in range(k)]) for k in (1, 2, 4)]
        strategy = ArbStrategy(alpha_l=0.2, alpha_u=0.9)
        decision = decide(candidate, rivals, ds, strategy, np.random.default_rng(77))
        rng2 = np.random.default_rng(77)
        cand_draws = bootstrap_means_pooled(candidate, ds, 100, rng2)
        p_star = max(brute_dominance_probability(
            cand_draws, bootstrap_means_pooled(r, ds, 100, rng2)) for r in rivals)
        expected = not (p_star > 0.9 or p_star < 0.2)
        assert decision is expected

    @pytest.mark.parametrize("n_obj", [2, 3])
    def test_bounds_then_counts_matches_bruteforce_maximum(self, monkeypatch, n_obj):
        # The counting stage runs on fixed draws per point, rounded to a 0.5
        # grid, so single objectives tie often. Thresholds sit one ulp below,
        # at and one ulp above the brute-force p*, plus the default band.
        rng = np.random.default_rng(100 + 10 * n_obj)
        n_draws = 20
        exact_calls = []
        dominance = bootstrap.dominance_probability

        def counted(a, b):
            exact_calls.append(1)
            return dominance(a, b)

        monkeypatch.setattr(bootstrap, "dominance_probability", counted)
        bound_only = some_exact = 0
        for _ in range(25):
            n_rivals = int(rng.integers(1, 31))
            draws = [np.round(2 * rng.normal(rng.uniform(0, 2, size=n_obj), 1.0,
                                             (n_draws, n_obj))) / 2
                     for _ in range(n_rivals + 1)]
            candidate_draws, rival_draws = draws[0], np.stack(draws[1:])
            p_star = max(brute_dominance_probability(candidate_draws, r) for r in rival_draws)
            bands = [(0.2, 0.9)]
            for alpha in (np.nextafter(p_star, -1.0), p_star, np.nextafter(p_star, 2.0)):
                bands.append((alpha, 0.9) if p_star < 0.5 else (0.2, alpha))
            for alpha_l, alpha_u in bands:
                try:
                    strategy = ArbStrategy(alpha_l=float(alpha_l), alpha_u=float(alpha_u),
                                           n_boot=n_draws)
                except EvaluationError:
                    continue  # p* at 0 or 1 leaves no room on one side
                exact_calls.clear()
                decision = bootstrap.decide_from_draws(candidate_draws, rival_draws, strategy)
                assert decision is bool(alpha_l <= p_star <= alpha_u)
                assert len(exact_calls) <= n_rivals
                bound_only += len(exact_calls) < n_rivals
                some_exact += len(exact_calls) > 0
        assert bound_only and some_exact
