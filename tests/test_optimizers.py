import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisymoo import optimizers
from noisymoo.metrics import score_final_set
from noisymoo.optimizers import (Evaluator, _reseat, check_run_shape, draw_pair,
                                 environmental_select, nsga2_run, rtea_run, tournament_select,
                                 tournament_winner)
from noisymoo.pareto import (EvaluatedPoint, EvaluationError, RankedPopulation,
                             nondominated_sort)
from noisymoo.problems import NoiseLaw, make_problem
from noisymoo.resampling import (ArbStrategy, DecisionContext, RteaStrategy, SeErrorStrategy,
                                 StaticStrategy, TimeStrategy)
from noisymoo.variation import VariationConfig, make_children

from .oracles import (brute_dominates, brute_environmental_select, brute_make_children,
                      brute_pair_draw, brute_reseat)

VAR = VariationConfig()

vec = lambda *v: np.array(v, dtype=float)


def pts(objs, counts=None):
    counts = counts or [1] * len(objs)
    return [EvaluatedPoint(decision=np.zeros(2), samples=[vec(*o)] * c, uid=i)
            for i, (o, c) in enumerate(zip(objs, counts))]


class TestVariation:
    def test_children_respect_bounds(self):
        rng = np.random.default_rng(0)
        lower, upper = np.array([0.0, -1.0]), np.array([1.0, 1.0])
        for _ in range(200):
            p1 = rng.uniform(lower, upper)
            p2 = rng.uniform(lower, upper)
            c1, c2 = make_children(p1, p2, lower, upper, VAR, rng)
            for c in (c1, c2):
                assert np.all(c >= lower) and np.all(c <= upper)

    def test_sbx_preserves_gene_midpoint_distribution(self):
        rng = np.random.default_rng(1)
        lower, upper = np.zeros(1), np.ones(1)
        crossover_only = VariationConfig(sbx_prob=1.0, mutation_prob=0.0)
        mids = []
        for _ in range(2000):
            c1, c2 = make_children(vec(0.3), vec(0.7), lower, upper, crossover_only, rng)
            mids.append(0.5 * (c1[0] + c2[0]))
        assert np.mean(mids) == pytest.approx(0.5, abs=0.01)

    def test_mutation_identity_at_zero_probability(self):
        rng = np.random.default_rng(2)
        x, y = vec(0.2, 0.8), vec(0.6, 0.1)
        c1, c2 = make_children(x, y, np.zeros(2), np.ones(2),
                               VariationConfig(sbx_prob=0.0, mutation_prob=0.0), rng)
        assert np.array_equal(c1, x) and np.array_equal(c2, y)

    def test_batched_draws_match_the_per_call_loop_bit_for_bit(self):
        # Children and the whole generator state after the call, spare
        # 32-bit half included, against one rng.random() call per draw.
        cases = np.random.default_rng(15)
        spares = 0
        for case in range(20_000):
            dim = (3, 10, 30)[case % 3]
            if case % 2:  # a random box, some genes with zero span
                lower = cases.uniform(-2.0, 0.0, dim)
                upper = lower + cases.uniform(0.1, 3.0, dim) * (cases.random(dim) > 0.05)
            else:  # the UF box
                lower, upper = np.r_[0.0, -np.ones(dim - 1)], np.ones(dim)
            p1, p2 = cases.uniform(lower, upper), cases.uniform(lower, upper)
            same = cases.random(dim) < 0.2  # equal parent genes
            p2[same] = p1[same]
            for parent in (p1, p2):  # genes at their bounds
                at_lower, at_upper = cases.random((2, dim)) < 0.1
                parent[at_lower], parent[at_upper] = lower[at_lower], upper[at_upper]
                parent[at_lower & (lower == 0.0)] = -0.0  # np.clip makes it +0.0
            cfg = VariationConfig(sbx_eta=(15.0, 2.0, 7.5)[case // 3 % 3],
                                  sbx_prob=(0.0, 1.0, 0.9, cases.random())[case % 4],
                                  mutation_eta=(20.0, 5.0)[case // 9 % 2],
                                  mutation_prob=(0.0, 1.0, None, cases.random(), None)[case % 5])
            rng = np.random.default_rng(int(cases.integers(2 ** 32)))
            for _ in range(int(cases.integers(0, 4))):
                rng.integers(0, 1 + int(cases.integers(1, 10 ** 6)))  # may leave a spare half
            spares += rng.bit_generator.state["has_uint32"]
            oracle = np.random.Generator(np.random.PCG64())
            oracle.bit_generator.state = rng.bit_generator.state
            got = make_children(p1, p2, lower, upper, cfg, rng)
            want = brute_make_children(p1, p2, lower, upper, cfg, oracle)
            assert [c.tobytes() for c in got] == [c.tobytes() for c in want], case
            assert rng.bit_generator.state == oracle.bit_generator.state, case
        assert 5_000 < spares < 15_000

    def test_other_bit_generators_are_refused_before_any_draw(self):
        rng = np.random.Generator(np.random.MT19937(1))
        before = rng.bit_generator.state
        with pytest.raises(EvaluationError, match="MT19937"):
            make_children(vec(0.2, 0.8), vec(0.6, 0.1), np.zeros(2), np.ones(2), VAR, rng)
        after = rng.bit_generator.state
        assert np.array_equal(after["state"]["key"], before["state"]["key"])
        assert after["state"]["pos"] == before["state"]["pos"]


class TestTournament:
    def _pop(self, ranks_crowding):
        members = pts([(i, i) for i in range(len(ranks_crowding))])
        rank = np.array([rc[0] for rc in ranks_crowding])
        crowding = np.array([rc[1] for rc in ranks_crowding])
        return RankedPopulation(members=members, rank=rank, crowding=crowding)

    def test_lower_rank_wins(self):
        pop = self._pop([(1, 0.1), (2, 9.9)])
        assert tournament_winner(pop, 0, 1, np.random.default_rng(0)) == 0
        assert tournament_winner(pop, 1, 0, np.random.default_rng(0)) == 0

    def test_crowding_breaks_rank_ties(self):
        pop = self._pop([(1, np.inf), (1, 0.5)])
        assert tournament_winner(pop, 0, 1, np.random.default_rng(0)) == 0
        assert tournament_winner(pop, 1, 0, np.random.default_rng(0)) == 0

    def test_full_tie_is_a_fair_coin(self):
        pop = self._pop([(1, 1.0), (1, 1.0)])
        rng = np.random.default_rng(3)
        freq = np.mean([tournament_winner(pop, 0, 1, rng) for _ in range(10_000)])
        assert freq == pytest.approx(0.5, abs=0.05)

    def test_select_draws_candidates_with_replacement(self):
        pop = self._pop([(1, 0.1), (2, 9.9)])
        rng = np.random.default_rng(3)
        freq = np.mean([tournament_select(pop, rng) for _ in range(10_000)])
        # index 1 can only win when drawn twice: probability 1/4
        assert freq == pytest.approx(0.25, abs=0.02)

    def test_pair_draw_matches_one_sized_call(self):
        # Bounds up to 3e9, where Lemire's bounded draw can reject and redraw.
        plans = np.random.default_rng(16)
        for n in [*range(2, 500), *(int(n) for n in plans.integers(500, 3 * 10 ** 9, 2000)),
                  3 * 10 ** 9]:
            rng = np.random.default_rng(int(plans.integers(2 ** 32)))
            rng.integers(0, 1 + int(plans.integers(1, 10)), size=int(plans.integers(0, 3)))
            if plans.random() < 0.5:
                rng.integers(0, 7)  # toggles the spare 32-bit half
            oracle = np.random.Generator(np.random.PCG64())
            oracle.bit_generator.state = rng.bit_generator.state
            assert draw_pair(rng, n) == brute_pair_draw(oracle, n), n
            assert rng.bit_generator.state == oracle.bit_generator.state, n


class TestEnvironmentalSelect:
    def test_keeps_exactly_the_nondominated_half(self):
        objs = [(i, 9 - i) for i in range(10)] + [(i + 10, 19 - i) for i in range(10)]
        survivors = environmental_select(pts(objs), 10)
        assert sorted(s.uid for s in survivors) == list(range(10))

    def test_same_rank_keeps_highest_crowding(self):
        objs = [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0), (1.9, 2.1)]
        survivors = environmental_select(pts(objs), 5)
        uids = {s.uid for s in survivors}
        assert 5 not in uids  # the crowded interior duplicate goes first
        assert len(survivors) == 5

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(4)
        cases = [(rng.uniform(0, 1, size=(12, 2)), 8) for _ in range(50)]
        # Ranks by index 2, 1, 3, 1, 2, 1, 2, 3: ranks 1 and 2 fill popsize 6
        # exactly, so both keep their input order.
        cases.append((np.array([(1, 3), (0, 2), (3, 5), (2, 0), (3, 1), (1, 1), (2, 2),
                                (4, 4)], dtype=float), 6))
        # Each rank-2 point is the extreme of some objective, so the boundary
        # front's crowding is inf throughout and its split goes by index.
        cases.append((np.array([(1, 2, 3), (0, 0, 0), (3, 1, 2), (2, 3, 1), (5, 5, 5)],
                               dtype=float), 3))
        for objs, popsize in cases:
            survivors = environmental_select(pts([tuple(o) for o in objs]), popsize)
            expected = brute_environmental_select(objs, popsize)
            assert [s.uid for s in survivors] == expected

    def test_elitism_first_front_survives_when_it_fits(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            objs = [tuple(o) for o in rng.uniform(0, 1, size=(20, 2))]
            population = pts(objs)
            ranked = nondominated_sort(population)
            first = {p.uid for p in ranked.first_front()}
            if len(first) <= 8:
                kept = {p.uid for p in environmental_select(population, 8)}
                assert first <= kept

    def test_too_small_input_rejected(self):
        with pytest.raises(EvaluationError):
            environmental_select(pts([(0, 0)]), 2)


class TestNsga2:
    def test_budget_spent_exactly_and_deterministic(self):
        problem = make_problem("uf1", noise=NoiseLaw(kind="gaussian", sigma=0.5))
        runs = [nsga2_run(problem, StaticStrategy(n=5), 10, 300, VAR,
                          np.random.default_rng(99)) for _ in range(2)]
        for res in runs:
            assert res.spent == 300
            assert len(res.log) == 300
            assert len(res.population) == 10
        a, b = runs
        assert np.array_equal(a.log[:, 0], b.log[:, 0])  # uids
        assert np.array_equal(a.log[:, 2:], b.log[:, 2:])  # samples
        assert all(np.array_equal(x.decision, y.decision)
                   for x, y in zip(a.population, b.population))

    def test_means_equal_sample_averages_post_run(self):
        problem = make_problem("uf2", noise=NoiseLaw(kind="chisq", df=2, sigma=1.0))
        res = nsga2_run(problem, SeErrorStrategy(threshold=0.5), 10, 400, VAR,
                        np.random.default_rng(8))
        for p in res.population:
            assert np.allclose(p.mean, np.mean(p.samples, axis=0), atol=1e-12)

    def test_zero_noise_run_reaches_sane_hypervolume(self):
        # Loose sanity bound computed from reference runs of this module at
        # the same budget (a canonical NSGA-II plateaus near 0.8 on this
        # problem; anything below 0.65 means the optimizer is broken).
        problem = make_problem("uf1")
        res = nsga2_run(problem, StaticStrategy(n=1), 40, 4000, VAR,
                        np.random.default_rng(11))
        assert res.spent == 4000
        report = score_final_set(res.front, problem)
        assert report.hv_normalized >= 0.65

    def test_one_decision_context_per_generation(self, monkeypatch):
        contexts = []

        def recorded(**fields):
            contexts.append(DecisionContext(**fields))
            return contexts[-1]

        monkeypatch.setattr(optimizers, "DecisionContext", recorded)
        problem = make_problem("uf1", noise=NoiseLaw(kind="gaussian", sigma=0.5))
        res = nsga2_run(problem, TimeStrategy(n_max=3), 6, 300, VAR, np.random.default_rng(5))
        assert len(contexts) == int(res.log[:, 1].max())  # generations run
        assert [c.n_gen for c in contexts] == [min(g, 50) for g in range(1, len(contexts) + 1)]

    def test_arb_run_spends_budget_exactly(self):
        problem = make_problem("uf1", noise=NoiseLaw(kind="gaussian", sigma=0.5))
        res = nsga2_run(problem, ArbStrategy(), 40, 1200, VAR,
                        np.random.default_rng(13))
        assert res.spent == 1200
        assert len(res.log) == 1200

    def test_budget_below_initialization_rejected(self):
        problem = make_problem("uf1")
        with pytest.raises(EvaluationError):
            nsga2_run(problem, StaticStrategy(n=1), 40, 30, VAR,
                      np.random.default_rng(0))
        with pytest.raises(EvaluationError):
            nsga2_run(problem, ArbStrategy(), 40, 200, VAR,
                      np.random.default_rng(0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_static_tops_each_point_up_one_shot(self, n):
        # Budget 101 runs out inside the last offspring's top-up for n = 2 and 3.
        problem = make_problem("uf1", noise=NoiseLaw(kind="gaussian", sigma=0.5))
        res = nsga2_run(problem, StaticStrategy(n=n), 10, 101, VAR,
                        np.random.default_rng(6))
        uids = res.log[:, 0].astype(int)
        counts = np.bincount(uids)
        assert (counts[:-1] == n).all() and 0 < counts[-1] < n
        for uid in range(10, len(counts)):  # the offspring
            rows = np.flatnonzero(uids == uid)
            assert (np.diff(rows) == 1).all()

    def test_front_members_are_mutually_nondominated(self):
        problem = make_problem("uf3", noise=NoiseLaw(kind="gaussian", sigma=0.1))
        res = nsga2_run(problem, StaticStrategy(n=1), 10, 300, VAR,
                        np.random.default_rng(21))
        means = [p.mean for p in res.front]
        for i, a in enumerate(means):
            for j, b in enumerate(means):
                assert i == j or not brute_dominates(a, b)


class TestRtea:
    def test_budget_exact_and_refinement_share(self):
        problem = make_problem("uf1", noise=NoiseLaw(kind="gaussian", sigma=0.5))
        res = rtea_run(problem, RteaStrategy(z=0.1), 1000, VAR, np.random.default_rng(17))
        assert res.spent == 1000
        assert len(res.log) == 1000
        # The last round(0.1 * 1000) evaluations refine: no new point among
        # them, and the last offspring (with k = 1) comes just before.
        _, first_rows = np.unique(res.log[:, 0], return_index=True)
        assert 898 <= first_rows.max() < 900

    def test_deterministic_under_seed(self):
        problem = make_problem("uf2", noise=NoiseLaw(kind="chisq", df=1, sigma=1.0))
        a = rtea_run(problem, RteaStrategy(), 500, VAR, np.random.default_rng(3))
        b = rtea_run(problem, RteaStrategy(), 500, VAR, np.random.default_rng(3))
        assert np.array_equal(a.log[:, 2:], b.log[:, 2:])  # samples

    def test_zero_noise_run_reaches_sane_hypervolume(self):
        # Loose bound from reference runs at this budget; the front-only
        # parent pool converges slower than NSGA-II here.
        problem = make_problem("uf1")
        res = rtea_run(problem, RteaStrategy(), 4000, VAR, np.random.default_rng(19))
        report = score_final_set(res.front, problem)
        assert report.hv_normalized >= 0.5

    def test_initial_sample_larger_than_budget_rejected(self):
        with pytest.raises(EvaluationError, match="p=40 exceeds the budget 30"):
            check_run_shape(RteaStrategy(p=40), None, 30)
        with pytest.raises(EvaluationError, match="p=40 exceeds the budget 30"):
            rtea_run(make_problem("uf1"), RteaStrategy(p=40), 30, VAR, np.random.default_rng(0))
        check_run_shape(RteaStrategy(p=30), None, 30)

    def test_front_is_nondominated_under_means(self):
        problem = make_problem("uf1", noise=NoiseLaw(kind="gaussian", sigma=1.0))
        res = rtea_run(problem, RteaStrategy(), 600, VAR, np.random.default_rng(23))
        means = [p.mean for p in res.front]
        for i, a in enumerate(means):
            for j, b in enumerate(means):
                assert i == j or not brute_dominates(a, b)

    @pytest.mark.parametrize("n_obj", [2, 3])
    def test_reseat_matches_bruteforce(self, n_obj):
        # Means on a 0.5 grid (a quarter grid once a member moves) make ties
        # and equal means common.
        rng = np.random.default_rng(40 + n_obj)
        grid = lambda: rng.integers(0, 5, size=n_obj) * 0.5
        for trial in range(300):
            front = [EvaluatedPoint(decision=np.zeros(2), samples=[grid()], uid=i)
                     for i in range(rng.integers(1, 13))]
            if trial % 2:
                point = EvaluatedPoint(decision=np.zeros(2), samples=[grid()], uid=99)
            else:
                point = front[rng.integers(0, len(front))]
                point.add_sample(grid())
            got_front = list(front)
            _reseat(got_front, point)
            brute_reseat(front, point)
            assert [id(p) for p in got_front] == [id(p) for p in front]


class TestEvaluator:
    @staticmethod
    def _state(ev):
        return ev.spent, ev.log.copy(), ev._next_uid, ev.rng.bit_generator.state

    @staticmethod
    def _assert_unchanged(ev, before):
        spent, log, next_uid, rng_state = before
        assert ev.spent == spent and ev._next_uid == next_uid
        assert np.array_equal(ev.log, log)
        assert ev.rng.bit_generator.state == rng_state

    def test_raises_beyond_cap_and_changes_nothing(self):
        problem = make_problem("uf1", noise=NoiseLaw(kind="gaussian", sigma=0.5))
        rng = np.random.default_rng(0)
        ev = Evaluator(problem, rng, budget=2)
        a = ev.spawn(problem.random_decision(rng), 0)
        ev.reevaluate(a, 0)
        assert ev.spent == ev.budget == 2 and a.count == 2
        x = problem.random_decision(rng)
        before = self._state(ev)
        for overspend in (lambda: ev.spawn(x, 1), lambda: ev.reevaluate(a, 1),
                          lambda: ev.spawn_random(1)):
            with pytest.raises(EvaluationError, match="1 evaluation"):
                overspend()
            self._assert_unchanged(ev, before)
        assert a.count == 2

    def test_refused_spawn_charges_nothing(self):
        problem = make_problem("uf1")
        rng = np.random.default_rng(0)
        ev = Evaluator(problem, rng, budget=5)
        with pytest.raises(EvaluationError):
            ev.spawn(np.full(10, 2.0), 0)
        assert ev.spent == len(ev.log) == 0
        point = ev.spawn(problem.random_decision(rng), 0)
        assert point.uid == 0
        assert ev.spent == len(ev.log) == 1

    def test_spawn_random_draws_then_spawns_or_raises_first(self):
        problem = make_problem("uf1", noise=NoiseLaw(kind="gaussian", sigma=0.5))
        ev = Evaluator(problem, np.random.default_rng(3), budget=4)
        before = self._state(ev)
        with pytest.raises(EvaluationError, match="6 evaluation"):
            ev.spawn_random(6)
        self._assert_unchanged(ev, before)
        points = ev.spawn_random(4)
        assert [p.uid for p in points] == [0, 1, 2, 3] and ev.spent == len(ev.log) == 4
        rng = np.random.default_rng(3)
        twin = Evaluator(problem, rng, budget=4)
        for _ in range(4):
            twin.spawn(problem.random_decision(rng), 0)
        assert np.array_equal(ev.log, twin.log)

    def test_spawn_keeps_true_mean_for_every_sample(self):
        problem = make_problem("uf2")  # no noise: every sample is the true mean
        rng = np.random.default_rng(1)
        ev = Evaluator(problem, rng, budget=4)
        point = ev.spawn(problem.random_decision(rng), 0)
        for _ in range(3):
            ev.reevaluate(point, 0)
        assert np.array_equal(point.true_mean, problem.mean_fn(point.decision))
        assert not point.true_mean.flags.writeable
        assert all(np.array_equal(y, point.true_mean) for y in point.samples)

    @pytest.mark.parametrize("kind", ["nsga2", "rtea"])
    def test_mean_fn_runs_once_per_point(self, kind):
        base = make_problem("uf1", noise=NoiseLaw(kind="gaussian", sigma=0.5))
        calls = []

        def counting_mean_fn(x):
            calls.append(1)
            return base.mean_fn(x)
        problem = dataclasses.replace(base, mean_fn=counting_mean_fn)
        rng = np.random.default_rng(2)
        if kind == "nsga2":
            res = nsga2_run(problem, StaticStrategy(n=3), 10, 300, VAR, rng)
        else:
            res = rtea_run(problem, RteaStrategy(p=10), 300, VAR, rng)
        n_points = len(set(res.log[:, 0]))
        assert len(res.log) == 300 > n_points == len(calls)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_log_length_equals_spend(self, seed):
        problem = make_problem("uf1", noise=NoiseLaw(kind="gaussian", sigma=1.0))
        budget = 120
        res = nsga2_run(problem, StaticStrategy(n=2), 10, budget, VAR,
                        np.random.default_rng(seed))
        assert res.spent == budget == len(res.log)
