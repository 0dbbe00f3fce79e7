import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisymoo.bootstrap import DispersionSet
from noisymoo.pareto import EvaluatedPoint, EvaluationError, nondominated_sort
from noisymoo.resampling import (ArbStrategy, DecisionContext, RankStrategy, RteaStrategy,
                                 SeErrorStrategy, StaticStrategy, StrengthStrategy,
                                 TimeStrategy, all_strengths, should_resample,
                                 strategy_from_dict)

from .oracles import brute_strengths

vec = lambda *v: np.array(v, dtype=float)


def ranked(objs, counts=None):
    counts = counts or [1] * len(objs)
    pts = [EvaluatedPoint(decision=np.zeros(2), samples=[vec(*o)] * c)
           for o, c in zip(objs, counts)]
    return nondominated_sort(pts)


def ctx_for(pop, n_gen=0, max_gen=10):
    return DecisionContext(population=pop, n_gen=n_gen, max_gen=max_gen)


def strengths(pop):
    """``all_strengths`` over the matrix a fresh sweep's context builds."""
    return all_strengths(pop, DecisionContext(population=pop).weak_matrix())


class TestStrength:
    def test_dominating_three_of_four(self):
        pop = ranked([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert strengths(pop)[0] == pytest.approx(0.75)

    def test_dominated_by_everything(self):
        pop = ranked([(3, 3), (1, 1), (0, 0), (2, 2)])
        assert strengths(pop)[0] == 0.0

    def test_mutually_incomparable_all_zero(self):
        pop = ranked([(0, 3), (1, 2), (2, 1), (3, 0)])
        assert [strengths(pop)[i] for i in range(4)] == [0, 0, 0, 0]

    @pytest.mark.parametrize("n_obj", [2, 3])
    def test_all_strengths_match_bruteforce_with_ties(self, n_obj):
        rng = np.random.default_rng(10 + n_obj)
        for n in (1, 2, 7, 25, 60):
            objs = rng.integers(0, 4, size=(n, n_obj)).astype(float)
            pts = [EvaluatedPoint(decision=np.zeros(2), samples=[o]) for o in objs]
            assert np.array_equal(strengths(nondominated_sort(pts)), brute_strengths(objs))

    @pytest.mark.parametrize("n_obj", [2, 3])
    def test_kept_matrix_follows_reevaluations(self, n_obj):
        # Samples on a coarse grid make equal means, hence ties, common. After
        # every re-evaluation the kept matrix must give the strengths a
        # rebuild from the live means gives, bit for bit.
        rng = np.random.default_rng(30 + n_obj)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            pts = [EvaluatedPoint(decision=np.zeros(2),
                                  samples=[rng.integers(0, 4, size=n_obj).astype(float)])
                   for _ in range(n)]
            pop = nondominated_sort(pts)
            ctx = ctx_for(pop)
            for _ in range(int(rng.integers(1, 40))):
                i = int(rng.integers(0, n))
                pop.members[i].add_sample(rng.integers(0, 4, size=n_obj).astype(float))
                ctx.reevaluated(i)
                kept = all_strengths(pop, ctx.weak_matrix())
                assert kept.tobytes() == strengths(pop).tobytes()
                assert kept.tobytes() == brute_strengths(pop.means).tobytes()

    def test_fraction_all_zero_gives_full_budget(self):
        pop = ranked([(0, 3), (1, 2), (2, 1), (3, 0)])
        assert [StrengthStrategy().share(i, ctx_for(pop)) for i in range(4)] == [1, 1, 1, 1]

    def test_fraction_ratio_case(self):
        # strengths 0.75, 0.25, 0, 0 -> fractions 1, 1/3, 0, 0
        pop = ranked([(0, 0), (1, 3), (2, 4), (3, 0.5)])
        assert [strengths(pop)[i] for i in range(4)] == [0.75, 0.25, 0, 0]
        fr = [StrengthStrategy().share(i, ctx_for(pop)) for i in range(4)]
        assert fr == pytest.approx([1.0, 1 / 3, 0.0, 0.0])

    def test_fraction_boundary_case(self):
        # one point dominating exactly one other: max strength = 1/|P|
        pop = ranked([(0, 0), (1, 1), (0, 5), (5, 0)])
        fr = [StrengthStrategy().share(i, ctx_for(pop)) for i in range(4)]
        assert fr == pytest.approx([1.0, 0.0, 0.0, 0.0])


class TestRankAndTime:
    def test_rank_extremes(self):
        pop = ranked([(0, 0), (1, 1), (2, 2)])  # ranks 1, 2, 3
        assert RankStrategy().share(0, ctx_for(pop)) == 1.0
        assert RankStrategy().share(2, ctx_for(pop)) == 0.0
        assert RankStrategy().share(1, ctx_for(pop)) == pytest.approx(0.5)

    def test_rank_degenerate_single_front(self):
        pop = ranked([(0, 1), (1, 0)])
        assert RankStrategy().share(0, ctx_for(pop)) == 1.0

    @pytest.mark.parametrize("n_gen,expected", [(0, 0.0), (100, 1.0), (25, 0.25), (150, 1.0)])
    def test_time_fraction(self, n_gen, expected):
        pop = ranked([(0, 1), (1, 0)])
        assert TimeStrategy().share(0, ctx_for(pop, n_gen=n_gen, max_gen=100)) == expected


def se_decide(pt, threshold):
    strategy = SeErrorStrategy(threshold=threshold)
    return should_resample(strategy, ctx_for(nondominated_sort([pt])), 0)


class TestStandardError:
    def test_identical_samples_zero_error(self):
        pt = EvaluatedPoint(decision=np.zeros(2), samples=[vec(1, 1)] * 4)
        assert se_decide(pt, 0.001) is False

    def test_single_sample_forces_second_look(self):
        pt = EvaluatedPoint(decision=np.zeros(2), samples=[vec(1, 1)])
        assert se_decide(pt, 1e9) is True

    def test_hand_computed_threshold_boundary(self):
        # per-objective samples {0, 2}: sd = sqrt(2), se = 1; not > 1
        pt = EvaluatedPoint(decision=np.zeros(2), samples=[vec(0, 0), vec(2, 2)])
        assert SeErrorStrategy().standard_error(pt) == pytest.approx(1.0)
        assert se_decide(pt, 1.0) is False
        assert se_decide(pt, 0.999) is True

    def test_max_over_objectives_with_unequal_spreads(self):
        # per-objective se: 1 and 2; the max is 2 where the mean would be 1.5
        pt = EvaluatedPoint(decision=np.zeros(2), samples=[vec(0, 0), vec(2, 4)])
        sds = np.std([[0, 0], [2, 4]], axis=0, ddof=1)
        assert SeErrorStrategy().standard_error(pt) == pytest.approx(sds.max() / np.sqrt(2))


class TestDecide:
    def test_arb_sole_front_member_reads_no_pool(self):
        # With no rival there is nothing to compare: p* = 0 before any
        # envelope, so even an empty pool is never read.
        pop = ranked([(0, 0), (1, 1)])
        ctx = DecisionContext(population=pop, front=pop.first_front(), dispersion=DispersionSet(),
                              rng=np.random.default_rng(0))
        assert should_resample(ArbStrategy(), ctx, 0) is False

    def test_static_has_no_decision(self):
        # nsga2_run gives a static point its n samples one-shot and never asks.
        pop = ranked([(0, 1), (1, 0)])
        with pytest.raises(EvaluationError, match="no per-point resampling decision"):
            should_resample(StaticStrategy(n=1), ctx_for(pop), 0)

    def test_time_based_keeps_going_under_cap(self):
        pop = ranked([(0, 1), (1, 0)], counts=[9, 1])
        ctx = ctx_for(pop, n_gen=10, max_gen=10)
        assert should_resample(TimeStrategy(n_max=10), ctx, 0) is True

    def test_rank_based_cap_reached(self):
        pop = ranked([(0, 1), (1, 1)], counts=[20, 1])
        ctx = ctx_for(pop)
        assert should_resample(RankStrategy(n_max=20), ctx, 0) is False

    def test_arb_requires_context(self):
        pop = ranked([(0, 1), (1, 0)])
        with pytest.raises(EvaluationError):
            should_resample(ArbStrategy(), ctx_for(pop), 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(EvaluationError):
            strategy_from_dict({"kind": "oracle"})

    @pytest.mark.parametrize("spec,name", [({"kind": "arb", "alpha": 0.2}, "alpha"),
                                           ({"kind": "static", "n": 2, "n_max": 3}, "n_max")])
    def test_unknown_parameter_rejected_by_name(self, spec, name):
        with pytest.raises(EvaluationError, match=f"parameter.*{name}"):
            strategy_from_dict(spec)

    def test_strategy_from_dict_round_trip(self):
        s = strategy_from_dict({"kind": "sederror", "threshold": 0.01})
        assert isinstance(s, SeErrorStrategy)
        assert s.threshold == 0.01

    @pytest.mark.parametrize("strategy", [TimeStrategy(n_max=7), RankStrategy(n_max=7),
                                          StrengthStrategy(n_max=7)])
    def test_monotone_in_count_and_capped(self, strategy):
        # Once the decision turns False at some count it stays False, and no
        # budget-share strategy lets a point pass n_max evaluations.
        objs = [(0, 0), (1, 1), (0.5, 2), (2, 0.5)]
        decisions = []
        for count in range(1, 10):
            pop = ranked(objs, counts=[count, 1, 1, 1])
            ctx = ctx_for(pop, n_gen=5, max_gen=10)
            decisions.append(should_resample(strategy, ctx, 0))
        flips = sum(1 for a, b in zip(decisions, decisions[1:]) if not a and b)
        assert flips == 0
        assert decisions[7:] == [False, False]  # counts 8, 9 exceed any nu * 7

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_fractions_always_in_unit_interval(self, seed, size):
        rng = np.random.default_rng(seed)
        pop = ranked([tuple(v) for v in rng.uniform(0, 1, size=(size, 2))])
        for i in range(size):
            assert 0.0 <= RankStrategy().share(i, ctx_for(pop)) <= 1.0
            assert 0.0 <= StrengthStrategy().share(i, ctx_for(pop)) <= 1.0
            assert 0.0 <= strengths(pop)[i] <= 1.0

    def test_rank_fraction_nonincreasing_in_rank(self):
        pop = ranked([(0, 0), (1, 1), (2, 2), (3, 3)])
        fractions = [RankStrategy().share(i, ctx_for(pop)) for i in range(4)]
        assert fractions == sorted(fractions, reverse=True)

    def test_nmax_one_degenerates_to_single_evaluation(self):
        # Each strategy refuses a second evaluation when n_max is 1.
        pop = ranked([(0, 0), (1, 1)], counts=[1, 1])
        ctx = ctx_for(pop, n_gen=10, max_gen=10)
        for strategy in (TimeStrategy(n_max=1), RankStrategy(n_max=1),
                         StrengthStrategy(n_max=1)):
            assert should_resample(strategy, ctx, 0) is False


@pytest.mark.parametrize("name", ["k", "p"])
def test_rtea_counts_are_at_least_one(name):
    with pytest.raises(EvaluationError, match=f"{name} must be at least 1, got 0"):
        RteaStrategy(**{name: 0})
