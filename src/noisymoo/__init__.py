"""Noisy multi-objective optimization benchmark with adaptive resampling.

Library layout:

* ``pareto`` — one dominance kernel, non-dominated sorting, crowding.
* ``problems`` — UF1/UF2/UF3 mean functions with standardized noise.
* ``bootstrap`` — dispersion pooling, the mixed bootstrap of the sample
  mean, dominance probability, the adaptive resampling decision.
* ``resampling`` — the strategy types, each naming its family and loop;
  the budget-share (time, rank, strength), standard-error and arb
  decisions behind one interface.
* ``optimizers`` — the loops: NSGA-II (static one-shot, every other kind
  sequential) and the Rolling Tide EA, under a strict evaluation budget.
* ``metrics`` — true-mean filtering, 2-D hypervolume, IGD.
* ``harness`` / ``cli`` — reproducible sweeps, comparison protocols,
  CSV reporting. Every input that shapes a record comes from the config:
  the grid, ``base_seed`` and ``metrics``; reading refuses a mismatch.
"""

from .bootstrap import DispersionSet, arb_decide, bootstrap_means_pooled, dominance_probability
from .metrics import (MetricParams, MetricReport, hypervolume, igd_p, score_final_set,
                      true_nondominated_filter)
from .optimizers import (Evaluator, RunResult, environmental_select, nsga2_run, rtea_run,
                         tournament_select)
from .pareto import (EvaluatedPoint, EvaluationError, RankedPopulation,
                     crowding_distance, nondominated_sort)
from .problems import (NoiseLaw, NoisyProblem, evaluate_noisy, make_problem, sample_true_pf,
                       true_mean)
from .resampling import (ArbStrategy, BudgetShare, DecisionContext, RankStrategy,
                         RteaStrategy, SeErrorStrategy, StaticStrategy, StrengthStrategy,
                         TimeStrategy, should_resample, strategy_from_dict, strategy_type)
from .variation import VariationConfig

__version__ = "0.1.0"
