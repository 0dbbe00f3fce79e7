"""Which program functions the traced run wraps, and under which names.

Each entry patches the attribute a caller looks the function up by, so a
span opens exactly where one layer calls into the next. Span names are
``<defining module>.<function>``; the metric names derive from them.
"""

from __future__ import annotations

import noisymoo.bootstrap as bootstrap
import noisymoo.cli as cli
import noisymoo.harness as harness
import noisymoo.optimizers as optimizers
import noisymoo.resampling as resampling
from noisymoo.pareto import EvaluatedPoint


def _count_sorted_points(counters, args, kwargs, result):
    counters["n"] = counters.get("n", 0) + len(args[0])


def _count_granted(counters, args, kwargs, result):
    counters["granted"] = counters.get("granted", 0) + bool(result)


def _count_arb(counters, args, kwargs, result):
    candidate, front = args[0], args[1]
    rivals = sum(1 for s in front if s is not candidate)
    counters["rivals"] = counters.get("rivals", 0) + rivals
    _count_granted(counters, args, kwargs, result)


def _run_label(args, kwargs):
    slice_, replication = args[0], args[1]
    return f"{slice_.fingerprint}_r{replication:03d}"


# (owner, attribute, span name, counter)
LAYERS = [
    (optimizers, "evaluate_noisy", "problems.evaluate_noisy", None),
    (optimizers, "make_children", "variation.make_children", None),
    (optimizers, "nondominated_sort", "pareto.nondominated_sort", _count_sorted_points),
    (optimizers, "environmental_select", "optimizers.environmental_select", None),
    (optimizers, "should_resample", "resampling.should_resample", _count_granted),
    (EvaluatedPoint, "scaled_residuals", "pareto.scaled_residuals", None),
    (bootstrap, "bootstrap_means_pooled", "bootstrap.bootstrap_means_pooled", None),
    (bootstrap, "arb_decide", "bootstrap.arb_decide", _count_arb),
    (resampling, "all_strengths", "resampling.all_strengths", None),
    (harness, "nsga2_run", "optimizers.nsga2_run", None),
    (harness, "rtea_run", "optimizers.rtea_run", None),
    (harness, "score_final_set", "metrics.score_final_set", None),
    (harness.RunRecord, "canonical_json", "harness.canonical_json", None),
    (harness, "load_record", "harness.load_record", None),
    (cli, "sweep", "harness.sweep", None),
    (cli, "report", "harness.report", None),
    (cli, "select_params_split", "harness.select_params_split", None),
    (cli, "main", "cli.main", None),
]

SPAN_NAMES = [name for _, _, name, _ in LAYERS] + ["harness.run_single"]

# Self time of these spans is the cost of resampling decisions.
DECISION_SPANS = ("bootstrap.bootstrap_means_pooled", "bootstrap.arb_decide",
                  "resampling.all_strengths")


def install(tracer) -> None:
    for owner, attr, name, count in LAYERS:
        tracer.wrap(owner, attr, name, count=count)
    tracer.wrap(harness, "run_single", "harness.run_single", run_id=_run_label)
