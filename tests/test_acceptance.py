"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. Criterion 8 executes a 60-run benchmark (about a minute on
two cores) and is marked ``slow``; everything else is fast.
"""

import itertools
import math

import numpy as np
import pytest

from noisymoo.bootstrap import DispersionSet, bootstrap_means_stacked, dominance_probability
from noisymoo.harness import (ExperimentConfig, load_record, load_records, report,
                              run_single, select_params_prestudy, select_params_split,
                              sweep)
from noisymoo.metrics import hypervolume, true_nondominated_filter
from noisymoo.optimizers import environmental_select
from noisymoo.pareto import EvaluatedPoint, EvaluationError, nondominated_sort
from noisymoo.problems import NoiseLaw

from .oracles import (brute_dominance_probability, brute_environmental_select,
                      brute_front_ranks, brute_nondominated,
                      monte_carlo_hypervolume)
from .test_harness import synthetic_records


def _verdict(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[ACCEPTANCE] criterion {criterion} ({name}): "
          f"{'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} ({name}) failed {detail}"


def _signtest_p(wins: int, n: int) -> float:
    """One-sided sign test p-value: P(Binom(n, 1/2) >= wins)."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n


def test_criterion_1_oracle_equivalence():
    import time
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for case in range(200):
        n = int(rng.integers(2, 51))
        t = 2 if case % 2 == 0 else 3
        objs = np.round(rng.uniform(0, 1, size=(n, t)), 2)  # rounding forces ties
        points = [EvaluatedPoint(decision=o.copy(), samples=[o], uid=i, true_mean=o)
                  for i, o in enumerate(objs)]
        popsize = max(1, n // 2)
        if t == 3:  # every problem has two objectives; three are refused
            for refused in (lambda: nondominated_sort(points),
                            lambda: environmental_select(points, popsize),
                            lambda: true_nondominated_filter(points)):
                with pytest.raises(EvaluationError, match="ranking needs 2 objectives"):
                    refused()
            continue

        ranked = nondominated_sort(points)
        assert np.array_equal(ranked.rank, brute_front_ranks(objs))

        survivors = environmental_select(points, popsize)
        expected = brute_environmental_select(objs, popsize)
        assert [s.uid for s in survivors] == expected

        kept = true_nondominated_filter(points)[0]
        assert [p.uid for p in kept] == brute_nondominated(objs)
    elapsed = time.perf_counter() - started
    _verdict(1, "oracle equivalence", elapsed < 5.0, f"elapsed={elapsed:.2f}s")


def test_criterion_2_hypervolume_correctness():
    nadir = np.array([1.0, 1.0])
    exact_cases = [
        (np.array([[0.0, 0.0]]), 1.0),
        (np.array([[0.5, 0.5]]), 0.25),
        (np.array([[0.2, 0.6], [0.6, 0.2]]), 0.48),
        (np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]), 0.25),
    ]
    ok = all(abs(hypervolume(pts, nadir) - want) <= 1e-12
             for pts, want in exact_cases)
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 11))
        pts = rng.uniform(0, 1, size=(k, 2))
        deviation = abs(hypervolume(pts, nadir)
                        - monte_carlo_hypervolume(pts, nadir, 10 ** 6, rng))
        worst = max(worst, deviation)
    ok = ok and worst <= 0.002
    _verdict(2, "hypervolume correctness", ok, f"max MC deviation={worst:.5f}")


def test_criterion_3_bootstrap_combinatorics():
    # A mixed replicate of an N-sample point adds one pool entry to N - 1
    # draws from its own N residuals: C(2N - 2, N - 1) multisets of own draws.
    expected = {1: 1, 2: 2, 3: 6, 4: 20}
    counts = {}
    for n in range(1, 5):
        multisets = {tuple(sorted(t)) for t in itertools.product(range(n), repeat=n - 1)}
        counts[n] = len(multisets)
        assert math.comb(2 * n - 2, n - 1) == expected[n]
    # the sampler must actually reach every multiset for small n; a pool of
    # one zero vector leaves only the own draws to vary
    pt = EvaluatedPoint(decision=np.zeros(2), samples=[np.array([v, v])
                                                       for v in (0.0, 1.0, 10.0)])
    pool = DispersionSet()
    pool.push(np.zeros(2))
    draws = bootstrap_means_stacked([pt], pool, 5000, np.random.default_rng(3))[0]
    reached = len({tuple(np.round(d, 9)) for d in draws})
    ok = counts == expected and reached == 6
    _verdict(3, "bootstrap combinatorics", ok, f"counts={counts} reached={reached}")


def test_criterion_4_variance_correction():
    rng = np.random.default_rng(404)
    samples = rng.normal(size=(5, 2))
    pt = EvaluatedPoint(decision=np.zeros(2), samples=list(samples))
    # A pool of the point's own scaled residuals makes the pooled summand
    # as variable as the N - 1 own ones: ((N - 1) s^2 + s^2) / N^2 = s^2 / N.
    pool = DispersionSet()
    for residual in pt.scaled_residuals():
        pool.push(residual)
    draws = bootstrap_means_stacked([pt], pool, 100_000, rng)[0]
    s2 = samples.var(axis=0, ddof=1)
    rel = np.abs(draws.var(axis=0) / (s2 / 5) - 1.0)
    _verdict(4, "variance correction", bool(np.all(rel < 0.05)),
             f"relative errors={np.round(rel, 4)}")


def test_criterion_5_dominance_probability():
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(100):
        na, nb = rng.integers(1, 51, size=2)
        t = int(rng.integers(2, 4))
        a = rng.normal(size=(na, t))
        b = rng.normal(size=(nb, t))
        p_ab = dominance_probability(a, b)
        p_ba = dominance_probability(b, a)
        ok = ok and p_ab == brute_dominance_probability(a, b)
        ok = ok and p_ab + p_ba <= 1.0
    _verdict(5, "dominance probability estimator", ok)


def test_criterion_6_noise_standardization():
    rng = np.random.default_rng(606)
    details = []
    ok = True
    for law in (NoiseLaw(kind="gaussian", sigma=1.0),
                NoiseLaw(kind="chisq", sigma=1.0, df=1),
                NoiseLaw(kind="chisq", sigma=1.0, df=2)):
        eps = law.standardized(rng, 10 ** 6)
        ok = ok and abs(eps.mean()) < 0.005 and abs(eps.var() - 1.0) < 0.02
        if law.kind == "chisq":
            ok = ok and eps.min() >= -math.sqrt(law.df / 2.0)
            if law.df == 1:
                skew = float(np.mean(((eps - eps.mean()) / eps.std()) ** 3))
                ok = ok and abs(skew - math.sqrt(8.0)) <= 0.1
                details.append(f"chisq1 skew={skew:.3f}")
        details.append(f"{law.kind}{law.df if law.kind == 'chisq' else ''}:"
                       f" mean={eps.mean():+.4f} var={eps.var():.4f}")
    _verdict(6, "noise standardization", ok, "; ".join(details))


def _determinism_config(tmp):
    return ExperimentConfig(
        problems=["uf1"],
        noise=[{"kind": "gaussian", "sigma": 0.5}],
        strategies=[{"kind": "static", "grid": {"n": [1]}},
                    {"kind": "sederror", "grid": {"threshold": [0.1]}},
                    {"kind": "arb", "grid": {"alpha_l": [0.2], "alpha_u": [0.9],
                                             "init_popsize": [12], "seed_size": [8],
                                             "capacity": [30]}},
                    {"kind": "rtea", "grid": {"k": [1], "z": [0.1], "p": [8]}}],
        budget=400, popsize=8, replications=2, base_seed=31,
        selection={"n_select": 1, "n_compare": 1, "n_repeats": 5,
                   "prestudy_budget": 300},
        output_dir=str(tmp))


def test_criterion_7_budget_exactness_and_determinism(tmp_path):
    config = _determinism_config(tmp_path)
    slice_ = config.slices()[0]
    a = run_single(slice_, 0, 777)
    b = run_single(slice_, 0, 777)
    byte_identical = a.canonical_json() == b.canonical_json()

    sweep(config, tmp_path / "one")
    sweep(config, tmp_path / "two", jobs=2)
    records_1 = load_records(config, tmp_path / "one")
    records_2 = load_records(config, tmp_path / "two")
    # Loaded records hold no eval_log, so the logs are counted in the files.
    files = [p for sweep_dir in ("one", "two")
             for p in (tmp_path / sweep_dir / "records").glob("*.json")]
    exact = (all(r.spent == 400 for r in records_1 + records_2)
             and len(files) == len(records_1 + records_2)
             and all(len(load_record(p).eval_log) == 400 for p in files))
    paths_1 = report(records_1, tmp_path / "one")
    paths_2 = report(records_2, tmp_path / "two")
    csv_identical = all(p1.read_bytes() == p2.read_bytes()
                        for p1, p2 in zip(paths_1, paths_2))
    ok = byte_identical and exact and csv_identical
    _verdict(7, "budget exactness and determinism", ok,
             f"records={byte_identical} budgets={exact} csvs={csv_identical}")


@pytest.fixture(scope="module")
def desk_scale_records(tmp_path_factory):
    config = ExperimentConfig(
        problems=["uf1"],
        noise=[{"kind": "gaussian", "sigma": 1.0},
               {"kind": "chisq", "df": 1, "sigma": 1.0}],
        strategies=[{"kind": "static", "grid": {"n": [1, 5]}},
                    {"kind": "arb", "grid": {"alpha_l": [0.2], "alpha_u": [0.9]}}],
        budget=10_000, popsize=40, replications=10, base_seed=20240811,
        selection={"n_select": 5, "n_compare": 5, "n_repeats": 10,
                   "prestudy_budget": 2000})
    out = tmp_path_factory.mktemp("desk_scale")
    sweep(config, out, jobs=2)
    records = load_records(config, out)
    by = {}
    for r in records:
        key = (r.slice["noise"]["kind"], r.slice["strategy"]["kind"],
               r.slice["strategy"].get("n"))
        by.setdefault(key, {})[r.replication] = r.hv
    return records, by


@pytest.mark.slow
def test_criterion_8_directional_reproduction(desk_scale_records):
    records, by = desk_scale_records
    assert all(r.spent == 10_000 for r in records)
    reps = range(10)
    g1 = [by[("gaussian", "static", 1)][i] for i in reps]
    g5 = [by[("gaussian", "static", 5)][i] for i in reps]
    ga = [by[("gaussian", "arb", None)][i] for i in reps]
    c1 = [by[("chisq", "static", 1)][i] for i in reps]
    ca = [by[("chisq", "arb", None)][i] for i in reps]

    better = g5 if np.mean(g5) >= np.mean(ga) else ga
    better_name = "static5" if better is g5 else "arb"

    def sign_test(winners, losers):
        pairs = [(w, l) for w, l in zip(winners, losers) if w != l]
        wins = sum(w > l for w, l in pairs)
        return wins, len(pairs), _signtest_p(wins, len(pairs))

    wins_a, n_a, p_a = sign_test(better, g1)
    ok_a = np.mean(better) > np.mean(g1) and p_a <= 0.1
    wins_b1, n_b1, p_b1 = sign_test(c1, g1)
    ok_b1 = np.mean(c1) >= np.mean(g1) and p_b1 <= 0.1
    wins_b2, n_b2, p_b2 = sign_test(ca, ga)
    ok_b2 = np.mean(ca) >= np.mean(ga) and p_b2 <= 0.1

    detail = (f"(a) {better_name} {np.mean(better):.3f} vs static1 "
              f"{np.mean(g1):.3f}, wins {wins_a}/{n_a}, p={p_a:.3f}; "
              f"(b) static1 chisq>gauss wins {wins_b1}/{n_b1}, p={p_b1:.3f}; "
              f"arb chisq>gauss wins {wins_b2}/{n_b2}, p={p_b2:.3f}")
    _verdict(8, "directional reproduction at desk scale",
             ok_a and ok_b1 and ok_b2, detail)


def test_criterion_9_protocol_plumbing():
    families = ["arb", "dynamic", "static", "rtea"]
    kinds = ["chisq", "gaussian", "none"]
    full = synthetic_records(families, kinds, n_reps=6)
    fractions = select_params_split(full, 3, 3, 40, np.random.default_rng(9))
    sums_ok = all(abs(sum(v.values()) - 1.0) <= 1e-9 for v in fractions.values())

    pre = synthetic_records(families, kinds, n_reps=2)
    for r in pre:
        r.slice["budget"] = 10
    table = select_params_prestudy(pre, full)
    shape_ok = (table["families"] == families and table["noise_kinds"] == kinds
                and len(table["counts"]) == 4
                and all(len(row) == 3 for row in table["counts"].values()))
    total = sum(sum(row.values()) for row in table["counts"].values())
    accounting_ok = abs(total - 3 * 6) <= 1e-9 and table["cells_counted"] == 3 * 6
    _verdict(9, "protocol plumbing", sums_ok and shape_ok and accounting_ok,
             f"split sums ok={sums_ok}, table shape ok={shape_ok}, total={total}")
