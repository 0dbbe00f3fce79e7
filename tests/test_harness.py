import csv
import hashlib
import json
import os
import pickle
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace
from typing import get_args

import numpy as np
import pytest

from noisymoo import harness, metrics
from noisymoo.harness import (AGGREGATE_HEADER, PER_RUN_HEADER, ExperimentConfig, RunRecord, RunSlice, derive_seed,
                              load_record, load_records, record_path, report,
                              run_single, select_params_prestudy, select_params_split,
                              sweep, write_record)
from noisymoo.metrics import MetricParams, score_final_set
from noisymoo.optimizers import nsga2_run, rtea_run
from noisymoo.pareto import EvaluatedPoint, EvaluationError
from noisymoo.problems import NoiseLaw, make_problem
from noisymoo.resampling import ResamplingStrategy, strategy_from_dict, strategy_type
from noisymoo.variation import VariationConfig

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.json"


# The fewest replications a config can have: a 1 + 1 selection split needs two.
TWO_REPS = dict(replications=2, selection={"n_select": 1, "n_compare": 1, "n_repeats": 10,
                                           "prestudy_budget": 60})


def tiny_config(**overrides):
    base = dict(
        problems=["uf1"],
        noise=[{"kind": "none"}, {"kind": "gaussian", "sigma": 0.5}],
        strategies=[{"kind": "static", "grid": {"n": [1, 2]}}],
        budget=120,
        popsize=6,
        replications=3,
        base_seed=7,
        selection={"n_select": 2, "n_compare": 1, "n_repeats": 10,
                   "prestudy_budget": 60},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def synthetic_records(families, noise_kinds, n_reps, n_configs=2, value=None, budget=100):
    """Hand-built records covering a grid, with controllable HV values."""
    records = []
    for kind in noise_kinds:
        noise = {"kind": kind} if kind == "none" else {"kind": kind, "sigma": 1.0}
        if kind == "chisq":
            noise["df"] = 1
        for fam_i, fam in enumerate(families):
            strategy_kind = {"arb": "arb", "dynamic": "rank", "static": "static",
                             "rtea": "rtea"}[fam]
            for cfg_i in range(n_configs):
                strategy = {"kind": strategy_kind, "p": cfg_i}
                slice_ = RunSlice(problem="uf1", dim=10, noise=noise,
                                  strategy=strategy, mode="sequential",
                                  popsize=4, budget=budget)
                for rep in range(n_reps):
                    hv = (value(kind, fam, cfg_i, rep) if value
                          else 0.1 * fam_i + 0.01 * cfg_i)
                    records.append(RunRecord(
                        fingerprint=slice_.fingerprint, slice=slice_.as_dict(),
                        replication=rep, seed=rep, spent=budget, eval_log=[],
                        final_population=[], returned_set=[],
                        metrics={"hv_normalized": hv, "hv_raw": hv, "igd": 1 - hv,
                                 "n_returned": 1, "n_filtered": 1}))
    return records


class TestConfigAndSlices:
    def test_grid_expansion_count(self):
        config = tiny_config()
        assert len(config.slices()) == 1 * 2 * 2  # problems x noise x grid

    @pytest.mark.parametrize("budget", [120, 60])
    def test_run_plan_is_each_slice_times_each_replication(self, budget):
        config = tiny_config()
        assert config.runs(budget) == [
            (s, r, derive_seed(config.base_seed, s.fingerprint, r))
            for s in config.slices(budget) for r in range(config.replications)]

    def test_fingerprint_stable_under_reserialization(self):
        s = tiny_config().slices()[0]
        again = RunSlice(**json.loads(json.dumps(s.as_dict())))
        assert again.fingerprint == s.fingerprint

    def test_each_slice_hashes_once(self, monkeypatch):
        calls = []

        def counting(data):
            calls.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(harness, "hashlib", SimpleNamespace(sha256=counting))
        config = tiny_config()
        slice_ = config.slices()[0]
        assert slice_.fingerprint == slice_.fingerprint == slice_.fingerprint
        assert len(calls) == 1
        calls.clear()
        runs = config.runs()
        # One hash per slice, then one derive_seed hash per run.
        assert len(calls) == len(config.slices()) + len(runs) == 4 + 12

    def test_fingerprint_is_that_of_the_fields_after_replace_and_pickle(self):
        slice_ = tiny_config().slices()[0]

        def fresh(s):
            text = json.dumps(s.as_dict(), sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        assert slice_.fingerprint == fresh(slice_)
        assert "fingerprint" not in slice_.as_dict()
        for other in (replace(slice_, budget=999), pickle.loads(pickle.dumps(slice_)),
                      replace(replace(slice_, budget=999), budget=slice_.budget)):
            assert other.fingerprint == fresh(other)
        assert replace(slice_, budget=999).fingerprint != slice_.fingerprint
        assert pickle.loads(pickle.dumps(slice_)) == slice_

    def test_seed_derivation_is_stable_and_documented(self):
        a = derive_seed(7, "abc", 0)
        assert a == derive_seed(7, "abc", 0)
        assert a != derive_seed(7, "abc", 1)
        assert a != derive_seed(8, "abc", 0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(EvaluationError):
            ExperimentConfig.from_dict({"problems": ["uf1"], "noise": [{"kind": "none"}],
                                        "strategies": [{"kind": "static"}],
                                        "bogus": 1})

    @pytest.mark.parametrize("entry", [{"kind": "arb", "grid": {"alpha_l": [0.2, 0.6]}},
                                       {"kind": "rtea", "grid": {"z": [0.1, 1.0]}}])
    def test_bad_strategy_grid_fails_at_load(self, entry):
        with pytest.raises(EvaluationError):
            ExperimentConfig.from_dict({"problems": ["uf1"], "noise": [{"kind": "none"}],
                                        "strategies": [entry]})

    def test_every_desk_slice_builds(self):
        config = ExperimentConfig.load(DESK_CONFIG)
        fingerprints = ""
        for budget in (config.budget, config.selection.prestudy_budget):
            slices = config.slices(budget)
            assert len(slices) == 1482
            for slice_ in slices:
                strategy_from_dict(slice_.strategy)
                fingerprints += slice_.fingerprint
        # Fingerprints seed every run: the config -> slice path must not move them.
        assert hashlib.sha256(fingerprints.encode()).hexdigest() == (
            "b5c2298d036f38ad43d6f09fcafc5b407edaa58123575128f8bd3bb834760d18")

    def test_desk_load_builds_each_strategy_once(self, monkeypatch):
        built = []

        def counting(spec):
            built.append(spec)
            return strategy_from_dict(spec)

        monkeypatch.setattr(harness, "strategy_from_dict", counting)
        config = ExperimentConfig.load(DESK_CONFIG)
        assert len(built) == 26 == sum(len(e.combinations()) for e in config.strategies)

    def test_families_are_those_the_strategy_types_name(self):
        named = {cls.family for cls in get_args(ResamplingStrategy)}
        assert len(harness.FAMILIES) == len(named) and set(harness.FAMILIES) == named

    def test_selection_keys_default_one_by_one(self):
        config = tiny_config(budget=2400, replications=5, selection={"n_select": 1})
        assert asdict(config.selection) == {"n_select": 1, "n_compare": 4, "n_repeats": 100,
                                    "prestudy_budget": 2000}

    def test_family_grouping(self, tmp_path):
        # kind -> (family, the mode slices() writes, per_run.csv optimizer)
        expected = {"static": ("static", "one_shot", "nsga2"),
                    "time": ("dynamic", "sequential", "nsga2"),
                    "rank": ("dynamic", "sequential", "nsga2"),
                    "strength": ("dynamic", "sequential", "nsga2"),
                    "sederror": ("dynamic", "sequential", "nsga2"),
                    "arb": ("arb", "sequential", "nsga2"),
                    "rtea": ("rtea", "rtea", "rtea")}
        config = tiny_config(noise=[{"kind": "none"}], budget=240,
                             strategies=[{"kind": kind} for kind in expected],
                             selection={"n_select": 2, "n_compare": 1,
                                        "prestudy_budget": 220})
        slices = config.slices()
        assert {s.strategy["kind"]: (s.family, s.mode) for s in slices} == {
            kind: (family, mode) for kind, (family, mode, _) in expected.items()}
        records = [RunRecord(fingerprint=s.fingerprint, slice=s.as_dict(), replication=0,
                             seed=0, spent=240, eval_log=[], final_population=[],
                             returned_set=[], metrics={"hv_normalized": 0.5, "hv_raw": 0.5,
                                                       "igd": 0.5, "n_returned": 1,
                                                       "n_filtered": 1})
                   for s in slices]
        rows = [dict(zip(PER_RUN_HEADER, line.split(",")))
                for line in report(records, tmp_path)[0].read_text().splitlines()[1:]]
        assert {row["strategy"][:-2]: (row["family"], row["mode"], row["optimizer"])
                for row in rows} == expected
        with pytest.raises(EvaluationError, match="unknown strategy kind 'other'"):
            RunSlice.from_dict({**slices[0].as_dict(), "strategy": {"kind": "other"}}).family


class TestRunSingle:
    def test_byte_identical_records_for_same_seed(self):
        slice_ = tiny_config().slices()[0]
        a = run_single(slice_, 0, 1234)
        b = run_single(slice_, 0, 1234)
        assert a.canonical_json() == b.canonical_json()

    def test_slice_mode_must_be_its_kinds_loop(self):
        slice_ = tiny_config().slices()[0]
        wrong = RunSlice.from_dict({**slice_.as_dict(), "mode": "sequential"})
        with pytest.raises(EvaluationError, match="one_shot"):
            run_single(wrong, 0, 1)

    def test_log_length_equals_budget(self):
        slice_ = tiny_config().slices()[1]
        record = run_single(slice_, 0, 99)
        assert record.spent == slice_.budget
        assert len(record.eval_log) == slice_.budget

    def test_hv_within_metric_bounds(self):
        slice_ = tiny_config().slices()[0]  # zero-noise slice
        record = run_single(slice_, 0, 5)
        assert 0.0 <= record.hv <= 1.01

    def test_desk_arb_slice_with_alpha_l_one_half_spends_budget(self):
        config = ExperimentConfig.load(DESK_CONFIG)
        slice_ = next(s for s in config.slices(budget=400)
                      if s.strategy == {"kind": "arb", "alpha_l": 0.5, "alpha_u": 0.75}
                      and s.noise == {"kind": "gaussian", "sigma": 0.5})
        record = run_single(slice_, 0, derive_seed(config.base_seed, slice_.fingerprint, 0),
                            config.metric_params(), config.variation_config())
        assert record.spent == 400
        assert len(record.eval_log) == 400

    def test_rtea_final_population_is_its_front(self):
        # Without noise the front keeps several members, so order counts too.
        slice_ = RunSlice(problem="uf1", dim=10, noise={"kind": "none"},
                          strategy={"kind": "rtea", "p": 6}, mode="rtea", popsize=6, budget=300)
        record = run_single(slice_, 0, 7)
        assert len(record.returned_set) > 1
        assert record.final_population == record.returned_set

    @pytest.mark.parametrize("strategy", [{"kind": "arb", "init_popsize": 20, "seed_size": 10},
                                          {"kind": "rtea", "p": 6}], ids=["nsga2", "rtea"])
    def test_record_log_is_the_optimizers_log(self, strategy):
        # The record stores the optimizer's log unconverted, so its rows must
        # already hold what canonical JSON writes: int, int, two floats.
        mode = "rtea" if strategy["kind"] == "rtea" else "sequential"
        slice_ = RunSlice(problem="uf1", dim=10, noise={"kind": "gaussian", "sigma": 0.5},
                          strategy=strategy, mode=mode, popsize=10, budget=200)
        record = run_single(slice_, 0, 11)
        problem = make_problem("uf1", dim=10, noise=NoiseLaw(kind="gaussian", sigma=0.5))
        rng = np.random.default_rng(11)
        if mode == "rtea":
            result = rtea_run(problem, strategy_from_dict(strategy), 200, VariationConfig(), rng)
        else:
            result = nsga2_run(problem, strategy_from_dict(strategy), 10, 200,
                               VariationConfig(), rng)
        assert record.eval_log == result.log
        assert json.loads(record.canonical_json())["eval_log"] == result.log
        for uid, generation, sample in result.log:
            assert type(uid) is int and type(generation) is int
            assert type(sample) is list and [type(v) for v in sample] == [float, float]

    def test_loaded_record_is_its_file(self, tmp_path):
        slice_ = tiny_config().slices()[0]
        path = tmp_path / "run.json"
        write_record(path, run_single(slice_, 0, 1))
        assert load_record(path).canonical_json() + "\n" == path.read_text()


class TestSweep:
    def test_record_count_and_idempotency(self, tmp_path, monkeypatch):
        reads = []
        load = harness.load_record

        def counted(path):
            reads.append(Path(path).name)
            return load(path)

        # sweep reads no record to count them; a re-sweep reads only the
        # first record of the plan, to check the inputs it was made under.
        monkeypatch.setattr(harness, "load_record", counted)
        config = tiny_config()
        n_runs = len(config.slices()) * config.replications
        assert sweep(config, tmp_path) == n_runs
        assert reads == []
        before = {p.name: p.read_bytes() for p in (tmp_path / "records").iterdir()}
        assert len(before) == n_runs
        assert sweep(config, tmp_path) == 0
        slice_, rep, _ = config.runs()[0]
        assert reads == [record_path(tmp_path, slice_, rep).name]
        after = {p.name: p.read_bytes() for p in (tmp_path / "records").iterdir()}
        assert before == after

    def test_each_record_path_is_checked_once(self, tmp_path, monkeypatch):
        checked = []
        exists = Path.exists

        def counted(path, *args, **kwargs):
            checked.append(path)
            return exists(path, *args, **kwargs)

        monkeypatch.setattr(Path, "exists", counted)
        config = tiny_config(noise=[{"kind": "none"}], **TWO_REPS)
        plan = [record_path(tmp_path, slice_, rep) for slice_, rep, _ in config.runs()]
        for _ in range(2):  # a fresh directory, then one that holds every record
            checked.clear()
            sweep(config, tmp_path)
            assert checked == plan

    def test_partial_temp_file_is_not_a_record(self, tmp_path):
        # A writer killed before its rename leaves only a truncated temp file.
        config = tiny_config()
        sweep(config, tmp_path)
        slice_ = config.slices()[1]
        path = record_path(tmp_path, slice_, 2)
        whole = path.read_bytes()
        path.unlink()
        partial = path.with_name(f".{path.name}.99999.tmp")
        partial.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(EvaluationError, match=f"{slice_.fingerprint}, 2"):
            load_records(config, tmp_path)
        assert sweep(config, tmp_path) == 1
        assert len(load_records(config, tmp_path)) == \
               len(config.slices()) * config.replications
        assert path.read_bytes() == whole

    def test_sweep_removes_temp_files_of_dead_writers_only(self, tmp_path):
        # A writer killed between writing and renaming leaves its temp file;
        # one of a live writer (another sweep into the same directory) stays.
        records = tmp_path / "records"
        records.mkdir()
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        dead = records / f".a_r000.json.{child.pid}.tmp"
        live = records / f".b_r000.json.{os.getpid()}.tmp"
        for tmp in (dead, live):
            tmp.write_text("{")
        sweep(tiny_config(noise=[{"kind": "none"}], **TWO_REPS), tmp_path)
        assert not dead.exists() and live.exists()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_sweep_removes_temp_file_of_a_zombie_writer(self, tmp_path):
        # A SIGKILLed worker whose sweep died too is a zombie until reaped.
        records = tmp_path / "records"
        records.mkdir()
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)  # exited, not reaped
        zombie = records / f".a_r000.json.{child.pid}.tmp"
        zombie.write_text("{")
        try:
            sweep(tiny_config(noise=[{"kind": "none"}], **TWO_REPS), tmp_path)
        finally:
            child.wait()
        assert not zombie.exists()

    def test_failed_write_leaves_old_record_and_no_temp_file(self, tmp_path, monkeypatch):
        config = tiny_config()
        slice_ = config.slices()[0]
        record = run_single(slice_, 0, derive_seed(7, slice_.fingerprint, 0))
        path = tmp_path / "records" / "run.json"
        write_record(path, record)
        before = path.read_bytes()

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_record(path, record)
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["run.json"]

    def test_execution_order_does_not_change_records(self, tmp_path):
        config = tiny_config()
        sweep(config, tmp_path / "serial", jobs=1)
        sweep(config, tmp_path / "parallel", jobs=2)
        serial = {p.name: p.read_bytes() for p in (tmp_path / "serial/records").iterdir()}
        parallel = {p.name: p.read_bytes() for p in (tmp_path / "parallel/records").iterdir()}
        assert len(serial) == len(config.runs()) and serial == parallel

    def test_loaded_records_are_their_files_without_logs(self, tmp_path):
        config = tiny_config()
        sweep(config, tmp_path)
        loaded = load_records(config, tmp_path)
        files = [load_record(record_path(tmp_path, s, r)) for s, r, _ in config.runs()]
        assert all(f.eval_log for f in files)
        assert loaded == [replace(f, eval_log=[]) for f in files]


def test_scoring_reference_is_built_once_per_metrics_setting(tmp_path, monkeypatch):
    config = tiny_config(noise=[{"kind": "none"}], **TWO_REPS)
    sweep(config, tmp_path)
    sampled = []
    real = metrics.sample_true_pf
    monkeypatch.setattr(metrics, "sample_true_pf", lambda n: sampled.append(n) or real(n))
    metrics.reference.cache_clear()
    params = MetricParams()
    point = EvaluatedPoint(decision=np.full(10, 0.5), samples=[np.zeros(2)],
                           true_mean=np.zeros(2))
    for returned in ([], [point]):
        score_final_set(returned, params)
    assert len(load_records(config, tmp_path)) == 4
    assert sampled == [params.n_pf]


class TestSelectSplit:
    def test_single_family_always_wins(self):
        records = synthetic_records(["static"], ["none"], n_reps=6)
        fractions = select_params_split(records, 3, 3, 20, np.random.default_rng(0))
        for per_family in fractions.values():
            assert per_family == {"static": 1.0}

    def test_fractions_sum_to_one(self):
        records = synthetic_records(["static", "arb", "rtea"], ["none", "gaussian"],
                                    n_reps=6)
        fractions = select_params_split(records, 3, 3, 50, np.random.default_rng(1))
        for per_family in fractions.values():
            assert sum(per_family.values()) == pytest.approx(1.0, abs=1e-9)

    def test_identical_families_split_evenly(self):
        rng_vals = np.random.default_rng(2).uniform(size=(2, 2, 12))

        def value(kind, fam, cfg_i, rep):
            fam_i = ["static", "arb"].index(fam)
            return float(rng_vals[fam_i % 1, cfg_i, rep])  # same values per family

        records = synthetic_records(["static", "arb"], ["none"], n_reps=12,
                                    value=value)
        fractions = select_params_split(records, 6, 6, 100, np.random.default_rng(3))
        for per_family in fractions.values():
            assert per_family["static"] == pytest.approx(0.5, abs=0.15)

    def test_insufficient_replications_rejected(self):
        records = synthetic_records(["static"], ["none"], n_reps=3)
        with pytest.raises(EvaluationError):
            select_params_split(records, 3, 3, 10, np.random.default_rng(0))


class TestSelectPrestudy:
    def test_single_family_wins_everything(self):
        pre = synthetic_records(["static"], ["none"], n_reps=2)
        full = synthetic_records(["static"], ["none"], n_reps=4)
        for r in pre:
            r.slice["budget"] = 10
        table = select_params_prestudy(pre, full)
        assert table["counts"]["static"]["none"] == 4.0

    def test_table_shape_and_accounting(self):
        families = ["arb", "dynamic", "static", "rtea"]
        kinds = ["chisq", "gaussian", "none"]
        pre = synthetic_records(families, kinds, n_reps=2)
        full = synthetic_records(families, kinds, n_reps=5)
        for r in pre:
            r.slice["budget"] = 10
        table = select_params_prestudy(pre, full)
        assert table["families"] == families
        assert table["noise_kinds"] == kinds
        total = sum(sum(row.values()) for row in table["counts"].values())
        assert total == pytest.approx(table["cells_counted"]) == 3 * 5

    def test_winners_pair_with_their_full_budget_twins(self):
        # Static's second and arb's first parameterization win the prestudy;
        # at full budget static wins every replication with exactly those.
        pre_hv = {("static", 0): 0.5, ("static", 1): 0.6, ("arb", 0): 0.6, ("arb", 1): 0.5}
        full_hv = {("static", 0): 0.1, ("static", 1): 0.9, ("arb", 0): 0.5, ("arb", 1): 0.95}
        pre = synthetic_records(["static", "arb"], ["none"], 2, budget=10,
                                value=lambda kind, fam, cfg_i, rep: pre_hv[fam, cfg_i])
        full = synthetic_records(["static", "arb"], ["none"], 3,
                                 value=lambda kind, fam, cfg_i, rep: full_hv[fam, cfg_i])
        assert not {r.fingerprint for r in pre} & {r.fingerprint for r in full}
        table = select_params_prestudy(pre, full)
        assert table["counts"]["static"]["none"] == 3.0
        assert table["counts"]["arb"]["none"] == 0.0

    def test_winner_without_a_full_budget_twin_is_refused(self):
        pre = synthetic_records(["static"], ["none"], 2, n_configs=3, budget=10,
                                value=lambda kind, fam, cfg_i, rep: 0.1 * cfg_i)
        full = synthetic_records(["static"], ["none"], 2)  # configurations 0 and 1 only
        with pytest.raises(EvaluationError, match="no full-budget slice matches"):
            select_params_prestudy(pre, full)

    def test_missing_slices_reported(self):
        pre = synthetic_records(["static"], ["none"], n_reps=2)
        full = synthetic_records(["static"], ["gaussian"], n_reps=2)
        for r in pre:
            r.slice["budget"] = 10
        with pytest.raises(EvaluationError):
            select_params_prestudy(pre, full)


class TestReport:
    def test_headers_frozen(self, tmp_path):
        records = synthetic_records(["static", "arb"], ["none"], n_reps=2)
        paths = report(records, tmp_path)
        assert paths[0].read_text().splitlines()[0] == ",".join(PER_RUN_HEADER)
        assert paths[1].read_text().splitlines()[0] == ",".join(AGGREGATE_HEADER)

    def test_row_counts(self, tmp_path):
        records = synthetic_records(["static", "arb"], ["none", "gaussian"], n_reps=3)
        paths = report(records, tmp_path)
        per_run = paths[0].read_text().splitlines()
        aggregate = paths[1].read_text().splitlines()
        assert len(per_run) == 1 + len(records)
        assert len(aggregate) == 1 + 2 * 2 * 2  # setting x family x config

    def test_reporting_twice_is_byte_identical(self, tmp_path):
        records = synthetic_records(["static"], ["gaussian"], n_reps=2)
        first = [p.read_bytes() for p in report(records, tmp_path)]
        second = [p.read_bytes() for p in report(records, tmp_path)]
        assert first == second

    def test_aggregate_mean_matches_hand_computation(self, tmp_path):
        records = synthetic_records(["static"], ["none"], n_reps=4, n_configs=1,
                                    value=lambda *a: 0.25 * a[3])
        paths = report(records, tmp_path)
        row = paths[1].read_text().splitlines()[1].split(",")
        idx = AGGREGATE_HEADER.index("hv_normalized_mean")
        assert float(row[idx]) == pytest.approx(np.mean([0.0, 0.25, 0.5, 0.75]))

    def test_csv_uses_lf_line_endings(self, tmp_path):
        records = synthetic_records(["static"], ["none"], n_reps=2)
        raw = report(records, tmp_path)[0].read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").endswith("\n")

    def test_strategy_labels_with_commas_keep_the_header_width(self, tmp_path):
        strategies = [{"kind": "arb", "alpha_l": 0.2, "alpha_u": 0.9, "seed_size": 6},
                      {"kind": "rtea", "k": 1, "p": 6, "z": 0.1}]
        slices = [RunSlice(problem="uf1", dim=10, noise={"kind": "none"}, strategy=spec,
                           mode=strategy_type(spec["kind"]).loop, popsize=6, budget=300)
                  for spec in strategies]
        records = [RunRecord(fingerprint=s.fingerprint, slice=s.as_dict(), replication=rep,
                             seed=rep, spent=300, eval_log=[], final_population=[],
                             returned_set=[], metrics={"hv_normalized": 0.5, "hv_raw": 0.5,
                                                       "igd": 0.5, "n_returned": 1,
                                                       "n_filtered": 1})
                   for s in slices for rep in range(2)]
        for path, header in zip(report(records, tmp_path), (PER_RUN_HEADER, AGGREGATE_HEADER)):
            with path.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == header and len(rows) > 1
            assert all(len(row) == len(header) for row in rows)
            labels = {row[header.index("strategy")] for row in rows[1:]}
            assert labels == {harness.strategy_label(s.strategy) for s in slices}
            assert "arb(alpha_l=0.2,alpha_u=0.9,seed_size=6)" in labels

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(EvaluationError):
            report([], tmp_path)
