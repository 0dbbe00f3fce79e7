import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from noisymoo.cli import main


SELECTION = {"n_select": 1, "n_compare": 1, "n_repeats": 5, "prestudy_budget": 250}


@pytest.fixture
def config_path(tmp_path):
    config = {
        "schema_version": 1,
        "problems": ["uf1"],
        "noise": [{"kind": "none"}, {"kind": "gaussian", "sigma": 0.5},
                  {"kind": "chisq", "df": 1, "sigma": 0.5}],
        "strategies": [{"kind": "static", "grid": {"n": [1, 2]}},
                       {"kind": "rank", "grid": {"n_max": [2]}},
                       {"kind": "arb", "grid": {"alpha_l": [0.2], "alpha_u": [0.9],
                                                "init_popsize": [8], "seed_size": [6],
                                                "capacity": [20]}},
                       {"kind": "rtea", "grid": {"k": [1], "z": [0.1], "p": [6]}}],
        "budget": 300,
        "popsize": 6,
        "replications": 2,
        "base_seed": 11,
        "selection": SELECTION,
        "output_dir": str(tmp_path / "default_out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_run_one_slice(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--slice", "0",
                 "--out", str(out)]) == 0
    records = list((out / "records").iterdir())
    assert len(records) == 1
    payload = json.loads(records[0].read_text())
    assert payload["spent"] == 300


def test_run_rejects_bad_slice_index(config_path, tmp_path):
    assert main(["run", "--config", str(config_path), "--slice", "999",
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("rep", ["2", "7", "-1"])
def test_run_rejects_bad_rep_index(rep, config_path, tmp_path, capsys):
    assert main(["run", "--config", str(config_path), "--slice", "0", "--rep", rep,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "replication index out of range (0..1)" in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_sweep_rejects_jobs_below_one(jobs, config_path, tmp_path, capsys):
    assert main(["sweep", "--config", str(config_path), "--jobs", jobs,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"--jobs must be at least 1, got {jobs}" in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_sweep_select_report_pipeline(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config_path), "--jobs", "2",
                 "--out", str(out)]) == 0
    n_slices = 3 * 5  # noise kinds x strategy configs
    assert len(list((out / "records").iterdir())) == n_slices * 2

    assert main(["select", "--config", str(config_path), "--protocol", "split",
                 "--out", str(out)]) == 0
    split = json.loads((out / "selection_split.json").read_text())
    assert split["protocol"] == "split"
    for per_family in split["fractions"].values():
        assert sum(per_family.values()) == pytest.approx(1.0, abs=1e-9)

    assert main(["sweep", "--config", str(config_path), "--prestudy", "--jobs", "2",
                 "--out", str(out)]) == 0
    assert main(["select", "--config", str(config_path), "--protocol", "prestudy",
                 "--out", str(out)]) == 0
    table = json.loads((out / "selection_prestudy.json").read_text())
    assert table["families"] == ["arb", "dynamic", "static", "rtea"]
    assert table["noise_kinds"] == ["chisq", "gaussian", "none"]

    assert main(["report", "--config", str(config_path), "--out", str(out)]) == 0
    per_run = (out / "report" / "per_run.csv").read_text().splitlines()
    assert len(per_run) == 1 + n_slices * 2


def test_read_only_commands_refuse_incomplete_records(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config_path), "--jobs", "2",
                 "--out", str(out)]) == 0
    records = sorted((out / "records").iterdir())
    records[0].unlink()
    fingerprint, rep = records[0].stem.split("_r")
    capsys.readouterr()
    for argv in (["report"], ["select", "--protocol", "split"],
                 ["select", "--protocol", "prestudy"]):
        assert main([*argv, "--config", str(config_path), "--out", str(out)]) == 2
        assert f"({fingerprint}, {int(rep)})" in capsys.readouterr().err
    assert sorted((out / "records").iterdir()) == records[1:]
    assert not (out / "report").exists()
    assert not list(out.glob("selection_*.json"))


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_seed_flag_is_gone(command, config_path, tmp_path):
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out"),
            "--seed", "5", *COMMANDS[command]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


DROP = object()  # a config edit value that deletes the key
SMALL_ARB = {"init_popsize": [8], "seed_size": [6], "capacity": [20]}  # the fixture's arb

# id -> (config edit, the key the error line must name)
BAD_CONFIGS = {
    "alpha": ({"strategies": [{"kind": "arb", "grid": {"alpha": [0.2]}}]}, "alpha"),
    "alpha_l": ({"strategies": [{"kind": "arb", "grid": {"alpha_l": [0.6]}}]}, "alpha_l"),
    "rtea_alpha": ({"strategies": [{"kind": "rtea", "grid": {"alpha": [0.2]}}]}, "alpha"),
    "rtea_p_above_budget": ({"strategies": [{"kind": "rtea", "grid": {"p": [400]}}]},
                            "rtea initial sample p=400 exceeds the budget"),
    "rtea_p_zero": ({"strategies": [{"kind": "rtea", "grid": {"p": [0]}}]},
                    "p must be at least 1, got 0"),
    "grid_loop": ({"strategies": [{"kind": "static", "grid": {"loop": ["rtea"]}}]}, "loop"),
    "metrics_bogus": ({"metrics": {"bogus": 1}}, "bogus"),
    "variation_bogus": ({"variation": {"sbx_eta": 5.0, "sbx_prob": 0.9,
                                       "mutation_eta": 20.0, "mutation_prob": 0.1}},
                        "variation"),
    "no_problems": ({"problems": DROP}, "problems"),
    "entry_no_kind": ({"strategies": [{"grid": {"n": [1]}}]}, "kind"),
    "metrics_list": ({"metrics": [1]}, "metrics"),
    "metrics_n_pf": ({"metrics": {"n_pf": 1}}, "n_pf"),
    "metrics_igd_power": ({"metrics": {"igd_power": 0.5}}, "igd_power"),
    "selection_typo": ({"selection": {"n_selct": 1}}, "n_selct"),
    "entry_grdi": ({"strategies": [{"kind": "static", "grdi": {"n": [7]}}]}, "grdi"),
    "entry_mode": ({"strategies": [{"kind": "static", "mode": "sequential"}]}, "mode"),
    "entry_kind_list": ({"strategies": [{"kind": ["static"]}]}, "kind"),
    "entry_kind_int": ({"strategies": [{"kind": 5}]},
                       "strategy entry key kind must be str, got int"),
    "problems_str": ({"problems": "uf1"}, "problems"),
    "problems_unknown": ({"problems": ["uf9"]}, "uf9"),
    "problems_upper_case": ({"problems": ["uf1", "UF1"]}, "unknown problem 'UF1'"),
    "dim_small": ({"dim": 2}, "dim"),
    "budget_str": ({"budget": "60"}, "budget"),
    "n_pf_str": ({"metrics": {"n_pf": "5"}}, "n_pf"),
    "grid_not_list": ({"strategies": [{"kind": "static", "grid": {"n": 7}}]}, "grid"),
    "grid_float_int": ({"strategies": [{"kind": "static", "grid": {"n": [2.0]}}]}, "n"),
    "grid_empty": ({"strategies": [{"kind": "static", "grid": {"n": []}}, {"kind": "rank"}]},
                   "the static grid gives n no values"),
    "noise_sd": ({"noise": [{"kind": "gaussian", "sd": 0.5}]}, "sd"),
    "noise_gauss": ({"noise": [{"kind": "gauss", "sigma": 0.5}]}, "gauss"),
    "noise_negative": ({"noise": [{"kind": "gaussian", "sigma": -0.5}]}, "sigma"),
    "noise_str": ({"noise": ["gaussian"]}, "noise"),
    "noise_none_sigma": ({"noise": [{"kind": "none", "sigma": 0.5}]}, "sigma"),
    "noise_gaussian_df": ({"noise": [{"kind": "gaussian", "sigma": 0.5, "df": 2}]}, "df"),
    "noise_no_kind": ({"noise": [{"sigma": 0.5}]}, "sigma"),
    "noise_df_float": ({"noise": [{"kind": "chisq", "sigma": 0.5, "df": 1.0}]}, "df"),
    "problem_repeated": ({"problems": ["uf1", "uf3", "uf1"]}, 'problem "uf1" is listed twice'),
    "noise_repeated": ({"noise": [{"kind": "none"}, {"kind": "none"}]},
                       'noise entry {"kind":"none"} is listed twice'),
    "noise_sigma_int_float": ({"noise": [{"kind": "gaussian", "sigma": 1},
                                         {"kind": "gaussian", "sigma": 1.0}]},
                              '{"kind":"gaussian","sigma":1.0} is listed twice'),
    "grid_repeated": ({"strategies": [{"kind": "static", "grid": {"n": [1, 1]}}]},
                      'strategy {"kind":"static","n":1} is listed twice'),
    "entries_repeated": ({"strategies": [{"kind": "static", "grid": {"n": [2]}},
                                         {"kind": "rank"},
                                         {"kind": "static", "grid": {"n": [1, 2]}}]},
                         'strategy {"kind":"static","n":2} is listed twice'),
    "static_default_twice": ({"strategies": [{"kind": "static"},
                                             {"kind": "static", "grid": {"n": [1]}}]},
                             "strategies static() and static(n=1) are the same strategy"),
    "arb_default_twice": ({"strategies": [{"kind": "arb"},
                                          {"kind": "arb", "grid": {"alpha_l": [0.2]}}]},
                          "strategies arb() and arb(alpha_l=0.2) are the same strategy"),
    "static_n_negative": ({"strategies": [{"kind": "static", "grid": {"n": [-3]}}]},
                          "n must be at least 1, got -3"),
    "time_n_max_zero": ({"strategies": [{"kind": "time", "grid": {"n_max": [0]}}]},
                        "n_max must be at least 1, got 0"),
    "arb_n_boot_zero": ({"strategies": [{"kind": "arb", "grid": {**SMALL_ARB, "n_boot": [0]}}]},
                        "n_boot must be at least 1, got 0"),
    "arb_capacity_zero": ({"strategies": [{"kind": "arb",
                                           "grid": {**SMALL_ARB, "capacity": [0]}}]},
                          "capacity must be at least 1, got 0"),
    "arb_seed_size_zero": ({"strategies": [{"kind": "arb",
                                            "grid": {**SMALL_ARB, "seed_size": [0]}}]},
                           "seed_size must be at least 1, got 0"),
    "arb_weak_indicator": ({"strategies": [{"kind": "arb",
                                            "grid": {**SMALL_ARB, "weak_indicator": [True]}}]},
                           "unknown arb parameter(s): weak_indicator"),
    "sederror_aggregation": ({"strategies": [{"kind": "sederror",
                                              "grid": {"aggregation": ["mean"]}}]},
                             "unknown sederror parameter(s): aggregation"),
    "sederror_true_se": ({"strategies": [{"kind": "sederror", "grid": {"true_se": [False]}}]},
                         "unknown sederror parameter(s): true_se"),
    "noise_sigma_nan": ({"noise": [{"kind": "gaussian", "sigma": float("nan")}]},
                        "noise key sigma must be finite, got nan"),
    "noise_sigma_inf": ({"noise": [{"kind": "gaussian", "sigma": float("inf")}]},
                        "noise key sigma must be finite, got inf"),
    "metrics_igd_power_nan": ({"metrics": {"igd_power": float("nan")}},
                              "metrics key igd_power must be finite, got nan"),
    "sederror_threshold_nan": ({"strategies": [{"kind": "sederror",
                                                "grid": {"threshold": [float("nan")]}}]},
                               "sederror parameter threshold must be finite, got nan"),
    "nadir_delta_negative": ({"metrics": {"nadir_delta": -0.7}},
                             "metrics nadir_delta must be at least 0, got -0.7"),
    "nadir_degenerate": ({"metrics": {"n_pf": 2, "nadir_delta": 0}}, "nadir is degenerate"),
    "nadir_degenerate_tiny_delta": ({"metrics": {"n_pf": 2, "nadir_delta": 1e-20}},
                                    "nadir is degenerate"),
    "schema_version_true": ({"schema_version": True}, "unsupported config schema_version True"),
    "popsize_odd": ({"popsize": 7}, "popsize"),
    "base_seed_negative": ({"base_seed": -1}, "base_seed"),
    "n_select_zero": ({"selection": {**SELECTION, "n_select": 0}}, "n_select"),
    "n_select_negative": ({"selection": {**SELECTION, "n_select": -1}}, "n_select"),
    "n_compare_zero": ({"selection": {**SELECTION, "n_compare": 0}}, "n_compare"),
    "n_repeats_zero": ({"selection": {**SELECTION, "n_repeats": 0}}, "n_repeats"),
    "arb_budget_below_init": ({"budget": 60, "selection": {"prestudy_budget": 60},
                               "strategies": [{"kind": "arb"}]},
                              "budget 60 below initialization cost 220"),
    "prestudy_below_init": ({"strategies": [{"kind": "arb", "grid": {"init_popsize": [270],
                                                                     "seed_size": [6]}}]},
                            "budget 250 below initialization cost 276"),
}
COMMANDS = {"run": ["--slice", "0"], "sweep": ["--jobs", "1"], "report": [],
            "select": ["--protocol", "split"]}


@pytest.mark.parametrize("param", sorted(BAD_CONFIGS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_bad_config_exits_2_with_one_line(command, param, config_path, tmp_path, capsys):
    edit, key = BAD_CONFIGS[param]
    config = json.loads(config_path.read_text())
    config.update(edit)
    config = {k: v for k, v in config.items() if v is not DROP}
    config_path.write_text(json.dumps(config))
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out"),
            *COMMANDS[command]]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and key in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# id -> (what replaces the config file, text the error line must hold)
UNREADABLE_CONFIGS = {"missing_file": (None, "No such file"),
                      "invalid_json": ('{"problems": ["uf1"],', "Expecting"),
                      "not_an_object": ("[1]", "JSON object")}


@pytest.mark.parametrize("case", sorted(UNREADABLE_CONFIGS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unreadable_config_exits_2_with_one_line(command, case, config_path, tmp_path,
                                                 capsys):
    text, needle = UNREADABLE_CONFIGS[case]
    if text is None:
        config_path.unlink()
    else:
        config_path.write_text(text)
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out"),
            *COMMANDS[command]]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and needle in err[0] and str(config_path) in err[0]
    assert not (tmp_path / "out").exists()


def _edited(edit):
    """A damage that parses a record's text, applies ``edit`` to it, and writes it back."""
    def damage(text):
        raw = json.loads(text)
        edit(raw)
        return json.dumps(raw)
    return damage


def _flip_n(raw):
    strategy = raw["slice"]["strategy"]
    strategy["n"] = 3 - strategy["n"]  # the sweep's n is 1 or 2


# id -> (config edit after the sweep, edit of one record file's JSON or None,
# the key the error line must name)
OTHER_INPUTS = {
    "base_seed": ({"base_seed": 12}, None, "seed"),
    "nadir_delta": ({"metrics": {"nadir_delta": 0.5}}, None, "nadir"),
    "n_pf": ({"metrics": {"n_pf": 500}}, None, "pf_sample_size"),
    "igd_power": ({"metrics": {"igd_power": 1.0}}, None, "igd_power"),
    "fingerprint": ({}, lambda raw: raw.update(fingerprint="0" * 16), "fingerprint"),
    "replication": ({}, lambda raw: raw.update(replication=1 - raw["replication"]),
                    "replication"),
    "slice_noise": ({}, lambda raw: raw["slice"].update(noise={"kind": "none"}), "slice.noise"),
    "slice_strategy_n": ({}, _flip_n, "slice.strategy"),
    # The first record's n is 1, which 1.0 and true equal under ==.
    "slice_strategy_n_float": ({}, lambda raw: raw["slice"]["strategy"].update(n=1.0),
                               "slice.strategy"),
    "slice_strategy_n_bool": ({}, lambda raw: raw["slice"]["strategy"].update(n=True),
                              "slice.strategy"),
}
READERS = {"report": [], "select": ["--protocol", "split"]}


@pytest.mark.parametrize("change", sorted(OTHER_INPUTS))
@pytest.mark.parametrize("command", sorted(READERS))
def test_records_made_under_other_inputs_are_refused(command, change, config_path,
                                                     tmp_path, capsys):
    config = json.loads(config_path.read_text())
    config.update(noise=[{"kind": "gaussian", "sigma": 0.5}],
                  strategies=[{"kind": "static", "grid": {"n": [1, 2]}}])
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0

    edit, record_edit, key = OTHER_INPUTS[change]
    record = sorted((out / "records").iterdir())[0]
    original = record.read_text()
    if record_edit is not None:
        record.write_text(_edited(record_edit)(original))
    before = {p.name: p.read_bytes() for p in (out / "records").iterdir()}
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps({**config, **edit}))
    capsys.readouterr()
    argv = [command, "--out", str(out), *READERS[command]]
    assert main([*argv, "--config", str(changed)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert str(out / "records") in err[0] and f": {key} is " in err[0]
    assert sorted(p.name for p in out.iterdir()) == ["records"]
    assert {p.name: p.read_bytes() for p in (out / "records").iterdir()} == before

    record.write_text(original)
    assert main([*argv, "--config", str(config_path)]) == 0


# id -> how a record file's text is damaged
DAMAGED_RECORDS = {
    "cut_short": lambda text: text[:100],
    "fields_missing": lambda text: '{"seed": 1}',
    "metrics_nadir_missing": _edited(lambda raw: raw["metrics"].pop("nadir")),
    "metrics_list": _edited(lambda raw: raw.update(metrics=[1])),
    "slice_partial": _edited(lambda raw: raw.update(slice={"problem": "uf1"})),
    "replication_str": _edited(lambda raw: raw.update(replication="0")),
    "replication_bool": _edited(lambda raw: raw.update(replication=True)),
    "seed_str": _edited(lambda raw: raw.update(seed=str(raw["seed"]))),
    "spent_str": _edited(lambda raw: raw.update(spent=str(raw["spent"]))),
    "metrics_hv_normalized_str": _edited(lambda raw: raw["metrics"].update(hv_normalized="0.5")),
    "metrics_n_returned_float": _edited(lambda raw: raw["metrics"].update(n_returned=1.5)),
    "slice_budget_str": _edited(lambda raw: raw["slice"].update(budget=str(raw["slice"]["budget"]))),
    "eval_log_str": _edited(lambda raw: raw.update(eval_log="x")),
    "returned_set_dict": _edited(lambda raw: raw.update(returned_set={})),
    "slice_noise_list": _edited(lambda raw: raw["slice"].update(noise=[1])),
    "slice_strategy_str": _edited(lambda raw: raw["slice"].update(strategy="static")),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_RECORDS))
@pytest.mark.parametrize("command", sorted(READERS))
def test_damaged_record_exits_2_with_one_line(command, damage, config_path, tmp_path,
                                              capsys):
    config = json.loads(config_path.read_text())
    config.update(noise=[{"kind": "none"}], strategies=[{"kind": "static"}])
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    record = sorted((out / "records").iterdir())[0]
    record.write_text(DAMAGED_RECORDS[damage](record.read_text()))
    before = {p.name: p.read_bytes() for p in (out / "records").iterdir()}
    capsys.readouterr()
    assert main([command, "--config", str(config_path), "--out", str(out),
                 *READERS[command]]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"record {record} is damaged" in err[0]
    assert "delete it and re-run sweep" in err[0]
    assert sorted(p.name for p in out.iterdir()) == ["records"]
    assert {p.name: p.read_bytes() for p in (out / "records").iterdir()} == before


def test_select_error_exits_2_with_one_line(config_path, tmp_path, capsys):
    config = json.loads(config_path.read_text())
    config.update(noise=[{"kind": "none"}], strategies=[{"kind": "static"}],
                  selection={"n_select": 2, "n_compare": 1, "prestudy_budget": 250})
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["select", "--config", str(config_path), "--protocol", "split",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "split needs 3 replications, have 2" in err[0]
    assert not list(out.glob("selection_*.json"))


def _sweep_argv(config_path, out):
    return [sys.executable, "-m", "noisymoo.cli", "sweep", "--config", str(config_path),
            "--jobs", "2", "--out", str(out)]


def _sweep_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def _sweep_killed_at(config_path, out, n_records):
    """Start a sweep in its own session and SIGKILL its whole process group
    once ``n_records`` records exist. Returns the record count at the kill."""
    proc = subprocess.Popen(_sweep_argv(config_path, out), env=_sweep_env(),
                            start_new_session=True, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while len(list(out.glob("records/*.json"))) < n_records:
            assert proc.poll() is None, "the sweep ended before it could be killed"
            assert time.monotonic() < deadline, "the sweep made no progress"
            time.sleep(0.005)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    return len(list(out.glob("records/*.json")))


def test_killed_sweep_resumes_to_the_same_bytes(config_path, tmp_path):
    config = json.loads(config_path.read_text())
    config.update(noise=[{"kind": "none"}, {"kind": "gaussian", "sigma": 0.5}],
                  strategies=config["strategies"][:3])  # 2 x 4 slices x 2 reps
    config_path.write_text(json.dumps(config))
    reference = tmp_path / "reference"
    assert main(["sweep", "--config", str(config_path), "--out", str(reference)]) == 0
    expected = {p.name: p.read_bytes() for p in (reference / "records").iterdir()}
    assert len(expected) == 16

    out = tmp_path / "out"
    for threshold in (1, 10):
        assert threshold <= _sweep_killed_at(config_path, out, threshold) < 16
    done = subprocess.run(_sweep_argv(config_path, out), env=_sweep_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # iterdir also lists the hidden temp files, so none may be left over.
    assert {p.name: p.read_bytes() for p in (out / "records").iterdir()} == expected

    again = subprocess.run(_sweep_argv(config_path, out), env=_sweep_env(),
                           capture_output=True, text=True, timeout=300)
    assert again.returncode == 0, again.stderr
    assert "0 of 16 runs started" in again.stdout
