"""The benchmark drives the package through ``perfbench/workloads.py`` and
checks what it made with ``perfbench/checks.py``; a renamed method or a
changed call signature would break the benchmark, not the package's own
tests. So each workload runs here at self-check size, through those files."""

import importlib.util
import sys
from pathlib import Path

import pytest

from noisymoo.harness import ExperimentConfig

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


@pytest.mark.parametrize("name", ["decide", "explore"])
def test_run_workload_makes_records_that_pass_the_checks(name):
    configs = [ExperimentConfig.from_dict(part) for part in workloads.parts(name, 1, tiny=True)]
    iteration = workloads.Iteration()
    workloads.run_records(configs, iteration)
    assert iteration.errors == []
    assert iteration.expected_runs
    assert checks.check_runs(iteration, None) == {}


def test_grid_sweep_makes_records_and_outputs_that_pass_the_checks(tmp_path):
    [path] = workloads.write_parts("grid-sweep", 1, tmp_path / "parts", tiny=True)
    config = ExperimentConfig.load(path)
    iteration = workloads.Iteration()
    workloads.sweep_records(path, tmp_path / "out", workloads.SWEEP_JOBS, iteration)
    workloads.collect_swept(config, iteration)
    assert iteration.errors == []
    assert len(iteration.expected_runs) == len(config.runs())
    assert checks.check_runs(iteration, None) == {}
    assert checks.check_sweep_outputs(iteration, config) == []
