"""The three benchmark workloads.

Every workload is a list of experiment configs (the "parts") plus a way to
run one iteration of them. The benchmark's ``--seed`` becomes each config's
``base_seed``, so every run's seed is ``derive_seed(seed, fingerprint,
rep)``: the program receives only slices and seeds.

* ``decide`` -- UF1, popsize 40, sequential NSGA-II under arb(0.2, 0.9) and
  strength(n_max=10) at Gaussian sigma 0.5, plus arb(0.2, 0.9) at sigma 0.01,
  where about 25 of 40 points stay on the front and each decision
  bootstraps many rivals. Resampling decisions do most of the work.
* ``explore`` -- UF1 at sigma 0.5 under static n=1 and n=5 (one-shot),
  time, rank and sederror(0.05) (sequential) and rtea(1, 40, 0.1). The
  decision cost is near zero: evaluation, sorting, selection and variation
  do the work. This is the "should not move" side of a decision speed-up.
* ``grid-sweep`` -- UF1 and UF3 under Gaussian sigma 0.5 and chi-square
  (df 1) sigma 1.0, every strategy kind, 2 replications, run by
  ``noisymoo sweep --jobs 2`` into a fresh output directory, then
  ``report`` and ``select --protocol split`` over the finished records. The
  only workload that writes and reads records and runs worker processes.

Budgets are smaller than the desk study's (2,000 instead of 10,000; the
low-noise arb run 800 instead of 4,000; the sweep 500 instead of the 2,000
prestudy budget), and decide and explore run 2-3 replications per
iteration. One iteration then takes a few seconds, so a 30-second run
repeats it several times, which the fastest-step statistic in ``run.py``
needs; and each iteration still holds 6-64 runs, which keeps the spread
between seeds small.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import noisymoo.cli as cli
import noisymoo.harness as harness

SWEEP_JOBS = 2

_STATIC = {"kind": "static", "grid": {"n": [1, 5]}}
_TIME = {"kind": "time", "grid": {"n_max": [10]}}
_RANK = {"kind": "rank", "grid": {"n_max": [10]}}
_STRENGTH = {"kind": "strength", "grid": {"n_max": [10]}}
_SEDERROR = {"kind": "sederror", "grid": {"threshold": [0.05]}}
_ARB = {"kind": "arb", "grid": {"alpha_l": [0.2], "alpha_u": [0.9]}}
_RTEA = {"kind": "rtea", "grid": {"k": [1], "p": [40], "z": [0.1]}}
_GAUSS = {"kind": "gaussian", "sigma": 0.5}


def _config(seed: int, **fields) -> dict:
    base = {"schema_version": 1, "problems": ["uf1"], "popsize": 40, "dim": 10,
            "base_seed": seed}
    base.update(fields)
    base.setdefault("selection", {"n_select": 1, "n_compare": 1, "n_repeats": 100})
    base["selection"]["prestudy_budget"] = base["budget"]
    return base


def _tiny(part: dict) -> dict:
    """Shrink a part to self-check size: popsize 6, budget 300, small arb."""
    strategies = []
    for entry in part["strategies"]:
        grid = dict(entry["grid"])
        if entry["kind"] == "arb":
            grid.update(init_popsize=[8], seed_size=[6], capacity=[20])
        if entry["kind"] == "rtea":
            grid.update(p=[6])
        strategies.append({**entry, "grid": grid})
    budget = 300 if part["budget"] > 1000 else 250
    selection = dict(part["selection"], prestudy_budget=budget)
    return {**part, "strategies": strategies, "popsize": 6, "budget": budget,
            "replications": min(part["replications"], 2), "selection": selection}


def parts(name: str, seed: int, tiny: bool = False) -> list[dict]:
    """The experiment configs that make up workload ``name``."""
    if name == "decide":
        out = [_config(seed, noise=[_GAUSS], strategies=[_ARB, _STRENGTH],
                       budget=2000, replications=2),
               _config(seed, noise=[{"kind": "gaussian", "sigma": 0.01}],
                       strategies=[_ARB], budget=800, replications=2)]
    elif name == "explore":
        out = [_config(seed, noise=[_GAUSS],
                       strategies=[_STATIC, _TIME, _RANK, _SEDERROR, _RTEA],
                       budget=2000, replications=3)]
    elif name == "grid-sweep":
        out = [_config(seed, problems=["uf1", "uf3"],
                       noise=[_GAUSS, {"kind": "chisq", "df": 1, "sigma": 1.0}],
                       strategies=[_STATIC, _TIME, _RANK, _STRENGTH, _SEDERROR, _ARB,
                                   _RTEA],
                       budget=500, replications=2)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [_tiny(p) for p in out] if tiny else out


def write_parts(name: str, seed: int, directory: Path, tiny: bool = False) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, part in enumerate(parts(name, seed, tiny)):
        path = directory / f"{name}-{i}.json"
        path.write_text(json.dumps(part, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Iteration:
    """What one iteration measured and produced."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    # step -> (strategy kind or None, wall seconds, CPU seconds); one step is one
    # run (run_single plus serialising its record), or grid-sweep's
    # "sweep" and "reload" (report + select)
    steps: dict = field(default_factory=dict)
    # (fingerprint, replication) -> canonical record JSON, or None if the run raised
    records: dict = field(default_factory=dict)
    expected_runs: list = field(default_factory=list)  # (key, budget) per run
    errors: list = field(default_factory=list)
    out_dir: Path | None = None
    digest: str = ""

    @contextlib.contextmanager
    def timed(self, step, kind: str | None = None):
        cpu_before, started = cpu_seconds(), time.perf_counter()
        try:
            yield
        finally:
            self.steps[step] = (kind, time.perf_counter() - started,
                                cpu_seconds() - cpu_before)


def run_records(configs: list, iteration: Iteration) -> None:
    """decide / explore: one ``run_single`` per slice and replication."""
    for config in configs:
        metric_params, variation = config.metric_params(), config.variation_config()
        for slice_ in config.slices():
            for rep in range(config.replications):
                key = (slice_.fingerprint, rep)
                iteration.expected_runs.append((key, slice_.budget))
                seed = harness.derive_seed(config.base_seed, slice_.fingerprint, rep)
                iteration.records[key] = None
                try:
                    with iteration.timed(key, slice_.strategy["kind"]):
                        record = harness.run_single(slice_, rep, seed, metric_params,
                                                    variation)
                        iteration.records[key] = record.canonical_json()
                except Exception as exc:  # a failed run counts, the loop goes on
                    iteration.errors.append(f"run {key} raised {exc!r}")


def sweep_records(config_path: Path, out_dir: Path, jobs: int,
                  iteration: Iteration) -> None:
    """grid-sweep: ``sweep`` into a fresh directory, then ``report`` and ``select``."""
    common = ["--config", str(config_path), "--out", str(out_dir)]
    iteration.out_dir = out_dir
    with contextlib.redirect_stdout(io.StringIO()):
        with iteration.timed("sweep"):
            status = cli.main(["sweep", "--jobs", str(jobs), *common])
        with iteration.timed("reload"):
            status = status or cli.main(["report", *common])
            status = status or cli.main(["select", "--protocol", "split", *common])
    if status:
        iteration.errors.append(f"noisymoo exited with status {status}")


def collect_swept(config, iteration: Iteration) -> None:
    """Read back what a sweep wrote; a missing record counts as a failed run."""
    for slice_ in config.slices():
        for rep in range(config.replications):
            key = (slice_.fingerprint, rep)
            iteration.expected_runs.append((key, slice_.budget))
            path = harness.record_path(iteration.out_dir, slice_, rep)
            iteration.records[key] = (path.read_text(encoding="utf-8").rstrip("\n")
                                      if path.is_file() else None)


def run_iteration(name: str, configs: list, config_paths: list[Path], work_dir: Path,
                  index: int, jobs: int = SWEEP_JOBS) -> Iteration:
    """Run one iteration of workload ``name`` and time it.

    Loading the configs is part of ``setup_s``, measured separately, so
    the caller loads them once.
    """
    iteration = Iteration()
    with iteration.timed("iteration"):
        if name == "grid-sweep":
            out_dir = work_dir / f"sweep-{index:03d}"
            shutil.rmtree(out_dir, ignore_errors=True)
            try:
                sweep_records(config_paths[0], out_dir, jobs, iteration)
            except Exception as exc:
                iteration.errors.append(f"sweep raised {exc!r}")
        else:
            run_records(configs, iteration)
    _, iteration.wall_s, iteration.cpu_s = iteration.steps.pop("iteration")
    if name == "grid-sweep":
        collect_swept(configs[0], iteration)
    return iteration
