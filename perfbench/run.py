"""noisymoo benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory and nothing needs building. Workloads are
described in ``workloads.py``; ``README.md`` lists every metric and what
should move it.

A run first sets the workload up several times in fresh interpreters
(``setup_s``), then repeats one iteration of the workload -- the same
slices and seeds every time -- while the measuring time lasts, checks every
run's record after every iteration, and reports medians over iterations.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced iteration, then traced ones, and prints the per-layer metrics;
its spans go to ``.bench_out/trace-<workload>-seed<seed>.npz``. The traced
grid-sweep runs its sweep in-process (``--jobs 1``), for both its untraced
and its traced iterations, so that every span lands in one process.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` runs, and ``metrics``. Without the program's
sources (``src/noisymoo``) the benchmark prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
DEFAULT_SEED = 1

# Runs in a fresh interpreter: import, config load and problem construction.
SETUP_CODE = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from noisymoo.harness import ExperimentConfig
from noisymoo.problems import NoiseLaw, make_problem
for path in sys.argv[2:]:
    for s in ExperimentConfig.load(path).slices():
        make_problem(s.problem, dim=s.dim,
                     noise=NoiseLaw(kind=s.noise["kind"], sigma=s.noise.get("sigma", 0.0),
                                    df=s.noise.get("df", 1)))
print(time.perf_counter() - started)
"""


def import_program():
    """Import noisymoo from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "noisymoo" / "__init__.py").is_file():
        raise ImportError(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import noisymoo
    if SRC not in Path(noisymoo.__file__).resolve().parents:
        raise ImportError(f"noisymoo was imported from {noisymoo.__file__}, not {SRC}")
    return noisymoo


def environment() -> str:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def measure_setup(config_paths: list[Path]) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                               *map(str, config_paths)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children counts the largest waited-for child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def stored_digest(workload: str, seed: int, tiny: bool) -> str | None:
    if tiny:
        return None
    stored = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    return stored["digests"].get(workload) if stored["seed"] == seed else None


class Runner:
    """Runs iterations of one workload and checks each as it finishes."""

    def __init__(self, workload: str, config_paths: list[Path], work_dir: Path, jobs: int):
        import checks
        import workloads
        from noisymoo.harness import ExperimentConfig
        self.checks, self.workloads = checks, workloads
        self.workload, self.jobs = workload, jobs
        self.config_paths, self.work_dir = config_paths, work_dir
        self.configs = [ExperimentConfig.load(p) for p in config_paths]
        self.reference = None
        self.attempted = 0
        self.failed_runs: list[str] = []
        self.problems: list[str] = []

    def iterate(self, index: int, context=None):
        """One iteration, run inside ``context`` (the tracer's), then its checks."""
        with context or contextlib.nullcontext():
            it = self.workloads.run_iteration(self.workload, self.configs,
                                              self.config_paths, self.work_dir, index,
                                              self.jobs)
        failed = self.checks.check_runs(it, self.reference)
        self.attempted += len(it.expected_runs)
        self.failed_runs += [f"iteration {index} run {k}: {v}" for k, v in failed.items()]
        self.problems += [f"iteration {index}: {p}" for p in it.errors]
        if it.out_dir is not None:
            self.problems += [f"iteration {index}: {p}" for p in
                              self.checks.check_sweep_outputs(it, self.configs[0])]
            shutil.rmtree(it.out_dir, ignore_errors=True)
        it.digest = self.checks.digest(it.records)
        if self.reference is None:
            self.reference = it
        else:
            it.records = {}  # checked against the reference; keep memory flat
        return it


def timed_loop(step, seconds: float, minimum: int = 1) -> list:
    """Call ``step(i)`` for i = 0, 1, ... until the next call would end past
    ``seconds``, and at least ``minimum`` times."""
    started = time.perf_counter()
    results = []
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - started
        n = len(results)
        if n >= minimum and elapsed * (n + 1) / n > seconds:
            return results


def fastest(iterations, kind=...) -> tuple[float, float]:
    """Wall and CPU seconds of one iteration with every step at its fastest.

    Each step (a run, or grid-sweep's sweep and reload) takes its minimum
    over the iterations, and the minima are summed; ``kind`` restricts the
    sum to one strategy kind's runs. Contention from other tenants of a
    shared host only ever slows a step down, and it comes in phases of a
    few seconds, so the minimum of repeated identical steps is the
    statistic that shifts least with it.
    """
    wall = cpu = 0.0
    for step, (step_kind, _, _) in iterations[0].steps.items():
        if kind is ... or step_kind == kind:
            wall += min(it.steps[step][1] for it in iterations if step in it.steps)
            cpu += min(it.steps[step][2] for it in iterations if step in it.steps)
    return wall, cpu


def end_to_end(runner: Runner, seconds: float, setup: list[float]) -> dict:
    iterations = timed_loop(runner.iterate, seconds)
    print(f"# iterations: {len(iterations)}, wall_s each: "
          + " ".join(f"{it.wall_s:.3f}" for it in iterations))
    kinds = sorted({k for k, _, _ in iterations[0].steps.values() if k is not None})
    for kind in kinds:
        print(f"# run_s.{kind}: {fastest(iterations, kind)[0]:.4f} s")
    if "reload" in iterations[0].steps:
        print(f"# reload_s: {min(it.steps['reload'][1] for it in iterations):.4f} s")
    wall, cpu = fastest(iterations)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "cpu_s": metric(cpu, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "record_kb": metric(runner.checks.record_kb(runner.reference.records), "KB"),
    }


def per_layer(runner: Runner, seconds: float, trace_path: Path) -> dict:
    import layers
    from tracer import Tracer, delta

    tracer = Tracer()
    deltas = []

    def step(index: int):
        # Even iterations run untraced, odd ones traced, so both see the
        # same phases of the host's load.
        if index % 2 == 0:
            return runner.iterate(index)
        before = tracer.snapshot()
        tracer.set_run(f"iteration-{index}")
        it = runner.iterate(index, tracer.installed(layers.install))
        deltas.append(delta(tracer.snapshot(), before))
        if it.digest != runner.reference.digest:
            runner.problems.append(f"traced iteration {index} changed the records digest")
        return it

    iterations = timed_loop(step, seconds, minimum=2)
    untraced, traced = iterations[0::2], iterations[1::2]
    print(f"# traced iterations: {len(traced)}, wall_s each: "
          + " ".join(f"{it.wall_s:.3f}" for it in traced)
          + "; untraced: " + " ".join(f"{it.wall_s:.3f}" for it in untraced))
    print(f"# spans: {len(tracer.spans)} written to {tracer.save(trace_path)}")

    def counts(d: dict) -> dict:
        return {name: {k: v for k, v in values.items() if k != "self_s"}
                for name, values in d.items()}
    if any(counts(d) != counts(deltas[0]) for d in deltas):
        runner.problems.append("per-layer call counts differ between traced iterations")

    out = {}
    first = deltas[0]
    for name in layers.SPAN_NAMES:
        out[f"{name}.calls"] = metric(first[name]["calls"], "count")
        out[f"{name}.self_s"] = metric(min(d[name]["self_s"] for d in deltas), "s")
    sort = first["pareto.nondominated_sort"]
    out["pareto.nondominated_sort.mean_n"] = metric(
        sort.get("n", 0) / sort["calls"] if sort["calls"] else 0.0, "points")
    for name in ("bootstrap.arb_decide", "resampling.should_resample"):
        calls = first[name]["calls"]
        out[f"{name}.grant_share"] = metric(
            first[name].get("granted", 0) / calls if calls else 0.0, "ratio")
    arb = first["bootstrap.arb_decide"]
    out["bootstrap.arb_decide.mean_rivals"] = metric(
        arb.get("rivals", 0) / arb["calls"] if arb["calls"] else 0.0, "points")
    out["optimizers.reeval_share"] = metric(
        runner.checks.reeval_share(runner.reference.records), "ratio")
    traced_wall = fastest(traced)[0]
    out["tracing_overhead_s"] = metric(traced_wall - fastest(untraced)[0], "s")

    decision_s = sum(out[f"{n}.self_s"]["value"] for n in layers.DECISION_SPANS)
    print(f"# decision self time (bootstrap.*, resampling.all_strengths): "
          f"{decision_s:.3f} s = {decision_s / traced_wall:.3f} of traced wall")
    ranked = sorted(layers.SPAN_NAMES, key=lambda n: -out[f"{n}.self_s"]["value"])
    for name in ranked:
        print(f"#   {name:36s} calls {out[name + '.calls']['value']:>9.0f}  "
              f"self {out[name + '.self_s']['value']:8.4f} s")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("decide", "explore", "grid-sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; iterations stop before it runs out")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-check sizes (popsize 6, budget 300)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    work_dir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    try:
        config_paths = workloads.write_parts(args.workload, args.seed, work_dir,
                                             args.tiny)
        print(f"# env: {environment()}")
        print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
              f"configs {', '.join(p.name for p in config_paths)}")
        jobs = workloads.SWEEP_JOBS
        if args.trace and args.workload == "grid-sweep":
            jobs = 1
            print("# traced grid-sweep: sweep runs in-process (--jobs 1), "
                  "untraced reference too")
        runner = Runner(args.workload, config_paths, work_dir, jobs)
        if args.trace:
            metrics = per_layer(runner, args.seconds, OUT_DIR / f"trace-{tag}.npz")
        else:
            setup = measure_setup(config_paths)
            print("# setup_s each: " + " ".join(f"{s:.4f}" for s in setup))
            metrics = end_to_end(runner, args.seconds, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    stored = stored_digest(args.workload, args.seed, args.tiny)
    verdict = ("not stored for this seed" if stored is None
               else "matches the stored digest" if stored == runner.reference.digest
               else "DIFFERS from the stored digest")
    print(f"# records digest: {runner.reference.digest} ({verdict})")
    failed = len(runner.failed_runs)
    print(f"# fail_share: {failed}/{runner.attempted} = {failed / runner.attempted:.4f}")
    for line in runner.failed_runs[:20] + runner.problems[:20]:
        print(f"# FAILED {line}")
    result = {"correct": failed == 0 and not runner.problems,
              "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
