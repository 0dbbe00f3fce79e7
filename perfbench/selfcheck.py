"""Fast self-check of the benchmark itself (under a minute on 2 cores).

    python3 perfbench/selfcheck.py

Runs every workload, untraced and traced, at self-check sizes (popsize 6,
budget 250-300) and checks that each prints one result line with exactly
the metrics ``BENCHMARK.json`` lists, that every run passed its output
checks, that the traced run reproduced the untraced records digest, and
that ``explore`` makes no bootstrap or strength decisions. It also feeds
the record checks a few broken records, and runs the benchmark in a
directory without the program's sources, where it must fail without a
result. Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]
SECONDS = "1"


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *RUN, "--workload", workload, "--seed", "5",
                           "--seconds", SECONDS, "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def fail(message: str, output: str = "") -> None:
    sys.exit(f"selfcheck FAILED: {message}\n{output[-3000:]}")


def check_workload(workload: str, spec: dict) -> None:
    digests = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = bench(workload, trace)
        if done.returncode != 0:
            fail(f"{workload} trace {trace} exited {done.returncode}", done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail(f"{workload} trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            fail(f"{workload} trace {trace} is not correct", done.stdout)
        expected = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(expected) - set(got))}, "
                 f"extra {sorted(set(got) - set(expected))}")
        if section == "end_to_end" and any(m["value"] <= 0 for m in result["metrics"].values()):
            fail(f"{workload}: an end-to-end metric is not positive", done.stdout)
        digests[trace] = re.search(r"^# records digest: (\w+)", done.stdout, re.M).group(1)
        if workload == "explore" and trace == 1:
            for name in ("bootstrap.arb_decide.calls", "resampling.all_strengths.calls"):
                if result["metrics"][name]["value"] != 0:
                    fail(f"explore made decisions: {name} is not 0")
    if digests[0] != digests[1]:
        fail(f"{workload}: traced digest {digests[1]} differs from untraced {digests[0]}")
    print(f"ok {workload}: both modes correct, digest {digests[0][:16]}")


def check_record_checks() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import checks
    from noisymoo.harness import RunSlice, run_single

    slice_ = RunSlice(problem="uf1", dim=10, noise={"kind": "gaussian", "sigma": 0.5},
                      strategy={"kind": "static", "n": 1}, mode="one_shot",
                      popsize=6, budget=60)
    good = run_single(slice_, 0, 1).canonical_json()
    if checks.check_run(good, 60) is not None:
        fail(f"a good record was rejected: {checks.check_run(good, 60)}")
    raw = json.loads(good)
    overspent = json.dumps({**raw, "spent": 61}, sort_keys=True, separators=(",", ":"))
    negative_hv = json.dumps({**raw, "metrics": {**raw["metrics"], "hv_raw": -1.0}},
                             sort_keys=True, separators=(",", ":"))
    for name, text in (("overspent", overspent), ("negative HV", negative_hv),
                       ("non-canonical", json.dumps(raw, indent=1)), ("missing", None)):
        if checks.check_run(text, 60) is None:
            fail(f"the {name} record passed the record checks")
    print("ok record checks reject broken records")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("decide", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip().startswith("{") \
            or '"correct"' in done.stdout:
        fail("the benchmark did not fail without the program's sources", done.stdout)
    print(f"ok without sources: exit {done.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_record_checks()
    check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        check_workload(workload, spec)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
