"""Output checks, record digests and record-derived counts.

Every run is checked on every iteration; a run that fails any check counts
toward ``failed`` (and so ``fail_share``). Workload-level checks that no
single run owns (grid-sweep's record count, report rows and split
fractions, digest agreement between runs) make the result incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math

from noisymoo.harness import RunRecord

SPLIT_TOLERANCE = 1e-9


def check_run(text: str | None, budget: int) -> str | None:
    """Return what is wrong with one canonical record, or None."""
    if text is None:
        return "no record"
    record = RunRecord.from_dict(json.loads(text))
    if record.spent != budget or len(record.eval_log) != budget:
        return (f"spent {record.spent} and logged {len(record.eval_log)} "
                f"evaluations of a {budget} budget")
    for key in ("hv_raw", "hv_normalized"):
        value = record.metrics[key]
        if not (math.isfinite(value) and value >= 0.0):
            return f"{key} is {value}"
    if record.canonical_json() != text:
        return "canonical JSON does not round-trip through RunRecord.from_dict"
    return None


def check_runs(iteration, reference) -> dict:
    """-> {(fingerprint, rep): problem} for the iteration's failed runs.

    ``reference`` is the run's first iteration; every later iteration must
    reproduce its records byte for byte.
    """
    failed = {}
    for key, budget in iteration.expected_runs:
        text = iteration.records.get(key)
        problem = check_run(text, budget)
        if problem is None and reference is not None and reference.records[key] != text:
            problem = "record differs from the first iteration with the same seed"
        if problem is not None:
            failed[key] = problem
    return failed


def check_sweep_outputs(iteration, config) -> list[str]:
    """grid-sweep: record count, report rows and split fractions."""
    problems = []
    out = iteration.out_dir
    n_runs = len(config.slices()) * config.replications
    n_files = len(list((out / "records").glob("*.json")))
    if n_files != n_runs:
        problems.append(f"{n_files} record files for {n_runs} runs")
    per_run = out / "report" / "per_run.csv"
    rows = len(per_run.read_text(encoding="utf-8").splitlines()) - 1 if per_run.is_file() else 0
    if rows != n_runs:
        problems.append(f"per_run.csv has {rows} rows for {n_runs} runs")
    split = out / "selection_split.json"
    fractions = (json.loads(split.read_text(encoding="utf-8"))["fractions"]
                 if split.is_file() else {})
    if not fractions:
        problems.append("select --protocol split wrote no fractions")
    for setting, per_family in fractions.items():
        total = sum(per_family.values())
        if abs(total - 1.0) > SPLIT_TOLERANCE:
            problems.append(f"split fractions of {setting} sum to {total}")
    return problems


def digest(records: dict) -> str:
    """sha256 of the canonical records in (fingerprint, replication) order.

    Each record contributes its canonical JSON plus a newline, which is
    exactly the content of its file under ``<out>/records``.
    """
    h = hashlib.sha256()
    for key in sorted(records):
        h.update(((records[key] or "") + "\n").encode())
    return h.hexdigest()


def record_kb(records: dict) -> float:
    """Mean size of one record file, in KiB."""
    sizes = [len(text.encode()) + 1 for text in records.values() if text is not None]
    return sum(sizes) / len(sizes) / 1024 if sizes else 0.0


def reeval_share(records: dict) -> float:
    """Re-evaluations over all evaluations, counted from the eval logs."""
    evaluations = reevaluations = 0
    for text in records.values():
        if text is None:
            continue
        log = json.loads(text)["eval_log"]
        evaluations += len(log)
        reevaluations += len(log) - len({entry[0] for entry in log})
    return reevaluations / evaluations if evaluations else 0.0
