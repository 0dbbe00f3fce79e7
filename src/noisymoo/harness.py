"""Reproducible experiment driver.

A JSON config describes a grid of (problem x noise x strategy) settings.
Loading it parses every section once, into the noise mappings, strategy
entries and parameter objects the runs use, so a bad value fails before
any run. The grid expands to slices; each slice x replication is one run
with a seed derived stably from the base seed, the slice fingerprint and
the replication index, so adding grid values never reseeds existing runs
and execution order has no effect on any record. Records are written one JSON
file per run, keyed by fingerprint and replication, which also makes
re-running a completed sweep a no-op. Reading them back checks each
record's identity and metric inputs against the run plan and the config, so
a record made under other inputs is refused, not reported.

Determinism contract: a record holds only reproducible fields and its file
is its canonical JSON, so identical seeds give byte-identical record files
and reports across executions on one platform, and :func:`load_record`
returns its file exactly.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
import numpy as np

from .metrics import MetricParams, MetricReport, report_inputs, score_final_set
from .optimizers import check_run_shape, nsga2_run, rtea_run
from .pareto import EvaluationError, from_mapping, require_at_least
from .problems import NOISE_KINDS, NoiseLaw, make_problem
from .resampling import strategy_from_dict, strategy_type
from .variation import VariationConfig

SCHEMA_VERSION = 1
FAMILIES = ("arb", "dynamic", "static", "rtea")
NOISE_KIND_ORDER = tuple(sorted(NOISE_KINDS))


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunSlice:
    """One point of the experiment grid: problem x noise x strategy."""

    problem: str
    dim: int
    noise: dict
    strategy: dict  # includes "kind"
    mode: str       # the kind's loop: "one_shot" | "sequential" | "rtea"
    popsize: int
    budget: int

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, raw: dict) -> "RunSlice":
        return from_mapping(cls, raw, "record slice key")

    @functools.cached_property
    def fingerprint(self) -> str:
        return hashlib.sha256(_canonical(self.as_dict()).encode()).hexdigest()[:16]

    def setting_key(self) -> tuple:
        """Problem plus noise: the unit over which strategies are compared."""
        return (self.problem, self.noise.get("kind", "none"),
                self.noise.get("df", 0), self.noise.get("sigma", 0.0))

    @property
    def family(self) -> str:
        return strategy_type(self.strategy["kind"]).family


def strategy_label(strategy: dict) -> str:
    """A strategy mapping as ``kind(param=value,...)``, parameters sorted."""
    inner = ",".join(f"{k}={v}" for k, v in sorted(strategy.items()) if k != "kind")
    return f"{strategy['kind']}({inner})"


def derive_seed(base_seed: int, fingerprint: str, replication: int) -> int:
    """Stable per-run seed: first 8 bytes of sha256(base:fingerprint:rep)."""
    digest = hashlib.sha256(f"{base_seed}:{fingerprint}:{replication}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SelectionParams:  # the ``selection`` config mapping, with its defaults
    n_select: int = 6
    n_compare: int = 4
    n_repeats: int = 100
    prestudy_budget: int = 2000

    def __post_init__(self) -> None:
        require_at_least(self, 1, "n_select", "n_compare", "n_repeats", what="selection ")


@dataclass(frozen=True)
class StrategyEntry:  # one item of the ``strategies`` config list
    kind: str
    grid: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not all(isinstance(values, list) for values in self.grid.values()):
            raise EvaluationError(f"the {self.kind} grid must map each parameter to a list")
        empty = [key for key, values in sorted(self.grid.items()) if not values]
        if empty:
            raise EvaluationError(f"the {self.kind} grid gives {', '.join(empty)} no values")

    def combinations(self) -> list[dict]:
        """One strategy mapping, ``kind`` included, per grid combination."""
        keys = sorted(self.grid)
        return [{"kind": self.kind, **dict(zip(keys, combo))}
                for combo in itertools.product(*(self.grid[k] for k in keys))]


def _noise_slice(raw) -> dict:
    """A ``noise`` config entry as a slice stores it: ``kind``, a float ``sigma``
    unless the kind is none, an int ``df`` for chisq; no key the kind ignores."""
    law = from_mapping(NoiseLaw, raw, "noise key")
    out = {"kind": law.kind}
    if law.kind != "none":
        out["sigma"] = float(law.sigma)
    if law.kind == "chisq":
        out["df"] = law.df
    ignored = sorted(set(raw) - set(out))
    if ignored:
        raise EvaluationError(f"noise kind {law.kind!r} takes no {', '.join(ignored)}")
    return out


@dataclass
class ExperimentConfig:
    problems: list[str]
    noise: list[dict]                # slice-form noise mappings
    strategies: list[StrategyEntry]
    budget: int = 10_000
    popsize: int = 40
    replications: int = 10
    base_seed: int = 2024
    dim: int = 10
    selection: SelectionParams = field(default_factory=dict)  # parsed from its mapping
    metrics: MetricParams = field(default_factory=dict)        # parsed from its mapping
    output_dir: str = "results"

    def __post_init__(self) -> None:
        require_at_least(self, 1, "replications")
        require_at_least(self, 0, "base_seed")
        for name in ("problems", "noise", "strategies"):
            if not isinstance(getattr(self, name), list) or not getattr(self, name):
                raise EvaluationError(f"{name} must be a nonempty list")
        for name in self.problems:
            make_problem(name, self.dim)
        self.noise = [_noise_slice(raw) for raw in self.noise]
        self.strategies = [from_mapping(StrategyEntry, raw, "strategy entry key")
                           for raw in self.strategies]
        combos = [c for entry in self.strategies for c in entry.combinations()]
        for what, items in (("problem", self.problems), ("noise entry", self.noise),
                            ("strategy", combos)):
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise EvaluationError(f"{what} {_canonical(item)} is listed twice")
        self.selection = from_mapping(SelectionParams, self.selection, "selection key")
        self.metrics = from_mapping(MetricParams, self.metrics, "metrics key")
        if self.budget < self.selection.prestudy_budget:
            raise EvaluationError("budget must not be smaller than the prestudy budget")
        # Build each strategy combination once, so a bad value fails at load, and
        # shape-check it at the prestudy budget: a shape refused at some budget is
        # refused at any smaller one. Two spellings of one strategy (an omitted
        # default) build equal objects and would run the same strategy twice.
        built = {}
        for combo in combos:
            strategy = strategy_from_dict(combo)
            check_run_shape(strategy, self.popsize, self.selection.prestudy_budget)
            twin = built.setdefault(strategy, combo)
            if twin is not combo:
                raise EvaluationError(f"strategies {strategy_label(twin)} and "
                                      f"{strategy_label(combo)} are the same strategy")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise EvaluationError(f"expected a JSON object, got {type(raw).__name__}")
        raw = dict(raw)
        version = raw.pop("schema_version", SCHEMA_VERSION)
        if type(version) is not int or version != SCHEMA_VERSION:  # True == 1.0 == 1
            raise EvaluationError(f"unsupported config schema_version {version!r}")
        return from_mapping(cls, raw, "config key")

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise EvaluationError(str(exc)) from None
        return cls.from_dict(raw)

    def metric_params(self) -> MetricParams:
        """``metrics``, for ``perfbench/workloads.py``; the package reads ``metrics``."""
        return self.metrics

    def variation_config(self) -> VariationConfig:
        """The variation operators of every run: the defaults, not configurable.
        For ``perfbench/workloads.py``; the package takes :func:`run_single`'s default."""
        return VariationConfig()

    def slices(self, budget: int | None = None) -> list[RunSlice]:
        """Expand the grids into the full deterministic slice list."""
        budget = self.budget if budget is None else budget
        return [RunSlice(problem=problem, dim=self.dim, noise=noise, strategy=strategy,
                         mode=strategy_type(entry.kind).loop, popsize=self.popsize, budget=budget)
                for problem, noise, entry in itertools.product(self.problems, self.noise,
                                                               self.strategies)
                for strategy in entry.combinations()]

    def runs(self, budget: int | None = None) -> list[tuple[RunSlice, int, int]]:
        """The run plan: every (slice, replication, seed) in grid order."""
        return [(slice_, rep, derive_seed(self.base_seed, slice_.fingerprint, rep))
                for slice_ in self.slices(budget) for rep in range(self.replications)]


@dataclass
class RunRecord:
    """Provenance of one optimizer run plus its metric report. Every field is
    reproducible; the record's file is :meth:`canonical_json` plus a newline."""

    fingerprint: str
    slice: dict
    replication: int
    seed: int
    spent: int
    eval_log: list
    final_population: list
    returned_set: list
    metrics: dict

    def canonical_json(self) -> str:
        return _canonical({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_dict(cls, raw: dict) -> "RunRecord":
        return from_mapping(cls, raw, "record key")

    @property
    def hv(self) -> float:
        return self.metrics["hv_normalized"]


def _point_payload(point) -> dict:
    return {
        "uid": point.uid,
        "decision": [float(v) for v in point.decision],
        "mean": [float(v) for v in point.mean],
        "count": point.count,
    }


def _identity(slice_: RunSlice, replication: int, seed: int) -> dict:
    """The record fields that say which run of the plan a record is."""
    return {"fingerprint": slice_.fingerprint, "slice": slice_.as_dict(),
            "replication": replication, "seed": seed}


def run_single(slice_: RunSlice, replication: int, seed: int,
               metric_params: MetricParams = MetricParams(),
               variation: VariationConfig = VariationConfig()) -> RunRecord:
    """Execute one slice deterministically and score its returned set; refuse
    a slice whose ``mode`` is not its kind's loop."""
    strategy = strategy_from_dict(slice_.strategy)
    if slice_.mode != strategy.loop:
        raise EvaluationError(f"{strategy.kind} runs the {strategy.loop} loop, "
                              f"not mode {slice_.mode!r}")
    rng = np.random.default_rng(seed)
    problem = make_problem(slice_.problem, dim=slice_.dim, noise=NoiseLaw(**slice_.noise))
    if strategy.loop == "rtea":
        result = rtea_run(problem, strategy, slice_.budget, variation, rng)
    else:
        result = nsga2_run(problem, strategy, slice_.popsize, slice_.budget,
                           variation, rng)
    report = score_final_set(result.front, problem, metric_params)
    return RunRecord(
        **_identity(slice_, replication, seed),
        spent=result.spent,
        eval_log=[[int(u), int(g), s] for u, g, *s in result.log.tolist()],
        final_population=[_point_payload(p) for p in result.population],
        returned_set=[_point_payload(p) for p in result.front],
        metrics=asdict(report),
    )


def record_path(out_dir: str | Path, slice_: RunSlice, replication: int) -> Path:
    return Path(out_dir) / "records" / f"{slice_.fingerprint}_r{replication:03d}.json"


def write_record(path: str | Path, record: RunRecord) -> None:
    """Write one record file: its canonical JSON plus a newline.

    The text goes to a hidden temporary file next to the target, named
    after it and the writing process, which then replaces the target. A
    writer killed midway leaves no file under the record's name, so the
    run counts as missing and the next sweep runs it again.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(record.canonical_json() + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def remove_stale_temps(records_dir: Path) -> None:
    """Delete each :func:`write_record` temporary file whose writer was killed
    before its rename. A killed worker stays a zombie until reaped, and an
    init may never reap it, so a zombie that /proc shows counts as gone."""
    for tmp in records_dir.glob(".*.json.*.tmp"):
        pid = tmp.name.rsplit(".", 2)[1]
        try:
            os.kill(int(pid), 0)  # signal 0: does the process exist?
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except ProcessLookupError:
            state = "gone"
        except (ValueError, OverflowError, OSError):
            continue  # not a writer's pid, another user's process, or no /proc
        if state in ("gone", "Z"):
            tmp.unlink(missing_ok=True)


def _run_job(args) -> str:
    slice_, rep, seed, metric_params, path_str = args
    write_record(path_str, run_single(slice_, rep, seed, metric_params))
    return path_str


def sweep(config: ExperimentConfig, out_dir: str | Path, *, jobs: int = 1,
          budget: int | None = None) -> int:
    """Run the full grid x replications, skipping runs whose record exists.

    Returns the number of runs started. Runs are independent and may
    execute in parallel; records land in ``out_dir/records`` and nothing is
    read back. :func:`load_records` reads them in grid order, so every
    downstream report is independent of execution order.
    """
    remove_stale_temps(Path(out_dir) / "records")
    jobs_args = []
    for slice_, rep, seed in config.runs(budget):
        path = record_path(out_dir, slice_, rep)
        if not path.exists():
            jobs_args.append((slice_, rep, seed, config.metrics, str(path)))
    if jobs_args:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                list(pool.map(_run_job, jobs_args))
        else:
            for args in jobs_args:
                _run_job(args)
    return len(jobs_args)


def load_records(config: ExperimentConfig, out_dir: str | Path,
                 budget: int | None = None) -> list[RunRecord]:
    """Read the records of the run plan in grid order; start no run. Each
    holds an empty ``eval_log``, which is nearly all of a record file.

    Raises :class:`EvaluationError` listing every missing (fingerprint,
    replication) pair, or naming the first record made under other inputs
    and its first key (a slice's as ``slice.<key>``) that differs from its
    plan entry's identity or from the metric inputs the config gives.
    """
    runs = config.runs(budget)
    missing = [(slice_.fingerprint, rep) for slice_, rep, _ in runs
               if not record_path(out_dir, slice_, rep).is_file()]
    if missing:
        listing = "\n".join(f"  ({fp}, {rep})" for fp, rep in missing)
        raise EvaluationError(f"{len(missing)} of {len(runs)} records missing in "
                              f"{Path(out_dir) / 'records'} (fingerprint, rep):\n{listing}")
    def by_key(values: dict) -> dict:  # the slice's keys as ``slice.<key>``, in its place
        slice_keys = {f"slice.{key}": value for key, value in values.pop("slice").items()}
        return {**values, **slice_keys}

    inputs = report_inputs(config.metrics)
    records = []
    for slice_, rep, seed in runs:
        path = record_path(out_dir, slice_, rep)
        record = load_record(path)
        found = by_key({**vars(record), **record.metrics})
        for key, value in by_key({**_identity(slice_, rep, seed), **inputs}).items():
            if _canonical(found[key]) != _canonical(value):
                raise EvaluationError(
                    f"record {path} was made under other inputs: {key} is "
                    f"{_canonical(found[key])}, this config gives {_canonical(value)}")
        records.append(replace(record, eval_log=[]))
    return records


def load_record(path: str | Path) -> RunRecord:
    """Read one record file, whole. A file that is no :class:`RunRecord` with a
    :class:`RunSlice` ``slice`` and :class:`MetricReport` ``metrics`` (cut short,
    a field missing, unknown or of the wrong type) raises :class:`EvaluationError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            record = RunRecord.from_dict(json.load(fh))
        RunSlice.from_dict(record.slice)
        from_mapping(MetricReport, record.metrics, "record metrics key")
        return record
    except ValueError as exc:  # JSONDecodeError and EvaluationError are ValueErrors
        raise EvaluationError(f"record {path} is damaged ({exc}); delete it and "
                              "re-run sweep") from None


# ---------------------------------------------------------------------------
# Comparison protocols


def _group_runs(records: list[RunRecord]):
    """-> {setting: {family: {fingerprint: {rep: hv}}}} plus slice lookup."""
    table: dict = {}
    slices: dict = {}
    for rec in records:
        slice_ = RunSlice.from_dict(rec.slice)
        slices[rec.fingerprint] = slice_
        table.setdefault(slice_.setting_key(), {}) \
             .setdefault(slice_.family, {}) \
             .setdefault(rec.fingerprint, {})[rec.replication] = rec.hv
    return table, slices


def _best_config(configs: dict[str, dict[int, float]], reps: list[int]) -> str:
    """Fingerprint with the highest mean HV over the given replications;
    ties go to the lexicographically smallest fingerprint."""
    def mean_hv(fp: str) -> float:
        return float(np.mean([configs[fp][r] for r in reps]))
    return min(configs, key=lambda fp: (-mean_hv(fp), fp))


def _win_shares(scores: dict[str, float]) -> dict[str, float]:
    """One win for the family with the top score; a tie shares it equally."""
    top = max(scores.values())
    tied = [fam for fam, s in scores.items() if s == top]
    return {fam: 1.0 / len(tied) for fam in tied}


def select_params_split(records: list[RunRecord], n_select: int, n_compare: int,
                        n_repeats: int, rng: np.random.Generator) -> dict:
    """Repeated random split into selection and comparison replications.

    Per split and family, the best parameterization on the selection half
    is scored on the held-out half; the family with the best held-out mean
    wins the split (ties share the win equally). Returns, per setting, each
    family's win fraction; fractions sum to 1 per setting.
    """
    table, _ = _group_runs(records)
    fractions: dict = {}
    for setting in sorted(table):
        families = table[setting]
        reps = sorted({r for cfgs in families.values()
                       for by_rep in cfgs.values() for r in by_rep})
        if n_select + n_compare > len(reps):
            raise EvaluationError(
                f"split needs {n_select + n_compare} replications, have {len(reps)}")
        wins = {fam: 0.0 for fam in families}
        for _ in range(n_repeats):
            perm = [reps[i] for i in rng.permutation(len(reps))]
            sel, cmp_ = perm[:n_select], perm[n_select:n_select + n_compare]
            scores = {}
            for fam, configs in families.items():
                best = _best_config(configs, sel)
                scores[fam] = float(np.mean([configs[best][r] for r in cmp_]))
            for fam, share in _win_shares(scores).items():
                wins[fam] += share
        fractions[setting] = {fam: wins[fam] / n_repeats for fam in sorted(wins)}
    return fractions


def select_params_prestudy(prestudy_records: list[RunRecord],
                           full_records: list[RunRecord]) -> dict:
    """Carry each family's best prestudy parameterization to the full runs
    and count, per setting and replication, which family performs best.

    Returns a table shaped rows = families, columns = noise kinds, plus
    accounting totals. Ties split the count equally.
    """
    pre_table, pre_slices = _group_runs(prestudy_records)
    full_table, full_slices = _group_runs(full_records)
    if set(pre_table) != set(full_table):
        missing = sorted(set(full_table) ^ set(pre_table))
        raise EvaluationError(f"prestudy and full sweeps disagree on settings: {missing}")
    # A prestudy slice and its full-budget twin differ in budget alone.
    full_by_twin = {replace(s, budget=0).fingerprint: fp for fp, s in full_slices.items()}

    counts = {fam: {kind: 0.0 for kind in NOISE_KIND_ORDER} for fam in FAMILIES}
    cells_counted = 0
    for setting in sorted(full_table):
        noise_kind = setting[1]
        chosen: dict[str, str] = {}
        for fam, configs in pre_table[setting].items():
            reps = sorted(next(iter(configs.values())))
            best_pre = _best_config(configs, reps)
            full_fp = full_by_twin.get(replace(pre_slices[best_pre], budget=0).fingerprint)
            if full_fp is None:
                raise EvaluationError(
                    f"no full-budget slice matches prestudy winner {best_pre}")
            chosen[fam] = full_fp
        family_runs = {fam: full_table[setting][fam][fp] for fam, fp in chosen.items()}
        reps = sorted(next(iter(family_runs.values())))
        for rep in reps:
            scores = {fam: runs[rep] for fam, runs in family_runs.items()}
            for fam, share in _win_shares(scores).items():
                counts[fam][noise_kind] += share
            cells_counted += 1
    return {
        "families": list(FAMILIES),
        "noise_kinds": list(NOISE_KIND_ORDER),
        "counts": counts,
        "cells_counted": cells_counted,
    }


# ---------------------------------------------------------------------------
# Reporting

PER_RUN_HEADER = ["fingerprint", "problem", "noise_kind", "df", "sigma", "optimizer",
                  "mode", "family", "strategy", "replication", "seed", "budget",
                  "popsize", "spent", "n_returned", "n_filtered", "hv_raw",
                  "hv_normalized", "igd"]
AGGREGATE_HEADER = ["problem", "noise_kind", "df", "sigma", "family", "strategy",
                    "n_reps", "hv_normalized_mean", "hv_normalized_sd", "igd_mean",
                    "igd_sd"]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """One header row, then ``rows``; a field holding a comma is quoted."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def report(records: list[RunRecord], out_dir: str | Path) -> list[Path]:
    """Emit the per-run table and the per-setting aggregates as CSV.
    Deterministic: same records, byte-identical files."""
    if not records:
        raise EvaluationError("nothing to report")
    out = Path(out_dir) / "report"
    out.mkdir(parents=True, exist_ok=True)

    decorated = sorted(((RunSlice.from_dict(r.slice), r) for r in records),
                       key=lambda pair: (pair[0].setting_key(), pair[0].family,
                                         strategy_label(pair[0].strategy), pair[1].replication))
    per_run_rows = [[r.fingerprint, *s.setting_key(),
                     "rtea" if s.mode == "rtea" else "nsga2",
                     s.mode, s.family, strategy_label(s.strategy), r.replication, r.seed, s.budget,
                     s.popsize, r.spent, r.metrics["n_returned"], r.metrics["n_filtered"],
                     float(r.metrics["hv_raw"]), float(r.metrics["hv_normalized"]),
                     float(r.metrics["igd"])] for s, r in decorated]

    groups: dict = {}
    for s, r in decorated:
        groups.setdefault((s.setting_key(), s.family, strategy_label(s.strategy)), []).append(r)
    agg_rows = []
    for (setting, fam, label), recs in sorted(groups.items()):
        hvs = [rec.metrics["hv_normalized"] for rec in recs]
        igds = [rec.metrics["igd"] for rec in recs]
        sd = float(np.std(hvs, ddof=1)) if len(hvs) > 1 else 0.0
        igd_sd = float(np.std(igds, ddof=1)) if len(igds) > 1 else 0.0
        agg_rows.append([*setting, fam, label, len(recs), float(np.mean(hvs)), sd,
                         float(np.mean(igds)), igd_sd])

    paths = [out / "per_run.csv", out / "aggregate.csv"]
    _write_csv(paths[0], PER_RUN_HEADER, per_run_rows)
    _write_csv(paths[1], AGGREGATE_HEADER, agg_rows)
    return paths
