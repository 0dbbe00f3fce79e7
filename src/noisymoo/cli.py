"""Benchmark command line.

Subcommands: ``run`` one slice, ``sweep`` the whole grid, ``select`` one of
the two unbiased comparison protocols, ``report`` the CSV outputs.
``select`` and ``report`` only read the records a sweep wrote; with any
record missing they list it and exit 2 without running anything. A config
that fails to load (an unknown key, parameter, problem or noise kind, a
value of the wrong type or out of range, a repeated grid entry, a run shape
NSGA-II refuses) is one line on stderr and exit 2, before anything runs or
is written; so is any other :class:`EvaluationError` a command raises, among
them a ``run --rep`` outside the replications, a ``sweep --jobs`` below 1,
or a record damaged or made under another base seed or metrics. The output
root is --out, else the config's output_dir; each seed derives from base_seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .harness import (ExperimentConfig, load_records, record_path, report, run_single,
                      select_params_prestudy, select_params_split, strategy_label, sweep,
                      write_record)
from .pareto import EvaluationError


def _out_dir(args, config: ExperimentConfig) -> Path:
    return Path(args.out or config.output_dir)


def _cmd_run(args, config: ExperimentConfig) -> int:
    slices = config.slices()
    if not 0 <= args.slice < len(slices):
        raise EvaluationError(f"slice index out of range (0..{len(slices) - 1})")
    if not 0 <= args.rep < config.replications:
        raise EvaluationError(f"replication index out of range (0..{config.replications - 1})")
    slice_, _, seed = config.runs()[args.slice * config.replications + args.rep]
    record = run_single(slice_, args.rep, seed, config.metrics)
    path = record_path(_out_dir(args, config), slice_, args.rep)
    write_record(path, record)
    print(f"{strategy_label(slice_.strategy)} on {slice_.problem} {slice_.noise}: "
          f"hv={record.hv:.4f} spent={record.spent} -> {path}")
    return 0


def _cmd_sweep(args, config: ExperimentConfig) -> int:
    if args.jobs < 1:
        raise EvaluationError(f"--jobs must be at least 1, got {args.jobs}")
    out = _out_dir(args, config)
    budget = config.selection.prestudy_budget if args.prestudy else None
    started = sweep(config, out, jobs=args.jobs, budget=budget)
    total = len(config.slices(budget)) * config.replications
    label = "prestudy" if args.prestudy else "full"
    print(f"{label} sweep complete: {started} of {total} runs started, "
          f"records in {out / 'records'}")
    return 0


def _cmd_select(args, config: ExperimentConfig) -> int:
    out = _out_dir(args, config)
    full = load_records(config, out)
    if args.protocol == "split":
        sel = config.selection
        fractions = select_params_split(full, sel.n_select, sel.n_compare, sel.n_repeats,
                                        np.random.default_rng(config.base_seed))
        payload = {"protocol": "split",
                   "fractions": {str(k): v for k, v in fractions.items()}}
    else:
        prestudy = load_records(config, out, budget=config.selection.prestudy_budget)
        table = select_params_prestudy(prestudy, full)
        payload = {"protocol": "prestudy", **table}
    path = Path(out) / f"selection_{args.protocol}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"written to {path}")
    return 0


def _cmd_report(args, config: ExperimentConfig) -> int:
    out = _out_dir(args, config)
    paths = report(load_records(config, out), out)
    for p in paths:
        print(p)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisymoo",
                                     description="Noisy multi-objective resampling benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="output root directory")

    p_run = sub.add_parser("run", help="run one grid slice")
    common(p_run)
    p_run.add_argument("--slice", type=int, required=True, help="slice ordinal")
    p_run.add_argument("--rep", type=int, default=0, help="replication index")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the full grid x replications")
    common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel runs")
    p_sweep.add_argument("--prestudy", action="store_true",
                         help="use the prestudy budget instead of the full one")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_select = sub.add_parser("select", help="unbiased strategy comparison of swept records")
    common(p_select)
    p_select.add_argument("--protocol", choices=("split", "prestudy"), required=True)
    p_select.set_defaults(fn=_cmd_select)

    p_report = sub.add_parser("report", help="write CSV reports of swept records")
    common(p_report)
    p_report.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    prefix = f"noisymoo: bad config {args.config}: "
    try:
        config = ExperimentConfig.load(args.config)
        prefix = "noisymoo: "
        return args.fn(args, config)
    except EvaluationError as exc:
        print(f"{prefix}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
