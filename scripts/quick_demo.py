#!/usr/bin/env python3
"""Five-minute tour: one noisy problem, five runs, a little table of
normalized hypervolumes. Each strategy names its loop: the static ones run
NSGA-II one-shot, rank and arb run it sequentially, and the RTEA strategy
runs the Rolling Tide EA.

Usage: python scripts/quick_demo.py [--budget N] [--sigma S] [--seed K]
"""

import argparse

import numpy as np

from noisymoo.metrics import score_final_set
from noisymoo.optimizers import nsga2_run, rtea_run
from noisymoo.problems import NoiseLaw, make_problem
from noisymoo.resampling import ArbStrategy, RankStrategy, RteaStrategy, StaticStrategy
from noisymoo.variation import VariationConfig


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--budget", type=int, default=4000)
    parser.add_argument("--sigma", type=float, default=0.5)
    parser.add_argument("--noise", choices=("gaussian", "chisq", "none"),
                        default="gaussian")
    parser.add_argument("--problem", default="uf1")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    noise = NoiseLaw(kind=args.noise, sigma=args.sigma if args.noise != "none" else 0.0)
    problem = make_problem(args.problem, noise=noise)
    variation = VariationConfig()

    runs = {
        "static n=1 (plain NSGA-II)":
            lambda rng: nsga2_run(problem, StaticStrategy(n=1), 40, args.budget,
                                  variation, rng),
        "static n=5":
            lambda rng: nsga2_run(problem, StaticStrategy(n=5), 40, args.budget,
                                  variation, rng),
        "rank-based (sequential)":
            lambda rng: nsga2_run(problem, RankStrategy(n_max=10), 40, args.budget,
                                  variation, rng),
        "adaptive bootstrap (arb)":
            lambda rng: nsga2_run(problem, ArbStrategy(alpha_l=0.2, alpha_u=0.9),
                                  40, args.budget, variation, rng),
        "rolling tide":
            lambda rng: rtea_run(problem, RteaStrategy(), args.budget, variation, rng),
    }

    print(f"{args.problem} with {args.noise} noise (sigma={args.sigma}), "
          f"budget {args.budget}, seed {args.seed}\n")
    print(f"{'strategy':<30} {'hv_norm':>8} {'igd':>8} {'front':>6} {'spent':>6}")
    for label, run in runs.items():
        result = run(np.random.default_rng(args.seed))
        rep = score_final_set(result.front)
        print(f"{label:<30} {rep.hv_normalized:>8.4f} {rep.igd:>8.4f} "
              f"{len(result.front):>6d} {len(result.log):>6d}")


if __name__ == "__main__":
    main()
