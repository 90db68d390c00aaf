#!/usr/bin/env python3
"""Desk-scale learning-rate experiment: error vs first-stage sample size.

Runs the coefficient scheme (or the ridge baseline) over a list of m values
with replications, writes rates.csv and summary.json, and prints
the fitted log-log slope.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from distreg.analysis import DEFAULT_LAMBDA_GRID
from distreg.cli import main as cli_main


def build_config(args) -> dict:
    return {
        "data": {
            "synth": {
                "dim": 1,
                "scale": 0.1,
                "target": args.target,
                "noise_sd": args.noise_sd,
                "noise_bound": 2.0,
                "seed": args.seed,
            }
        },
        "embedding_kernel": {"family": "gaussian", "bandwidth": 0.25, "dim": 1},
        "outer_kernel": {"family": "gaussian_on_embedding", "sigma": 1.0},
        "scheme": args.scheme,
        "lambda": {"grid": DEFAULT_LAMBDA_GRID},
        "schedule_params": {"r": 1.0, "alpha_decay": 2.0, "h": 1.0},
        "m": args.m,
        "replications": args.replications,
        "n_max": args.n_max,
        "n_test": 64,
        "seed": args.seed,
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheme", default="coefficient_l2", choices=["coefficient_l2", "krr"])
    parser.add_argument("--target", default="linear_mean")
    parser.add_argument("--noise-sd", type=float, default=0.05, dest="noise_sd")
    parser.add_argument("--m", type=int, nargs="+", default=[25, 50, 100, 200])
    parser.add_argument("--replications", type=int, default=10)
    parser.add_argument("--n-max", type=int, default=100, dest="n_max")
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--out", default="results/rate")
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(build_config(args), fh)
        config_path = fh.name
    try:
        code = cli_main(
            ["sweep", "--config", config_path, "--out", args.out, "--threads", str(args.threads)]
        )
    finally:
        os.remove(config_path)
    if code == 0:
        print(f"outputs in {Path(args.out).resolve()}")
    sys.exit(code)
