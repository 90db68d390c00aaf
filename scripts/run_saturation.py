#!/usr/bin/env python3
"""Coefficient scheme vs ridge baseline on the smooth synthetic target.

Both schemes share the data, the holdout split, and the lambda grid; the
report records each scheme's best held-out excess error and their ratio.
"""

import argparse
import json
from dataclasses import asdict

from distreg import (
    EmbeddingKernelSpec,
    MetaDistributionSpec,
    OuterKernelSpec,
    SaturationConfig,
    saturation_compare,
)

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=60)
    parser.add_argument("--n-points", type=int, default=50, dest="n_points")
    parser.add_argument("--noise-sd", type=float, default=0.05, dest="noise_sd")
    parser.add_argument("--seed", type=int, default=424242)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()

    config = SaturationConfig(
        meta=MetaDistributionSpec(
            dim=1,
            scale=0.1,
            target="smooth_composite",
            noise_sd=args.noise_sd,
            noise_bound=2.0,
            seed=args.seed,
        ),
        embedding_kernel=EmbeddingKernelSpec("gaussian", 0.25, 1),
        outer_kernel=OuterKernelSpec.gaussian(1.0),
        m=args.m,
        n_points=args.n_points,
        threads=args.threads,
    )
    report = saturation_compare(config)
    print(json.dumps(asdict(report), indent=2))
