#!/usr/bin/env python3
"""Regenerate the frozen reference values used by the acceptance suite.

The acceptance tests pin a handful of empirically measured values (the
50-replication rate slope, the saturation ratio, the indefinite-fixture
eigenvalue). This script recomputes them from the same seeded configs so a
maintainer can audit or refresh the constants in tests/test_acceptance.py.
Expect several minutes of runtime for the 50-replication sweep.
"""

import argparse
import json
from dataclasses import asdict

import numpy as np

import distreg as dr


def reference_rate_slope(replications: int, threads: int) -> dict:
    cfg = dr.SweepConfig(
        meta=dr.MetaDistributionSpec(
            dim=1, scale=0.1, target="linear_mean", noise_sd=0.05,
            noise_bound=2.0, seed=20240817,
        ),
        embedding_kernel=dr.EmbeddingKernelSpec("gaussian", 0.25, 1),
        outer_kernel=dr.OuterKernelSpec.gaussian(1.0),
        scheme="coefficient_l2",
        m_values=(25, 50, 100, 200),
        replications=replications,
        schedule_params=dr.ScheduleParams(r=1.0, alpha_decay=2.0, h=1.0),
        lambda_mode="grid",
        n_max=100,
        n_test=64,
        threads=threads,
    )
    result = dr.run_rate_experiment(cfg)
    return {
        "slope": result.fit.slope,
        "r_squared": result.fit.r_squared,
        "medians": {str(m): e for m, e in result.medians.items()},
    }


def saturation_ratio(threads: int) -> dict:
    cfg = dr.SaturationConfig(
        meta=dr.MetaDistributionSpec(
            dim=1, scale=0.1, target="smooth_composite", noise_sd=0.05,
            noise_bound=2.0, seed=424242,
        ),
        embedding_kernel=dr.EmbeddingKernelSpec("gaussian", 0.25, 1),
        outer_kernel=dr.OuterKernelSpec.gaussian(1.0),
        m=60,
        n_points=50,
        threads=threads,
    )
    return asdict(dr.saturation_compare(cfg))


def indefinite_min_eigenvalue() -> float:
    espec = dr.EmbeddingKernelSpec("gaussian", 0.5, 2)
    kspec = dr.OuterKernelSpec.dog(0.4, 2.0, 1.0)
    rng = np.random.default_rng(0)
    bags = []
    for i in range(10):
        center = rng.uniform(0.0, 3.0, size=2)
        bags.append(dr.Bag(f"ind-{i:02d}", center + 0.15 * rng.normal(size=(15, 2))))
    g = dr.build_gram(kspec, espec, bags)
    return float(np.linalg.eigvalsh(0.5 * (g.values + g.values.T)).min())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replications", type=int, default=50)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()

    out = {
        "rate_reference": reference_rate_slope(args.replications, args.threads),
        "saturation": saturation_ratio(args.threads),
        "indefinite_min_eigenvalue": indefinite_min_eigenvalue(),
    }
    print(json.dumps(out, indent=2))
