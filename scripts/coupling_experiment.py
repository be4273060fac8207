#!/usr/bin/env python3
"""Sweep the embedded-layer probability and watch the coupling do its job.

For the adjacency-count model at small n, enumerates the coupled
generator's reachable (g1, union) pairs exactly for a grid of base
probabilities up to the floor and reports: the TV distance of the union
marginal from the model (always ~0), the TV distance of the embedded
marginal from the independent graph (always ~0), and the exact expected
number of union edges outside the embedded layer, E|union minus g1|: the
edges that only the patch coins supplied. Then draws
coupled samples and confirms the paired counts never cross for a few
monotone properties.

Usage:
    python scripts/coupling_experiment.py [--n 4] [--samples 20000] [--seed 7]
"""

import argparse
import json

import numpy as np

from probust import (
    CouplingParams,
    adjacency_count_model,
    coupled_domination_test,
    er_model,
    exact_coupling_joint,
    exact_joint,
    parse_property,
    tv_distance,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--samples", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=None, help="write rows as JSON")
    args = ap.parse_args()

    model = adjacency_count_model(args.n)
    model_joint = exact_joint(model)
    rows = []
    print(f"adjacency-count model at n={args.n}, floor={model.floor}")
    outside = "E|union \\ g1|"
    print(f"{'base':>6}  {'tv(union,model)':>16}  {'tv(g1,indep)':>13}  {outside:>14}")
    for pct in range(0, 31, 5):
        base = pct / 100.0
        joint = exact_coupling_joint(CouplingParams(base, model))
        tv_u = tv_distance(joint.union_marginal(), model_joint)
        tv_g1 = tv_distance(joint.g1_marginal(), exact_joint(er_model(args.n, base)))
        edges = np.bitwise_count(joint.union & ~joint.g1)
        mean_outside = float(np.dot(joint.weights, edges))
        print(f"{base:6.2f}  {tv_u:16.3e}  {tv_g1:13.3e}  {mean_outside:14.4f}")
        rows.append(
            {"base": base, "tv_union": tv_u, "tv_g1": tv_g1, "union_minus_g1_edges": mean_outside}
        )

    print("\npaired sample-wise dominance at the floor:")
    params = CouplingParams(model.floor, model)
    oracles = [parse_property(s) for s in ("connected", "clique>=3", "match>=2")]
    for report in coupled_domination_test(params, oracles, args.samples, args.seed):
        print(
            f"  {report.oracle_name:>10}: g1 {report.freq_g1:.4f} <= "
            f"union {report.freq_union:.4f}  (violations: {report.violations})"
        )
        rows.append(
            {
                "property": report.oracle_name,
                "freq_g1": report.freq_g1,
                "freq_union": report.freq_union,
            }
        )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
