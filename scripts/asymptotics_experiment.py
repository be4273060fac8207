#!/usr/bin/env python3
"""Classical-formula trend tables for the independent graph, exact oracles only.

Sweeps n where each exact oracle is feasible and writes one CSV per
quantity: predicted value vs observed mean/sd. Useful for eyeballing how
fast (or slowly) the first-order asymptotics become accurate; the clique
and dominating-set columns show the finite-size gaps that led the
acceptance suite to centre its trend windows on finite-n predictions
instead of these first-order formulas.

Usage:
    python scripts/asymptotics_experiment.py [--samples 20] [--seed 7] [--outdir tables]
"""

import argparse
import os

from probust import FORMULAS, asymptotic_report

SWEEPS = [
    ("clique", [32, 64, 128, 256], 0.5, None),
    ("dominating-set", [12, 16, 20, 26], 0.5, None),
    ("independent-set", [20, 30, 40], None, 4.0),
    ("diameter", [100, 300, 1000], None, 10.0),
]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--outdir", default=None)
    args = ap.parse_args()

    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)

    for name, ns, p, degree in SWEEPS:
        formula = FORMULAS[name]
        rows = asymptotic_report(
            formula, formula.statistic, ns, p, args.samples, args.seed, degree=degree
        )
        print(f"\n{name}  ({FORMULAS[name].note})")
        print(f"{'n':>6} {'p':>9} {'predicted':>10} {'observed':>9} {'sd':>7}")
        for r in rows:
            print(
                f"{r.n:>6} {r.p:>9.4f} {r.predicted:>10.3f} "
                f"{r.observed_mean:>9.3f} {r.observed_sd:>7.3f}"
            )
        if args.outdir:
            path = os.path.join(args.outdir, f"{name}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("n,p,predicted,observed_mean,observed_sd,samples\n")
                for r in rows:
                    fh.write(
                        f"{r.n},{r.p!r},{r.predicted!r},{r.observed_mean!r},"
                        f"{r.observed_sd!r},{r.samples}\n"
                    )
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
