#!/usr/bin/env python3
"""Write a synthetic monthly fund panel as the CSV pair the CLI consumes.

Two modes:
  * mixture (default): standardized alphas drawn from the s1/s2 sparsity
    mixture with residual dependence per --dep — return units are arbitrary
    (the pipeline is scale-free in Z), meant for exercising fit/dvalues/select;
  * planted (--planted N): realistic return scales, all alphas zero except N
    funds given a fixed monthly alpha of --alpha-monthly (0.005 = 0.5%/month),
    meant for the rolling backtest.

Also writes truth.csv (fund_id, true standardized alpha, planted flag) and,
with --benchmark, the equal-weight all-fund series benchmark.csv.

Run from the repository root with the package importable, e.g.
    PYTHONPATH=src python3 scripts/make_synthetic_panel.py --p 300 --out-dir panel
"""

import argparse
import csv
import os

import numpy as np

from fundselect.simlab import SimSetting, generate_panel, planted_panel, synthetic_factors
from fundselect.streams import substream


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=100)
    ap.add_argument("--months", type=int, default=120)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sparsity", default="s1")
    ap.add_argument("--dep", default="d1")
    ap.add_argument("--planted", type=int, default=None,
                    help="planted mode: number of funds with a fixed alpha")
    ap.add_argument("--alpha-monthly", type=float, default=0.005)
    ap.add_argument("--benchmark", action="store_true",
                    help="also write the equal-weight all-fund return series")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    if args.planted is not None:
        panel, factors, planted = planted_panel(
            args.p, args.months, args.planted, args.alpha_monthly, args.seed
        )
        mu = np.where(planted, args.alpha_monthly, 0.0)
        planted_flag = planted
    else:
        setting = SimSetting(
            p=args.p, sparsity=args.sparsity, dependence=args.dep,
            theta=0.1, reps=1, seed=args.seed, n_months=args.months,
        )
        factors = synthetic_factors(args.months, substream(args.seed, "factors"))
        panel, factors, mu = generate_panel(
            setting, substream(args.seed, "panel"), factors=factors
        )
        planted_flag = mu > 0

    tables = {
        "returns.csv": (
            ["date", "fund_id", "ret"],
            (
                [date, fund, float(panel.returns[t, i])]
                for t, date in enumerate(panel.dates)
                for i, fund in enumerate(panel.fund_ids)
            ),
        ),
        "factors.csv": (
            ["date", "mkt_rf", "smb", "hml", "mom", "rf"],
            (
                [date, *map(float, factors.factors[t]), float(factors.rf[t])]
                for t, date in enumerate(factors.dates)
            ),
        ),
        "truth.csv": (
            ["fund_id", "mu", "planted"],
            ([fund, float(mu[i]), int(planted_flag[i])] for i, fund in enumerate(panel.fund_ids)),
        ),
    }
    if args.benchmark:
        ew = panel.returns.mean(axis=1)
        tables["benchmark.csv"] = (
            ["date", "ret"],
            ([date, float(ew[t])] for t, date in enumerate(panel.dates)),
        )
    os.makedirs(args.out_dir, exist_ok=True)
    for name, (header, rows) in tables.items():
        with open(os.path.join(args.out_dir, name), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    print(f"wrote {args.p} funds x {args.months} months to {args.out_dir}")


if __name__ == "__main__":
    main()
