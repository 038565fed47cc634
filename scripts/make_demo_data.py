"""Generate a synthetic study dataset for exercising the CLI.

Writes outcomes.csv (long form), predictors.csv (wide form), and
metadata.csv into --out. The treated unit follows a convex combination
of the first two donors through the pre-period, then drifts upward by a
constant lift after the intervention date. The placebo test should rank
the treated unit first; with regularization turned off (--l1 0)
the fit should also recover the two generating weights.
"""

from __future__ import annotations

import argparse
import datetime as dt
import pathlib

import numpy as np

START = dt.date(2021, 1, 1)
LIFT = 4.0


def build(n_donors: int, days: int, t0_index: int, seed: int):
    rng = np.random.default_rng(seed)
    donors = 30 + rng.normal(0, 1, size=(n_donors, days)).cumsum(axis=1)
    w = np.zeros(n_donors)
    w[0], w[1] = 0.35, 0.65
    treated = w @ donors + rng.normal(0, 0.02, size=days)
    treated[t0_index:] += LIFT
    values = np.vstack([treated, donors])

    # donors each get their own state prefix, up to 80 states; further donors
    # reuse those states with later county suffixes, so codes stay 5-digit
    # FIPS. Units sharing the treated unit's state are excluded from the
    # candidate pool during a fit
    units = ["10001"] + [f"{20 + i % 80:02d}{1 + 2 * (i // 80):03d}"
                         for i in range(n_donors)]
    dates = [START + dt.timedelta(days=i) for i in range(days)]

    # predictors: lagged outcome levels (enough to pin the weights down),
    # two pre-period summaries, and a couple of unrelated covariates
    pre = values[:, :t0_index]
    rows = {
        f"level_d{c:03d}": pre[:, c] for c in range(6, t0_index, 6)
    }
    rows["outcome_mean"] = pre.mean(axis=1)
    rows["outcome_trend"] = pre[:, -1] - pre[:, 0]
    rows["income"] = rng.normal(55, 8, size=n_donors + 1)
    rows["density"] = rng.lognormal(4, 1, size=n_donors + 1)
    return units, dates, values, rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_data")
    parser.add_argument("--donors", type=int, default=12)
    parser.add_argument("--days", type=int, default=120)
    parser.add_argument("--t0-index", type=int, default=80)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    units, dates, values, rows = build(
        args.donors, args.days, args.t0_index, args.seed)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "outcomes.csv", "w", newline="\n") as fh:
        fh.write("unit,date,value\n")
        for i, unit in enumerate(units):
            for d, v in zip(dates, values[i]):
                fh.write(f"{unit},{d.isoformat()},{float(v)!r}\n")

    with open(out / "predictors.csv", "w", newline="\n") as fh:
        fh.write("unit," + ",".join(rows) + "\n")
        for i, unit in enumerate(units):
            cells = ",".join(repr(float(rows[name][i])) for name in rows)
            fh.write(f"{unit},{cells}\n")

    t0 = dates[args.t0_index].isoformat()
    with open(out / "metadata.csv", "w", newline="\n") as fh:
        fh.write("unit,treated,t0\n")
        for i, unit in enumerate(units):
            flag = "1" if i == 0 else "0"
            t0_cell = t0 if i == 0 else ""
            fh.write(f"{unit},{flag},{t0_cell}\n")

    print(f"wrote {out}/outcomes.csv, predictors.csv, metadata.csv")
    print(f"treated unit {units[0]}, intervention {t0}, lift +{LIFT}")
    print("try:")
    print(f"  synthctl fit --outcomes {out}/outcomes.csv "
          f"--predictors {out}/predictors.csv --metadata {out}/metadata.csv "
          f"--treated {units[0]} --l1 0 --out {out}/results")
    print(f"  synthctl placebo --outcomes {out}/outcomes.csv "
          f"--predictors {out}/predictors.csv --metadata {out}/metadata.csv "
          f"--treated {units[0]} --jobs 4 --out {out}/results")


if __name__ == "__main__":
    main()
