"""Refit the benchmark studies on two source trees and compare their importance searches.

Usage, from anywhere:

    python scripts/compare_search.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are `src/` directories that each hold a `synthctl`
package. The inputs are generated once, by this checkout's `bench/gen.py`:
the studies of seeds 1-3 x parts 0-9. Each tree then runs in its own
process, with one BLAS thread, and fits in-process what `placebo` fits on
each study: the treated unit and every donor as a placebo, under default
flags. That is 210 fits.

For each fit the report prints the validation error, the number of
`solve_w` calls and whether the final solve is certified, on both sides.
Then it prints the totals, how many fits validate lower and higher on the
change, the median ratio of the change's validation error to the parent's,
and every fit whose error rose.

The units check refits the treated unit of seeds 1-3 x parts 0-4 with the
`income` predictor recorded x 1000 and reports, per tree, how many fits'
weights moved by more than 1e-12, and the largest move.

Exits 0 when every fit succeeded on both sides, else 1. The report itself
gates nothing: read it against the change's stated bounds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STUDY_SEEDS = (1, 2, 3)
STUDY_PARTS = range(10)
UNITS_PARTS = range(5)
UNITS_PREDICTOR = "income"
UNITS_SCALE = 1000.0
MOVED = 1e-12


def make_inputs(work: str) -> list[dict]:
    """Write every study under work and return what a worker needs to fit it."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    sys.dont_write_bytecode = True  # keep bench/ free of caches
    import gen

    studies = []
    for seed in STUDY_SEEDS:
        for part in STUDY_PARTS:
            inp = os.path.join(work, f"study_s{seed}_p{part}")
            truth = gen.gen_study(inp, seed, part)
            studies.append({"name": f"s{seed}_p{part}", "dir": inp, "treated": truth.treated,
                            "donors": list(truth.donors), "T0": truth.T0,
                            "units_check": part in UNITS_PARTS})
    return studies


def worker(manifest: str) -> None:
    """Fit every study of the manifest with the synthctl on sys.path; print JSON."""
    import numpy as np

    from synthctl import engine
    from synthctl.engine import StudySpec, build_design, fit_synth, placebo_design
    from synthctl.errors import SynthctlError
    from synthctl.panel import PredictorTable, ingest_panel, load_predictors

    calls = [0]
    solve_w = engine.solve_w

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve_w(*args, **kwargs)

    engine.solve_w = counted

    with open(manifest) as fh:
        studies = json.load(fh)
    fits, units, seconds = [], [], 0.0
    for study in studies:
        panel = ingest_panel(os.path.join(study["dir"], "outcomes.csv"))
        predictors = load_predictors(os.path.join(study["dir"], "predictors.csv"))
        spec = StudySpec(treated=study["treated"], donors=tuple(study["donors"]),
                         T0=study["T0"])
        design = build_design(panel, predictors, spec)
        for unit in (spec.treated,) + spec.donors:
            fit_spec, fit_design = spec, design
            if unit != spec.treated:  # as inference.placebo_run fits each donor
                i = spec.donors.index(unit)
                fit_spec = dataclasses.replace(
                    spec, treated=unit, donors=spec.donors[:i] + spec.donors[i + 1:])
                fit_design = placebo_design(design, i, fit_spec)
            calls[0] = 0
            start = time.process_time()
            try:
                result = fit_synth(fit_spec, fit_design)
            except (SynthctlError, ValueError) as exc:  # a skipped placebo, as placebo_run
                fits.append({"fit": f"{study['name']}/{unit}", "error": repr(exc)})
                continue
            seconds += time.process_time() - start
            fits.append({"fit": f"{study['name']}/{unit}", "validation": result.validation_mspe,
                         "solves": calls[0], "converged": bool(result.converged)})

        if study["units_check"]:
            row = predictors.names.index(UNITS_PREDICTOR)
            values = predictors.values.copy()
            values[row] *= UNITS_SCALE
            rescaled = PredictorTable(predictors.names, predictors.units, values)
            w = fit_synth(spec, design).w_star
            w_rescaled = fit_synth(spec, build_design(panel, rescaled, spec)).w_star
            units.append(float(np.abs(w - w_rescaled).max()))
    json.dump({"fits": fits, "units": units, "fit_cpu_s": seconds}, sys.stdout)


def run_tree(src: str, manifest: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", manifest],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def report(parent: dict, change: dict) -> bool:
    """Print the comparison; return whether every fit succeeded on both sides."""
    print(f"{'fit':<16} {'val parent':>12} {'val change':>12} {'ratio':>7} "
          f"{'solves':>11} {'certified':>11}")
    ratios, rose, failed = [], [], []
    for a, b in zip(parent["fits"], change["fits"]):
        if "error" in a or "error" in b:
            failed.append(a["fit"])
            print(f"{a['fit']:<16} parent {a.get('error', 'ok')}; change {b.get('error', 'ok')}")
            continue
        ratio = b["validation"] / a["validation"] if a["validation"] > 0 else float("nan")
        ratios.append(ratio)
        if b["validation"] > a["validation"]:
            rose.append((a["fit"], ratio))
        print(f"{a['fit']:<16} {a['validation']:12.6g} {b['validation']:12.6g} {ratio:7.4f} "
              f"{a['solves']:5d} {b['solves']:5d} {str(a['converged']):>5} "
              f"{str(b['converged']):>5}")

    def total(side, key):
        return sum(f[key] for f in side["fits"] if "error" not in f)

    n = len(ratios)
    lower = sum(b["validation"] < a["validation"] for a, b in zip(parent["fits"], change["fits"])
                if "error" not in a and "error" not in b)
    print()
    print(f"fits compared: {n} of {len(parent['fits'])}")
    print(f"solve_w calls: parent {total(parent, 'solves')}, change {total(change, 'solves')}")
    print(f"certified fits: parent {total(parent, 'converged')}, "
          f"change {total(change, 'converged')}")
    print(f"fit cpu time: parent {parent['fit_cpu_s']:.2f} s, change {change['fit_cpu_s']:.2f} s")
    print(f"validation error on the change: lower in {lower}, higher in {len(rose)}, "
          f"equal in {n - lower - len(rose)}")
    if ratios:
        print(f"median ratio change/parent: {statistics.median(ratios):.4f}")
    for fit, ratio in sorted(rose, key=lambda r: -r[1]):
        print(f"  rose: {fit} {100 * (ratio - 1):+.1f} %")
    for label, side in (("parent", parent), ("change", change)):
        moved = [m for m in side["units"] if m > MOVED]
        print(f"units check ({UNITS_PREDICTOR} x {UNITS_SCALE:g}), {label}: weights moved by "
              f"more than {MOVED:g} in {len(moved)} of {len(side['units'])} studies, "
              f"largest move {max(side['units']):.3g}")
    return not failed


def main() -> int:
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--work", help="directory for the inputs, kept afterwards "
                                       "(default: a temporary directory, removed)")
    args = parser.parse_args()
    work = args.work or tempfile.mkdtemp(prefix="synthctl-search-")
    try:
        os.makedirs(work, exist_ok=True)
        manifest = os.path.join(work, "studies.json")
        with open(manifest, "w") as fh:
            json.dump(make_inputs(work), fh)
        parent = run_tree(args.parent_src, manifest)
        change = run_tree(args.change_src, manifest)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    return 0 if report(parent, change) else 1


if __name__ == "__main__":
    sys.exit(main())
