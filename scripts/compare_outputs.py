"""Run a fixed set of synthctl commands on two source trees and compare what they write.

Usage, from anywhere:

    python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are `src/` directories that each hold a `synthctl`
package. The inputs are generated once, by this checkout's `bench/gen.py` and
`scripts/make_demo_data.py`, and both trees run the same commands on them as
`python -m synthctl.cli`, with one BLAS thread per process:

- `bench/gen.py` studies, seeds 1-3 x parts 0-9: `placebo --jobs 1`,
  `placebo --jobs 2` and `fit --l1 0`;
- the study of seeds 1-3, part 0: `sweep --t-fit 5,10,20` at `--jobs 1` and
  `--jobs 2`;
- exact-fit studies (see write_exact_study) of 2, 3, 4, 5 and 8 donors over
  40 and 60 days, seeds 1-3: `placebo --t0` on day 2T/3, at the default
  `--l1` and at `--l1 0`, each at `--jobs 1` and `--jobs 2`. Their weight
  solves reach the branches of `weights.py` that the other inputs leave
  unrun: the warm-to-cold fallback, the lstsq re-run, the kink branch of
  the mu search and its Illinois secant steps;
- the county panels of seeds 1-3: `ingest`, then `fit --v-mode inverse-variance`
  on the cleaned panel;
- `ingest` of a small hand-written panel whose unit codes need CSV quoting or
  hold a `%`, with missing cells and one unit dropped;
- the growth series of seed 1: `logistic --bins 4`;
- 300 growth series of seed 2, with every 9th day missing in every third
  unit, on 4 sets of days (see punch_holes): `logistic`, whose fits group
  the units by their observed days and run in more than one block;
- the demo data: `fit`, `fit --l1 0`, `placebo --jobs 2` and
  `sweep --t-fit 5,10,20` at `--jobs 1` and `--jobs 2`;
- one run per path that no run above reaches (see path_runs), each placebo
  and sweep at `--jobs 1` and `--jobs 2`: a `select-predictors` that selects;
  a `fit` whose options come from a `--config` file; `fit` with `--clusters`
  and `--adjacency` tables that each narrow the donor pool, and with tables
  that each leave it empty; `placebo` with no `--predictors`, and with
  `--train-placement head`; `sweep --train-placement head` with windows too
  long for the pre-period; `placebo --v-mode inverse-variance` with a
  predictor constant across the donors, so that every placebo is skipped;
  and `logistic` with a flat series;
- `synthctl --help` and `--help` of each subcommand (HELP_COMMANDS), whose
  texts carry the option defaults and choices;
- one failing run per reachable raise site (see failure_runs): `ingest` of a
  repeated (unit, date) row, an unparseable date, an infinite value, a
  header with no rows and a panel whose every unit is dropped; `fit` of the
  demo study with a `--clusters` table that lacks the treated unit, an
  `--adjacency` table that lacks its state, and `--v-mode inverse-variance`
  on a constant predictor column; `logistic` with no shared unit, and with a
  too-short series, a never-positive series, a constant index column and
  more bins than fits; `select-predictors` with a constant column.

Every output file, and each command's exit code, stdout and stderr, is
compared byte for byte across the two trees. Within each tree, every run at
`--jobs 1` is compared the same way with its twin at `--jobs 2`, stdout
aside, since it names the output directory. A file that differs is reported
with the largest absolute and relative difference over its numbers, when the
two files differ only in their numbers. Exits 0 when every file is identical,
else 1.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.dont_write_bytecode = True  # keep bench/ free of caches

import gen  # noqa: E402
import numpy as np  # noqa: E402

GROWTH_HOLED_UNITS = 300
STUDY_SEEDS = (1, 2, 3)
STUDY_PARTS = range(10)
COUNTY_SEEDS = (1, 2, 3)
EXACT_DONORS = (2, 3, 4, 5, 8)
EXACT_DAYS = (40, 60)
EXACT_SEEDS = (1, 2, 3)
# raw CSV fields of unit codes that need quoting or hold a printf "%"
EDGE_UNITS = ('"Saint Louis, city"', '"The ""Bay"" area"', "50% Township", "Z\u00fcrich", "100%s",
              "Nowhere")
T_FITS = "5,10,20"
HELP_COMMANDS = ("fit", "placebo", "sweep", "logistic", "select-predictors", "ingest")
# stdout names the output directory, so a --jobs 1 run's never matches its twin's
JOBS_SKIP = frozenset({"_stdout.txt"})
NUMBER = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _study_args(inp: str, treated: str) -> list[str]:
    return ["--outcomes", f"{inp}/outcomes.csv", "--predictors", f"{inp}/predictors.csv",
            "--metadata", f"{inp}/metadata.csv", "--treated", treated]


def write_edge_panel(path: str) -> None:
    """20 days of EDGE_UNITS: one missing cell in every other unit, and the
    last unit missing enough cells to be dropped."""
    last = len(EDGE_UNITS) - 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("unit,date,value\n")
        for i, unit in enumerate(EDGE_UNITS):
            for day in range(1, 21):
                missing = 2 <= day <= 6 if i == last else (i % 2 == 0 and day == 3 + i)
                value = "NA" if missing else repr(10.0 * i + day ** 1.5)
                fh.write(f"{unit},2021-03-{day:02d},{value}\n")


def write_exact_study(inp: str, n_donors: int, days: int, seed: int) -> str:
    """Write a study whose treated unit 10001 is an exact convex mix of its
    donors, and return the date of its day 2 * days / 3.

    The donors are random walks, the mix's weights a Dirichlet draw, and each
    unit has three standard normal predictors.
    """
    rng = np.random.default_rng(seed)
    donors = 30 + rng.normal(0.0, 1.0, (n_donors, days)).cumsum(axis=1)
    values = np.vstack([rng.dirichlet(np.ones(n_donors)) @ donors, donors])
    units = ["10001"] + [f"{20000 + 2 * j:05d}" for j in range(n_donors)]
    dates = gen._dates(days)
    os.makedirs(inp, exist_ok=True)
    gen._write_long(os.path.join(inp, "outcomes.csv"), units, dates,
                    ((i, t, repr(float(values[i, t])))
                     for i in range(len(units)) for t in range(days)))
    gen._write_wide(os.path.join(inp, "predictors.csv"), units, ("a", "b", "c"),
                    rng.normal(size=(3, len(units))))
    return dates[2 * days // 3]


def punch_holes(path: str) -> None:
    """Mark every 9th day of every third unit of a long CSV missing, the days
    shifting over 4 sets from one such unit to the next."""
    rows = [line.split(",") for line in _read(path)]
    units = list(dict.fromkeys(row[0] for row in rows[1:]))
    offset = {unit: (i // 3) % 4 for i, unit in enumerate(units) if i % 3 == 0}
    day: dict[str, int] = {}
    for row in rows[1:]:
        d = day[row[0]] = day.get(row[0], -1) + 1
        if row[0] in offset and d % 9 == offset[row[0]]:
            row[2] = "NA"
    _write(path, [",".join(row) for row in rows])


def _write(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return path


def _read(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def failure_runs(work: str, demo: str, growth: str) -> list[tuple[str, list[str]]]:
    """Write the inputs of runs that each end at one raise site, and return the runs.

    demo and growth are the directories of the demo data and of a
    bench/gen.py growth study, whose files the fit and logistic runs reuse.
    """
    os.makedirs(work, exist_ok=True)
    header = "unit,date,value"
    ingests = {
        "repeated_cell": [header, "01001,2021-03-01,1.0", "01001,2021-03-01,1.0"],
        "bad_date": [header, "01001,2021-03-01,1.0", "01001,03/02/2021,2.0"],
        "infinite": [header, "01001,2021-03-01,1e400", "01001,2021-03-02,2.0"],
        "no_rows": [header],
        "all_dropped": [header] + [f"01001,2021-03-{day:02d},NA" for day in range(1, 11)],
    }
    runs = [(f"fail_ingest_{name}",
             ["ingest", "--outcomes", _write(os.path.join(work, f"{name}.csv"), lines)])
            for name, lines in ingests.items()]

    demo_study = _study_args(demo, "10001")
    clusters = _write(os.path.join(work, "clusters.csv"), ["fips,cluster", "99999,north"])
    adjacency = _write(os.path.join(work, "adjacency.csv"), ["state,neighbor", "98,99"])
    # the demo predictors with income, the last column but one, held constant
    rows = [line.split(",") for line in _read(os.path.join(demo, "predictors.csv"))]
    constant = _write(os.path.join(work, "constant_predictors.csv"),
                      [",".join(row) for row in [rows[0]] + [row[:-2] + ["1.0", row[-1]]
                                                             for row in rows[1:]]])
    runs += [("fail_fit_clusters", ["fit", *demo_study, "--clusters", clusters]),
             ("fail_fit_adjacency", ["fit", *demo_study, "--adjacency", adjacency]),
             ("fail_fit_constant_predictor",
              ["fit", *demo_study[:2], "--predictors", constant, *demo_study[4:],
               "--v-mode", "inverse-variance"])]

    uptake = os.path.join(growth, "uptake.csv")
    strangers = _write(os.path.join(work, "index_strangers.csv"), ["unit,theme", "99999,1.0"])
    # a unit with 5 usable days and one never positive, beside the growth units
    degenerate = _write(os.path.join(work, "uptake_degenerate.csv"), _read(uptake) + [
        f"39001,2021-03-{day:02d},{day}.0" for day in range(1, 6)] + [
        f"39003,2021-03-{day:02d},0.0" for day in range(1, 21)])
    index = _read(os.path.join(growth, "index.csv"))
    flat_index = _write(os.path.join(work, "index_flat.csv"),
                        [index[0] + ",flat"] + [row + ",1.0" for row in index[1:]]
                        + [f"{unit},0.5,0.5,1.0" for unit in ("39001", "39003")])
    runs += [("fail_logistic_no_shared_unit",
              ["logistic", "--outcomes", uptake, "--predictors", strangers]),
             ("fail_logistic_degenerate",
              ["logistic", "--outcomes", degenerate, "--predictors", flat_index,
               "--bins", "20"])]

    selection = _write(os.path.join(work, "selection.csv"), ["unit,a,b,c"] + [
        f"{60000 + 2 * i:05d},{i}.0,{i * 7 % 11}.0,2.5" for i in range(12)])
    blocks = _write(os.path.join(work, "blocks.csv"),
                    ["block,predictor", "demo,a", "demo,b", "econ,c"])
    runs.append(("fail_select_constant",
                 ["select-predictors", "--predictors", selection, "--blocks", blocks]))
    return runs


def path_runs(work: str, demo: str, growth: str) -> list[tuple[str, list[str]]]:
    """Write the inputs of runs that each reach a path no other run does, and return the runs.

    demo and growth are as in failure_runs. The demo study's treated unit is
    10001 (state 10), and its donors 20001-31001 are one unit per state from
    20 to 31.
    """
    os.makedirs(work, exist_ok=True)
    demo_study = _study_args(demo, "10001")
    no_predictors = demo_study[:2] + demo_study[4:]
    runs = []

    selection = _write(os.path.join(work, "selection.csv"), ["unit,a,b,c,d"] + [
        f"{60000 + 2 * i:05d},{i}.0,{i * 7 % 11}.0,{i * i % 13}.0,{2 * i + i % 3}.0"
        for i in range(12)])
    blocks = _write(os.path.join(work, "blocks.csv"),
                    ["block,predictor", "demo,a", "demo,b", "demo,d", "econ,c"])
    runs.append(("select_predictors",
                 ["select-predictors", "--predictors", selection, "--blocks", blocks]))

    # the options of the demo fit, spelled both ways, around a comment and a
    # blank line; the --l1 flag wins over the file's l1
    config = _write(os.path.join(work, "fit.cfg"), [
        "# the demo study", f"outcomes = {demo}/outcomes.csv",
        f"predictors={demo}/predictors.csv", f"metadata={demo}/metadata.csv", "",
        "treated=10001", "t-fit=15", "v_mode=uniform", "l1=0.3"])
    runs.append(("config_fit", ["fit", "--config", config, "--l1", "0"]))

    def side_tables(name: str, clusters: list[str], adjacency: list[str]) -> list[str]:
        return ["--clusters", _write(os.path.join(work, f"{name}_clusters.csv"),
                                     ["fips,cluster"] + clusters),
                "--adjacency", _write(os.path.join(work, f"{name}_adjacency.csv"),
                                      ["state,neighbor"] + adjacency)]
    donors = [f"{state}001" for state in range(20, 32)]
    # the cluster keeps donors of states 20-27, then adjacency states 21, 23 and 25
    narrow = side_tables("narrow", ["10001,north"] + [
        f"{unit},{'north' if i < 8 else 'south'}" for i, unit in enumerate(donors)],
        ["10,21", "10,23", "10,25", "10,30"])
    # the treated unit's cluster and its state's neighbors hold no donor
    empty = side_tables("empty", ["10001,east"] + [f"{unit},west" for unit in donors],
                        ["10,98", "10,99"])
    runs += [("fit_side_tables_narrow", ["fit", *demo_study, *narrow]),
             ("fit_side_tables_empty", ["fit", *demo_study, *empty])]

    # the demo predictors with income, the last column but one, equal in every donor
    rows = [line.split(",") for line in _read(os.path.join(demo, "predictors.csv"))]
    donor_constant = _write(os.path.join(work, "donor_constant_predictors.csv"), [
        ",".join(row if row[0] in ("unit", "10001") else row[:-2] + ["55.0", row[-1]])
        for row in rows])
    for jobs in (1, 2):
        j = ["--jobs", str(jobs)]
        runs += [(f"placebo_no_predictors_j{jobs}", ["placebo", *no_predictors, *j]),
                 (f"placebo_head_j{jobs}",
                  ["placebo", *demo_study, "--train-placement", "head", *j]),
                 (f"sweep_head_long_windows_j{jobs}",
                  ["sweep", *demo_study, "--train-placement", "head",
                   "--t-fit", "10,30,80,200", *j]),
                 (f"placebo_skipped_j{jobs}",
                  ["placebo", *demo_study[:2], "--predictors", donor_constant,
                   *demo_study[4:], "--v-mode", "inverse-variance", *j])]

    uptake = os.path.join(growth, "uptake.csv")
    days = dict.fromkeys(line.split(",")[1] for line in _read(uptake)[1:])
    flat = _write(os.path.join(work, "uptake_flat.csv"), _read(uptake) + [
        f"39005,{day},5.0" for day in days])
    flat_index = _write(os.path.join(work, "index_flat_unit.csv"),
                        _read(os.path.join(growth, "index.csv")) + ["39005,0.5,0.5"])
    runs.append(("logistic_flat", ["logistic", "--outcomes", flat, "--predictors", flat_index,
                                   "--bins", "4"]))
    return runs


def make_inputs(work: str) -> list[tuple[str, list[str]]]:
    """Write every input under work and return the runs: (name, argv)."""
    runs = []
    for seed in STUDY_SEEDS:
        for part in STUDY_PARTS:
            inp = os.path.join(work, f"study_s{seed}_p{part}")
            truth = gen.gen_study(inp, seed, part)
            study = _study_args(inp, truth.treated)
            name = f"study_s{seed}_p{part}"
            runs += [(f"{name}_placebo_j1", ["placebo", *study, "--jobs", "1"]),
                     (f"{name}_placebo_j2", ["placebo", *study, "--jobs", "2"]),
                     (f"{name}_fit_l1_0", ["fit", *study, "--l1", "0"])]
            if part == 0:
                runs += [(f"{name}_sweep_j{jobs}",
                          ["sweep", *study, "--t-fit", T_FITS, "--jobs", str(jobs)])
                         for jobs in (1, 2)]

    for n_donors, days, seed in itertools.product(EXACT_DONORS, EXACT_DAYS, EXACT_SEEDS):
        name = f"exact_d{n_donors}_T{days}_s{seed}"
        inp = os.path.join(work, name)
        t0 = write_exact_study(inp, n_donors, days, seed)
        study = ["--outcomes", f"{inp}/outcomes.csv", "--predictors", f"{inp}/predictors.csv",
                 "--treated", "10001", "--t0", t0]
        runs += [(f"{name}{label}_placebo_j{jobs}", ["placebo", *study, *l1, "--jobs", str(jobs)])
                 for label, l1 in (("", []), ("_l1_0", ["--l1", "0"])) for jobs in (1, 2)]

    for seed in COUNTY_SEEDS:
        name = f"county_s{seed}"
        inp = os.path.join(work, name)
        truth = gen.gen_county(inp, seed)
        runs.append((f"{name}_ingest", ["ingest", "--outcomes", f"{inp}/raw.csv",
                                        "--metadata", f"{inp}/metadata.csv"]))
        # the fit reads the panel that the ingest run wrote into the same tree
        runs.append((f"{name}_fit", ["fit", "--outcomes", f"{name}_ingest/panel_clean.csv",
                                     "--predictors", f"{inp}/predictors.csv",
                                     "--metadata", f"{inp}/metadata.csv",
                                     "--treated", truth.treated,
                                     "--v-mode", "inverse-variance"]))

    path = os.path.join(work, "edge_units.csv")
    write_edge_panel(path)
    runs.append(("edge_units_ingest", ["ingest", "--outcomes", path]))

    inp = os.path.join(work, "growth_s1")
    gen.gen_growth(inp, 1)
    runs.append(("growth_s1_logistic", ["logistic", "--outcomes", f"{inp}/uptake.csv",
                                        "--predictors", f"{inp}/index.csv", "--bins", "4"]))

    inp = os.path.join(work, "growth_holed")
    gen.gen_growth(inp, 2, n_units=GROWTH_HOLED_UNITS)
    punch_holes(os.path.join(inp, "uptake.csv"))
    runs.append(("growth_holed_logistic", ["logistic", "--outcomes", f"{inp}/uptake.csv",
                                           "--predictors", f"{inp}/index.csv"]))

    inp = os.path.join(work, "demo")
    subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "make_demo_data.py"),
                    "--out", inp], check=True, stdout=subprocess.DEVNULL)
    demo = _study_args(inp, "10001")
    runs += [("demo_fit", ["fit", *demo]),
             ("demo_fit_l1_0", ["fit", *demo, "--l1", "0"]),
             ("demo_placebo_j2", ["placebo", *demo, "--jobs", "2"])]
    runs += [(f"demo_sweep_j{jobs}", ["sweep", *demo, "--t-fit", T_FITS, "--jobs", str(jobs)])
             for jobs in (1, 2)]
    runs += [("help", ["--help"])] + [(f"help_{command}", [command, "--help"])
                                      for command in HELP_COMMANDS]
    growth = os.path.join(work, "growth_s1")
    return (runs + path_runs(os.path.join(work, "paths"), inp, growth)
            + failure_runs(os.path.join(work, "failures"), inp, growth))


def run_tree(src: str, runs: list[tuple[str, list[str]]], out: str) -> None:
    """Run every command of runs from src, each into out/<name>/."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name, argv in runs:
        # a relative --out keeps each tree's stdout free of its own directory
        proc = subprocess.run([sys.executable, "-m", "synthctl.cli", *argv, "--out", name],
                              cwd=out, env=env, capture_output=True, timeout=600)
        os.makedirs(os.path.join(out, name), exist_ok=True)
        for suffix, data in (("exit", b"%d\n" % proc.returncode),
                             ("stdout", proc.stdout), ("stderr", proc.stderr)):
            with open(os.path.join(out, name, f"_{suffix}.txt"), "wb") as fh:
                fh.write(data)


def _files(top: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top) for f in names}


def difference(a: bytes, b: bytes) -> str:
    """How two differing files differ: their numbers' largest gaps, or their text."""
    if NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
        return "differs in more than its numbers"
    abs_gap = rel_gap = 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        fx, fy = float(x), float(y)
        gap = abs(fx - fy)
        if gap > 0.0:
            abs_gap = max(abs_gap, gap)
            rel_gap = max(rel_gap, gap / max(abs(fx), abs(fy)))
    return f"max abs diff {abs_gap:.3g}, max rel diff {rel_gap:.3g}"


def compare(first: str, second: str, labels: tuple[str, str] = ("parent", "change"),
            skip: frozenset[str] = frozenset()) -> list[str]:
    """One line per file, by its path under both, that is not byte-identical in both
    directories; files named in skip are left out."""
    lines = []
    for rel in sorted(_files(first) | _files(second)):
        if os.path.basename(rel) in skip:
            continue
        paths = (os.path.join(first, rel), os.path.join(second, rel))
        if not all(os.path.exists(p) for p in paths):
            lines.append(f"{rel}: only in {labels[0] if os.path.exists(paths[0]) else labels[1]}")
            continue
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            a, b = fa.read(), fb.read()
        if a != b:
            lines.append(f"{rel}: {difference(a, b)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--work", help="directory for inputs and outputs, kept afterwards "
                                       "(default: a temporary directory, removed)")
    args = parser.parse_args()
    work = args.work or tempfile.mkdtemp(prefix="synthctl-compare-")
    try:
        runs = make_inputs(os.path.join(work, "inputs"))
        trees = {}
        for label, src in (("parent", args.parent_src), ("change", args.change_src)):
            trees[label] = os.path.join(work, label)
            os.makedirs(trees[label], exist_ok=True)
            run_tree(src, runs, trees[label])
        n_files = len(_files(trees["parent"]) | _files(trees["change"]))
        lines = compare(trees["parent"], trees["change"])
        # each --jobs 1 run and its --jobs 2 twin, within one tree
        twins = [(name, name[:-1] + "2") for name, _ in runs if name.endswith("_j1")]
        jobs_lines = [f"{label}/{j1} vs {j2}: {line}"
                      for label, tree in trees.items() for j1, j2 in twins
                      for line in compare(os.path.join(tree, j1), os.path.join(tree, j2),
                                          ("--jobs 1", "--jobs 2"), JOBS_SKIP)]
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    for line in lines + jobs_lines:
        print(line)
    print(f"{len(runs)} runs, {n_files} files: "
          f"{n_files - len(lines)} identical, {len(lines)} differ")
    print(f"{len(twins)} --jobs 1 runs per tree against their --jobs 2 twins: "
          f"{len(jobs_lines)} files differ")
    return 1 if lines or jobs_lines else 0


if __name__ == "__main__":
    sys.exit(main())
