"""Benchmark for synthctl: run one workload and print its metrics as JSON.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload study-placebo --seed 1 --seconds 30 --trace 0

With --trace 0 the workload's `synthctl` subcommands run as subprocesses of
the checkout's `src/`, untraced, in rounds until --seconds have passed, and
the end-to-end metrics are the medians over the rounds. With --trace 1 the
same commands run in this process through `synthctl.cli.main` with --jobs 1,
wrapped by `tracing.Tracer`, and the per-layer metrics are printed instead.
Either way the program's outputs are checked against the generator's truth
and independent computations (`checks.py`), and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per process, set before numpy loads here and passed
# to every program process, so that --jobs alone sets the parallelism
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

COMMAND_TIMEOUT_S = 120.0
GROWTH_BINS = 4

# per-layer metrics of the traced run: name -> unit
PER_LAYER_UNITS = {
    "panel.ingest_panel.s": "s", "panel.ingest_panel.rows": "count",
    "panel.clean_panel.s": "s", "panel.load_tables.s": "s",
    "panel.unit_index.calls": "count",
    "serialize.write_csv.s": "s", "serialize.write_csv.bytes": "bytes",
    "donors.split_control_target.s": "s",
    "weights.solve_w.calls": "count", "weights.solve_w.s": "s",
    "weights.descents": "count", "weights.pgd_iters": "count",
    "weights.descents_capped": "count",
    "weights.project_simplex.calls": "count", "weights.project_simplex.s": "s",
    "engine.fit_synth.calls": "count", "engine.fit_synth.s": "s",
    "engine.solve_v.calls": "count", "engine.solve_v.s": "s",
    "engine.solve_v.solve_w_calls": "count", "engine.v_search_useful": "count",
    "engine.v_search_useful_share": "ratio",
    "engine.build_design.calls": "count", "engine.build_design.s": "s",
    "inference.placebo_run.s": "s", "inference.fits": "count",
    "inference.skipped": "count", "inference.task_bytes": "bytes",
    "logistic.fit_logistic.calls": "count", "logistic.fit_logistic.s": "s",
    "logistic.nm_runs": "count", "logistic.nm_evals": "count",
    "logistic.summaries.s": "s",
    "cli.main.s": "s",
}


@dataclass(frozen=True)
class Workload:
    """Inputs, commands and output checks of one workload.

    `make(inputs, seed, part)` writes input `part` of the seed's inputs and
    returns the planted truth; `commands(inputs, out, truth, jobs)` lists
    the subcommands of one round; `check(out, truth)` raises
    checks.CheckFailed on a wrong output; `help_for` names the subcommands
    whose `--help` launch times setup_s, one per round in turn.
    """

    make: Callable
    commands: Callable
    check: Callable
    help_for: tuple[str, ...]


def _study_commands(inp, out, truth, jobs):
    return [["placebo", "--outcomes", f"{inp}/outcomes.csv",
             "--predictors", f"{inp}/predictors.csv", "--metadata", f"{inp}/metadata.csv",
             "--treated", truth.treated, "--jobs", str(jobs), "--out", out]]


def _county_commands(inp, out, truth, jobs):
    return [["ingest", "--outcomes", f"{inp}/raw.csv", "--metadata", f"{inp}/metadata.csv",
             "--out", f"{out}/ingest"],
            ["fit", "--outcomes", f"{out}/ingest/panel_clean.csv",
             "--predictors", f"{inp}/predictors.csv", "--metadata", f"{inp}/metadata.csv",
             "--treated", truth.treated, "--v-mode", "inverse-variance",
             "--out", f"{out}/fit"]]


def _growth_commands(inp, out, truth, jobs):
    return [["logistic", "--outcomes", f"{inp}/uptake.csv",
             "--predictors", f"{inp}/index.csv", "--bins", str(GROWTH_BINS), "--out", out]]


WORKLOADS = {
    # the nested importance search and the process pool
    "study-placebo": Workload(
        make=gen.gen_study,
        commands=_study_commands,
        check=lambda out, truth: checks.check_study(truth, out),
        help_for=("placebo",)),
    # panel I/O and cleaning, then one full-budget solve at large J
    "county-panel": Workload(
        make=gen.gen_county,
        commands=_county_commands,
        check=lambda out, truth: checks.check_county(truth, f"{out}/ingest", f"{out}/fit"),
        help_for=("ingest", "fit")),
    # multistart Nelder-Mead growth-curve fits; no weights, engine or inference
    "growth-curves": Workload(
        make=gen.gen_growth,
        commands=_growth_commands,
        check=lambda out, truth: checks.check_growth(truth, out, GROWTH_BINS),
        help_for=("logistic",)),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def output_digest(out: str) -> dict[str, str]:
    digest = {}
    for base, _, files in os.walk(out):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digest.items()))


# ---------------------------------------------------------------------------
# untraced runs: subcommands as subprocesses
# ---------------------------------------------------------------------------

@dataclass
class Launch:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def launch(argv: list[str], stderr) -> Launch:
    """Run `python -m synthctl.cli argv` from the checkout's src/ and measure it.

    wait4 reports the user and system CPU and the peak resident set of the
    process together with the descendants it waited for, so pool workers
    are included. The process gets its own group, which is killed whole if
    it outlives COMMAND_TIMEOUT_S.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "synthctl.cli", *argv], env=env,
                            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=stderr,
                            start_new_session=True)
    timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers left behind, if any
    return Launch(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Round:
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    attempted: int
    failed: int


def run_round(workload: Workload, inp: str, out: str, truth, probe: str,
              stderr) -> Round:
    """A fresh `probe --help` launch, then the workload's commands into an empty `out`."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    help_run = launch([probe, "--help"], stderr)
    runs = [launch(argv, stderr) for argv in workload.commands(inp, out, truth, 2)]
    return Round(help_run.wall_s, sum(r.wall_s for r in runs), sum(r.cpu_s for r in runs),
                 max(r.rss_mb for r in runs), 1 + len(runs),
                 (help_run.returncode != 0) + sum(r.returncode != 0 for r in runs))


def measure(name: str, workload: Workload, seed: int, seconds: float) -> dict:
    """Warm up on input 0, then time rounds on inputs 0, 1, 2, ... for `seconds`.

    Each round draws a fresh input from the seed, so the medians average
    over several inputs as well as over the machine's noise; round 0
    repeats the warm-up's input and must write the same bytes.
    """
    inp, out = _dirs(name)
    correct = True

    def one_round(part: int, stderr) -> tuple[Round, bool]:
        shutil.rmtree(inp, ignore_errors=True)
        truth = workload.make(inp, seed, part)
        r = run_round(workload, inp, out, truth,
                      workload.help_for[part % len(workload.help_for)], stderr)
        try:
            workload.check(out, truth)
            ok = r.failed == 0
        except checks.CheckFailed as exc:
            log(f"input {part}: check failed: {exc}")
            ok = False
        return r, ok

    with open(os.path.join(WORK, name, "stderr.txt"), "w") as stderr:
        warm, correct = one_round(0, stderr)
        reference = output_digest(out)
        log(f"warm-up: wall {warm.wall_s:.3f} s, failed {warm.failed}")

        rounds: list[Round] = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            r, ok = one_round(len(rounds), stderr)
            correct &= ok
            if not rounds and output_digest(out) != reference:
                log("round 0: outputs differ from the warm-up's on the same input")
                correct = False
            rounds.append(r)
            log(f"round {len(rounds) - 1}: wall {r.wall_s:.3f} s, cpu {r.cpu_s:.3f} s, "
                f"rss {r.rss_mb:.1f} MB, setup {r.setup_s:.3f} s")

    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in rounds), "MB"),
    }
    return {"correct": correct,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _dirs(name: str) -> tuple[str, str]:
    base = os.path.join(WORK, name)
    return os.path.join(base, "inputs"), os.path.join(base, "out")


# ---------------------------------------------------------------------------
# traced runs: the same commands in this process, one job
# ---------------------------------------------------------------------------

def measure_traced(name: str, workload: Workload, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced in-process passes on input 0 for `seconds`."""
    inp, out = _dirs(name)
    truth = workload.make(inp, seed, 0)
    sys.path.insert(0, SRC)
    from synthctl import cli

    from tracing import Tracer
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"synthctl was imported from {cli.__file__}, not from {SRC}")

    def one_pass(tracer: Tracer | None) -> tuple[float, int]:
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        failed = 0
        start = time.perf_counter()
        for argv in workload.commands(inp, out, truth, 1):
            if tracer is None:
                with contextlib.redirect_stdout(io.StringIO()):
                    failed += cli.main(argv) != 0
            else:
                tracer.install()
                try:
                    failed += tracer.main(cli, argv) != 0
                finally:
                    tracer.uninstall()
        return time.perf_counter() - start, failed

    correct = True
    warm_s, failed = one_pass(None)
    try:
        workload.check(out, truth)
    except checks.CheckFailed as exc:
        log(f"check failed: {exc}")
        correct = False
    reference = output_digest(out)
    correct &= failed == 0
    log(f"untraced in-process warm-up pass: {warm_s:.3f} s")

    # traced passes alternate with untraced ones, so that the overhead
    # compares passes made under the same conditions
    passes: list[tuple[Tracer, float]] = []
    untraced: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        wall, bad = one_pass(None)
        untraced.append(wall)
        tracer = Tracer()
        traced_wall, traced_bad = one_pass(tracer)
        passes.append((tracer, traced_wall))
        attempted += 2 * len(workload.commands(inp, out, truth, 1))
        failed += bad + traced_bad
        if output_digest(out) != reference:
            log(f"traced pass {len(passes)}: outputs differ from the untraced pass")
            correct = False
        if tracer.count_values() != passes[0][0].count_values():
            log(f"traced pass {len(passes)}: counts differ from the first traced pass")
            correct = False
        log(f"pass {len(passes)}: {wall:.3f} s untraced, {traced_wall:.3f} s traced")

    per_pass = [t.metrics() for t, _ in passes]
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        values = [m[key] for m in per_pass]
        metrics[key] = {"value": statistics.median(values) if unit == "s" else values[0],
                        "unit": unit}
    traced_s = statistics.median(w for _, w in passes)
    untraced_s = statistics.median(untraced)
    first = passes[0][0]
    with open(os.path.join(WORK, name, "trace.json"), "w") as fh:
        json.dump({
            "workload": name,
            "untraced_wall_s": untraced,
            "traced_wall_s": [w for _, w in passes],
            "overhead_s": traced_s - untraced_s,
            "counts": first.count_values(),
            "metrics": {k: v["value"] for k, v in metrics.items()},
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in first.spans],
        }, fh, indent=1)
    log(f"tracing overhead: {traced_s - untraced_s:.3f} s "
        f"(median {traced_s:.3f} s traced, {untraced_s:.3f} s untraced)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.exists(os.path.join(SRC, "synthctl", "cli.py")):
        log(f"error: no synthctl sources under {SRC}; run from a source checkout")
        return 2

    workload = WORKLOADS[args.workload]
    shutil.rmtree(os.path.join(WORK, args.workload), ignore_errors=True)
    os.makedirs(os.path.join(WORK, args.workload))
    run = measure_traced if args.trace else measure
    result = run(args.workload, workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
