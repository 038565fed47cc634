"""In-process tracing of synthctl's layers, from the benchmark's own files.

`Tracer.install()` replaces the public functions of each `synthctl` module
with wrappers that record a span (name, start, end, parent) per call and
accumulate counts; `uninstall()` puts the originals back. The program itself
is not changed. Calls that happen tens of thousands of times per run
(`project_simplex`, `unit_index`) are counted and timed but not kept as
individual spans, so the span list stays small.

Times are inclusive: a layer's time covers its children. `cli.main` is also
reported as self time, its span minus the spans of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import pickle
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# a solve_v call is counted as a useful search when the returned importance
# vector is farther than this share of the uniform entry 1/k from uniform,
# in the largest entry-wise difference
V_USEFUL_REL = 0.01


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [name, start, child time, span id]
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name: str, fn, *, keep: bool = True, after=None):
        """`fn` inside a span called `name`; `after(args, kwargs, result)` adds counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][3] if self._stack else -1
            if keep:
                span_id = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent))
            # a frame that keeps no span passes its parent on to its children
            frame = [name, time.perf_counter(), 0.0, span_id if keep else parent]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                self.time[name] += duration
                self.self_time[name] += duration - frame[2]
                self.counts[name + ".calls"] += 1
                if self._stack:
                    self._stack[-1][2] += duration
                if keep:
                    self.spans[span_id] = (name, frame[1], end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, module, attr: str, name: str, **kw) -> None:
        """Wrap module.attr and every synthctl module's reference to it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "synthctl" or mod_name.startswith("synthctl.")) \
                    and getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapped)

    def install(self) -> None:
        import scipy.optimize
        from synthctl import donors, engine, inference, logistic, panel, serialize, weights

        every = self._patch_everywhere
        every(panel, "ingest_panel", "panel.ingest_panel", after=self._after_ingest)
        every(panel, "clean_panel", "panel.clean_panel")
        every(panel, "load_predictors", "panel.load_tables")
        every(panel, "load_metadata", "panel.load_tables")
        for cls in (panel.Panel, panel.PredictorTable):
            self._patch(cls, "unit_index", self.wrap("panel.unit_index", cls.unit_index,
                                                     keep=False))
            self._patch(cls, "restrict", self.wrap("panel.load_tables", cls.restrict))
        self._patch(panel.Panel, "with_metadata",
                    self.wrap("panel.load_tables", panel.Panel.with_metadata))
        every(serialize, "write_csv", "serialize.write_csv", after=self._after_write)
        every(donors, "split_control_target", "donors.split_control_target")
        every(weights, "solve_w", "weights.solve_w", after=self._after_solve_w)
        every(weights, "_descend", "weights.descend", after=self._after_descend)
        every(weights, "project_simplex", "weights.project_simplex", keep=False)
        every(engine, "build_design", "engine.build_design")
        every(engine, "solve_v", "engine.solve_v", after=self._after_solve_v)
        every(engine, "fit_synth", "engine.fit_synth")
        every(inference, "placebo_run", "inference.placebo_run", after=self._after_placebo)
        every(inference, "_fit_ratio_task", "inference.fit_ratio_task",
              after=self._after_task)
        every(logistic, "fit_logistic", "logistic.fit_logistic")
        for attr in ("classify_quadrant", "theme_regression", "decile_summary"):
            every(logistic, attr, "logistic.summaries")
        minimize = scipy.optimize.minimize

        @functools.wraps(minimize)
        def counted_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            if self._inside("logistic.fit_logistic"):
                self.counts["logistic.nm_runs"] += 1
                self.counts["logistic.nm_evals"] += int(result.nfev)
            return result
        self._patch(scipy.optimize, "minimize", counted_minimize)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters read from arguments and results ------------------------------

    def _after_ingest(self, args, kwargs, result) -> None:
        with open(args[0], "rb") as fh:
            self.counts["panel.ingest_panel.rows"] += sum(1 for _ in fh) - 1

    def _after_write(self, args, kwargs, result) -> None:
        self.counts["serialize.write_csv.bytes"] += os.path.getsize(args[0])

    def _after_solve_w(self, args, kwargs, result) -> None:
        if self._inside("engine.solve_v"):
            self.counts["engine.solve_v.solve_w_calls"] += 1

    def _after_descend(self, args, kwargs, result) -> None:
        _, _, iters, converged, _ = result
        self.counts["weights.descents"] += 1
        self.counts["weights.pgd_iters"] += iters
        if not converged and iters >= args[4].max_iters:
            self.counts["weights.descents_capped"] += 1

    def _after_solve_v(self, args, kwargs, result) -> None:
        spec = args[0]
        v = np.asarray(result, dtype=float)
        if spec.v_mode == "optimized" and \
                np.abs(v - 1.0 / v.size).max() > V_USEFUL_REL / v.size:
            self.counts["engine.v_search_useful"] += 1

    def _after_placebo(self, args, kwargs, result) -> None:
        self.counts["inference.fits"] += sum(1 for e in result.entries if not e.skipped)
        self.counts["inference.skipped"] += sum(1 for e in result.entries if e.skipped)

    def _after_task(self, args, kwargs, result) -> None:
        # the bytes a process pool would send for this task; computed, since
        # the traced run fits in one process
        self.counts["inference.task_bytes"] += len(pickle.dumps(args[0]))

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values: times in s, everything else as counts."""
        c = self.counts
        solve_v_calls = c["engine.solve_v.calls"]
        return {
            "panel.ingest_panel.s": self.time["panel.ingest_panel"],
            "panel.ingest_panel.rows": c["panel.ingest_panel.rows"],
            "panel.clean_panel.s": self.time["panel.clean_panel"],
            "panel.load_tables.s": self.time["panel.load_tables"],
            "panel.unit_index.calls": c["panel.unit_index.calls"],
            "serialize.write_csv.s": self.time["serialize.write_csv"],
            "serialize.write_csv.bytes": c["serialize.write_csv.bytes"],
            "donors.split_control_target.s": self.time["donors.split_control_target"],
            "weights.solve_w.calls": c["weights.solve_w.calls"],
            "weights.solve_w.s": self.time["weights.solve_w"],
            "weights.descents": c["weights.descents"],
            "weights.pgd_iters": c["weights.pgd_iters"],
            "weights.descents_capped": c["weights.descents_capped"],
            "weights.project_simplex.calls": c["weights.project_simplex.calls"],
            "weights.project_simplex.s": self.time["weights.project_simplex"],
            "engine.fit_synth.calls": c["engine.fit_synth.calls"],
            "engine.fit_synth.s": self.time["engine.fit_synth"],
            "engine.solve_v.calls": solve_v_calls,
            "engine.solve_v.s": self.time["engine.solve_v"],
            "engine.solve_v.solve_w_calls": c["engine.solve_v.solve_w_calls"],
            "engine.v_search_useful": c["engine.v_search_useful"],
            "engine.v_search_useful_share":
                c["engine.v_search_useful"] / solve_v_calls if solve_v_calls else 0.0,
            "engine.build_design.calls": c["engine.build_design.calls"],
            "engine.build_design.s": self.time["engine.build_design"],
            "inference.placebo_run.s": self.time["inference.placebo_run"],
            "inference.fits": c["inference.fits"],
            "inference.skipped": c["inference.skipped"],
            "inference.task_bytes": c["inference.task_bytes"],
            "logistic.fit_logistic.calls": c["logistic.fit_logistic.calls"],
            "logistic.fit_logistic.s": self.time["logistic.fit_logistic"],
            "logistic.nm_runs": c["logistic.nm_runs"],
            "logistic.nm_evals": c["logistic.nm_evals"],
            "logistic.summaries.s": self.time["logistic.summaries"],
            "cli.main.s": self.self_time["cli.main"],
        }

    def count_values(self) -> dict[str, int]:
        return dict(sorted(self.counts.items()))

    def main(self, cli, argv: list[str]) -> int:
        """Run one command through cli.main inside a `cli.main` span."""
        with contextlib.redirect_stdout(io.StringIO()):
            return self.wrap("cli.main", cli.main)(argv)
