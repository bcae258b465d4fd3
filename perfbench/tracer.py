"""Span tracing around the public functions of each qbcharge module.

The tracer wraps each listed function in every ``qbcharge`` module
namespace that binds it (``qbcharge.pmp.state_at`` as well as
``qbcharge.dynamics.state_at``), so calls are caught whichever name the
caller used.  Spans live in flat in-memory arrays (function, start, end,
parent span, op id) and are written out once, after the measurement.
Leaving the ``with`` block puts every original object back.

A span's self time is its duration minus the durations of its direct
child spans; busy time is its whole duration.  None of the listed
functions calls itself, so summing busy time per function counts no
interval twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

# layer (package module) -> public functions wrapped in the traced run
LAYERS = {
    "cli": ("run_experiment", "verify_run"),
    "optimize": ("staircase_scan", "optimize_energy"),
    "pmp": ("certify_protocol", "pmp_check", "costate_at", "costate_backward"),
    "dynamics": ("state_at", "final_state", "evolve"),
    "twofield": ("fig_comparison_table", "simulate_m2", "verify_pmp_m2",
                 "rotating_state"),
    "oscillator": ("frequency_scan", "oscillator_run", "costate_run",
                   "moments_step"),
    "mcp": ("sqrt_n_equivalence_check",),
    "work": ("work_report", "entropy_matched_beta", "gibbs_energy_entropy"),
}
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# derived per-layer metrics, on top of <function>.{calls,busy_s,self_s}
DERIVED_UNITS = {
    "pmp.certify.accept_ratio": "ratio",
    "pmp.certify.probes_per_point": "ratio",
    "dynamics.state_at.per_certify": "ratio",
    "twofield.simulate_m2.steps": "count",
    "twofield.simulate_m2.ns_per_step": "ns",
    "trace.overhead_frac": "ratio",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


# results folded into a per-function sum as they return
_OBSERVERS = {
    "pmp.certify_protocol": lambda result: int(bool(result[0])),
    "twofield.simulate_m2": lambda result: len(result.times) - 1,
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.observed = [0] * len(FUNCTIONS)
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, original):
        observe = _OBSERVERS.get(FUNCTIONS[idx])
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = len(self.start)
            stack = self._stack
            self.fn.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
            if observe is not None:
                self.observed[idx] += observe(result)
            return result

        return traced

    def __enter__(self):
        """Swap every binding of each listed function for its traced wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qbcharge"
                                         or name.startswith("qbcharge."))]
        for idx, name in enumerate(FUNCTIONS):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"qbcharge.{layer}"], fn_name)
            wrapper = self._wrap(idx, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    # ------------------------------------------------------------------
    # summaries

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls/busy/self for every function plus derived ratios."""
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        k = len(FUNCTIONS)
        calls = np.bincount(fn, minlength=k)
        busy = np.bincount(fn, weights=dur, minlength=k)
        own = np.bincount(fn, weights=self_time, minlength=k)

        out: dict[str, float] = {}
        for idx, name in enumerate(FUNCTIONS):
            out[f"{name}.calls"] = int(calls[idx]) // passes
            out[f"{name}.busy_s"] = float(busy[idx]) / passes
            out[f"{name}.self_s"] = float(own[idx]) / passes

        i_cert = FUNCTIONS.index("pmp.certify_protocol")
        i_opt = FUNCTIONS.index("optimize.optimize_energy")
        i_state = FUNCTIONS.index("dynamics.state_at")
        i_sim = FUNCTIONS.index("twofield.simulate_m2")
        n_cert = int(calls[i_cert])
        n_opt = int(calls[i_opt])
        probes = int(np.sum((fn == i_cert) & has_parent
                            & (fn[np.maximum(parent, 0)] == i_opt)))
        steps = self.observed[i_sim]
        out["pmp.certify.accept_ratio"] = (
            self.observed[i_cert] / n_cert if n_cert else 0.0)
        out["pmp.certify.probes_per_point"] = probes / n_opt if n_opt else 0.0
        out["dynamics.state_at.per_certify"] = (
            int(calls[i_state]) / n_cert if n_cert else 0.0)
        out["twofield.simulate_m2.steps"] = steps // passes
        out["twofield.simulate_m2.ns_per_step"] = (
            float(busy[i_sim]) * 1e9 / steps if steps else 0.0)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: function names plus one row per span."""
        rows = [[FUNCTIONS[f], s, e, p, o] for f, s, e, p, o in
                zip(self.fn, self.start, self.end, self.parent, self.op)]
        with open(path, "w") as fh:
            json.dump({"columns": ["function", "start", "end", "parent", "op"],
                       "spans": rows}, fh)
            fh.write("\n")
