"""qbcharge benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload staircase --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports qbcharge from the
checkout's ``src/``.  One process, one client, closed loop: each op starts
when the previous one has returned.  Set-up (import, input generation,
warm-up) is repeated SETUP_REPEATS times and reported as its median.  The
measurement then repeats full passes over the generated ops until
``--seconds`` have elapsed (at least the workload's ``min_passes``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
op of a pass twice, untraced and traced in alternating order, and reports
per-layer metrics per pass plus the tracing overhead; the spans go to
``perfbench/out/``.  The last stdout line is the result object; the line
before it carries provenance and the tail percentile.  Exit status: 0 when every output check passed, 1 when one
failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MODULES = ("cli", "dynamics", "optimize", "pmp", "twofield", "oscillator",
           "mcp", "work")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "mean_energy": "omega0",
    "certified_frac": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def pin_blas_threads() -> dict:
    """Pin BLAS/OpenMP pools of this process to one thread; return what was set."""
    inherited = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return inherited


def import_fresh() -> types.SimpleNamespace:
    """Drop any loaded qbcharge modules and import them again from SRC."""
    for name in [n for n in sys.modules
                 if n == "qbcharge" or n.startswith("qbcharge.")]:
        del sys.modules[name]
    importlib.import_module("qbcharge")
    importlib.import_module("qbcharge.cli")
    return types.SimpleNamespace(
        **{m: sys.modules[f"qbcharge.{m}"] for m in MODULES})


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, inherited: dict) -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads_inherited": inherited,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


class Tally:
    """Ops attempted and failed, plus first-run outcomes and fingerprints."""

    def __init__(self):
        self.attempted = 0
        self.passes = 0
        self.failures: list[str] = []
        self.fingerprints: dict[int, str] = {}
        self.energies: list[float] = []
        self.certified: list[bool] = []

    def fail(self, index: int, why: str) -> None:
        self.failures.append(f"op {index}: {why}")


def run_op(workload, lib, op, i: int, out: Path, tally: Tally,
           tracer=None) -> float:
    """Run one op, then check or compare its outputs; return its latency (s).

    A tracer is installed around the op only, not around the checks.
    """
    tally.attempted += 1
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            result = workload.run(lib, op, out)
        except Exception as exc:  # an op that raises counts as failed
            result = exc
        latency = time.perf_counter() - t0
    if isinstance(result, Exception):
        tally.fail(i, f"raised {result!r} {getattr(result, 'payload', '')}")
        return latency
    try:
        if i not in tally.fingerprints:
            outcome = workload.check(lib, op, result, out)
            tally.fingerprints[i] = workload.fingerprint(op, result, out)
            if not outcome.ok:
                tally.fail(i, outcome.detail)
            tally.energies += outcome.energies
            tally.certified += outcome.certified
        elif workload.fingerprint(op, result, out) != tally.fingerprints[i]:
            tally.fail(i, "outputs differ from the first run")
    except Exception as exc:  # a check that cannot read the outputs
        tally.fail(i, f"check raised {exc!r}")
    return latency


def measure(workload, lib, ops, work: Path, budget: float, min_passes: int,
            tally: Tally, tracer=None) -> list[list[float]]:
    """Timed passes over ops; returns per-pass lists of op latencies (s).

    With a tracer, every op runs twice in each pass, once untraced and once
    traced, in an order that alternates from op to op and from pass to
    pass; each returned pass then holds the untraced latencies followed by
    the traced ones.  Pairing the two runs of an op cancels drift of the
    machine's speed, which would otherwise exceed the tracing overhead.
    """
    passes: list[list[float]] = []
    deadline = time.perf_counter() + budget
    while len(passes) < min_passes or time.perf_counter() < deadline:
        # every pass writes into fresh directories, all removed at the end:
        # on an ext4 volume mounted with discard, overwriting a file cost
        # ~70 ms, and deleting files slowed later file creation several-fold
        tally.passes += 1
        pass_dir = work / f"pass{tally.passes}"
        if tracer is None:
            passes.append([run_op(workload, lib, op, i, pass_dir / str(i), tally)
                           for i, op in enumerate(ops)])
            continue
        plain, traced = [], []
        for i, op in enumerate(ops):
            tracer.op_id = i
            for traced_run in ((False, True) if (i + tally.passes) % 2
                               else (True, False)):
                if traced_run:
                    traced.append(run_op(workload, lib, op, i,
                                         pass_dir / f"traced{i}", tally, tracer))
                else:
                    plain.append(run_op(workload, lib, op, i,
                                        pass_dir / f"plain{i}", tally))
        passes.append(plain + traced)
    return passes


def end_to_end(passes, setup_times, tally) -> tuple[dict, dict]:
    per_op = [statistics.median(p[i] for p in passes)
              for i in range(len(passes[0]))]
    tail_s, tail_pct = tail(per_op)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(p) for p in passes),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * tail_s,
        "mean_energy": statistics.fmean(tally.energies) if tally.energies else 0.0,
        "certified_frac": (statistics.fmean(tally.certified)
                           if tally.certified else 0.0),
        "ok_frac": 1.0 - len(tally.failures) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"op_tail_percentile": tail_pct, "op_tail_samples": len(per_op)}
    return values, info


def main(argv=None) -> int:
    inherited = pin_blas_threads()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qbcharge" / "__init__.py").is_file():
        print(f"perfbench: no qbcharge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            lib = import_fresh()
            ops = workload.generate(lib, args.seed)
            warm = workload.generate(lib, 0)[:workload.warmup_ops]
            for i, op in enumerate(warm):
                workload.run(lib, op, work / f"warmup{rep}" / str(i))
            setup_times.append(time.perf_counter() - t0)
        if not Path(lib.cli.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: qbcharge imported from {lib.cli.__file__}, "
                  f"not from {SRC}", file=sys.stderr)
            return 2

        info = {"workload": args.workload, "seconds": args.seconds,
                "trace": args.trace, "ops_per_pass": len(ops),
                "setup_runs_s": setup_times}
        if args.trace:
            from tracer import Tracer, layer_metric_units
            tracer = Tracer()
            passes = measure(workload, lib, ops, work, args.seconds, 1, tally,
                             tracer=tracer)
            values = tracer.metrics(len(passes))
            n = len(ops)
            plain_wall = statistics.median(sum(p[:n]) for p in passes)
            traced_wall = statistics.median(sum(p[n:]) for p in passes)
            values["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
            # quartiles of the per-op overhead, to set against the figure above
            ratios = [t / u - 1.0 for p in passes for u, t in zip(p[:n], p[n:])]
            quartiles = statistics.quantiles(ratios, n=4)
            units = layer_metric_units()
            OUT.mkdir(parents=True, exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans)
            info.update(passes=len(passes), wall_s_untraced=plain_wall,
                        wall_s_traced=traced_wall,
                        op_overhead_quartiles=quartiles,
                        spans_file=str(spans.relative_to(ROOT)))
        else:
            passes = measure(workload, lib, ops, work, args.seconds,
                             workload.min_passes, tally)
            values, extra = end_to_end(passes, setup_times, tally)
            units = E2E_UNITS
            info.update(extra, passes=len(passes))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in tally.failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    info["provenance"] = provenance(args.seed, inherited)
    print(json.dumps({"perfbench": info}, sort_keys=True))
    failed = len(tally.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
