"""Tests of the benchmark itself: seeded inputs, tracing, metric names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import FUNCTIONS, Tracer, layer_metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def lib():
    return run.import_fresh()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(lib, name):
    # ops hold plain values and dataclasses, so repr shows every input
    w = WORKLOADS[name]
    first = repr(w.generate(lib, 7))
    assert first == repr(w.generate(lib, 7))
    assert first != repr(w.generate(lib, 8))


def test_tracer_keeps_results_bit_identical_and_restores(lib):
    model = lib.dynamics.QubitModel(omega0=1.0, x=(1.0, 0.0, 0.0),
                                    lambda_min=0.0, lambda_max=0.3)
    proto = lib.dynamics.BangBangProtocol(tau=8.0, switch_times=(2.7, 5.9),
                                          levels=(0.3, 0.0, 0.3))
    a0 = (0.1, -0.2, 0.9)
    plain_state = lib.dynamics.state_at(a0, model, proto, 4.2)
    plain_ok, plain_report = lib.optimize.certify_protocol(model, a0, proto)
    originals = {name: getattr(lib, name.split(".")[0]).__dict__[name.split(".")[1]]
                 for name in FUNCTIONS}

    tracer = Tracer()
    with tracer:
        assert lib.pmp.state_at is not originals["dynamics.state_at"]
        traced_state = lib.pmp.state_at(a0, model, proto, 4.2)
        traced_ok, traced_report = lib.optimize.certify_protocol(model, a0, proto)

    assert traced_state.tobytes() == plain_state.tobytes()
    assert traced_ok == plain_ok
    assert traced_report.to_json() == plain_report.to_json()
    for name, fn in originals.items():
        layer, attr = name.split(".")
        assert getattr(lib, layer).__dict__[attr] is fn
    assert lib.pmp.state_at is originals["dynamics.state_at"]

    m = tracer.metrics(passes=1)
    assert m["dynamics.state_at.calls"] >= 1
    assert m["pmp.certify_protocol.calls"] == 1
    assert m["pmp.pmp_check.calls"] == 1
    # the certify span contains the pmp_check span, so its self time is less
    assert (m["pmp.certify_protocol.self_s"]
            < m["pmp.certify_protocol.busy_s"])


def test_dcp_scan_csv_identical_with_and_without_tracing(lib, tmp_path):
    w = WORKLOADS["staircase"]
    op = {"tau": 3.3, "seed": 5}
    cfg = w.config(op, tmp_path / "plain")
    cfg["restarts"] = 4
    lib.cli.run_experiment(cfg)
    with Tracer() as tracer:
        cfg["output_dir"] = str(tmp_path / "traced")
        lib.cli.run_experiment(cfg)
    assert tracer.metrics(1)["optimize.optimize_energy.calls"] == 3
    assert ((tmp_path / "plain" / "staircase.csv").read_bytes()
            == (tmp_path / "traced" / "staircase.csv").read_bytes())


def test_traced_measure_pairs_runs_and_leaves_checks_untraced(lib, tmp_path):
    from workloads import Outcome, Workload

    class Probe(Workload):
        def run(self, lib, op, out):
            return lib.pmp.state_at(op["a0"], op["model"], op["protocol"], 1.0)

        def fingerprint(self, op, result, out):
            return result.tobytes().hex()

        def check(self, lib, op, result, out):
            lib.dynamics.final_state(op["a0"], op["model"], op["protocol"])
            return Outcome(True)

    model = lib.dynamics.QubitModel(omega0=1.0, x=(1.0, 0.0, 0.0),
                                    lambda_min=0.0, lambda_max=0.3)
    ops = [{"a0": (0.0, 0.0, 1.0), "model": model,
            "protocol": lib.dynamics.BangBangProtocol(
                tau=2.0 + k, switch_times=(1.5,), levels=(0.3, 0.0))}
           for k in range(3)]
    original = lib.pmp.state_at
    tally = run.Tally()
    tracer = Tracer()
    passes = run.measure(Probe(), lib, ops, tmp_path, 0.0, 1, tally,
                         tracer=tracer)
    assert len(passes) == 1 and len(passes[0]) == 2 * len(ops)
    assert tally.attempted == 2 * len(ops) and not tally.failures
    m = tracer.metrics(passes=1)
    assert m["dynamics.state_at.calls"] == len(ops)
    assert m["dynamics.final_state.calls"] == 0
    assert lib.pmp.state_at is original is lib.dynamics.state_at


def test_staircase_check_rejects_a_wrong_energy(lib, tmp_path):
    w = WORKLOADS["staircase"]
    op = {"tau": 2.0, "seed": 5}
    cfg = w.config(op, tmp_path)
    cfg["restarts"] = 4
    lib.cli.run_experiment(cfg)
    assert w.check(lib, op, None, tmp_path).ok
    csv_path = tmp_path / "staircase.csv"
    rows = csv_path.read_text().splitlines()
    fields = rows[1].split(",")
    fields[2] = str(float(fields[2]) + 1e-6)
    csv_path.write_text("\n".join([rows[0], ",".join(fields), *rows[2:]]) + "\n")
    assert not w.check(lib, op, None, tmp_path).ok


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layer == layer_metric_units()
    for name, unit in {**e2e, **layer}.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert unit and re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), name
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_tail_has_ten_samples_beyond():
    values = list(np.arange(40.0))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 75.0
