"""The four benchmark workloads: seeded inputs, the timed op, output checks.

Each workload turns a seed into a list of ops and drives them through the
public qbcharge API.  ``run`` is the timed op.  ``check`` runs once per op,
after its first run, outside the timed region: it verifies the outputs and
collects the energies and certification verdicts behind ``mean_energy``
and ``certified_frac``.  ``fingerprint`` reads only the op's outputs; later
runs must reproduce the first run's fingerprint exactly.

Horizons and drive parameters are drawn as seeded jitter around fixed
stratum centres.  Different seeds give different inputs, while every seed
still covers the same regimes (each side of full charge and of each
half-turn window), so seed-to-seed spread of the metrics stays small.

All functions reach qbcharge through ``lib``, a namespace of its modules
looked up at call time, so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GROUND = (0.0, 0.0, 1.0)
HEADLINE = {"omega0": 1.0, "x": [1.0, 0.0, 0.0],
            "lambda_min": 0.0, "lambda_max": 0.3}
# one bang at lambda_max from the ground state: a half turn about the
# tilted axis, after which an idle of less than pi still certifies
T_STAR = math.pi / math.sqrt(1.0 + 4.0 * 0.3 ** 2)
# draws sit within +-JITTER of a stratum width around the stratum centre
# (or of the value itself, for ``jittered``): search cost is chaotic in the
# horizon, and wider draws make the seed-to-seed spread exceed the bounds
JITTER = 0.02
VERDICTS = ("consistent", "singular-arc-present", "violated")


def strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """One jittered draw per equal-width stratum of [lo, hi], rounded to 1e-6.

    Rounding keeps every value exact through the 12-digit artifact
    rounding, so ``verify`` re-derives from the very inputs ``run`` used.
    """
    width = (hi - lo) / n
    centres = lo + width * (np.arange(n) + 0.5)
    draws = centres + width * rng.uniform(-JITTER, JITTER, n)
    return [round(float(v), 6) for v in draws]


def jittered(rng: np.random.Generator, centre: float) -> float:
    """centre * (1 +- JITTER), rounded to 1e-6 like ``strata``."""
    return round(centre * (1.0 + float(rng.uniform(-JITTER, JITTER))), 6)


def horizon_ops(seed: int, lo: float, hi: float, n: int) -> list[dict]:
    """Seeded horizons, one per stratum, each with its stratum's search seed.

    The search seed belongs to the stratum, not to the benchmark seed, so
    seed-to-seed differences come from the horizons alone.
    """
    taus = strata(np.random.default_rng([seed, n]), lo, hi, n)
    return [{"tau": tau, "seed": 1000 + k} for k, tau in enumerate(taus)]


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@dataclass
class Outcome:
    """Verdict on the outputs of an op's first run."""

    ok: bool
    detail: str = ""
    energies: list[float] = field(default_factory=list)
    certified: list[bool] = field(default_factory=list)


class Workload:
    name = ""
    warmup_ops = 1  # leading ops of the seed-0 inputs run during set-up
    min_passes = 2  # passes an untraced run makes, however long they take

    def generate(self, lib, seed: int) -> list:
        raise NotImplementedError

    def run(self, lib, op, out: Path):
        raise NotImplementedError

    def fingerprint(self, op, result, out: Path) -> str:
        raise NotImplementedError

    def check(self, lib, op, result, out: Path) -> Outcome:
        raise NotImplementedError


# --------------------------------------------------------------------------
# staircase: dcp-scan on the headline model, one horizon per op


class Staircase(Workload):
    """Scorer and certified tie-break dominate; two levels, nothing to prune."""

    name = "staircase"
    horizons = 36
    budgets = [1, 3, 5]
    restarts = 32

    def generate(self, lib, seed):
        return horizon_ops(seed, 0.0, 15.0, self.horizons)

    def config(self, op, out):
        return {"experiment": "dcp-scan", "output_dir": str(out),
                "seed": op["seed"], "restarts": self.restarts,
                "params": {**HEADLINE, "a0": list(GROUND),
                           "tau_min": op["tau"], "tau_max": op["tau"],
                           "tau_points": 1, "n_budgets": self.budgets}}

    def run(self, lib, op, out):
        return lib.cli.run_experiment(self.config(op, out))

    def fingerprint(self, op, result, out):
        return _sha((out / "staircase.csv").read_bytes())

    def check(self, lib, op, result, out):
        d = lib.dynamics
        model = d.QubitModel(omega0=1.0, x=(1.0, 0.0, 0.0),
                             lambda_min=0.0, lambda_max=0.3)
        ceiling = lib.optimize.unbounded_max_energy(GROUND, model.omega0)
        points = lib.optimize.staircase_from_csv(out / "staircase.csv")
        if [p.n_budget for p in points] != self.budgets:
            return Outcome(False, f"budgets {[p.n_budget for p in points]}")
        outcome = Outcome(True)
        prev = -math.inf
        for p in points:
            e = model.energy(d.final_state(GROUND, model, p.best_protocol))
            if abs(e - p.best_energy) > 1e-9:
                return Outcome(False, f"N<={p.n_budget}: CSV energy "
                               f"{p.best_energy!r}, re-derived {e!r}")
            if p.best_energy > ceiling + 1e-12:
                return Outcome(False, f"N<={p.n_budget}: energy above ceiling")
            if p.best_energy < prev:
                return Outcome(False, f"N<={p.n_budget}: not monotone in budget")
            prev = p.best_energy
            ok, _ = lib.pmp.certify_protocol(model, GROUND, p.best_protocol)
            outcome.energies.append(p.best_energy)
            outcome.certified.append(bool(ok))
        return outcome


# --------------------------------------------------------------------------
# symmetric: two-field comparison, where the singular level is admissible


class Symmetric(Workload):
    """Three levels, 62 sequences at N<=4: the only place pruning can act.

    The criterion-3 call at reduced size: restarts 8 (against 16) and
    N<=4 (against 5) over the same (0, 8].  A pass takes longer than a
    run's 20 s, so one pass is enough; 32 horizons keep ten ops beyond
    the tail percentile.
    """

    name = "symmetric"
    min_passes = 1
    horizons = 32
    n_budget = 4
    restarts = 8

    def generate(self, lib, seed):
        return horizon_ops(seed, 0.0, 8.0, self.horizons)

    def run(self, lib, op, out):
        return lib.cli.run_experiment({
            "experiment": "two-field", "output_dir": str(out),
            "seed": op["seed"], "restarts": self.restarts,
            "params": {"omega0": 1.0, "r_max": 0.3, "a0": list(GROUND),
                       "tau_min": op["tau"], "tau_max": op["tau"],
                       "tau_points": 1, "n_budget": self.n_budget}})

    def fingerprint(self, op, result, out):
        return _sha((out / "fig4a.csv").read_bytes())

    def check(self, lib, op, result, out):
        tf = lib.twofield
        model = tf.TwoFieldModel(omega0=1.0, r_max=0.3)
        with open(out / "fig4a.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1:
            return Outcome(False, f"{len(rows)} rows")
        row = {k: float(v) for k, v in rows[0].items()}
        closed = tf.energy_m2(model, GROUND, row["tau"])
        if abs(row["E_m2"] - closed) > 1e-9:
            return Outcome(False, f"E_m2 {row['E_m2']!r} vs closed form {closed!r}")
        if row["E_m2"] < max(row["E_m1_pos"], row["E_m1_sym"]) - 1e-9:
            return Outcome(False, "E_m2 below a single-channel column")
        report, _ = lib.cli.verify_run(out / "manifest.json")
        return Outcome(True, energies=[row["E_m1_pos"], row["E_m1_sym"]],
                       certified=[bool(report["pass"])])


# --------------------------------------------------------------------------
# certify: certify_protocol / pmp_check(min-time) on generated protocols


class Certify(Workload):
    """No search: pmp re-propagation per bisection step dominates.

    The min-time share is the same protocol set for every seed.  Its cost
    is chaotic in the inputs: near-degenerate terminal costates make G1
    chatter around zero, and each sign change costs a bisection, so a
    perturbation of a few percent moves that share's time by 20%.
    """

    name = "certify"
    warmup_ops = 8
    random_per_model = 48
    min_time_per_model = 16
    plateaus = 24
    poles = 16

    def models(self, lib):
        qm = lib.dynamics.QubitModel
        # tilted axis with x3 = 0.2: singular level 0.1 inside [0, 0.3]
        x3 = 0.2
        return {
            "pos": qm(omega0=1.0, x=(1.0, 0.0, 0.0), lambda_min=0.0, lambda_max=0.3),
            "sym": qm(omega0=1.0, x=(1.0, 0.0, 0.0), lambda_min=-0.3, lambda_max=0.3),
            "tilt": qm(omega0=1.0, x=(math.sqrt(1.0 - x3 * x3), 0.0, x3),
                       lambda_min=0.0, lambda_max=0.3),
        }

    def generate(self, lib, seed):
        # protocol shapes come from a fixed generator; the seed stretches
        # each one in time and perturbs its initial state by a few percent
        base = np.random.default_rng([0, 3])
        rng = np.random.default_rng([seed, 3])
        proto = lib.dynamics.BangBangProtocol
        models = self.models(lib)
        ops = []
        for model in models.values():
            for i in range(self.random_per_model + self.min_time_per_model):
                min_time = i >= self.random_per_model
                jitter = 0.0 if min_time else 0.05
                n = 1 + i % 5
                tau = base.uniform(1.0, 10.0)
                switches = np.sort(base.uniform(0.0, tau, n))
                start = int(base.integers(2))
                direction = base.normal(size=3) + rng.normal(0.0, jitter, 3)
                radius = base.uniform(0.2, 0.9) * (1.0 + rng.uniform(-jitter, jitter))
                stretch = 1.0 + rng.uniform(-jitter, jitter)
                a0 = direction / np.linalg.norm(direction) * radius
                bounds = (model.lambda_min, model.lambda_max)
                ops.append({
                    "kind": "random", "model": model, "a0": tuple(map(float, a0)),
                    "protocol": proto(tau=float(tau * stretch),
                                      switch_times=tuple(map(float, switches * stretch)),
                                      levels=tuple(bounds[(start + k) % 2]
                                                   for k in range(n + 1))),
                    "objective": "min-time" if min_time else "energy",
                    "expect": None})
        # plateau: half-turn bang, then an idle d that certifies iff d < pi
        half = self.plateaus // 2
        idles = (strata(rng, 0.3, math.pi - 0.3, half)
                 + strata(rng, math.pi + 0.3, 2.0 * math.pi - 0.3, half))
        for d in idles:
            ops.append({"kind": "plateau", "model": models["pos"], "a0": GROUND,
                        "protocol": proto(tau=T_STAR + d, switch_times=(T_STAR,),
                                          levels=(0.3, 0.0)),
                        "objective": "energy", "expect": d < math.pi})
        # pole idles: parked at the energy maximum (accepted) or minimum
        # (rejected), exactly on the pole or tilted off it by < 1e-10
        for i, idle in enumerate(strata(rng, 1.0, 8.0, self.poles)):
            top = i % 2 == 0
            tilt = 0.0 if i % 4 < 2 else float(rng.uniform(1e-12, 1e-10))
            z = math.sqrt(1.0 - tilt * tilt)
            ops.append({"kind": "pole", "model": models["pos"],
                        "a0": (tilt, 0.0, -z if top else z),
                        "protocol": proto(tau=idle, switch_times=(), levels=(0.0,)),
                        "objective": "energy", "expect": top})
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def run(self, lib, op, out):
        if op["objective"] == "min-time":
            return None, lib.pmp.pmp_check(op["model"], op["a0"], op["protocol"],
                                           objective="min-time")
        return lib.pmp.certify_protocol(op["model"], op["a0"], op["protocol"])

    def fingerprint(self, op, result, out):
        ok, report = result
        return json.dumps([ok, report.to_dict()], sort_keys=True)

    def check(self, lib, op, result, out):
        ok, report = result
        if report.verdict not in VERDICTS:
            return Outcome(False, f"unknown verdict {report.verdict!r}")
        if op["expect"] is not None and ok != op["expect"]:
            return Outcome(False, f"{op['kind']} protocol: certified={ok}, "
                           f"predicted {op['expect']}")
        if op["objective"] == "min-time":
            return Outcome(True)
        outcome = Outcome(True, certified=[bool(ok)])
        if ok:
            a = lib.dynamics.final_state(op["a0"], op["model"], op["protocol"])
            outcome.energies.append(op["model"].energy(a))
        return outcome


# --------------------------------------------------------------------------
# cli-mix: run + verify pairs over all seven experiments


class CliMix(Workload):
    """Artifact writing, parsing and verify replay for every experiment."""

    name = "cli-mix"
    warmup_ops = 12
    rounds = 4

    def _configs(self, rng, k: int):
        """Round k: one config per experiment variant, with the verify exit
        status it must give.  Search seeds and mcp's n belong to the round.

        The searching variants (dcp-optimize twice, mcp twice, dcp-scan)
        are sized to 15-35 ms so that the median pair is one of them: a
        pair of a few ms is mostly file creation, whose latency on an ext4
        volume mounted with discard swung by 10x from minute to minute.
        """
        near = lambda centre: jittered(rng, centre)  # noqa: E731
        qubit = {**HEADLINE, "a0": list(GROUND)}
        seed = 1000 + k
        head = [round(float(v), 6) for v in rng.dirichlet(np.ones(3))[:2]]
        rho = head + [round(1.0 - sum(head), 6)]
        h = [round(float(v), 6) for v in np.sort(rng.uniform(0.0, 1.0, 3))]
        return [
            ("dcp-optimize", 0, {
                "seed": seed, "restarts": 64,
                "params": {**qubit, "tau": near(1.5), "n_budget": 3}}),
            ("dcp-optimize", 0, {
                "seed": seed, "restarts": 64,
                "params": {**qubit, "tau": near(2.2), "n_budget": 3}}),
            ("dcp-scan", 0, {
                "seed": seed, "restarts": 8,
                "params": {**qubit, "tau_min": near(0.5), "tau_max": near(2.3),
                           "tau_points": 6, "n_budgets": [1, 3]}}),
            # single bang short of the half turn: certifies in both objectives
            ("pmp-check", 0, {"params": {**qubit, "protocol": {
                "tau": near(2.0), "switch_times": [], "levels": [0.3]}}}),
            ("pmp-check", 0, {"params": {**qubit, "objective": "min-time",
                                         "protocol": {"tau": near(2.0),
                                                      "switch_times": [],
                                                      "levels": [0.3]}}}),
            # idle past the costate half turn after a plateau: violated
            ("pmp-check", 2, {"params": {**qubit, "protocol": {
                "tau": round(T_STAR + near(4.2), 6),
                "switch_times": [round(T_STAR, 6)], "levels": [0.3, 0.0]}}}),
            ("two-field", 0, {
                "seed": seed, "restarts": 4,
                "params": {"omega0": 1.0, "r_max": 0.3, "a0": list(GROUND),
                           "tau_min": near(2.0), "tau_max": near(6.0),
                           "tau_points": 2, "n_budget": 2}}),
            ("oscillator-scan", 0, {"params": {
                "omega0": 1.0, "lambda_max": near(0.3), "tau": near(6.0),
                "omega_bar_min": 0.9, "omega_bar_max": 1.1,
                "omega_bar_points": 3}}),
            *[("mcp", 0, {
                "seed": seed, "restarts": 32,
                "params": {"omegaA": 1.3, "omegaB": 0.8, "n": 1 + (k + j) % 4,
                           "lambda_min": 0.0, "lambda_max": 0.3,
                           "tau": near(2.0), "n_budget": 2}}) for j in (0, 2)],
            ("work", 0, {"params": {
                "rho_eigs": rho, "h_eigs": h,
                "mean_energy": round(float(np.dot(rho, h)), 6),
                "beta_bar": near(1.0)}}),
        ]

    def generate(self, lib, seed):
        rng = np.random.default_rng([seed, 4])
        ops = []
        for k in range(self.rounds):
            for kind, status, cfg in self._configs(rng, k):
                ops.append({"experiment": kind, "expect": status,
                            "config": {"experiment": kind, **cfg}})
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def run(self, lib, op, out):
        manifest = lib.cli.run_experiment({**op["config"], "output_dir": str(out)})
        return lib.cli.verify_run(manifest / "manifest.json")

    def fingerprint(self, op, result, out):
        """Hash of every artifact, without the wall time and the paths
        (each pass writes to its own directory)."""
        chunks = [str(result[1]).encode()]
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.name in ("manifest.json", "verify_report.json"):
                doc = json.loads(data)
                doc.pop("wall_time_s", None)
                doc.pop("manifest", None)
                doc.get("config", {}).pop("output_dir", None)
                data = json.dumps(doc, sort_keys=True).encode()
            chunks += [path.name.encode(), data]
        return _sha(*chunks)

    def check(self, lib, op, result, out):
        report, status = result
        if status != op["expect"]:
            return Outcome(False, f"{op['experiment']}: verify exit {status}, "
                           f"expected {op['expect']}")
        outcome = Outcome(True, certified=[bool(report["pass"])])
        kind = op["experiment"]
        if kind == "dcp-optimize":
            with open(out / "best_protocol.json") as fh:
                outcome.energies.append(json.load(fh)["best_energy"])
        elif kind == "dcp-scan":
            outcome.energies += [
                p.best_energy
                for p in lib.optimize.staircase_from_csv(out / "staircase.csv")]
        elif kind == "two-field":
            with open(out / "fig4a.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    outcome.energies += [float(row["E_m1_pos"]),
                                         float(row["E_m1_sym"])]
        return outcome


WORKLOADS = {w.name: w for w in (Staircase(), Symmetric(), Certify(), CliMix())}
