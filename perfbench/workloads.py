"""The benchmark's workloads: seeded inputs, one timed call per operation,
and the checks every output must pass.

A workload yields units (a config for ``sweep``, a group of t-series for
``far``, a case for ``crosscheck``).  Unit ``i`` depends on the seed and
``i`` alone, so the same seed gives the same inputs however many units a
run reaches.  Units come in rounds of fixed shapes, the same for every
seed, and a unit's parameters follow a Kronecker sequence over the rounds
from a seeded start.  Any stretch of rounds then covers the parameter
ranges evenly, so throughput does not depend on which seed the run got.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy.special

from stasis import catalog, cli, oracle, quadratic, schrodinger
from stasis.model import PhaseModel, SingularAmplitude


@dataclass
class Op:
    """One operation: its latency and, if it failed, why."""

    latency: float
    error: str | None = None    # exception type, or the name of the missed check
    wrong: bool = False         # an output came back and missed its check

    @property
    def ok(self):
        return self.error is None


@dataclass
class UnitResult:
    ops: list
    program_s: float
    records: list
    info: dict = field(default_factory=dict)


class Clock:
    """Times each call into the program.  With a tracer, each call is one
    traced operation and its record is kept."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records = []
        self.total = 0.0
        self.last = 0.0

    def call(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.records.append(self.tracer.begin_op())
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.last = perf_counter() - t0
            self.total += self.last
            if self.tracer is not None:
                self.tracer.end_op()


def _rng(seed, key, index):
    return np.random.default_rng([seed, key, index])


# fractional parts of sqrt(2), sqrt(3), sqrt(5), sqrt(7), sqrt(11)
_STEPS = np.array([0.41421356237309515, 0.7320508075688772, 0.2360679774997898,
                   0.6457513110645907, 0.3166247903553998])


def _uniform(seed, key, index, period):
    """Points in [0, 1)^5 for unit ``index`` of rounds of ``period`` units:
    one Kronecker sequence over the rounds per position in a round, each
    started at a seeded offset."""
    start = _rng(seed, key, index % period).uniform(size=_STEPS.size)
    return (start + (index // period) * _STEPS) % 1.0


def _scale(u, lo, hi):
    return lo + (hi - lo) * u


def _digest(obj):
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _ones(p):
    return np.ones_like(np.asarray(p, dtype=float))


class Workload:
    name = ""
    why = ""
    roadmap = ""
    key = 0
    sample_units = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.specs = []

    def spec(self, index):
        raise NotImplementedError

    def digest(self, spec):
        return _digest(spec)

    def run(self, spec, clock, outdir):
        raise NotImplementedError

    def warm(self):
        """Run one fixed small operation so that lazy imports and node
        caches are filled before timing."""
        raise NotImplementedError

    def prepare(self, count):
        """Generate the inputs of the first ``count`` units (part of set-up)."""
        self.specs = [self.spec(i) for i in range(count)]

    def unit(self, index):
        return self.specs[index] if index < len(self.specs) else self.spec(index)

    def sample(self):
        """The fixed units the traced run measures."""
        return [self.unit(i) for i in range(self.sample_units)]

    def companions(self):
        """Small fixed units that the traced runs of the other workloads add,
        so that every layer has spans on every workload."""
        return [self.unit(0)]

    def finish(self, units, outdir):
        """Checks and reports made once after the timed loop."""
        return {}


# ---------------------------------------------------------------------------
# sweep: sweep-omega configs through the CLI
# ---------------------------------------------------------------------------

SWEEP_SHAPES = (("beta", "linear"), ("beta", "linear-convex"),
                ("beta-bessel", "linear"), ("beta-bessel", "linear-convex"),
                ("intro", "quadratic"))
SWEEP_ROWS = 13


def _config_text(name, amp, phase, grid, out):
    lines = ["[experiment]", "kind = " + name, "", "[amplitude]"]
    lines += [f"{k} = {v}" for k, v in amp.items()]
    if phase:
        lines += ["", "[phase]"] + [f"{k} = {v}" for k, v in phase.items()]
    lines += ["", "[grid]"] + [f"{k} = {v}" for k, v in grid.items()]
    lines += ["", "[tolerances]", "oracle_tol = 1e-9", "", "[output]"]
    lines += [f"{k} = {v}" for k, v in out.items()]
    return "\n".join(lines) + "\n"


class Sweep(Workload):
    name = "sweep"
    why = ("per-row fixed costs dominate: cli re-reads the config and rebuilds "
           "frames, validation grids and k' integrals for every omega")
    roadmap = ("items 3 and 4: one panel engine; hoist omega-free work out of "
               "the omega loop")
    key = 1
    sample_units = 10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cfgdir = os.path.join(workdir, "configs")
        os.makedirs(self.cfgdir, exist_ok=True)
        self.row_times = []
        # per-row latencies need the per-row task; without it each row
        # gets its config's mean
        original = getattr(cli, "_sweep_task", None)
        self.row_timing = "per row" if original else "config mean"
        if original is not None:
            def timed_row(args):
                t0 = perf_counter()
                try:
                    return original(args)
                finally:
                    self.row_times.append(perf_counter() - t0)
            cli._sweep_task = timed_row

    def spec(self, index):
        u = _uniform(self.seed, self.key, index, len(SWEEP_SHAPES))
        amp_name, phase_name = SWEEP_SHAPES[index % len(SWEEP_SHAPES)]
        amp = {"name": amp_name}
        phase = {"name": phase_name}
        grid = {"omega_min": f"{10 ** _scale(u[0], 0.0, 0.08):.6f}",
                "omega_max": f"{10 ** _scale(u[1], 3.93, 4.0):.3f}",
                "omega_count": SWEEP_ROWS}
        if amp_name == "beta":
            amp["mu1"] = f"{_scale(u[2], 0.3, 0.7):.6f}"
            amp["mu2"] = f"{_scale(u[3], 0.4, 0.6):.6f}"
        elif amp_name == "intro":
            amp["mu"] = f"{_scale(u[2], 0.3, 0.8):.6f}"
        if phase_name == "quadratic":
            phase["p0"] = f"{_scale(u[4], 0.3, 0.7):.6f}"
        else:
            grid["q"] = f"{_scale(u[4], 0.3, 0.7):.6f}"
        stem = f"u{index:05d}"
        text = _config_text("sweep-omega", amp, phase, grid,
                            {"csv": stem + ".csv", "svg": stem + ".svg"})
        return {"index": index, "stem": stem, "text": text,
                "bessel": (amp_name, phase_name) == ("beta-bessel", "linear")}

    def digest(self, spec):
        return _digest(spec["text"])

    def companions(self):
        """The first config of each shape."""
        return [self.unit(i) for i in range(len(SWEEP_SHAPES))]

    def _path(self, spec):
        path = os.path.join(self.cfgdir, spec["stem"] + ".cfg")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write(spec["text"])
        return path

    def prepare(self, count):
        super().prepare(count)
        for spec in self.specs:
            self._path(spec)

    def warm(self):
        text = _config_text("sweep-omega", {"name": "beta-bessel"},
                            {"name": "linear-convex"},
                            {"omega_min": 1, "omega_max": 100, "omega_count": 2},
                            {"csv": "warm.csv", "svg": "warm.svg"})
        path = os.path.join(self.cfgdir, "warm.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.run(path, plot=True, jobs=1, out_dir=self.cfgdir) != 0:
                raise RuntimeError("sweep warm-up config failed")
        self.row_times.clear()

    def run(self, spec, clock, outdir):
        path = self._path(spec)
        self.row_times.clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = clock.call(cli.run, path, plot=True, jobs=1, out_dir=outdir)
            except Exception as err:  # counted as failed operations
                rc, exc = None, type(err).__name__
        program_s = clock.last
        times = list(self.row_times)
        if len(times) != SWEEP_ROWS:
            times = [program_s / SWEEP_ROWS] * SWEEP_ROWS
        info = {"rows": SWEEP_ROWS, "bytes_written": 0}
        if exc is not None or rc == 1:
            error = exc or "cli.exit_1"
            info["message"] = stderr.getvalue().strip()[:300]
            return UnitResult([Op(t, error) for t in times], program_s,
                              clock.records, info)
        csv_path = os.path.join(outdir, spec["stem"] + ".csv")
        svg_path = os.path.join(outdir, spec["stem"] + ".svg")
        info["bytes_written"] = sum(os.path.getsize(p) for p in (csv_path, svg_path)
                                    if os.path.exists(p))
        if not (os.path.exists(csv_path) and os.path.exists(svg_path)):
            return UnitResult([Op(t, "output.missing", True) for t in times],
                              program_s, clock.records, info)
        ops, info["resid_over_bound_max"] = self._check(spec, csv_path, times)
        return UnitResult(ops, program_s, clock.records, info)

    def _check(self, spec, csv_path, times):
        """Residual <= bound on every row, recomputed from the printed
        oracle and leading values; beta-bessel rows also against
        pi e^(i w/2) J0(w/2)."""
        with open(csv_path) as fh:
            header = fh.readline().strip().split(",")
            rows = [dict(zip(header, line.strip().split(","))) for line in fh]
        grid = self._grid(spec)
        ops = []
        worst = 0.0
        for i, t in enumerate(times):
            if i >= len(rows):
                ops.append(Op(t, "csv.missing_row", True))
                continue
            row = {k: float(v) for k, v in rows[i].items() if k != "pass"}
            omega = row["omega"]
            oracle_v = complex(row["oracle_re"], row["oracle_im"])
            lead = complex(row["lead_re"], row["lead_im"])
            resid = abs(oracle_v - lead)
            bound = row["bound_total"]
            error = None
            if abs(omega - grid[i]) > 1e-14 * grid[i]:
                error = "csv.omega"
            elif not resid <= bound:
                error = "bound"
            elif spec["bessel"]:
                exact = math.pi * np.exp(0.5j * omega) * scipy.special.j0(0.5 * omega)
                if not abs(oracle_v - exact) <= 1e-8:
                    error = "bessel"
            if bound > 0.0:
                worst = max(worst, resid / bound)
            ops.append(Op(t, error, error is not None))
        return ops, worst

    @staticmethod
    def _grid(spec):
        vals = {}
        for line in spec["text"].splitlines():
            if line.startswith("omega_"):
                k, v = line.split(" = ")
                vals[k] = float(v)
        return np.geomspace(vals["omega_min"], vals["omega_max"],
                            int(vals["omega_count"]))

    def outputs(self, spec, outdir):
        """sha256 of the CSV and SVG files one config wrote."""
        out = {}
        for ext in (".csv", ".svg"):
            path = os.path.join(outdir, spec["stem"] + ext)
            with open(path, "rb") as fh:
                out[spec["stem"] + ext] = hashlib.sha256(fh.read()).hexdigest()
        return out

    def finish(self, units, outdir):
        """Rerun the first config and compare its files byte for byte."""
        spec = units[0]
        again = os.path.join(outdir, "repeat")
        self.run(spec, Clock(), again)
        same = self.outputs(spec, outdir) == self.outputs(spec, again)
        return {"csv_byte_identical": same, "row_timing": self.row_timing}


# ---------------------------------------------------------------------------
# far: evaluate_solution at large t
# ---------------------------------------------------------------------------

FAR_T = np.geomspace(1e4, 1e6, 8)
CLI_CURVE_MU, CLI_CURVE_EPS = 0.75, 0.25


class Far(Workload):
    name = "far"
    why = ("large t: per-node Newton inversion and panel sums dominate and the "
           "per-call fixed costs of sweep are negligible")
    roadmap = ("items 3, 4 (tail integrated in p) and 5 (steepest descent); "
               "hoisting out of the omega loop should not show here")
    key = 2

    def spec(self, index):
        rng = _rng(self.seed, self.key, index)

        def near(x, h=0.005):
            return round(x + rng.uniform(-h, h), 6)

        return {"index": index, "series": [
            {"kind": "curve", "mu": near(0.5), "eps": near(0.3)},
            {"kind": "curve", "mu": near(0.6), "eps": near(0.2)},
            {"kind": "ray", "mu": near(0.75), "eps": near(0.25),
             "frac": near(0.5, 0.02)},
            {"kind": "critical", "mu": near(0.5, 0.02)},
        ]}

    def sample(self):
        """The first curve series, one point per unit, so that the traced
        run can alternate which pass goes first."""
        series = self.unit(0)["series"][:1]
        return [{"index": 0, "series": series, "t": [float(t)]} for t in FAR_T]

    def companions(self):
        """The first sampled point, the cheapest."""
        return self.sample()[:1]

    @staticmethod
    def _setup(mu):
        return schrodinger.SchrodingerSetup(amp=catalog.amplitude("intro", mu=mu),
                                            p1=0.0, p2=1.0, mu=mu)

    @staticmethod
    def _x(series, setup, t):
        if series["kind"] == "critical":
            return 2.0 * setup.p1 * t
        if series["kind"] == "curve":
            return schrodinger.curve_point(setup, series["eps"], t)[1]
        p_curve = setup.p1 + t ** (-series["eps"])
        return 2.0 * (p_curve + series["frac"] * (setup.p2 - p_curve)) * t

    def warm(self):
        setup = self._setup(0.5)
        schrodinger.evaluate_solution(setup, 1e3, self._x(
            {"kind": "curve", "eps": 0.3}, setup, 1e3), 1e-9)

    def run(self, spec, clock, outdir):
        setups = [self._setup(s["mu"]) for s in spec["series"]]
        values = [[] for _ in spec["series"]]
        ops = [[] for _ in spec["series"]]
        worst = 0.0
        for t in spec.get("t", FAR_T):
            for j, series in enumerate(spec["series"]):
                setup = setups[j]
                x = self._x(series, setup, t)
                try:
                    u = clock.call(schrodinger.evaluate_solution, setup, t, x, 1e-9)
                except Exception as err:  # counted as a failed operation
                    ops[j].append(Op(clock.last, type(err).__name__))
                    continue
                error = None
                if not (math.isfinite(abs(u)) and abs(u) > 0.0):
                    error = "nonfinite"
                elif series["kind"] != "critical":
                    ratio = self._interior_ratio(setup, t, x, u)
                    worst = max(worst, ratio)
                    if not ratio <= 1.0:
                        error = "bound"
                ops[j].append(Op(clock.last, error, error is not None))
                values[j].append((t, abs(u)))
        slopes = []
        for j, series in enumerate(spec["series"]):
            if len(values[j]) != FAR_T.size:
                continue
            fit = schrodinger.fit_decay(values[j])
            entry = dict(series, t_min=FAR_T[0], t_max=FAR_T[-1],
                         points=FAR_T.size, fitted=fit.slope)
            if series["kind"] == "curve":
                entry["predicted"] = schrodinger.predicted_exponents(
                    series["mu"], series["eps"])[0]
                entry["gated"] = False
            elif series["kind"] == "critical":
                entry["predicted"] = -series["mu"] / 2.0
                entry["gated"] = True
                if not abs(fit.slope - entry["predicted"]) <= 0.05:
                    ops[j] = [Op(o.latency, o.error or "slope", True) for o in ops[j]]
            else:
                continue
            slopes.append(entry)
        flat = [o for col in ops for o in col]
        return UnitResult(flat, clock.total, clock.records,
                          {"slopes": slopes, "resid_over_bound_max": worst})

    @staticmethod
    def _interior_ratio(setup, t, x, u):
        """|u - lead| / bound with the quadratic expansion of the point."""
        p0 = schrodinger.stationary_point(t, x)
        qp = quadratic.QuadraticPhase(p0=p0, c=p0 * p0, p1=setup.p1, p2=setup.p2)
        res = quadratic.expand_quadratic(setup.amp, qp, t)
        return abs(2.0 * math.pi * u - res.leading_sum()) / res.total_bound()

    def finish(self, units, outdir):
        """The CLI curve verdict on [1e2, 1e4], reported and not gated."""
        text = _config_text(
            "schrodinger-curve", {"name": "intro", "mu": CLI_CURVE_MU}, None,
            {"eps": CLI_CURVE_EPS, "t_min": "1e2", "t_max": "1e4", "t_count": 24},
            {"csv": "cli_curve.csv"})
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, "cli_curve.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        verdict = {"mu": CLI_CURVE_MU, "eps": CLI_CURVE_EPS, "t_min": 1e2,
                   "t_max": 1e4, "points": 24, "gated": False}
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                verdict["exit_code"] = cli.run(path, plot=False, jobs=1,
                                               out_dir=outdir)
            with open(os.path.join(outdir, "cli_curve.csv")) as fh:
                header = fh.readline().strip().split(",")
                row = dict(zip(header, fh.readline().strip().split(",")))
            verdict.update(fitted=float(row["fitted_slope"]),
                           predicted=float(row["predicted_exp"]))
        except Exception as err:  # a diagnostic: reported, never fatal
            verdict["error"] = type(err).__name__
        return {"cli_curve_low_t": verdict}


# ---------------------------------------------------------------------------
# crosscheck: the two oracles against each other
# ---------------------------------------------------------------------------

CROSS_CASES = (("beta", "linear", 0.3), ("beta", "linear", 0.5),
               ("beta", "linear", 0.7), ("beta", "linear-convex", 0.3),
               ("beta", "linear-convex", 0.5), ("beta", "linear-convex", 0.7))
# rho != 1: reconstruct_total raises TypeError on these at the baseline
# (ROADMAP item 1), so they run after the timed loop and are reported apart
DEFECT_CASES = (("quadratic-piece", None, None), ("fractional", None, None))
DEFECT_PROBES = 8


def _quadratic_piece():
    """psi = -(p - 1/2)^2 + 1/4 on [0, 1/2]: rho = (1, 2)."""
    p0 = 0.5
    return PhaseModel(0.0, 0.5, 1.0, 2.0,
                      psi=lambda p: -(np.asarray(p, dtype=float) - p0) ** 2 + 0.25,
                      psi_prime=lambda p: 2.0 * (p0 - np.asarray(p, dtype=float)),
                      psi_tilde=lambda p: 2.0 * _ones(p))


def _fractional():
    """psi = (2/3) p^(3/2) on [0, 1]: rho = (3/2, 1)."""
    return PhaseModel(0.0, 1.0, 1.5, 1.0,
                      psi=lambda p: (2.0 / 3.0) * np.asarray(p, dtype=float) ** 1.5,
                      psi_prime=lambda p: np.asarray(p, dtype=float) ** 0.5,
                      psi_tilde=_ones)


def _both_oracles(phase, amp, omega, q):
    panel = oracle.integrate_oscillatory(phase, amp, omega, 1e-10)
    parts = oracle.reconstruct_total(phase, amp, omega, q, 1e-10)
    return panel.value, parts.value


class Crosscheck(Workload):
    name = "crosscheck"
    why = ("the only workload on the ray primitive, Laplace-factor and "
           "Chebyshev layer: many short ray integrals instead of one long "
           "panel sum; rho != 1 cases are probed after timing")
    roadmap = "item 1 (one primitive for every rho); items 3 and 5"
    key = 3
    sample_units = 40

    def spec(self, index, cases=CROSS_CASES, key=None):
        u = _uniform(self.seed, self.key if key is None else key, index,
                     len(cases))
        case, phase, q = cases[index % len(cases)]
        spec = {"index": index, "case": case,
                "omega": round(10 ** _scale(u[0], 0.0, 4.0), 6)}
        if case == "beta":
            spec.update(phase=phase, q=q, mu1=round(_scale(u[1], 0.3, 0.7), 6),
                        mu2=round(_scale(u[2], 0.4, 0.6), 6))
        elif case == "quadratic-piece":
            spec.update(mu=round(_scale(u[1], 0.5, 0.9), 6),
                        q=round(_scale(u[2], 0.15, 0.35), 6))
        else:
            spec.update(mu1=round(_scale(u[1], 0.3, 0.7), 6),
                        mu2=round(_scale(u[2], 0.3, 0.7), 6),
                        q=round(_scale(u[3], 0.3, 0.7), 6))
        return spec

    @staticmethod
    def _inputs(spec):
        if spec["case"] == "beta":
            return (catalog.phase(spec["phase"]),
                    catalog.amplitude("beta", mu1=spec["mu1"], mu2=spec["mu2"]))
        if spec["case"] == "quadratic-piece":
            return _quadratic_piece(), SingularAmplitude(
                0.0, 0.5, spec["mu"], 1.0,
                lambda p: 1.0 - np.asarray(p, dtype=float),
                lambda p: -_ones(p), 1.0, 1.0)
        return _fractional(), catalog.amplitude("beta", mu1=spec["mu1"],
                                                mu2=spec["mu2"])

    def warm(self):
        spec = {"case": "beta", "phase": "linear", "mu1": 0.5, "mu2": 0.5}
        _both_oracles(*self._inputs(spec), 200.0, 0.5)

    def run(self, spec, clock, outdir):
        phase, amp = self._inputs(spec)
        try:
            panel, parts = clock.call(_both_oracles, phase, amp, spec["omega"],
                                      spec["q"])
        except Exception as err:  # counted as a failed operation
            return UnitResult([Op(clock.last, type(err).__name__)], clock.last,
                              clock.records)
        ok = abs(parts - panel) <= max(1e-9, 1e-8 * abs(panel))
        op = Op(clock.last, None if ok else "agreement", not ok)
        return UnitResult([op], clock.last, clock.records)

    def finish(self, units, outdir):
        """Run the rho != 1 cases and report how they fail.  Their
        exceptions stay out of the timed operations; a wrong value that
        comes back still makes the run incorrect."""
        ops = [op for i in range(DEFECT_PROBES) for op in self.run(
            self.spec(i, DEFECT_CASES, self.key + 10), Clock(), outdir).ops]
        by_type = Counter(o.error for o in ops if o.error is not None)
        return {"rho_ne_1": {"attempted": len(ops),
                             "failed": sum(not o.ok for o in ops),
                             "wrong": sum(o.wrong for o in ops),
                             "failures_by_type": dict(sorted(by_type.items()))}}


WORKLOADS = {w.name: w for w in (Sweep, Far, Crosscheck)}
