"""Config-driven experiment runner.

    stasis run <config.cfg> [--plot] [--out DIR]
    stasis catalog

Configs are flat INI files (sections: experiment, amplitude, phase, grid,
tolerances, output).  A run reads and checks its config once, before it
computes anything, then evaluates its rows one after another in this
process.  Each Schrodinger kind is one library call on the checked
config: schrodinger-curve ``verify_curve_expansion``, schrodinger-region
``region_scan``, critical-direction ``critical_direction_fit`` and
blowup-scan ``supremum_scan``.  Results are written atomically as CSV with
17 significant digits, so identical configs reproduce byte-identical
files; exit code 0 means every row passed, 2 means some row failed, 1
means the configuration or the computation errored out.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import tempfile
from functools import partial

import numpy as np

from . import catalog
from .errors import BudgetError, ConvergenceError, DomainError
from .expansion import expand_integral
from .oracle import TOL_FLOOR
from .quadratic import QuadraticPhase, expand_quadratic
from .schrodinger import (SOLUTION_TOL_FLOOR, SchrodingerSetup,
                          critical_direction_fit, region_scan,
                          steepest_descent, supremum_scan, threshold_time,
                          verify_curve_expansion)

class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _getfloat(cfg, section, key, default=None):
    try:
        raw = cfg.get(section, key, fallback=None)
        if raw is None or raw.strip() == "":
            if default is None:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid number for key [{section}] {key}") from exc


def _getint(cfg, section, key, default=None):
    x = _getfloat(cfg, section, key, default)
    if not float(x).is_integer():
        raise ConfigError(f"key [{section}] {key}: must be an integer, got {x}")
    return int(x)


def _gettolerance(cfg, key, default, zero_ok=False):
    """[tolerances] key, finite and > 0 (>= 0 with zero_ok)."""
    x = _getfloat(cfg, "tolerances", key, default)
    if not (math.isfinite(x) and (x > 0.0 or (zero_ok and x == 0.0))):
        need = ">= 0" if zero_ok else "> 0"
        raise ConfigError(f"key [tolerances] {key}: must be finite and {need}, "
                          f"got {x}")
    return x


def _oracle_tol(cfg, floor, default=1e-9):
    """[tolerances] oracle_tol, finite and >= floor, the smallest tol the
    kind's oracle reaches."""
    x = _getfloat(cfg, "tolerances", "oracle_tol", default)
    if not (math.isfinite(x) and x >= floor):
        raise ConfigError(f"key [tolerances] oracle_tol: must be finite and "
                          f">= {floor:g}, got {x}")
    return x


def _load_config(path):
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    kind = cfg.get("experiment", "kind", fallback=None)
    if kind not in KINDS:
        raise ConfigError(f"key [experiment] kind must be one of "
                          f"{tuple(KINDS)}, got {kind!r}")
    return cfg, kind


def _amplitude_from(cfg):
    name = cfg.get("amplitude", "name", fallback=None)
    if name is None:
        raise ConfigError("missing required key [amplitude] name")
    params = {}
    for key in ("mu", "mu1", "mu2"):
        if cfg.has_option("amplitude", key):
            params[key] = _getfloat(cfg, "amplitude", key)
    try:
        return catalog.amplitude(name, **params)
    except DomainError as exc:
        raise ConfigError(f"key [amplitude] name: {exc}") from exc


def _grid(cfg, var, n_min):
    lo = _getfloat(cfg, "grid", f"{var}_min")
    hi = _getfloat(cfg, "grid", f"{var}_max")
    n = _getint(cfg, "grid", f"{var}_count")
    for key, x in ((f"{var}_min", lo), (f"{var}_max", hi)):
        if not math.isfinite(x):
            raise ConfigError(f"key [grid] {key}: must be finite, got {x}")
    if not (0 < lo <= hi and n >= n_min):
        raise ConfigError(f"keys [grid] {var}_min/{var}_max/{var}_count "
                          f"malformed (need {var}_count >= {n_min})")
    return [float(v) for v in np.geomspace(lo, hi, n)]


def _fitted(ts):
    """ts, refused unless they span the two decades fit_decay needs."""
    if ts[-1] < 100.0 * ts[0] * (1.0 - 1e-12):
        raise ConfigError("keys [grid] t_min/t_max: a fitted slope needs "
                          "t_max >= 100 t_min")
    return ts


def _setup_from(cfg):
    amp = _amplitude_from(cfg)
    return SchrodingerSetup(amp=amp, p1=amp.p1, p2=amp.p2, mu=amp.mu1)


def _check_eps(cfg):
    """[grid] eps in (0, 1/2), the curves G_eps the expansion admits."""
    eps = _getfloat(cfg, "grid", "eps")
    if not 0.0 < eps < 0.5:
        raise ConfigError(f"key [grid] eps: must lie in the open interval "
                          f"(0, 1/2), got {eps}")
    return eps


def _curve_times(cfg, setup, eps):
    ts = _grid(cfg, "t", 8)
    t_min = max(1.0, threshold_time(setup, setup.p2, eps))
    if ts[0] <= t_min:
        raise ConfigError(f"key [grid] t_min: must exceed {t_min}")
    return ts


def _integral(cfg):
    """(expand(omega), oracle(omega, tol)) for the config's amplitude and
    phase: the quadratic case, or the generic one cut at [grid] q.  The
    oracle is steepest descent, at a cost flat in omega: every catalog
    amplitude is analytic and every phase has a poly."""
    amp = _amplitude_from(cfg)
    phase_name = cfg.get("phase", "name", fallback=None)
    if phase_name == "quadratic":
        ph = QuadraticPhase(p0=_getfloat(cfg, "phase", "p0"),
                            c=_getfloat(cfg, "phase", "c", 0.0),
                            p1=amp.p1, p2=amp.p2)
        expand = partial(expand_quadratic, amp, ph)
    else:
        ph = catalog.phase(phase_name)
        q = _getfloat(cfg, "grid", "q", 0.5)
        expand = partial(expand_integral, ph, amp, q)
    return expand, partial(steepest_descent, amp, ph)


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def _sweep_task(args):
    # one call per sweep row, looked up at call time: perfbench wraps it to
    # time each row
    oracle, tol, omega = args
    return oracle(omega, tol).value


def _run_sweep(cfg):
    omegas = _grid(cfg, "omega", 1)
    tol = _oracle_tol(cfg, TOL_FLOOR)
    expand, oracle = _integral(cfg)
    res = expand(omegas[0])
    values = [_sweep_task((oracle, tol, w)) for w in omegas]
    leads = res.leading_sum(omegas)
    bounds = res.total_bound(omegas)
    certs = res.total_bound(omegas, certified_only=True)
    rows = []
    for w, v, lead, bound, cert in zip(omegas, values, leads, bounds, certs):
        resid = abs(v - lead)
        rows.append((w, res.q_used, v.real, v.imag, lead.real, lead.imag,
                     resid, bound, cert, bool(resid <= bound)))
    header = ["omega", "q", "oracle_re", "oracle_im", "lead_re", "lead_im",
              "residual_abs", "bound_total", "bound_certified", "pass"]
    return header, rows, [r[-1] for r in rows]


def _run_expand(cfg):
    expand, _ = _integral(cfg)
    omega = _getfloat(cfg, "grid", "omega")
    res = expand(omega)
    terms = [(f"lead_{i}", t) for i, t in enumerate(res.leading, 1)]
    terms += [(bt.origin, bt) for bt in res.bound_terms]
    rows = []
    for name, t in terms:
        coeff = t.coeff_at(omega)
        rows.append((name, coeff.real, coeff.imag, -t.omega_exp, t.gap_exp,
                     t.non_certified, t.value(omega, res.gap), True))
    header = ["term", "coeff_re_or_abs", "coeff_im", "omega_exp", "gap_exp",
              "non_certified", "value_at_omega", "pass"]
    return header, rows, [True]


def _run_curve(cfg):
    setup = _setup_from(cfg)
    eps = _check_eps(cfg)
    tol = _oracle_tol(cfg, SOLUTION_TOL_FLOOR)
    slope_tol = _gettolerance(cfg, "slope_tol", 0.05)
    margin = _gettolerance(cfg, "residual_margin", 0.03, zero_ok=True)
    ts = _fitted(_curve_times(cfg, setup, eps))
    rep = verify_curve_expansion(setup, eps, ts, tol, slope_tol, margin)
    rows = [(t, x, u_abs, abs(lead), resid, rep.lead_fit.slope,
             rep.predicted_exp, rep.residual_fit.slope, rep.passed)
            for t, x, _, lead, u_abs, resid in rep.rows]
    header = ["t", "x", "u_abs", "lead_abs", "residual_abs",
              "fitted_slope", "predicted_exp", "residual_slope", "pass"]
    return header, rows, [rep.passed]


def _run_region(cfg):
    setup = _setup_from(cfg)
    eps = _check_eps(cfg)
    tol = _oracle_tol(cfg, SOLUTION_TOL_FLOOR)
    n_rays = _getint(cfg, "grid", "rays", 10)
    if n_rays < 0:
        raise ConfigError("key [grid] rays: must be >= 0")
    factor = _gettolerance(cfg, "region_factor", 3.0)
    data = region_scan(setup, eps, _curve_times(cfg, setup, eps), n_rays, tol)
    boundary_sup = max(r[4] for r in data if r[2] == 0.0)
    rows = [r + (boundary_sup, r[4] <= factor * boundary_sup) for r in data]
    header = ["t", "x", "ray_frac", "u_abs", "scaled", "boundary_sup", "pass"]
    return header, rows, [r[-1] for r in rows]


def _run_critical(cfg):
    setup = _setup_from(cfg)
    tol = _oracle_tol(cfg, SOLUTION_TOL_FLOOR)
    slope_tol = _gettolerance(cfg, "slope_tol", 0.05)
    ts = _fitted(_grid(cfg, "t", 8))
    fit, data = critical_direction_fit(setup, ts, tol)
    predicted = -setup.mu / 2.0
    ok = abs(fit.slope - predicted) <= slope_tol
    rows = [r + (fit.slope, predicted, ok) for r in data]
    header = ["t", "x", "u_abs", "fitted_slope", "predicted_exp", "pass"]
    return header, rows, [ok]


def _run_blowup(cfg):
    setup = _setup_from(cfg)
    tol = _oracle_tol(cfg, SOLUTION_TOL_FLOOR, 1e-8)
    n_x = _getint(cfg, "grid", "x_count", 81)
    if n_x < 1:
        raise ConfigError("key [grid] x_count: must be >= 1")
    ts = _grid(cfg, "t", 8)
    data = [supremum_scan(setup, t, n_x, tol) for t in ts]
    # exploratory: the scan reports sup |u| t^(mu/2); never asserted
    rows = [(t,) + r + (True,) for t, r in zip(ts, data)]
    header = ["t", "sup_u_scaled", "argmax_x", "pass"]
    return header, rows, [True]


KINDS = {"expand": _run_expand, "sweep-omega": _run_sweep,
         "schrodinger-curve": _run_curve, "schrodinger-region": _run_region,
         "critical-direction": _run_critical, "blowup-scan": _run_blowup}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _svg_text(header, rows, xcol=0, ycols=(2,)):
    """Minimal deterministic log-log SVG plot of chosen columns."""
    width, height, pad = 640, 480, 60
    xs = np.array([float(r[xcol]) for r in rows])
    series = []
    for yc in ycols:
        ys = np.array([max(float(r[yc]), 1e-300) for r in rows])
        series.append(ys)
    lx = np.log10(xs)
    lys = [np.log10(y) for y in series]
    x0, x1 = float(lx.min()), float(lx.max())
    y0 = min(float(l.min()) for l in lys)
    y1 = max(float(l.max()) for l in lys)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
             f'stroke="black"/>']
    for dec in range(math.ceil(x0), math.floor(x1) + 1):
        parts.append(f'<text x="{sx(dec):.1f}" y="{height - pad + 18}" '
                     f'font-size="11" text-anchor="middle">1e{dec}</text>')
    for dec in range(math.ceil(y0), math.floor(y1) + 1):
        parts.append(f'<text x="{pad - 8}" y="{sy(dec):.1f}" font-size="11" '
                     f'text-anchor="end">1e{dec}</text>')
    colors = ("#1f77b4", "#d62728", "#2ca02c")
    for i, ly in enumerate(lys):
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{colors[i % 3]}" stroke-width="1.5"/>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 16}" font-size="12" '
                 f'text-anchor="middle">{header[xcol]} (log10)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def catalog_list() -> str:
    return catalog.listing()


def run(config_path: str, plot: bool = False, out_dir: str = ".", *,
        jobs: int = 1) -> int:
    """Execute one experiment config; returns the process exit code.

    Every run takes one process: jobs is accepted as 1 and refused
    otherwise."""
    if jobs != 1:
        print(f"error: jobs={jobs}: a run takes one process; there is no "
              "--jobs", file=sys.stderr)
        return 1
    try:
        cfg, kind = _load_config(config_path)
        csv_name = cfg.get("output", "csv", fallback=None)
        if csv_name is None:
            raise ConfigError("missing required key [output] csv")
        header, rows, oks = KINDS[kind](cfg)
        csv_path = os.path.join(out_dir, csv_name)
        _write_atomic(csv_path, _csv_text(header, rows))
        if plot:
            svg_name = cfg.get("output", "svg", fallback=None)
            if svg_name:
                ycols = (2,) if kind != "sweep-omega" else (6, 7)
                _write_atomic(os.path.join(out_dir, svg_name),
                              _svg_text(header, rows, 0, ycols))
        print(f"{kind}: {sum(bool(o) for o in oks)}/{len(oks)} pass -> {csv_path}")
        return 0 if all(oks) else 2
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetError, ConvergenceError) as exc:
        info = (exc.diagnostics if isinstance(exc, BudgetError)
                else {"where": exc.where})
        detail = ", ".join(f"{k}={v}" for k, v in info.items() if v is not None)
        print(f"computation failed: {exc}" + (f" ({detail})" if detail else ""),
              file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stasis",
                                     description="stationary-phase expansion "
                                     "experiments with certified bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--plot", action="store_true")
    p_run.add_argument("--out", default=".")
    sub.add_parser("catalog", help="list built-in amplitudes and phases")
    args = parser.parse_args(argv)
    if args.command == "catalog":
        print(catalog_list())
        return 0
    return run(args.config, plot=args.plot, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
