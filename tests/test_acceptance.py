"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines and
measured runtimes.  The heavy fixtures (the bound-validity matrix) are
shared across criteria 2, 4 and 9 (and, from conftest, with
tests/test_descent.py).
"""

import time

import numpy as np
import pytest

from stasis.expansion import (expand_integral, leading_term,
                              remainder_bound_r1, remainder_bound_r2)
from stasis.model import build_frame
from stasis.oracle import (integrate_oscillatory, phi_primitive,
                           reconstruct_total)
from stasis.quadratic import curve_exponents
from stasis.schrodinger import (SchrodingerSetup, critical_direction_fit,
                                region_scan, verify_curve_expansion)
from stasis.specfun import theta

from conftest import OMEGAS, intro_amp
from reference import bessel_closed_form

QS = (0.3, 0.5, 0.7)


def test_criterion_1_bessel_closed_form(linear_phase, bessel_amp):
    worst = 0.0
    slowest = 0.0
    for om in (1.0, 10.0, 100.0, 1e3, 1e4):
        t0 = time.perf_counter()
        ov = integrate_oscillatory(linear_phase, bessel_amp, om, 1e-9)
        dt = time.perf_counter() - t0
        err = abs(ov.value - bessel_closed_form(om))
        worst = max(worst, err)
        slowest = max(slowest, dt)
        assert err <= 1e-8, f"omega={om}: error {err:.2e}"
        assert dt <= 1.0, f"omega={om}: runtime {dt:.2f}s over budget"
    print(f"\ncriterion 1: PASS  (bessel oracle, worst error {worst:.2e}, "
          f"slowest {slowest:.2f}s <= 1s)")


def test_criterion_2_certified_bound_validity(matrix, matrix_oracle):
    t0 = time.perf_counter()
    checked = 0
    worst_ratio = 0.0
    for label, phase, amp in matrix:
        for q in QS:
            frames = [build_frame(phase, amp, side, q) for side in (1, 2)]
            leads = [leading_term(fr) for fr in frames]
            r1s = [remainder_bound_r1(fr) for fr in frames]
            r2s = [remainder_bound_r2(fr) for fr in frames]
            for om in OMEGAS:
                om = float(om)
                lead = sum(t.evaluate(om) for t in leads)
                bound = sum(t.value(om) for t in r1s)
                bound += sum(t.value(om) for t in r2s)
                resid = abs(matrix_oracle[(label, om)] - lead)
                worst_ratio = max(worst_ratio, resid / bound)
                assert resid <= bound, \
                    f"{label}, q={q}, omega={om}: {resid:.3e} > {bound:.3e}"
                checked += 1
    dt = time.perf_counter() - t0
    assert checked == 900
    assert dt <= 120.0, f"runtime {dt:.0f}s over the 2 min budget"
    print(f"\ncriterion 2: PASS  (900/900 bounds hold, worst "
          f"residual/bound {worst_ratio:.3f}, {dt:.0f}s <= 120s)")


def test_side_terms_match_expand_integral(matrix):
    # the per-side builders give exactly the terms expand_integral assembles
    for label, phase, amp in matrix:
        for q in QS:
            res = expand_integral(phase, amp, q, 1.0)
            frames = [build_frame(phase, amp, side, q) for side in (1, 2)]
            assert res.leading == tuple(leading_term(fr) for fr in frames)
            assert res.bound_terms == tuple(
                t for fr in frames
                for t in (remainder_bound_r1(fr), remainder_bound_r2(fr)))


def test_criterion_3_primitive_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (1.0, 2.0, 3.0):
        for mu in (0.25, 0.5, 0.75, 1.0):
            for side in (1, 2):
                for om in (1.0, 10.0, 100.0):
                    got = phi_primitive(0.0, om, rho, mu, side)
                    want = theta(side, rho, mu) * om ** (-mu / rho)
                    rel = abs(got - want) / abs(want)
                    worst = max(worst, rel)
                    assert rel <= 1e-8
    dt = time.perf_counter() - t0
    assert dt <= 30.0, f"runtime {dt:.0f}s over the 30 s budget"
    print(f"\ncriterion 3: PASS  (72 primitive values, worst rel "
          f"{worst:.2e}, {dt:.1f}s <= 30s)")


def test_criterion_4_power_law_exactness(matrix):
    worst = 0.0
    for label, phase, amp in matrix:
        frames = [build_frame(phase, amp, side, 0.5) for side in (1, 2)]
        leads = [leading_term(fr) for fr in frames]
        for om in OMEGAS:
            om = float(om)
            for fr, lead in zip(frames, leads):
                ratio = abs(lead.evaluate(10.0 * om)) / abs(lead.evaluate(om))
                want = 10.0 ** (-fr.mu / fr.rho)
                rel = abs(ratio - want) / want
                worst = max(worst, rel)
                assert rel <= 1e-12
    print(f"\ncriterion 4: PASS  (power law exact to {worst:.2e} <= 1e-12)")


def test_criterion_5_exponent_ordering_and_degeneracy():
    t0 = time.perf_counter()
    count = 0
    for mu in np.linspace(0.05, 0.95, 10):
        d_lo = (mu + 1.0) / 2.0
        for frac_d in np.linspace(0.0, 0.8, 5):
            delta = d_lo + frac_d * (1.0 - d_lo)
            epss = (delta - 0.5) * np.linspace(0.05, 0.95, 10)
            gaps = []
            for eps in epss:
                ce = curve_exponents(float(mu), float(eps), float(delta))
                assert -ce.alpha < min(ce.lead_mu_exp, ce.lead_half_exp)
                assert -ce.beta < ce.lead_half_exp
                gaps.append(ce.min_gap)
                count += 1
            diffs = np.diff(gaps)
            assert np.all(diffs < 1e-12), f"min-gap not monotone at mu={mu}"
            # the gap vanishes in the eps -> delta - 1/2 limit
            eps_lim = (delta - 0.5) * (1.0 - 1e-9)
            assert curve_exponents(float(mu), float(eps_lim),
                                   float(delta)).min_gap <= \
                2e-9 * (delta - 0.5) + 1e-15
    dt = time.perf_counter() - t0
    assert dt <= 1.0, f"runtime {dt:.2f}s over the 1 s budget"
    print(f"\ncriterion 5: PASS  ({count} grid points ordered, min-gap "
          f"monotone to 0, {dt:.2f}s <= 1s)")


@pytest.mark.parametrize("mu,eps,predicted", [
    (0.75, 0.25, -0.4375),
    (0.5, 0.3, -0.35),
    (0.25, 0.1, -0.225),
])
def test_criterion_6_curve_decay(mu, eps, predicted):
    t0 = time.perf_counter()
    setup = SchrodingerSetup(amp=intro_amp(mu), p1=0.0, p2=1.0, mu=mu)
    rep = verify_curve_expansion(setup, eps, np.geomspace(1e2, 1e6, 24),
                                 tol=1e-9)
    dt = time.perf_counter() - t0
    assert rep.predicted_exp == pytest.approx(predicted, abs=1e-12)
    assert abs(rep.lead_fit.slope - predicted) <= 0.05, \
        f"slope {rep.lead_fit.slope:.4f} vs predicted {predicted}"
    assert rep.residual_fit.slope <= rep.lead_fit.slope - 0.03
    assert rep.passed
    assert dt <= 180.0, f"runtime {dt:.0f}s over the 3 min budget"
    print(f"\ncriterion 6 (mu={mu}, eps={eps}): PASS  (slope "
          f"{rep.lead_fit.slope:.4f} ~ {predicted}, residual "
          f"{rep.residual_fit.slope:.4f}, {dt:.0f}s <= 180s)")


@pytest.mark.parametrize("mu", [0.25, 0.5, 0.75])
def test_criterion_7_critical_direction(mu):
    t0 = time.perf_counter()
    setup = SchrodingerSetup(amp=intro_amp(mu), p1=0.0, p2=1.0, mu=mu)
    fit, _ = critical_direction_fit(setup, np.geomspace(1e2, 1e6, 33),
                                    tol=1e-9)
    dt = time.perf_counter() - t0
    assert abs(fit.slope - (-mu / 2.0)) <= 0.05, \
        f"slope {fit.slope:.4f} vs {-mu / 2.0}"
    assert dt <= 120.0, f"runtime {dt:.0f}s over the 2 min budget"
    print(f"\ncriterion 7 (mu={mu}): PASS  (slope {fit.slope:.4f} ~ "
          f"{-mu / 2.0}, {dt:.0f}s <= 120s)")


def test_criterion_8_region_estimate():
    t0 = time.perf_counter()
    setup = SchrodingerSetup(amp=intro_amp(0.75), p1=0.0, p2=1.0, mu=0.75)
    rows = region_scan(setup, 0.25, np.geomspace(1e2, 1e6, 20), n_rays=10,
                       tol=1e-9)
    dt = time.perf_counter() - t0
    interior = [r for r in rows if r[2] > 0.0]
    b_sup = max(r[4] for r in rows if r[2] == 0.0)
    i_sup = max(r[4] for r in interior)
    assert len(interior) == 200
    assert i_sup <= 3.0 * b_sup, f"interior {i_sup:.3f} > 3 x {b_sup:.3f}"
    assert dt <= 300.0, f"runtime {dt:.0f}s over the 5 min budget"
    print(f"\ncriterion 8: PASS  (interior sup {i_sup:.3f} <= 3 x boundary "
          f"{b_sup:.3f}, {dt:.0f}s <= 300s)")


def test_criterion_9_oracle_cross_agreement(matrix, matrix_oracle):
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for label, phase, amp in matrix:
        for q in QS:
            for om in OMEGAS:
                om = float(om)
                panel = matrix_oracle[(label, om)]
                parts = reconstruct_total(phase, amp, om, q, 1e-10)
                tol = max(1e-9, 1e-8 * abs(panel))
                diff = abs(parts.value - panel)
                worst = max(worst, diff / tol)
                assert diff <= tol, \
                    f"{label}, q={q}, omega={om}: |diff|={diff:.2e} > {tol:.2e}"
                checked += 1
    dt = time.perf_counter() - t0
    assert checked == 900
    print(f"\ncriterion 9: PASS  (900/900 cross-agreements, worst "
          f"diff/tol {worst:.3f}, {dt:.0f}s)")
