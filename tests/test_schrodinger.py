import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import fresnel

from stasis import catalog, model, oracle, schrodinger
from stasis.errors import BudgetError, DomainError
from stasis.model import SingularAmplitude
from stasis.quadratic import QuadraticPhase, expand_quadratic
from stasis.schrodinger import (DecayFit, SchrodingerSetup, curve_point,
                                evaluate_solution, fit_decay,
                                integrate_quadratic, predicted_exponents,
                                region_contains, region_scan,
                                stationary_point, steepest_descent,
                                supremum_scan, threshold_time,
                                verify_curve_expansion)
from stasis.specfun import gamma_pos

from conftest import intro_amp, ones
from reference import beta_quadratic_reference, singular_fresnel_closed_form


def _band_setup(p1, p2, mu=0.75):
    amp = SingularAmplitude(
        p1, p2, mu, 1.0,
        u_tilde=lambda p: p2 - np.asarray(p, dtype=float),
        u_tilde_prime=lambda p: -ones(p),
        sup_norm_u=p2 - p1, sobolev_norm_u=max(1.0, p2 - p1))
    return SchrodingerSetup(amp=amp, p1=p1, p2=p2, mu=mu)


@pytest.fixture(scope="module")
def setup075():
    return SchrodingerSetup(amp=intro_amp(0.75), p1=0.0, p2=1.0, mu=0.75)


class TestSetupValidation:
    def test_requires_regular_right_end(self):
        amp = SingularAmplitude(0.0, 1.0, 0.5, 0.5, ones,
                                lambda p: 0.0 * ones(p), 1.0, 1.0)
        with pytest.raises(DomainError):
            SchrodingerSetup(amp=amp, p1=0.0, p2=1.0, mu=0.5)

    def test_requires_vanishing_at_p2(self):
        amp = SingularAmplitude(0.0, 1.0, 0.5, 1.0, ones,
                                lambda p: 0.0 * ones(p), 1.0, 1.0)
        with pytest.raises(DomainError):
            SchrodingerSetup(amp=amp, p1=0.0, p2=1.0, mu=0.5)

    def test_mu_consistency(self):
        with pytest.raises(DomainError):
            SchrodingerSetup(amp=intro_amp(0.75), p1=0.0, p2=1.0, mu=0.5)

    def test_vanishing_at_p2_to_quadratic_threshold(self):
        # u~(p2) = 5e-11 of sup |u~|: expand_quadratic refuses it (its
        # threshold is 1e-12), so the setup must refuse it too
        amp = SingularAmplitude(
            0.0, 1.0, 0.75, 1.0,
            u_tilde=lambda p: 1.0 + 5e-11 - np.asarray(p, dtype=float),
            u_tilde_prime=lambda p: -ones(p),
            sup_norm_u=1.0 + 1e-10, sobolev_norm_u=2.0)
        with pytest.raises(DomainError, match="vanish at p2"):
            SchrodingerSetup(amp=amp, p1=0.0, p2=1.0, mu=0.75)


class TestEvaluateSolution:
    def test_small_time_beta_limit(self, setup075):
        # mu = 3/4: (1/2pi) int_0^1 p^(-1/4)(1-p) dp = 8/(21 pi)
        u = evaluate_solution(setup075, 1e-8, 0.0, 1e-10)
        assert u == pytest.approx(8.0 / (21.0 * math.pi), abs=1e-8)

    def test_self_consistency_tightened(self, setup075):
        t = 100.0
        _, x = curve_point(setup075, 0.25, t)
        u = evaluate_solution(setup075, t, x, 1e-8)
        u_tight = evaluate_solution(setup075, t, x, 1e-9)
        assert abs(u - u_tight) < 1e-8

    def test_linearity(self, setup075):
        amp2 = SingularAmplitude(
            0.0, 1.0, 0.75, 1.0,
            u_tilde=lambda p: 2.0 * (1.0 - np.asarray(p, dtype=float)),
            u_tilde_prime=lambda p: -2.0 * ones(p),
            sup_norm_u=2.0, sobolev_norm_u=2.0)
        setup2 = SchrodingerSetup(amp=amp2, p1=0.0, p2=1.0, mu=0.75)
        t, x = 50.0, 30.0
        assert evaluate_solution(setup2, t, x, 1e-9) == pytest.approx(
            2.0 * evaluate_solution(setup075, t, x, 1e-9), rel=1e-7)

    @pytest.mark.parametrize("t", [30.0, 1e3])
    def test_stationary_point_near_p2(self, t):
        # x = 2 * 0.9999 t puts p0 1e-4 from p2: the panel route on a
        # non-analytic amplitude against steepest descent on its analytic twin
        twin = intro_amp(0.75)
        plain = dataclasses.replace(twin, analytic=False)
        x = 2.0 * 0.9999 * t
        u_plain, u_twin = (
            evaluate_solution(SchrodingerSetup(amp=a, p1=0.0, p2=1.0, mu=0.75),
                              t, x, 1e-9)
            for a in (plain, twin))
        assert abs(u_plain - u_twin) <= 1e-9

    def test_domain_checks(self, setup075):
        with pytest.raises(DomainError):
            evaluate_solution(setup075, -1.0, 0.0)
        with pytest.raises(DomainError):
            evaluate_solution(setup075, 1.0, 0.0, tol=1e-12)
        for n_x in (0, -1):
            with pytest.raises(DomainError):
                supremum_scan(setup075, 100.0, n_x=n_x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_point_named(self, setup075, bad):
        with pytest.raises(DomainError, match="t must be finite"):
            evaluate_solution(setup075, bad, 1.0)
        with pytest.raises(DomainError, match="t must be finite"):
            supremum_scan(setup075, bad)
        with pytest.raises(DomainError, match="x must be finite"):
            evaluate_solution(setup075, 10.0, bad)
        with pytest.raises(DomainError, match="1e-10"):
            evaluate_solution(setup075, 10.0, 1.0, tol=bad)


class TestGeometry:
    def test_stationary_point(self):
        assert stationary_point(16.0, 16.0) == 0.5
        assert stationary_point(1.0, 0.0) == 0.0
        assert stationary_point(2.0, 6.0) == 1.5

    def test_curve_point_examples(self, setup075):
        t, x = curve_point(setup075, 0.25, 16.0)
        assert x == pytest.approx(16.0, abs=1e-12)
        amp_shift = SingularAmplitude(
            1.0, 2.0, 0.75, 1.0,
            u_tilde=lambda p: 2.0 - np.asarray(p, dtype=float),
            u_tilde_prime=lambda p: -ones(p),
            sup_norm_u=1.0, sobolev_norm_u=1.0)
        setup_shift = SchrodingerSetup(amp=amp_shift, p1=1.0, p2=2.0, mu=0.75)
        _, x = curve_point(setup_shift, 0.5, 4.0)
        assert x == pytest.approx(8.0 + 2.0 * 2.0, abs=1e-12)

    def test_curve_defining_identity(self, setup075):
        for t in (2.0, 37.0, 1e5):
            _, x = curve_point(setup075, 0.3, t)
            assert stationary_point(t, x) - setup075.p1 == pytest.approx(
                t ** (-0.3), abs=1e-14)

    def test_threshold_time(self, setup075):
        # T_p = (p - p1)^(-1/eps)
        assert threshold_time(setup075, 0.5, 0.25) == pytest.approx(16.0)
        assert threshold_time(setup075, 0.5, 0.5) == pytest.approx(4.0)
        assert threshold_time(setup075, 2.0, 1.0) == pytest.approx(0.5)
        with pytest.raises(DomainError):
            threshold_time(setup075, -0.5, 0.25)

    @pytest.mark.parametrize("eps", [0.0, -0.25, math.nan, math.inf])
    def test_eps_domain(self, setup075, eps):
        with pytest.raises(DomainError):
            curve_point(setup075, eps, 10.0)
        with pytest.raises(DomainError):
            threshold_time(setup075, 0.5, eps)
        with pytest.raises(DomainError):
            predicted_exponents(0.5, eps)

    @pytest.mark.parametrize("eps", [0.5, 0.75, 1e3])
    def test_rates_refuse_eps_from_half(self, setup075, eps):
        # the rates hold for eps in (0, 1/2) only; at eps = 1e3 t^predicted
        # would overflow
        with pytest.raises(DomainError, match="eps"):
            predicted_exponents(0.75, eps)
        with pytest.raises(DomainError, match="eps"):
            region_scan(setup075, eps, [1e3])

    @pytest.mark.parametrize("band", [(0.0, 1.0), (0.0, 0.5), (1.0, 1.5)])
    def test_curve_reaches_direction_at_threshold(self, band):
        # G_eps's stationary point is exactly p at t = T_p
        setup = _band_setup(*band)
        for eps in (0.1, 0.25, 0.5):
            for frac in (0.1, 0.5, 0.9):
                p = band[0] + frac * (band[1] - band[0])
                t = threshold_time(setup, p, eps)
                assert stationary_point(*curve_point(setup, eps, t)) \
                    == pytest.approx(p, rel=1e-12)

    def test_coefficients_refused_before_threshold(self):
        # on [0, 1/2] with eps = 1/4 the curve leaves the band until t = 16:
        # at t = 1.5 its stationary point is 1.5^(-1/4) = 0.904
        setup = _band_setup(0.0, 0.5)
        assert threshold_time(setup, 0.5, 0.25) == pytest.approx(16.0)
        with pytest.raises(DomainError):
            verify_curve_expansion(setup, 0.25, np.geomspace(1.5, 150.0, 8))
        assert not region_contains(setup, 0.25, *curve_point(setup, 0.25, 1.5))
        verify_curve_expansion(setup, 0.25, np.geomspace(16.5, 1650.0, 8))

    def test_region_examples(self, setup075):
        assert region_contains(setup075, 0.25, 16.0, 16.0)   # boundary
        assert not region_contains(setup075, 0.25, 16.0, 40.0)
        assert not region_contains(setup075, 0.25, 16.0, 4.0)

    def test_curve_inside_region(self, setup075):
        t_min = max(1.0, threshold_time(setup075, setup075.p2, 0.25))
        for t in np.geomspace(1.3 * max(t_min, 1.0), 1e6, 12):
            t, x = curve_point(setup075, 0.25, t)
            assert region_contains(setup075, 0.25, t, x)
            assert 2 * setup075.p1 * t < x <= 2 * setup075.p2 * t


class TestPredictedExponents:
    def test_three_regimes(self):
        assert predicted_exponents(0.75, 0.25) == (-0.4375, "mu>1/2")
        e, c = predicted_exponents(0.5, 0.3)
        assert e == pytest.approx(-0.35) and c == "mu=1/2"
        e, c = predicted_exponents(0.25, 0.1)
        assert e == pytest.approx(-0.225) and c == "mu<1/2"


class TestCurveCoefficients:
    """The lead of verify_curve_expansion rows against the closed forms of
    the curve coefficients H and K, times t^predicted."""

    def test_h_modulus_intro(self, setup075):
        rep = verify_curve_expansion(setup075, 0.25, np.geomspace(10.0, 1e4, 8))
        for t, _, _, lead, _, _ in rep.rows:
            want = ((1.0 - t ** (-0.25)) / (2.0 * math.sqrt(math.pi))
                    * t ** rep.predicted_exp)
            assert abs(lead) == pytest.approx(want, rel=1e-13)

    def test_k_value_intro(self):
        # u~(p1) = 1 for intro, and the K phase e^(i t psi(p1)) is trivial
        # since p1 = 0
        mu = 0.25
        setup = SchrodingerSetup(amp=intro_amp(mu), p1=0.0, p2=1.0, mu=mu)
        rep = verify_curve_expansion(setup, 0.1, np.geomspace(1e2, 1e4, 8))
        assert rep.case == "mu<1/2"
        for t, _, _, lead, _, _ in rep.rows:
            want = (gamma_pos(mu) / (2 ** (mu + 1) * math.pi)
                    * np.exp(1j * math.pi * mu / 2) * t ** rep.predicted_exp)
            assert lead == pytest.approx(want, rel=1e-13)


class TestFitDecay:
    def test_exact_power_law(self):
        ts = np.geomspace(1.0, 1e4, 16)
        fit = fit_decay(list(zip(ts, ts ** -0.5)))
        assert abs(fit.slope + 0.5) <= 1e-12
        assert fit.max_residual <= 1e-12

    def test_prefactor_in_intercept(self):
        ts = np.geomspace(10.0, 1e5, 12)
        fit = fit_decay(list(zip(ts, 3.0 * ts ** -0.7)))
        assert fit.slope == pytest.approx(-0.7, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log10(3.0), abs=1e-12)

    def test_oscillating_magnitude(self):
        ts = np.geomspace(1.0, 1e4, 64)
        mags = ts ** -0.5 * (2.0 + np.cos(np.log(ts)))
        fit = fit_decay(list(zip(ts, mags)))
        assert abs(fit.slope + 0.5) <= 0.05

    def test_validation(self):
        ts = np.geomspace(1.0, 1e3, 8)
        with pytest.raises(DomainError):
            fit_decay(list(zip(ts[:4], ts[:4] ** -1.0)))
        with pytest.raises(DomainError):
            fit_decay(list(zip(ts, -np.ones(8))))
        with pytest.raises(DomainError):
            fit_decay(list(zip(np.linspace(1.0, 10.0, 9),
                               np.ones(9))))  # under two decades


class TestQuadraticOracleHelper:
    def test_matches_monotone_oracle_when_p0_outside(self, setup075):
        # p0 > p2: plain increasing phase over the band
        from stasis.oracle import integrate_oscillatory
        from stasis.model import PhaseModel
        qp = QuadraticPhase(p0=2.0, c=4.0, p1=0.0, p2=1.0)
        got = integrate_quadratic(setup075.amp, qp, 30.0, 1e-10)
        phase = PhaseModel(
            0.0, 1.0, 1.0, 1.0,
            psi=lambda p: -(np.asarray(p, dtype=float) - 2.0) ** 2 + 4.0,
            psi_prime=lambda p: 2.0 * (2.0 - np.asarray(p, dtype=float)),
            psi_tilde=lambda p: 2.0 * (2.0 - np.asarray(p, dtype=float)))
        want = integrate_oscillatory(phase, setup075.amp, 30.0, 1e-10)
        assert got.value == pytest.approx(want.value, abs=5e-10)

    def test_builds_no_frame_amplitude_or_phase(self, monkeypatch):
        # every quantity of the quadratic phase is closed form: no frame, no
        # rebuilt amplitude or phase, at any p0 or omega
        amp = intro_amp(0.75)

        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_quadratic built a frame, "
                                 "an amplitude or a phase")

        for owner, name in ((model, "build_frame"), (oracle, "build_frame"),
                            (model.SingularAmplitude, "__post_init__"),
                            (model.PhaseModel, "__post_init__")):
            monkeypatch.setattr(owner, name, forbidden)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for p0 in (-0.3, 0.0, 1e-9, 0.3, 0.5, 0.9999, 1.0, 1.2):
                qp = _qp(p0, amp, 0.2)
                for omega in (0.0, 3.0, 1e3):
                    ov = integrate_quadratic(amp, qp, omega, 1e-10)
                    if omega == 0.0:
                        # int_0^1 p^(-1/4) (1 - p) dp = B(3/4, 2) = 16/21
                        assert abs(ov.value - 16.0 / 21.0) <= 1e-10
            for omega in (-1.0, math.nan, math.inf):
                with pytest.raises(DomainError):
                    integrate_quadratic(amp, qp, omega, 1e-10)

    def test_budget_refused_before_any_panel(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a panel was summed before the budget check")

        monkeypatch.setattr(schrodinger, "adaptive_complex", forbidden)
        amp = intro_amp(0.75)
        # p0 = 0.02 at w = 5e6: the half at p1 fits the budget, the half at
        # p2 does not
        for p0, omega in ((0.3, 1e8), (0.02, 5e6)):
            with pytest.raises(BudgetError) as info:
                integrate_quadratic(amp, _qp(p0, amp), omega, 1e-9)
            assert set(info.value.diagnostics) == {"evaluations_needed",
                                                   "budget", "omega"}

    @pytest.mark.parametrize("mu1, mu2", [(0.3, 0.6), (0.7, 0.4)])
    @pytest.mark.parametrize("p0, omega", [
        (0.9999, 3.0), (0.9999, 30.0), (0.9999, 1e3), (0.9999, 1e5),
        (1e-4, 3.0)])
    def test_stationary_point_near_an_end(self, mu1, mu2, p0, omega):
        amp = catalog.amplitude("beta", mu1=mu1, mu2=mu2)
        qp = _qp(p0, amp, 0.1)
        tol = 1e-10
        panel = integrate_quadratic(amp, qp, omega, tol)
        nsd = steepest_descent(amp, qp, omega, tol)
        assert abs(panel.value - nsd.value) <= max(
            tol, panel.abs_error_estimate + nsd.abs_error_estimate)

    def test_vertex_off_the_band_at_tight_tol(self):
        # p0 = 1.3 lies beyond p2: a phase taken about the vertex reaches
        # w (p_j - p0)^2 ~ 1e5 on the band, and its rounding kept the
        # estimate above tol = 1e-11 until the budget ran out
        amp = catalog.amplitude("beta", mu1=0.3, mu2=0.6)
        qp = _qp(1.3, amp, 0.4 / 7.0)
        tol = 1e-11
        panel = integrate_quadratic(amp, qp, 7e4, tol)
        nsd = steepest_descent(amp, qp, 7e4, tol)
        assert abs(panel.value - nsd.value) <= max(
            tol, panel.abs_error_estimate + nsd.abs_error_estimate)

    def test_split_independence_of_interior_cut(self, setup075):
        # same integral, split at p0 vs integrated as two explicit halves
        qp = QuadraticPhase(p0=0.37, c=0.37 ** 2, p1=0.0, p2=1.0)
        a = integrate_quadratic(setup075.amp, qp, 200.0, 1e-10)
        b = integrate_quadratic(setup075.amp, qp, 200.0, 1e-11)
        assert abs(a.value - b.value) <= 2e-10


def _acceptance_points():
    """(mu, t, x) of the criterion 6, 7 and 8 grids."""
    for mu, eps in ((0.75, 0.25), (0.5, 0.3), (0.25, 0.1)):
        for t in np.geomspace(1e2, 1e6, 24):
            yield mu, float(t), 2.0 * float(t) ** (1.0 - eps)
    for mu in (0.25, 0.5, 0.75):
        for t in np.geomspace(1e2, 1e6, 33):
            yield mu, float(t), 0.0
    for t in np.geomspace(1e2, 1e6, 20):
        p_curve = float(t) ** -0.25
        for i in range(11):
            frac = i / 11.0
            yield 0.75, float(t), 2.0 * (p_curve + frac * (1.0 - p_curve)) * t


def _qp(p0, amp, c=None):
    return QuadraticPhase(p0=p0, c=p0 * p0 if c is None else c,
                          p1=amp.p1, p2=amp.p2)


class TestSteepestDescent:
    @pytest.mark.parametrize("omega", [3.0, 1e2, 1e4, 1e6])
    @pytest.mark.parametrize("p0", [0.0, 0.3, 0.5, 1.0, 1.3])
    def test_fresnel_closed_form(self, omega, p0):
        # int_0^1 e^(-i w (p - p0)^2) dp = sqrt(pi/(2w)) [C - i S] between
        # z = (p - p0) sqrt(2w/pi) at p = 0 and p = 1
        tol = 1e-10
        amp = catalog.amplitude("fresnel", mu=1.0)
        ov = steepest_descent(amp, _qp(p0, amp, 0.0), omega, tol)
        scale = math.sqrt(2.0 * omega / math.pi)
        s_lo, c_lo = fresnel(-p0 * scale)
        s_hi, c_hi = fresnel((1.0 - p0) * scale)
        want = ((c_hi - c_lo) - 1j * (s_hi - s_lo)) / scale
        err = abs(ov.value - want)
        assert ov.method == "steepest-descent"
        assert err <= 1e-12
        assert err <= max(tol, ov.abs_error_estimate)

    @pytest.mark.parametrize("omega", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("mu", [0.25, 0.5, 0.75])
    def test_singular_end_closed_form(self, mu, omega):
        # p0 = p1, the critical direction: the straight ray from p1
        tol = 1e-10
        amp = catalog.amplitude("fresnel", mu=mu)
        ov = steepest_descent(amp, _qp(0.0, amp), omega, tol)
        err = abs(ov.value - singular_fresnel_closed_form(mu, omega))
        assert err <= max(tol, ov.abs_error_estimate)

    def test_agrees_with_panel_route_on_acceptance_grids(self):
        worst = 0.0
        for mu, t, x in _acceptance_points():
            amp = intro_amp(mu)
            qp = _qp(stationary_point(t, x), amp)
            tol = 2.0 * math.pi * 1e-9        # the criteria's own tol
            nsd = steepest_descent(amp, qp, t, tol)
            panel = integrate_quadratic(amp, qp, t, tol)
            worst = max(worst, abs(nsd.value - panel.value) / (2.0 * math.pi))
        assert worst <= 1e-9

    @pytest.mark.parametrize("mu1, mu2", [(0.3, 0.6), (0.7, 0.4)])
    @pytest.mark.parametrize("omega", [40.0, 30.0, 1e3])
    @pytest.mark.parametrize("p0", [-0.3, 0.0, 0.05, 0.5, 0.95, 1.0, 1.2])
    def test_agrees_with_panel_route_two_singular_ends(self, mu1, mu2, omega,
                                                       p0):
        # rays from either end into either valley, the saddle, paths from a
        # singular p2; where steepest descent sums [p1, p2] itself (w psi
        # varies by at most 9, as at w = 30 with p0 = 0.5), it takes equal
        # panels and the phase from each end, not the panel route's
        # pi-phase edges (test_segment_against_mpmath checks both)
        amp = catalog.amplitude("beta", mu1=mu1, mu2=mu2)
        qp = _qp(p0, amp, 0.1)
        nsd = steepest_descent(amp, qp, omega, 1e-10)
        panel = integrate_quadratic(amp, qp, omega, 1e-11)
        assert abs(nsd.value - panel.value) <= max(1e-10, nsd.abs_error_estimate)

    @pytest.mark.parametrize("mu1, mu2", [(0.3, 0.6), (0.7, 0.4)])
    @pytest.mark.parametrize("omega", [0.5, 3.0])
    @pytest.mark.parametrize("p0", [-0.3, 0.0, 0.05, 0.5, 0.95, 1.0, 1.2])
    def test_segment_against_mpmath(self, mu1, mu2, omega, p0):
        # w (p2 - p1)^2 <= 36: both routes sum [p1, p2] itself, so each is
        # checked against the 30-digit reference rather than the other
        amp = catalog.amplitude("beta", mu1=mu1, mu2=mu2)
        qp = _qp(p0, amp, 0.1)
        want = beta_quadratic_reference(mu1, mu2, p0, 0.1, omega)
        for ov in (steepest_descent(amp, qp, omega, 1e-10),
                   integrate_quadratic(amp, qp, omega, 1e-10)):
            assert abs(ov.value - want) <= max(1e-10, ov.abs_error_estimate)

    def test_continuous_across_near_switch(self):
        # c_1 = p0 sqrt(w) just below and just above 3: ray against
        # steepest descent path plus saddle
        amp = intro_amp(0.75)
        omega = 1e4
        lo, hi = (steepest_descent(amp, _qp(c / 100.0, amp, 0.0),
                                             omega, 1e-11)
                  for c in (3.0 * (1 - 1e-9), 3.0 * (1 + 1e-9)))
        assert abs(lo.value - hi.value) <= 1e-9

    def test_cost_flat_in_t_beyond_panel_budget(self):
        # intro, mu = 3/4, on G_1/4: the panel route refuses t = 1e7
        amp = intro_amp(0.75)
        counts = set()
        for t in (1e7, 1e8, 1e10):
            qp = _qp(t ** -0.25, amp)
            if t == 1e7:
                with pytest.raises(BudgetError):
                    integrate_quadratic(amp, qp, t, 2.0 * math.pi * 1e-9)
            ov = steepest_descent(amp, qp, t, 2.0 * math.pi * 1e-9)
            counts.add(ov.panel_count)
            res = expand_quadratic(amp, qp, t)
            assert abs(ov.value - res.leading_sum()) <= res.total_bound()
        assert len(counts) == 1

    def test_route_follows_analytic(self, monkeypatch):
        used = []
        for name in ("integrate_quadratic", "steepest_descent"):
            def record(*args, name=name, fn=getattr(schrodinger, name)):
                used.append(name)
                return fn(*args)
            monkeypatch.setattr(schrodinger, name, record)
        plain = SingularAmplitude(
            0.0, 1.0, 0.75, 1.0, u_tilde=lambda p: 1.0 - np.asarray(p),
            u_tilde_prime=lambda p: -ones(p), sup_norm_u=1.0,
            sobolev_norm_u=1.0)
        for amp in (plain, intro_amp(0.75)):
            setup = SchrodingerSetup(amp=amp, p1=0.0, p2=1.0, mu=0.75)
            evaluate_solution(setup, 100.0, 50.0)
        assert used == ["integrate_quadratic", "steepest_descent"]

    def test_domain(self):
        plain = SingularAmplitude(0.0, 1.0, 0.5, 1.0, ones, ones, 1.0, 1.0)
        amp = catalog.amplitude("fresnel")
        with pytest.raises(DomainError):
            steepest_descent(plain, _qp(0.5, plain), 10.0, 1e-9)
        for omega, tol in ((0.0, 1e-9), (math.inf, 1e-9), (10.0, math.nan),
                           (10.0, 1e-13)):
            with pytest.raises(DomainError):
                steepest_descent(amp, _qp(0.5, amp), omega, tol)


class TestVerifyCurve:
    def test_short_window_report(self, setup075):
        rep = verify_curve_expansion(setup075, 0.25,
                                     np.geomspace(1e2, 1e4, 9), tol=1e-9)
        assert rep.case == "mu>1/2"
        assert rep.predicted_exp == pytest.approx(-0.4375)
        assert rep.alpha > 0.4375
        assert len(rep.rows) == 9
        # residual decays strictly faster even on the short window
        assert rep.residual_fit.slope < rep.lead_fit.slope

    def test_rejects_time_below_threshold(self, setup075):
        with pytest.raises(DomainError):
            verify_curve_expansion(setup075, 0.25, [0.5, 1e2, 1e4, 1e5])


def test_decay_fit_validation():
    with pytest.raises(DomainError):
        DecayFit(slope=-0.5, intercept=0.0, max_residual=0.0, n_points=4)


@pytest.mark.parametrize("mu,eps", [
    (0.25, 0.25), (0.5, 0.1), (0.5, 0.25), (0.75, 0.1),
])
def test_decay_grid_invariant(mu, eps):
    # remaining (mu, eps) combinations of the decay grid; the acceptance
    # suite covers (0.75, 0.25), (0.5, 0.3) and (0.25, 0.1).  The curve
    # coefficient's modulus drifts with u~(p1 + t^-eps), which biases a raw
    # |u| fit by up to ~0.06 at small eps, so the known modulus is divided
    # out before fitting the exponent.
    setup = SchrodingerSetup(amp=intro_amp(mu), p1=0.0, p2=1.0, mu=mu)
    rep = verify_curve_expansion(setup, eps, np.geomspace(1e2, 1e6, 16))
    predicted = rep.predicted_exp
    # |u| / |coefficient|, the coefficient being |lead| / t^predicted
    fit = fit_decay([(t, u_abs * t ** predicted / abs(lead))
                     for t, _, _, lead, u_abs, _ in rep.rows])
    assert abs(fit.slope - predicted) <= 0.05
