import math

import numpy as np
import pytest

from stasis.errors import DomainError
from stasis.model import SingularAmplitude
from stasis.quadratic import QuadraticPhase
from stasis.schrodinger import (DecayFit, SchrodingerSetup, coefficient_bounds,
                                curve_coefficients, curve_point,
                                evaluate_solution, fit_decay,
                                integrate_quadratic, predicted_exponents,
                                region_contains, stationary_point,
                                supremum_scan, threshold_time,
                                verify_curve_expansion)
from stasis.specfun import gamma_pos

from conftest import intro_amp, ones


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

    def test_domain_checks(self, setup075):
        with pytest.raises(DomainError):
            evaluate_solution(setup075, -1.0, 0.0)
        with pytest.raises(DomainError):
            evaluate_solution(setup075, 1.0, 0.0, tol=1e-12)
        for n_x in (0, -1):
            with pytest.raises(DomainError):
                supremum_scan(setup075, 100.0, n_x=n_x)


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
            curve_coefficients(setup, 0.25, 1.5)
        assert not region_contains(setup, 0.25, *curve_point(setup, 0.25, 1.5))
        curve_coefficients(setup, 0.25, 16.5)

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
    def test_h_modulus_intro(self, setup075):
        for t in (10.0, 1e4):
            h, _ = curve_coefficients(setup075, 0.25, t)
            want = (1.0 - t ** (-0.25)) / (2.0 * math.sqrt(math.pi))
            assert abs(h) == pytest.approx(want, rel=1e-13)

    def test_k_value_intro(self, setup075):
        mu = 0.75
        _, k = curve_coefficients(setup075, 0.25, 100.0)
        # psi(p1) = 0 and u~(0) = 1 for the intro example... the K phase
        # e^(i t psi(p1)) is trivial only when p1 = 0
        want = (gamma_pos(mu) / (2 ** (mu + 1) * math.pi)
                * np.exp(1j * math.pi * mu / 2))
        assert k == pytest.approx(want, rel=1e-13)

    def test_uniform_bounds(self, setup075):
        r_h, r_k = coefficient_bounds(setup075)
        for t in np.geomspace(2.0, 1e6, 17):
            h, k = curve_coefficients(setup075, 0.25, t)
            assert abs(h) <= r_h * (1 + 1e-12)
            assert abs(k) <= r_k * (1 + 1e-12)

    def test_threshold_enforced(self, setup075):
        # T_p2 = (p2 - p1)^(-1/eps) = 1
        with pytest.raises(DomainError):
            curve_coefficients(setup075, 0.25, 0.05)


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

    def test_split_independence_of_interior_cut(self, setup075):
        # same integral, split at p0 vs integrated as two explicit halves
        qp = QuadraticPhase(p0=0.37, c=0.37 ** 2, p1=0.0, p2=1.0)
        a = integrate_quadratic(setup075.amp, qp, 200.0, 1e-10)
        b = integrate_quadratic(setup075.amp, qp, 200.0, 1e-11)
        assert abs(a.value - b.value) <= 2e-10


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
    from stasis.schrodinger import (curve_coefficients, curve_point,
                                    evaluate_solution)
    from stasis.schrodinger import predicted_exponents as pe
    predicted, case = pe(mu, eps)
    samples = []
    for t in np.geomspace(1e2, 1e6, 16):
        _, x = curve_point(setup, eps, float(t))
        u = evaluate_solution(setup, float(t), x, 1e-9)
        h, k = curve_coefficients(setup, eps, float(t))
        coeff = {"mu>1/2": h, "mu<1/2": k, "mu=1/2": h + k}[case]
        samples.append((float(t), abs(u) / abs(coeff)))
    fit = fit_decay(samples)
    assert abs(fit.slope - predicted) <= 0.05
