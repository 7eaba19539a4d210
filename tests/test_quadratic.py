import cmath
import math

import numpy as np
import pytest

from stasis.errors import DomainError
from stasis.quadratic import (CurveExponents, QuadraticPhase, curve_exponents,
                              expand_quadratic, quadratic_remainder_terms,
                              resolve_delta)
from stasis.specfun import gamma_pos

from conftest import intro_amp
from panel_route import integrate_quadratic


def _enumerate_alpha_beta(mu, eps, delta):
    """Independent enumeration of the curve exponents from the printed
    (gap, omega) pairs; kept separate from the implementation."""
    gamma = 2.0 * delta - 1.0
    side1 = [(2 - mu, 1.0), (1 - mu, 1.0), (4 - mu, 2.0),
             (1 + gamma - mu, delta), (gamma - mu, delta), (3 - mu, 1.5)]
    side2 = [(2 - mu, delta), (1 - mu, delta)]
    alpha = -max(eps * g - w for g, w in side1)
    beta = -max(eps * g - w for g, w in side2)
    return alpha, beta


def leading_coefficients(amp, qp, omega):
    """(K, H1, H2) at omega: the coefficients of expand_quadratic's leading
    terms with their phases e^(i w psi(p1)), e^(i w c)."""
    return tuple(t.coeff_at(omega)
                 for t in expand_quadratic(amp, qp, omega).leading)


class TestCoefficients:
    def test_intro_k_formula(self):
        # K/(2 pi) at u~(0) = 1 equals Gamma(mu)/(2^(mu+1) pi) e^(i pi mu/2)
        mu = 0.6
        amp = intro_amp(mu)
        qp = QuadraticPhase(p0=0.5, c=0.25, p1=0.0, p2=1.0)
        k, h1, h2 = leading_coefficients(amp, qp, 10.0)
        # psi(p1) = 0 for this qp, so the omega phase is trivial
        want = (gamma_pos(mu) / (2 ** (mu + 1) * math.pi)
                * cmath.exp(1j * math.pi * mu / 2))
        assert k / (2 * math.pi) == pytest.approx(want, rel=1e-13)

    def test_h_moduli_equal(self):
        amp = intro_amp(0.3)
        qp = QuadraticPhase(p0=0.4, c=1.7, p1=0.0, p2=1.0)
        _, h1, h2 = leading_coefficients(amp, qp, 123.0)
        assert abs(h1) == abs(h2)
        assert abs(h1) == pytest.approx(math.sqrt(math.pi) / 2 * abs(1 - 0.4),
                                        rel=1e-13)

    def test_scaling_linearity(self):
        amp1 = intro_amp(0.5)
        from stasis.model import SingularAmplitude
        amp3 = SingularAmplitude(
            0.0, 1.0, 0.5, 1.0,
            u_tilde=lambda p: 3.0 * (1.0 - np.asarray(p, dtype=float)),
            u_tilde_prime=lambda p: -3.0 * np.ones_like(np.asarray(p, dtype=float)),
            sup_norm_u=3.0, sobolev_norm_u=3.0)
        qp = QuadraticPhase(p0=0.5, c=0.25, p1=0.0, p2=1.0)
        for a, b in zip(leading_coefficients(amp1, qp, 10.0),
                        leading_coefficients(amp3, qp, 10.0)):
            assert b == pytest.approx(3.0 * a, rel=1e-13)


class TestRemainderTerms:
    def test_printed_exponents_mu075(self):
        side1, side2 = quadratic_remainder_terms(intro_amp(0.75), 0.875)
        assert [t.omega_exp for t in side1] == [1.0, 1.0, 2.0, 0.875, 0.875, 1.5]
        assert [round(t.gap_exp, 10) for t in side1] == \
            [1.25, 0.25, 3.25, 1.0, 0.0, 2.25]
        assert [t.omega_exp for t in side2] == [0.875, 0.875]
        assert [round(t.gap_exp, 10) for t in side2] == [1.25, 0.25]

    def test_printed_coefficient_4mu2(self):
        side1, _ = quadratic_remainder_terms(intro_amp(0.5), 0.75)
        term = [t for t in side1 if t.gap_exp == 3.5][0]
        assert abs(term.coeff) == pytest.approx((1 - 0.5) / 2 ** (0.5 - 2),
                                                rel=1e-13)

    def test_l_terms_flagged(self):
        side1, side2 = quadratic_remainder_terms(intro_amp(0.4), 0.8)
        assert sum(t.non_certified for t in side1) == 2
        assert all(t.non_certified for t in side2)

    def test_delta_domain(self):
        with pytest.raises(DomainError):
            quadratic_remainder_terms(intro_amp(0.75), 0.8)  # below (mu+1)/2
        with pytest.raises(DomainError):
            quadratic_remainder_terms(intro_amp(0.5), 1.0)


class TestCurveExponents:
    def test_derived_example_mu075(self):
        ce = curve_exponents(0.75, 0.25, 0.875)
        assert ce.alpha == pytest.approx(0.625, abs=1e-12)
        assert ce.beta == pytest.approx(0.5625, abs=1e-12)
        assert ce.lead_mu_exp == pytest.approx(-0.5625, abs=1e-12)
        assert ce.lead_half_exp == pytest.approx(-0.4375, abs=1e-12)
        side1_candidates = sorted(
            0.25 * g - w for g, w in
            [(1.25, 1), (0.25, 1), (3.25, 2), (1.0, 0.875), (0.0, 0.875),
             (2.25, 1.5)])
        assert side1_candidates[0] == pytest.approx(-1.1875)
        assert side1_candidates[-1] == pytest.approx(-0.625)

    def test_derived_example_mu025(self):
        ce = curve_exponents(0.25, 0.1, 0.625)
        assert ce.alpha == pytest.approx(0.525, abs=1e-12)
        assert -ce.alpha < min(-0.225, -0.425)

    def test_matches_independent_enumeration(self):
        for mu in (0.2, 0.5, 0.8):
            for delta in (0.62, 0.75, 0.9):
                if delta < (mu + 1) / 2:
                    continue
                for eps in (0.05, 0.1):
                    if not eps < delta - 0.5:
                        continue
                    a, b = _enumerate_alpha_beta(mu, eps, delta)
                    ce = curve_exponents(mu, eps, delta)
                    assert ce.alpha == pytest.approx(a, abs=1e-13)
                    assert ce.beta == pytest.approx(b, abs=1e-13)

    def test_eps_domain_error(self):
        with pytest.raises(DomainError):
            curve_exponents(0.75, 0.375, 0.875)  # eps = delta - 1/2 exactly

    def test_min_gap_monotone_to_zero(self):
        delta = 0.875
        epss = np.linspace(0.01, delta - 0.5 - 1e-4, 24)
        gaps = [curve_exponents(0.75, e, delta).min_gap for e in epss]
        assert all(np.diff(gaps) < 0)
        assert gaps[-1] < 1e-3


class TestResolveDelta:
    def test_default_smallest(self):
        assert resolve_delta(0.75) == pytest.approx(0.875)

    def test_raised_for_large_eps(self):
        d = resolve_delta(0.5, 0.3)
        assert 0.3 < d - 0.5 and d < 1.0

    def test_eps_too_large(self):
        with pytest.raises(DomainError):
            resolve_delta(0.5, 0.5)


class TestExpandQuadratic:
    def test_oracle_bound_validity(self):
        amp = intro_amp(0.75)
        qp = QuadraticPhase(p0=0.5, c=0.25, p1=0.0, p2=1.0)
        for om in (100.0, 1e4):
            res = expand_quadratic(amp, qp, om)
            ov = integrate_quadratic(amp, qp, om, 1e-10)
            resid = abs(ov.value - res.leading_sum())
            assert resid <= res.total_bound(certified_only=True)
            assert res.has_non_certified()

    def test_leading_structure(self):
        amp = intro_amp(0.6)
        qp = QuadraticPhase(p0=0.3, c=0.09, p1=0.0, p2=1.0)
        res = expand_quadratic(amp, qp, 50.0)
        assert [-t.omega_exp for t in res.leading] == [-0.6, -0.5, -0.5]
        assert res.q_used == pytest.approx(0.15)
        assert res.gap == pytest.approx(0.3)

    def test_no_blowup_towards_regular_endpoint(self):
        # no (p2 - p0) factor appears in any bound term
        amp = intro_amp(0.75)
        bounds = []
        for p0 in (0.5, 0.9, 0.999, 0.999999):
            qp = QuadraticPhase(p0=p0, c=0.0, p1=0.0, p2=1.0)
            res = expand_quadratic(amp, qp, 100.0)
            bounds.append(res.total_bound())
        assert all(np.isfinite(bounds))
        assert max(bounds) <= 2.0 * min(bounds)

    def test_gap_halving_power_law(self):
        amp = intro_amp(0.75)
        om = 1000.0
        term = lambda res: [bt for bt in res.bound_terms
                            if bt.gap_exp == pytest.approx(3.25)][0]
        r1 = expand_quadratic(amp, QuadraticPhase(0.4, 0.0, 0.0, 1.0), om)
        r2 = expand_quadratic(amp, QuadraticPhase(0.2, 0.0, 0.0, 1.0), om)
        v1 = term(r1).value(om, r1.gap)
        v2 = term(r2).value(om, r2.gap)
        assert v2 / v1 == pytest.approx(2.0 ** 3.25, rel=1e-12)

    def test_rejects_exterior_p0(self):
        amp = intro_amp(0.5)
        with pytest.raises(DomainError):
            expand_quadratic(amp, QuadraticPhase(1.5, 0.0, 0.0, 1.0), 10.0)

    def test_rejects_a_phase_on_another_band(self):
        # p0 = 0.3 lies inside the phase's band [0.2, 5], but the integral
        # runs over the amplitude's [0, 1]: there is nothing to expand
        amp = intro_amp(0.75)
        with pytest.raises(DomainError, match="share the interval"):
            expand_quadratic(amp, QuadraticPhase(0.3, 0.09, 0.2, 5.0), 100.0)


def test_curve_exponents_invariant_enforced():
    with pytest.raises(DomainError):
        CurveExponents(eps=0.3, delta=0.875, lead_mu_exp=-0.5,
                       lead_half_exp=-0.4, alpha=0.3, beta=0.9)


def test_observed_remainder_slope_on_curve():
    # on p0 = p1 + w^-eps the observed remainder must decay at least as
    # fast as w^-alpha (up to fit scatter)
    from stasis.schrodinger import fit_decay
    mu, eps = 0.75, 0.25
    amp = intro_amp(mu)
    ce = curve_exponents(mu, eps, 0.875)
    samples = []
    for om in np.geomspace(1e2, 1e6, 12):
        p0 = om ** (-eps)
        qp = QuadraticPhase(p0=p0, c=p0 * p0, p1=0.0, p2=1.0)
        res = expand_quadratic(amp, qp, om)
        ov = integrate_quadratic(amp, qp, om, 1e-10)
        samples.append((om, abs(ov.value - res.leading_sum())))
    fit = fit_decay(samples)
    assert fit.slope <= -ce.alpha + 0.05, \
        f"remainder slope {fit.slope:.3f} slower than -alpha={-ce.alpha}"
