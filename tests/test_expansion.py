import dataclasses
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from stasis.errors import DomainError
from stasis.expansion import (PowerTerm, expand_integral, leading_term,
                              remainder_bound_r1, remainder_bound_r2,
                              weighted_kprime_integral)
from stasis.model import PhaseModel, SingularAmplitude, build_frame
from stasis.oracle import integrate_oscillatory

from conftest import beta_amp, intro_amp, ones
from reference import bessel_closed_form


class TestLeadingTerm:
    def test_fresnel_derived(self, linear_phase, fresnel_amp):
        # matches the rescaled full Fresnel limit at the left endpoint
        fr = build_frame(linear_phase, fresnel_amp, 1, 0.5)
        got = leading_term(fr).evaluate(4.0)
        want = math.sqrt(math.pi / 4.0) * np.exp(1j * math.pi / 4.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_quadratic_side1_printed_formula(self, quadratic_left_phase):
        mu = 0.6
        amp = SingularAmplitude(0.0, 0.5, mu, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -ones(p), 1.0, 1.0)
        fr = build_frame(quadratic_left_phase, amp, 1, 0.25)
        om = 37.0
        got = leading_term(fr).evaluate(om)
        gap = 0.5
        want = (math.gamma(mu) / 2 ** mu * np.exp(1j * math.pi * mu / 2)
                * np.exp(1j * om * 0.0) * 1.0 * gap ** (-mu) * om ** (-mu))
        assert got == pytest.approx(want, rel=1e-12)

    def test_omega_scaling_exact(self, linear_phase, bessel_amp):
        fr = build_frame(linear_phase, bessel_amp, 2, 0.5)
        lead = leading_term(fr)
        a1 = lead.evaluate(7.0)
        a2 = lead.evaluate(70.0)
        assert abs(a2) / abs(a1) == pytest.approx(10 ** (-0.5), rel=1e-13)

    def test_omega_domain(self, linear_phase, bessel_amp):
        fr = build_frame(linear_phase, bessel_amp, 1, 0.5)
        with pytest.raises(DomainError):
            leading_term(fr).evaluate(0.0)


class TestRemainderBounds:
    def test_r1_zero_for_constant_k(self, linear_phase):
        # U = p^(mu-1), psi = p: k is constant, so the R1 integrand vanishes
        amp = beta_amp(0.5, 1.0)
        fr = build_frame(linear_phase, amp, 1, 0.5)
        assert remainder_bound_r1(fr).value(10.0) <= 1e-14

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("rho1", [2.0, 1.5])
    def test_kprime_zero_to_rounding(self, fractional_phase, rho1, q):
        # U = p^(-1/2) on psi = p^2 or (2/3) p^(3/2): k_1 is constant, so k'
        # is zero to rounding, which the weighted sum must not chase to the
        # evaluation budget; side 2 (mu = 1, rho = 1) is then refused by name
        ph = fractional_phase if rho1 == 1.5 else PhaseModel(
            0.0, 1.0, 2.0, 1.0, psi=lambda p: np.asarray(p, dtype=float) ** 2,
            psi_prime=lambda p: 2.0 * np.asarray(p, dtype=float),
            psi_tilde=lambda p: 2.0 * ones(p))
        amp = beta_amp(0.5, 1.0)
        fr = build_frame(ph, amp, 1, q)
        assert weighted_kprime_integral(fr, -0.5) <= 1e-12
        with pytest.raises(DomainError, match="side 2: mu = 1 needs rho >= 2"):
            expand_integral(ph, amp, q, 10.0)

    def test_r1_quadratic_below_printed_bound(self, quadratic_left_phase):
        # the generic bound must undercut the coarser printed constants
        mu = 0.75
        amp = SingularAmplitude(0.0, 0.5, mu, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -ones(p), 1.0, 1.0)
        fr = build_frame(quadratic_left_phase, amp, 1, 0.25)
        om = 50.0
        got = remainder_bound_r1(fr).value(om)
        gap = 0.5
        printed = (2 ** (1 - mu) / mu * 1.0
                   * (2 * (2 - mu) * gap ** (mu - 2) + gap ** (mu - 1)) / om)
        assert 0.0 < got <= printed

    def test_r1_omega_scaling(self, linear_phase, bessel_amp):
        fr = build_frame(linear_phase, bessel_amp, 1, 0.5)
        r1 = remainder_bound_r1(fr)
        b1 = r1.value(10.0)
        b2 = r1.value(1000.0)
        # bound(w) * w^(1/rho) is constant in w
        assert b1 * 10.0 == pytest.approx(b2 * 1000.0, rel=1e-12)

    def test_r1_positive_for_bessel(self, linear_phase, bessel_amp):
        fr = build_frame(linear_phase, bessel_amp, 1, 0.5)
        assert remainder_bound_r1(fr).value(100.0) > 0.0

    def test_r1_mu1_branch_rate(self, quadratic_left_phase):
        amp = SingularAmplitude(0.0, 0.5, 0.75, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -ones(p), 1.0, 1.0)
        fr = build_frame(quadratic_left_phase, amp, 2, 0.25)  # mu = 1, rho = 2
        r1 = remainder_bound_r1(fr)
        assert r1.non_certified
        b = r1.value(10.0)
        assert b > 0.0
        # bound(w) * w^delta constant, delta = (gamma + 1)/rho = 0.75
        b2 = r1.value(100.0)
        assert b * 10.0 ** 0.75 == pytest.approx(b2 * 100.0 ** 0.75, rel=1e-12)

    def test_r2_vanishing_prefactor(self, linear_phase):
        amp = beta_amp(1.0, 0.5)  # mu1 = 1 with rho1 = 1
        fr = build_frame(linear_phase, amp, 1, 0.5)
        assert remainder_bound_r2(fr).value(10.0) == 0.0

    def test_r2_quadratic_printed_side1(self, quadratic_left_phase):
        mu = 0.75
        amp = SingularAmplitude(0.0, 0.5, mu, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -ones(p), 1.0, 1.0)
        fr = build_frame(quadratic_left_phase, amp, 1, 0.25)
        om = 25.0
        got = remainder_bound_r2(fr).value(om)
        gap = 0.5
        printed = (1 - mu) / 2 ** (mu - 2) * 1.0 * gap ** (mu - 4) * om ** (-2.0)
        assert 0.0 < got <= printed

    def test_r2_quadratic_printed_side2(self, quadratic_left_phase):
        mu = 0.75
        amp = SingularAmplitude(0.0, 0.5, mu, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -ones(p), 1.0, 1.0)
        fr = build_frame(quadratic_left_phase, amp, 2, 0.25)
        om = 25.0
        got = remainder_bound_r2(fr).value(om)
        gap = 0.5
        printed = math.sqrt(math.pi) / 2 ** (mu - 2) * gap ** (mu - 3) * om ** (-1.5)
        assert 0.0 < got <= printed

    def test_weighted_integral_incomplete_beta(self, linear_phase):
        # k'(s) = (1 - mu2)(1 - s)^(mu2 - 2) for U = p^(mu1-1)(1-p)^(mu2-1)
        amp = beta_amp(0.5, 0.6)
        fr = build_frame(linear_phase, amp, 1, 0.5)
        got = weighted_kprime_integral(fr, -0.5)
        from scipy.integrate import quad
        want, _ = quad(lambda s: s ** (-0.5) * 0.4 * (1 - s) ** (-1.4), 0, 0.5)
        assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("mu1, mu2, q", [(0.7, 0.6, 0.7), (0.7, 0.4, 0.5),
                                             (0.3, 0.6, 0.5)])
    def test_weighted_integral_kink_of_abs_kprime(self, convex_phase,
                                                  mu1, mu2, q):
        # psi = p + p^2, side 1: p = (sqrt(1 + 4s) - 1)/2 and
        # k(s) = (1 + p)^(1-mu1) (1 - p)^(mu2-1) / (1 + 2p) in closed form.
        # k' has a root inside (0, s_end), where |k'| has a kink; the panel
        # edge must sit on it, not merely near it
        from scipy.integrate import quad
        from scipy.optimize import brentq

        def k_prime(s):
            p = 0.5 * (math.sqrt(1.0 + 4.0 * s) - 1.0)
            k = (1 + p) ** (1 - mu1) * (1 - p) ** (mu2 - 1) / (1 + 2 * p)
            dk_dp = k * ((1 - mu1) / (1 + p) + (1 - mu2) / (1 - p)
                         - 2.0 / (1 + 2 * p))
            return dk_dp / (1 + 2 * p)

        fr = build_frame(convex_phase, beta_amp(mu1, mu2), 1, q)
        root = brentq(k_prime, 1e-9, fr.s_end, xtol=1e-15)
        head, _ = quad(lambda s: abs(k_prime(s)), 0.0, root, weight="alg",
                       wvar=(mu1 - 1.0, 0.0), epsabs=0.0, epsrel=1e-13)
        tail, _ = quad(lambda s: s ** (mu1 - 1.0) * abs(k_prime(s)), root,
                       fr.s_end, epsabs=0.0, epsrel=1e-13)
        got = weighted_kprime_integral(fr, mu1 - 1.0)
        assert got == pytest.approx(head + tail, rel=1e-10)

    @pytest.mark.parametrize("mu1", [0.5, 0.95])
    def test_weighted_integral_short_singular_side(self, linear_phase, mu1):
        # side 2 of beta(mu1, 0.15) at q = 0.999: the weight s^-0.85 against
        # k'(s) = (1 - mu1)(1 - s)^(mu1 - 2) on s < 1e-3, where the nodes
        # nearest s = 0 have p2 - xi rounding to p2.  In u = s^0.15 the
        # reference integrand (1 - mu1)/0.15 (1 - u^(1/0.15))^(mu1 - 2) is
        # smooth; a plain quadrature in s is good to about 1e-6 only
        fr = build_frame(linear_phase, beta_amp(mu1, 0.15), 2, 0.999)
        a = mpmath.mpf(0.15)
        want = (1 - mu1) / a * mpmath.quad(
            lambda u: (1 - u ** (1 / a)) ** (mu1 - 2),
            [0, mpmath.mpf(fr.s_end) ** a])
        got = weighted_kprime_integral(fr, fr.mu - 1.0)
        assert got == pytest.approx(float(want), rel=1e-10)


class TestExpandIntegral:
    def test_bessel_leading_terms(self, linear_phase, bessel_amp):
        om = 100.0
        res = expand_integral(linear_phase, bessel_amp, 0.5, om)
        a1, a2 = (t.evaluate(om) for t in res.leading)
        assert a1 == pytest.approx(
            math.sqrt(math.pi / om) * np.exp(1j * math.pi / 4), rel=1e-12)
        assert a2 == pytest.approx(
            math.sqrt(math.pi / om) * np.exp(1j * (om - math.pi / 4)), rel=1e-12)
        ov = integrate_oscillatory(linear_phase, bessel_amp, om, 1e-10)
        assert abs(ov.value - res.leading_sum()) <= res.total_bound()
        assert abs(ov.value - bessel_closed_form(om)) < 1e-9

    def test_linearity_in_amplitude(self, linear_phase):
        amp1 = beta_amp(0.4, 0.7)
        amp3 = SingularAmplitude(0.0, 1.0, 0.4, 0.7,
                                 lambda p: 3.0 * ones(p),
                                 lambda p: 0.0 * ones(p), 3.0, 3.0)
        r1 = expand_integral(linear_phase, amp1, 0.5, 20.0)
        r3 = expand_integral(linear_phase, amp3, 0.5, 20.0)
        for t1, t3 in zip(r1.leading, r3.leading):
            assert t1.omega_exp == t3.omega_exp and t1.phase == t3.phase
            assert t3.coeff == pytest.approx(3.0 * t1.coeff, rel=1e-12)
        assert r3.total_bound() == pytest.approx(3.0 * r1.total_bound(),
                                                 rel=1e-8)

    def test_phase_shift_invariance(self, bessel_amp):
        # shifting psi by a constant rotates leading terms, bounds unchanged
        from stasis.model import PhaseModel
        shift = 2.31
        shifted = PhaseModel(0.0, 1.0, 1.0, 1.0,
                             psi=lambda p: np.asarray(p, dtype=float) + shift,
                             psi_prime=ones, psi_tilde=ones)
        plain = PhaseModel(0.0, 1.0, 1.0, 1.0,
                           psi=lambda p: np.asarray(p, dtype=float),
                           psi_prime=ones, psi_tilde=ones)
        om = 13.0
        r0 = expand_integral(plain, bessel_amp, 0.5, om)
        r1 = expand_integral(shifted, bessel_amp, 0.5, om)
        rot = np.exp(1j * om * shift)
        for t0, t1 in zip(r0.leading, r1.leading):
            assert t1.evaluate(om) == pytest.approx(rot * t0.evaluate(om),
                                                    rel=1e-12)
        assert r1.total_bound() == pytest.approx(r0.total_bound(), rel=1e-9)

    def test_cut_independence_of_leading_terms(self, convex_phase):
        amp = beta_amp(0.3, 0.6)
        ra = expand_integral(convex_phase, amp, 0.3, 40.0)
        rb = expand_integral(convex_phase, amp, 0.7, 40.0)
        for ta, tb in zip(ra.leading, rb.leading):
            assert ta.omega_exp == tb.omega_exp
            assert ta.evaluate(40.0) == pytest.approx(tb.evaluate(40.0),
                                                      rel=1e-12)

    def test_rate_ordering(self, linear_phase, convex_phase):
        from stasis.expansion import check_rate_ordering
        amp = beta_amp(0.3, 0.6)
        for phase in (linear_phase, convex_phase):
            res = expand_integral(phase, amp, 0.5, 10.0)
            assert check_rate_ordering(res)
            for bt in res.bound_terms:
                assert bt.omega_exp >= 1.0  # 1/rho with rho = 1
        # a certified bound no faster than its side's leading term fails
        slow = PowerTerm(1.0, omega_exp=0.3, origin="r1_side1")
        assert not check_rate_ordering(
            dataclasses.replace(res, bound_terms=res.bound_terms + (slow,)))
        assert check_rate_ordering(dataclasses.replace(
            res, bound_terms=(dataclasses.replace(slow, non_certified=True),)))

    def test_rejects_mu1_rho1(self, linear_phase, fresnel_amp):
        with pytest.raises(DomainError):
            expand_integral(linear_phase, fresnel_amp, 0.5, 10.0)

    @pytest.mark.parametrize("q", [1e-8, 1e-12, 1e-16, 1e-30, 1e-300,
                                   1.0 - 1e-8, 1.0 - 1e-12])
    def test_cut_near_an_endpoint_named(self, linear_phase, q):
        # refused by name, with no numpy warning first
        with pytest.raises(DomainError, match=re.escape(f"q={q}")):
            expand_integral(linear_phase, beta_amp(0.3, 0.6), q, 1.0)

    @pytest.mark.parametrize("q", [1e-6, 0.999])
    def test_cut_near_an_endpoint_computes(self, linear_phase, q):
        res = expand_integral(linear_phase, beta_amp(0.3, 0.6), q, 1.0)
        assert math.isfinite(res.total_bound())


def test_fractional_stationary_order_end_to_end():
    # rho = 3/2 at the left endpoint: bounds must still dominate the
    # observed remainder and both oracles must agree
    from stasis.oracle import integrate_oscillatory, reconstruct_total
    from stasis.model import PhaseModel
    ph = PhaseModel(0.0, 1.0, 1.5, 1.0,
                    psi=lambda p: (2.0 / 3.0) * np.asarray(p, dtype=float) ** 1.5,
                    psi_prime=lambda p: np.asarray(p, dtype=float) ** 0.5,
                    psi_tilde=ones)
    amp = beta_amp(0.5, 0.5)
    for om in (5.0, 500.0):
        res = expand_integral(ph, amp, 0.5, om)
        ov = integrate_oscillatory(ph, amp, om, 1e-10)
        assert abs(ov.value - res.leading_sum()) <= res.total_bound()
        rec = reconstruct_total(ph, amp, om, 0.4, 1e-10)
        assert abs(rec.value - ov.value) <= 1e-9
    fr = build_frame(ph, amp, 1, 0.5)
    lead = leading_term(fr)
    ratio = abs(lead.evaluate(80.0)) / abs(lead.evaluate(8.0))
    assert ratio == pytest.approx(10.0 ** (-0.5 / 1.5), rel=1e-12)


class TestOmegaFree:
    """One build evaluates at every omega: the same numbers as a fresh
    build there, for arrays as for scalars."""

    OMEGAS = np.geomspace(0.7, 3e4, 9)

    def _check(self, build):
        res = build(10.0)
        for w in self.OMEGAS:
            fresh = build(float(w))
            assert res.leading_sum(w) == pytest.approx(fresh.leading_sum(),
                                                       rel=1e-12)
            for cert in (False, True):
                assert res.total_bound(w, certified_only=cert) == \
                    pytest.approx(fresh.total_bound(certified_only=cert),
                                  rel=1e-12)
        # arrays: the scalar loop to rounding
        lead = res.leading_sum(self.OMEGAS)
        bound = res.total_bound(self.OMEGAS)
        assert lead.shape == bound.shape == self.OMEGAS.shape
        np.testing.assert_allclose(
            lead, [res.leading_sum(float(w)) for w in self.OMEGAS],
            rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(
            bound, [res.total_bound(float(w)) for w in self.OMEGAS],
            rtol=1e-14, atol=0.0)

    def test_linear_phase(self, linear_phase):
        # psi(p2) = 1: the side-2 term rotates with omega
        amp = beta_amp(0.5, 0.6)
        self._check(lambda w: expand_integral(linear_phase, amp, 0.5, w))

    def test_quadratic_phase_with_offset(self):
        from stasis.quadratic import QuadraticPhase, expand_quadratic
        amp = intro_amp(0.6)
        qp = QuadraticPhase(p0=0.4, c=0.7, p1=0.0, p2=1.0)
        self._check(lambda w: expand_quadratic(amp, qp, w))


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
def test_omega_domain(omega, linear_phase, bessel_amp):
    from stasis.quadratic import QuadraticPhase, expand_quadratic
    fr = build_frame(linear_phase, bessel_amp, 1, 0.5)
    amp = intro_amp(0.6)
    qp = QuadraticPhase(p0=0.4, c=0.7, p1=0.0, p2=1.0)
    res = expand_integral(linear_phase, bessel_amp, 0.5, 10.0)
    quad = expand_quadratic(amp, qp, 10.0)
    calls = [
        leading_term(fr).evaluate,
        remainder_bound_r1(fr).value,
        remainder_bound_r2(fr).value,
        lambda w: expand_integral(linear_phase, bessel_amp, 0.5, w),
        lambda w: expand_quadratic(amp, qp, w),
        quad.leading[0].coeff_at,
    ]
    for r in (res, quad):
        calls += [r.leading_sum, r.total_bound,
                  lambda w, r=r: r.total_bound(w, certified_only=True)]
    for call in calls:
        for w in (omega, np.array([1.0, omega, 10.0])):
            with pytest.raises(DomainError):
                call(w)


def test_overflowing_term_named(linear_phase):
    # w^(-2) at w = 1e-300, and gap^(-(4 - mu)) at gap = 1e-300, pass every
    # float: DomainError by name, not OverflowError or a numpy warning
    from stasis import catalog
    from stasis.quadratic import QuadraticPhase, expand_quadratic
    res = expand_integral(catalog.phase("linear-convex"), beta_amp(0.3, 0.6),
                          0.5, 10.0)
    for w in (1e-300, np.array([1e-300, 1.0])):
        with pytest.raises(DomainError, match="omega="):
            res.total_bound(w)
    quad = expand_quadratic(intro_amp(0.75),
                            QuadraticPhase(1e-300, 0.0, 0.0, 1.0), 10.0)
    with pytest.raises(DomainError, match="gap=1e-300"):
        quad.total_bound()


def test_coeff_at_names_omega():
    # w * phase = 1e308 * 9.91 passes every float: exp(1j w phase) would
    # be nan with a numpy warning, for a scalar and an array omega alike
    from stasis.quadratic import QuadraticPhase, expand_quadratic
    quad = expand_quadratic(intro_amp(0.75),
                            QuadraticPhase(0.3, 10.0, 0.0, 1.0), 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in (1e308, np.array([1.0, 1e308])):
            with pytest.raises(DomainError, match="omega="):
                quad.leading[1].coeff_at(w)


def test_power_term_validation():
    with pytest.raises(DomainError):
        PowerTerm(coeff=math.inf, omega_exp=1.0)
    pt = PowerTerm(coeff=2.0, omega_exp=1.0, gap_exp=0.5)
    assert pt.value(4.0, gap=0.25) == pytest.approx(2.0 * 0.25 ** -0.5 / 4.0)


def test_every_export_resolves():
    import importlib
    import pkgutil

    import stasis
    modules = [stasis] + [importlib.import_module(f"stasis.{m.name}")
                          for m in pkgutil.iter_modules(stasis.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
