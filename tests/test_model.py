import mpmath as mp
import numpy as np
import pytest

from stasis.errors import ConvergenceError, DomainError
from stasis.model import (PhaseModel, SingularAmplitude, _SideGeometry,
                          build_frame, k_limit_at_zero)

from conftest import beta_amp, intro_amp, ones, zeros


class TestSingularAmplitude:
    def test_interval_validation(self):
        with pytest.raises(DomainError):
            SingularAmplitude(1.0, 0.0, 0.5, 0.5, ones, zeros, 1.0, 1.0)

    def test_mu_range(self):
        with pytest.raises(DomainError):
            SingularAmplitude(0.0, 1.0, 1.5, 0.5, ones, zeros, 1.0, 1.0)

    def test_nonzero_at_singularity(self):
        f = lambda p: np.asarray(p, dtype=float)  # vanishes at p1 = 0
        with pytest.raises(DomainError):
            SingularAmplitude(0.0, 1.0, 0.5, 1.0, f, ones, 1.0, 1.0)

    def test_norm_lower_bound_check(self):
        with pytest.raises(DomainError):
            SingularAmplitude(0.0, 1.0, 0.5, 0.5, lambda p: 3.0 * ones(p),
                              zeros, 1.0, 1.0)
        with pytest.raises(DomainError):
            SingularAmplitude(0.0, 1.0, 0.5, 0.5, ones, zeros, 1.0, 0.5)

    def test_value(self):
        amp = beta_amp(0.5, 0.5)
        assert amp.value(0.5) == pytest.approx(2.0)


class TestPhaseModel:
    def test_psi_prime_factorization_checked(self):
        with pytest.raises(DomainError):
            PhaseModel(0.0, 1.0, 1.0, 1.0,
                       psi=lambda p: np.asarray(p, dtype=float),
                       psi_prime=lambda p: 2.0 * ones(p),  # inconsistent
                       psi_tilde=ones)

    @pytest.mark.parametrize("rho1", [0.5, np.nan, np.inf])
    def test_stationary_orders_checked(self, rho1):
        with pytest.raises(DomainError):
            PhaseModel(0.0, 1.0, rho1, 1.0,
                       psi=lambda p: np.asarray(p, dtype=float),
                       psi_prime=ones, psi_tilde=ones)

    def test_psi_tilde_positive(self):
        with pytest.raises(DomainError):
            PhaseModel(0.0, 1.0, 1.0, 1.0,
                       psi=lambda p: -np.asarray(p, dtype=float),
                       psi_prime=lambda p: -ones(p),
                       psi_tilde=lambda p: -ones(p))


class TestBuildFrame:
    def test_quadratic_side2(self, quadratic_left_phase):
        amp = intro_amp(0.75)
        amp = SingularAmplitude(0.0, 0.5, 0.75, 1.0, amp.u_tilde,
                                amp.u_tilde_prime, 1.0, 1.0)
        fr = build_frame(quadratic_left_phase, amp, 2, 0.25)
        assert fr.s_end == pytest.approx(0.25, rel=1e-13)
        assert fr.phi(0.3) == pytest.approx(0.2, rel=1e-12)
        assert fr.phi_inv(0.1) == pytest.approx(0.4, rel=1e-12)

    def test_quadratic_side1(self, quadratic_left_phase):
        amp = SingularAmplitude(0.0, 0.5, 0.75, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -ones(p), 1.0, 1.0)
        fr = build_frame(quadratic_left_phase, amp, 1, 0.25)
        # phi_1 = psi - psi(p1) = p - p^2
        assert fr.s_end == pytest.approx(0.25 - 0.0625, rel=1e-13)
        assert fr.phi(0.2) == pytest.approx(0.2 - 0.04, rel=1e-12)

    def test_identity_phase(self, linear_phase, bessel_amp):
        fr = build_frame(linear_phase, bessel_amp, 1, 0.5)
        assert fr.s_end == pytest.approx(0.5)
        s = np.linspace(0.0, 0.5, 11)
        assert np.allclose(fr.phi_inv(s), s, atol=1e-13)

    def test_q_outside_interval(self, linear_phase, bessel_amp):
        with pytest.raises(DomainError):
            build_frame(linear_phase, bessel_amp, 1, 1.5)

    def test_round_trip_invariant(self, linear_phase, convex_phase, bessel_amp):
        for phase in (linear_phase, convex_phase):
            for side in (1, 2):
                fr = build_frame(phase, bessel_amp, side, 0.4)
                s = np.linspace(0.0, fr.s_end, 64)
                err = np.abs(fr.phi(fr.phi_inv(s)) - s)
                assert err.max() <= 1e-12 * fr.s_end

    def test_monotonicity(self, convex_phase, bessel_amp):
        fr1 = build_frame(convex_phase, bessel_amp, 1, 0.6)
        fr2 = build_frame(convex_phase, bessel_amp, 2, 0.6)
        p1 = np.linspace(0.0, 0.6, 256)
        p2 = np.linspace(0.6, 1.0, 256)
        assert np.all(np.diff(fr1.phi(p1)) > 0)
        assert np.all(np.diff(fr2.phi(p2)) < 0)


class TestKLimit:
    def test_quadratic_side1_closed_form(self, quadratic_left_phase):
        # k_1(0) = (2(p0 - p1))^(-mu) u~(p1)
        mu = 0.75
        amp = SingularAmplitude(0.0, 0.5, mu, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -ones(p), 1.0, 1.0)
        got = k_limit_at_zero(quadratic_left_phase, amp, 1, 0.25)
        assert got == pytest.approx((2 * 0.5) ** (-mu) * 1.0, rel=1e-12)

    def test_quadratic_side2_closed_form(self, quadratic_left_phase):
        mu = 0.75
        amp = SingularAmplitude(0.0, 0.5, mu, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -ones(p), 1.0, 1.0)
        got = k_limit_at_zero(quadratic_left_phase, amp, 2, 0.25)
        # k_2(0) = -U(p0) = -(p0 - p1)^(mu-1) u~(p0)
        assert got == pytest.approx(-(0.5 ** (mu - 1.0)) * 0.5, rel=1e-12)

    def test_bessel_side1_is_one(self, linear_phase, bessel_amp):
        assert k_limit_at_zero(linear_phase, bessel_amp, 1, 0.5) \
            == pytest.approx(1.0, rel=1e-10)

    def test_numeric_limit_agreement_nontrivial(self, convex_phase):
        # rho = 1 but psi~ varies; numeric Richardson limit must agree
        amp = beta_amp(0.3, 0.7)
        for side in (1, 2):
            k0 = k_limit_at_zero(convex_phase, amp, side, 0.45)
            fr = build_frame(convex_phase, amp, side, 0.45)
            assert k0 == pytest.approx(fr.k_at_zero, rel=1e-13)

    def test_richardson_extrapolation_invariant(self, linear_phase):
        amp = beta_amp(0.4, 0.6)
        for side in (1, 2):
            fr = build_frame(linear_phase, amp, side, 0.5)
            ss = np.array([1e-4, 1e-5, 1e-6]) * fr.s_end
            kv = fr.k(ss)
            ell = []
            for m in range(3):
                num, den = 1.0, 1.0
                for n in range(3):
                    if n != m:
                        num *= 0.0 - ss[n]
                        den *= ss[m] - ss[n]
                ell.append(num / den)
            numeric = complex(kv @ np.asarray(ell))
            assert abs(numeric - fr.k_at_zero) <= 1e-8 * abs(fr.k_at_zero)


class TestKPrime:
    def test_against_difference_quotient(self, convex_phase):
        amp = beta_amp(0.35, 0.8)
        for side in (1, 2):
            fr = build_frame(convex_phase, amp, side, 0.5)
            for frac in (0.05, 0.3, 0.9):
                s = frac * fr.s_end
                h = 1e-6 * fr.s_end
                fd = (fr.k(s + h) - fr.k(s - h)) / (2 * h)
                assert fr.k_prime(s) == pytest.approx(fd, rel=5e-7)

    def test_exact_quadratic_side2(self, quadratic_left_phase):
        # k_2(s) = -(0.5 - s)^(mu-1) (0.5 + s) has an elementary derivative
        mu = 0.75
        amp = SingularAmplitude(0.0, 0.5, mu, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -ones(p), 1.0, 1.0)
        fr = build_frame(quadratic_left_phase, amp, 2, 0.25)
        for s in (0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.2499):
            expect = -((1 - mu) * (0.5 - s) ** (mu - 2) * (0.5 + s)
                       + (0.5 - s) ** (mu - 1))
            assert fr.k_prime(s) == pytest.approx(expect, rel=1e-9)

    def test_one_newton_solve_per_node(self, convex_phase, monkeypatch):
        # k and k' are closed forms at p = phi^-1(s): phi is inverted once
        # per node, at s = 0 and close to the endpoint as everywhere else
        fr = build_frame(convex_phase, beta_amp(0.35, 0.8), 1, 0.5)
        s = np.concatenate(([0.0], np.geomspace(1e-9, 1.0, 1000))) * fr.s_end
        inv_dist = _SideGeometry.inv_dist
        seen = []

        def counting(geo, ss):
            seen.append(np.size(ss))
            return inv_dist(geo, ss)

        monkeypatch.setattr(_SideGeometry, "inv_dist", counting)
        assert np.all(np.isfinite(fr.k(s)))
        assert sum(seen) == s.size
        assert np.all(np.isfinite(fr.k_prime(s)))
        assert sum(seen) == 2 * s.size

    def test_exact_fractional_order_side1(self, fractional_phase):
        # psi = (2/3) p^(3/2) makes phi_1(p) = p / c linear, c = 1.5^(2/3), so
        # beta(1/2, 1/2) gives k_1(s) = c^(1/2) (1 - c s)^(-1/2) in closed form
        fr = build_frame(fractional_phase, beta_amp(0.5, 0.5), 1, 0.5)
        c = 1.5 ** (2.0 / 3.0)
        s = np.linspace(0.01, fr.s_end, 400)
        expect = 0.5 * c ** 1.5 * (1.0 - c * s) ** -1.5
        assert np.max(np.abs(fr.k_prime(s) - expect)) <= 1e-10

    @pytest.mark.parametrize("q", (0.4, 0.05, 0.01))
    def test_exact_fractional_far_end_side2(self, fractional_phase, q):
        # side 2 has rho = 1, but psi'' = p^(-1/2) / 2 is singular at its far
        # end p1 = 0.  phi_2(p) = psi(1) - psi(p) inverts to
        # p = (1 - 1.5 s)^(2/3), so beta(1/2, 1/2) gives in closed form
        # k_2(s) = -(xi/s)^(-1/2) (1 - 1.5 s)^(-2/3), xi = 1 - (1 - 1.5 s)^(2/3)
        fr = build_frame(fractional_phase, beta_amp(0.5, 0.5), 2, q)
        third = mp.mpf(1) / 3

        def k(s):
            xi = 1 - (1 - 1.5 * s) ** (2 * third)
            return -(xi / s) ** -0.5 * (1 - 1.5 * s) ** (-2 * third)

        s = np.linspace(0.01, 1.0, 40) * fr.s_end
        with mp.workdps(40):
            expect = np.array([float(mp.diff(k, mp.mpf(x))) for x in s])
        rel = np.abs(fr.k_prime(s) - expect) / np.abs(expect)
        assert np.max(rel) <= 1e-10


def test_frame_convergence_error_carries_location(linear_phase, bessel_amp):
    fr = build_frame(linear_phase, bessel_amp, 1, 0.5)
    with pytest.raises(DomainError):
        fr.phi_inv(0.7)  # beyond s_end
    err = ConvergenceError("x", where=0.25)
    assert err.where == 0.25


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@given(mu1=st.floats(min_value=0.15, max_value=1.0),
       mu2=st.floats(min_value=0.15, max_value=1.0),
       q=st.floats(min_value=0.2, max_value=0.8),
       side=st.sampled_from([1, 2]),
       curved=st.booleans())
@settings(max_examples=40)
def test_frame_properties_random(mu1, mu2, q, side, curved):
    """Round trip, k(0) limit consistency and continuity of the closed-form
    k at s = 0 hold for random admissible amplitudes on both catalog
    phases."""
    if curved:
        phase = PhaseModel(
            0.0, 1.0, 1.0, 1.0,
            psi=lambda p: np.asarray(p, dtype=float)
            * (1.0 + np.asarray(p, dtype=float)),
            psi_prime=lambda p: 1.0 + 2.0 * np.asarray(p, dtype=float),
            psi_tilde=lambda p: 1.0 + 2.0 * np.asarray(p, dtype=float))
    else:
        phase = PhaseModel(0.0, 1.0, 1.0, 1.0,
                           psi=lambda p: np.asarray(p, dtype=float),
                           psi_prime=ones, psi_tilde=ones)
    amp = SingularAmplitude(
        0.0, 1.0, mu1, mu2,
        u_tilde=lambda p: 2.0 + np.cos(np.asarray(p, dtype=float)),
        u_tilde_prime=lambda p: -np.sin(np.asarray(p, dtype=float)),
        sup_norm_u=3.0, sobolev_norm_u=3.0)
    fr = build_frame(phase, amp, side, q)
    s = np.linspace(0.0, fr.s_end, 17)
    assert np.max(np.abs(fr.phi(fr.phi_inv(s)) - s)) <= 1e-12 * fr.s_end
    assert k_limit_at_zero(phase, amp, side, q) == pytest.approx(
        fr.k_at_zero, rel=1e-12)
    # k continuous at 0
    assert fr.k(1e-9 * fr.s_end) == pytest.approx(fr.k_at_zero, rel=1e-6)
