import collections
import dataclasses

import mpmath as mp
import numpy as np
import pytest

from stasis import catalog
from stasis.errors import ConvergenceError, DomainError
from stasis.model import PhaseModel, SingularAmplitude, build_frame
from stasis.oracle import reconstruct_total

from conftest import beta_amp, intro_amp, ones, zeros
from reference import beta_dk_dxi_reference


def at_xi(fr, xi):
    """p = p_j +- xi on the frame's side."""
    return fr.endpoint + fr.sign * np.asarray(xi, dtype=float)


def k_of_s(fr, p):
    """(s, k_j(s)) at s = phi_j(p)."""
    return fr.phi(p), fr.phi_y_k_dk(p)[2]


def k_prime_of_s(fr, p):
    """(s, k_j'(s)) at s = phi_j(p): k_j'(s) = d/dxi k_j(phi_j(p)) /
    |phi_j'(p)|."""
    return fr.phi(p), fr.dk_dxi(p) / np.abs(fr.phi_prime(p))


def numeric_k0(fr):
    """k_j(0) by quadratic Lagrange extrapolation from the s that
    xi in {1e-4, 1e-5, 1e-6} * |q - p_j| give."""
    ss, ks = k_of_s(fr, at_xi(fr, np.array([1e-4, 1e-5, 1e-6]) * fr.hi_dist))
    ell = []
    for m in range(3):
        num, den = 1.0, 1.0
        for n in range(3):
            if n != m:
                num *= 0.0 - ss[n]
                den *= ss[m] - ss[n]
        ell.append(num / den)
    return complex(ks @ np.asarray(ell))


def assert_grid_is_phi(fr):
    """phi_grid is phi at p_j +- xi_grid to 1e-12 s_end, ends at s_end and
    is strictly increasing."""
    err = np.abs(fr.phi(at_xi(fr, fr.xi_grid)) - fr.phi_grid)
    assert err.max() <= 1e-12 * fr.s_end
    assert abs(fr.phi_grid[-1] - fr.s_end) <= 1e-12 * fr.s_end
    assert np.all(np.diff(fr.phi_grid) > 0)


def k0_checked(phase, amp, side, q):
    """frame.k_at_zero, checked against the numeric limit to 1e-8."""
    fr = build_frame(phase, amp, side, q)
    assert abs(numeric_k0(fr) - fr.k_at_zero) <= 1e-8 * abs(fr.k_at_zero)
    return fr.k_at_zero


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

    @pytest.mark.parametrize("fixture, poly", [
        ("linear_phase", (0.0, 1.0, 0.0)), ("convex_phase", (0.0, 1.0, 1.0)),
        ("quadratic_left_phase", (0.0, 1.0, -1.0))])
    def test_poly_derived(self, request, fixture, poly):
        ph = request.getfixturevalue(fixture)
        assert ph.poly == poly
        assert all(type(c) is float for c in ph.poly)

    def test_poly_off_the_origin(self):
        # psi = p^2 + 0.4 p - 7 on [0.3, 1.7]
        slope = lambda p: 2.0 * np.asarray(p, dtype=float) + 0.4  # noqa: E731
        ph = PhaseModel(0.3, 1.7, 1.0, 1.0,
                        psi=lambda p: np.asarray(p, dtype=float) ** 2
                        + 0.4 * np.asarray(p, dtype=float) - 7.0,
                        psi_prime=slope, psi_tilde=slope)
        assert ph.poly == pytest.approx((-7.0, 0.4, 1.0), abs=1e-13)

    def test_no_poly_for_other_phases(self, fractional_phase):
        assert fractional_phase.poly is None
        sinh = PhaseModel(0.0, 1.0, 1.0, 1.0, psi=np.sinh, psi_prime=np.cosh,
                          psi_tilde=np.cosh)
        assert sinh.poly is None

    @pytest.mark.parametrize("psi, slope", [
        # psi' is 1, psi is p + 1e-9 p^2
        (lambda p: p + 1e-9 * p * p, ones),
        # psi is p, psi' is 1 + 2e-9 p
        (lambda p: np.asarray(p, dtype=float),
         lambda p: 1.0 + 2e-9 * np.asarray(p, dtype=float))])
    def test_no_poly_when_psi_and_slope_disagree(self, psi, slope):
        assert PhaseModel(0.0, 1.0, 1.0, 1.0, psi=psi, psi_prime=slope,
                          psi_tilde=slope).poly is None

    def test_poly_not_settable(self, linear_phase):
        with pytest.raises(ValueError, match="poly"):
            dataclasses.replace(linear_phase, poly=(0.0, 2.0, 0.0))
        with pytest.raises(TypeError):
            PhaseModel(0.0, 1.0, 1.0, 1.0, psi=ones, psi_prime=ones,
                       psi_tilde=ones, poly=(0.0, 1.0, 0.0))


class TestBuildFrame:
    def test_quadratic_side2(self, quadratic_left_phase):
        amp = intro_amp(0.75)
        amp = SingularAmplitude(0.0, 0.5, 0.75, 1.0, amp.u_tilde,
                                amp.u_tilde_prime, 1.0, 1.0)
        fr = build_frame(quadratic_left_phase, amp, 2, 0.25)
        assert fr.s_end == pytest.approx(0.25, rel=1e-13)
        assert fr.phi(0.3) == pytest.approx(0.2, rel=1e-12)
        assert fr.phi(0.4) == pytest.approx(0.1, rel=1e-12)

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
        assert np.allclose(fr.phi(s), s, atol=1e-13)

    def test_q_outside_interval(self, linear_phase, bessel_amp):
        with pytest.raises(DomainError):
            build_frame(linear_phase, bessel_amp, 1, 1.5)

    def test_forward_invariant(self, linear_phase, convex_phase, bessel_amp):
        for phase in (linear_phase, convex_phase):
            for side in (1, 2):
                fr = build_frame(phase, bessel_amp, side, 0.4)
                assert_grid_is_phi(fr)

    def test_monotonicity(self, convex_phase, bessel_amp):
        fr1 = build_frame(convex_phase, bessel_amp, 1, 0.6)
        fr2 = build_frame(convex_phase, bessel_amp, 2, 0.6)
        p1 = np.linspace(0.0, 0.6, 256)
        p2 = np.linspace(0.6, 1.0, 256)
        assert np.all(np.diff(fr1.phi(p1)) > 0)
        assert np.all(np.diff(fr2.phi(p2)) < 0)


class TestFramePerCall:
    """build_frame builds and validates a new frame on every call."""

    def test_every_call_builds_a_frame(self, convex_phase):
        amp = beta_amp(0.4, 0.6)
        fr = build_frame(convex_phase, amp, 1, 0.3)
        again = build_frame(convex_phase, amp, 1, 0.3)
        assert again is not fr
        assert again.s_end == fr.s_end
        assert np.array_equal(again.phi_grid, fr.phi_grid)

    def test_bad_cut_or_side_refused(self, linear_phase, bessel_amp):
        with pytest.raises(DomainError):
            build_frame(linear_phase, bessel_amp, 1, 1.5)
        for q in (1e-11, 1.0 - 1e-11):
            for side in (1, 2):
                with pytest.raises(DomainError, match=r"q=.* 1e-10 \(p2 - p1\)"):
                    build_frame(linear_phase, bessel_amp, side, q)
        for side in (3, [1]):
            with pytest.raises(DomainError):
                build_frame(linear_phase, bessel_amp, side, 0.5)

    def test_grid_is_monotone_and_read_only(self, convex_phase):
        for side in (1, 2):
            fr = build_frame(convex_phase, beta_amp(0.4, 0.6), side, 0.3)
            assert fr.xi_grid[0] == 0.0 and fr.xi_grid[-1] == fr.hi_dist
            assert fr.phi_grid[0] == 0.0
            assert fr.phi_grid[-1] == pytest.approx(fr.s_end, rel=1e-15)
            assert np.all(np.diff(fr.phi_grid) > 0)
            assert np.allclose(fr.phi_grid, fr.phi(
                fr.endpoint + fr.sign * fr.xi_grid), rtol=1e-14, atol=0.0)
            with pytest.raises(ValueError):
                fr.phi_grid[0] = 1.0


class TestKLimit:
    def test_quadratic_side1_closed_form(self, quadratic_left_phase):
        # k_1(0) = (2(p0 - p1))^(-mu) u~(p1)
        mu = 0.75
        amp = SingularAmplitude(0.0, 0.5, mu, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -ones(p), 1.0, 1.0)
        got = k0_checked(quadratic_left_phase, amp, 1, 0.25)
        assert got == pytest.approx((2 * 0.5) ** (-mu) * 1.0, rel=1e-12)

    def test_quadratic_side2_closed_form(self, quadratic_left_phase):
        mu = 0.75
        amp = SingularAmplitude(0.0, 0.5, mu, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -ones(p), 1.0, 1.0)
        got = k0_checked(quadratic_left_phase, amp, 2, 0.25)
        # k_2(0) = -U(p0) = -(p0 - p1)^(mu-1) u~(p0)
        assert got == pytest.approx(-(0.5 ** (mu - 1.0)) * 0.5, rel=1e-12)

    def test_bessel_side1_is_one(self, linear_phase, bessel_amp):
        assert k0_checked(linear_phase, bessel_amp, 1, 0.5) \
            == pytest.approx(1.0, rel=1e-10)

    def test_numeric_limit_agreement_nontrivial(self, convex_phase):
        # rho = 1 but psi~ varies; numeric Richardson limit must agree
        amp = beta_amp(0.3, 0.7)
        for side in (1, 2):
            k0 = k0_checked(convex_phase, amp, side, 0.45)
            fr = build_frame(convex_phase, amp, side, 0.45)
            assert k0 == pytest.approx(fr.k_at_zero, rel=1e-13)

    def test_richardson_extrapolation_invariant(self, linear_phase):
        amp = beta_amp(0.4, 0.6)
        for side in (1, 2):
            fr = build_frame(linear_phase, amp, side, 0.5)
            numeric = numeric_k0(fr)
            assert abs(numeric - fr.k_at_zero) <= 1e-8 * abs(fr.k_at_zero)


class TestKPrime:
    def test_against_difference_quotient(self, convex_phase):
        amp = beta_amp(0.35, 0.8)
        for side in (1, 2):
            fr = build_frame(convex_phase, amp, side, 0.5)
            for frac in (0.05, 0.3, 0.9):
                # central in xi: (k(xi + h) - k(xi - h)) / (s(xi + h) -
                # s(xi - h)) is k'(s) to O(h^2), as a central quotient in s
                h = 1e-6 * fr.hi_dist
                (s_lo, s_hi), (k_lo, k_hi) = k_of_s(
                    fr, at_xi(fr, frac * fr.hi_dist + np.array([-h, h])))
                fd = (k_hi - k_lo) / (s_hi - s_lo)
                assert k_prime_of_s(fr, at_xi(fr, frac * fr.hi_dist))[1] \
                    == pytest.approx(fd, rel=5e-7)

    def test_exact_quadratic_side2(self, quadratic_left_phase):
        # k_2(s) = -(0.5 - s)^(mu-1) (0.5 + s) has an elementary derivative
        mu = 0.75
        amp = SingularAmplitude(0.0, 0.5, mu, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -ones(p), 1.0, 1.0)
        fr = build_frame(quadratic_left_phase, amp, 2, 0.25)
        for xi in (0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.2499):
            s, got = k_prime_of_s(fr, at_xi(fr, xi))
            expect = -((1 - mu) * (0.5 - s) ** (mu - 2) * (0.5 + s)
                       + (0.5 - s) ** (mu - 1))
            assert got == pytest.approx(expect, rel=1e-9)

    def test_k_finite_from_the_endpoint(self, convex_phase):
        # k o phi and its xi-derivative are closed forms in p, finite at the
        # endpoint as everywhere else
        fr = build_frame(convex_phase, beta_amp(0.35, 0.8), 1, 0.5)
        p = np.concatenate(([0.0], np.geomspace(1e-9, 1.0, 1000))) * fr.q
        assert np.all(np.isfinite(fr.phi_y_k_dk(p)[2]))
        assert np.all(np.isfinite(fr.dk_dxi(p)))

    def test_exact_fractional_order_side1(self, fractional_phase):
        # psi = (2/3) p^(3/2) makes phi_1(p) = p / c linear, c = 1.5^(2/3), so
        # beta(1/2, 1/2) gives k_1(s) = c^(1/2) (1 - c s)^(-1/2) in closed form
        fr = build_frame(fractional_phase, beta_amp(0.5, 0.5), 1, 0.5)
        c = 1.5 ** (2.0 / 3.0)
        s, got = k_prime_of_s(fr, np.linspace(0.01, fr.q, 400))
        expect = 0.5 * c ** 1.5 * (1.0 - c * s) ** -1.5
        assert np.max(np.abs(got - expect)) <= 1e-10

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

        s, got = k_prime_of_s(fr, at_xi(fr, np.linspace(0.01, 1.0, 40)
                                        * fr.hi_dist))
        with mp.workdps(40):
            expect = np.array([float(mp.diff(k, mp.mpf(x))) for x in s])
        rel = np.abs(got - expect) / np.abs(expect)
        assert np.max(rel) <= 1e-10


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@given(mu1=st.floats(min_value=0.15, max_value=1.0),
       mu2=st.floats(min_value=0.15, max_value=1.0),
       q=st.floats(min_value=0.2, max_value=0.8),
       side=st.sampled_from([1, 2]),
       curved=st.booleans())
@settings(max_examples=40)
def test_frame_properties_random(mu1, mu2, q, side, curved):
    """The phi grid, k(0) limit consistency and continuity of the closed-form
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
    assert_grid_is_phi(fr)
    assert k0_checked(phase, amp, side, q) == pytest.approx(
        fr.k_at_zero, rel=1e-12)
    # k continuous at 0
    assert k_of_s(fr, at_xi(fr, 1e-9 * fr.hi_dist))[1] == pytest.approx(
        fr.k_at_zero, rel=1e-6)


def _counted(phase, calls):
    """``phase`` with its psi and psi_tilde calls, and the points they
    take (``"psi points"``, ``"psi_tilde points"``), counted in ``calls``."""
    def counting(name, fn):
        def wrapped(p):
            calls[name] += 1
            calls[name + " points"] += np.size(p)
            return fn(p)
        return wrapped

    return dataclasses.replace(phase, psi=counting("psi", phase.psi),
                               psi_tilde=counting("psi_tilde", phase.psi_tilde))


class TestOnePass:
    """One pass over the side geometry per call.  Every W at xi >= 0.1 L
    is one psi call, and psi has no other caller there."""

    @pytest.fixture
    def frame_calls(self, fractional_phase):
        # side 1 of the fractional phase: rho = 3/2, so phi'' is assembled
        # from W and, below xi = 0.1 L, from the frame's fit of psi~
        calls = collections.Counter()
        fr = build_frame(_counted(fractional_phase, calls),
                         beta_amp(0.3, 0.6), 1, 0.5)
        calls.clear()
        return fr, calls

    def test_dk_dxi_evaluates_w_once(self, frame_calls):
        fr, calls = frame_calls
        p = np.concatenate(([0.0], np.geomspace(1e-9, 1.0, 200))) * fr.q
        assert np.all(np.isfinite(fr.dk_dxi(p)))
        assert calls["psi"] == 1

    def test_near_layer_pass_reads_the_fit(self, frame_calls):
        # below xi = 0.1 L, W, Y' and phi'' come from the frame's fit of
        # psi~: one psi_tilde call for phi', and no psi call
        fr, calls = frame_calls
        xi = np.geomspace(1e-9, 0.099, 200) * fr.L
        assert np.all(np.isfinite(fr.dk_dxi(fr.endpoint + fr.sign * xi)))
        assert calls["psi_tilde"] == 1
        assert calls["psi"] == 0

    @pytest.mark.parametrize("side", (1, 2))
    @pytest.mark.parametrize("name", ("linear", "linear-convex"))
    def test_frame_costs_three_phase_calls(self, name, side):
        # one psi and one psi~ call each for psi(p_j) and the fit, s_end and
        # the phi grid: no iterative solve per frame
        calls = collections.Counter()
        phase = _counted(catalog.phase(name), calls)
        calls.clear()
        build_frame(phase, beta_amp(0.4, 0.6), side, 0.3)
        assert (calls["psi"], calls["psi_tilde"]) == (3, 3)

    def test_psi_tilde_no_costlier_than_psi(self, convex_phase):
        # the parts oracle on both sides: psi~ is taken once per node for
        # phi', never in a quadrature of W per node
        calls = collections.Counter()
        ov = reconstruct_total(_counted(convex_phase, calls),
                               beta_amp(0.5, 0.6), 1e3, 0.5, 1e-10)
        assert np.isfinite(ov.value)
        assert calls["psi_tilde points"] <= 2 * calls["psi points"]


_MP_PHASES = {
    "fractional_phase": (lambda p: 2 * p ** mp.mpf(1.5) / 3,
                         lambda p: p ** mp.mpf(0.5)),
    "convex_phase": (lambda p: p * (1 + p), lambda p: 1 + 2 * p),
}


class TestNearLayerFit:
    """Below xi = 0.1 L a frame reads W, W' and W'' from one polynomial
    fit of psi~, made and checked when the frame is built."""

    @pytest.mark.parametrize("side", (1, 2))
    @pytest.mark.parametrize("name", sorted(_MP_PHASES))
    def test_dk_dxi_against_mpmath(self, request, name, side):
        phase = request.getfixturevalue(name)
        mu1, mu2 = 0.3, 0.6
        fr = build_frame(phase, beta_amp(mu1, mu2), side, 0.5)
        mu, mu_other = (mu1, mu2) if side == 1 else (mu2, mu1)
        for xi, tol in ((np.geomspace(1e-7, 0.09, 12), 1e-11),
                        (np.linspace(0.11, 0.49, 8), 2e-11)):
            got = fr.dk_dxi(fr.endpoint + fr.sign * xi)
            want = np.array([beta_dk_dxi_reference(*_MP_PHASES[name], fr.rho,
                                                   mu, mu_other, side, x)
                             for x in xi])
            assert np.max(np.abs(got - want) / np.abs(want)) <= tol

    @pytest.mark.parametrize("side", (1, 2))
    def test_convex_phi_second_exact(self, convex_phase, side):
        # phi_1 = xi + xi^2 and phi_2 = 3 xi - xi^2, so Y'' = 0 and
        # phi'' = +-2
        fr = build_frame(convex_phase, beta_amp(0.3, 0.6), side, 0.5)
        xi = np.geomspace(1e-9, 0.099, 50)
        phi2 = fr._geometry(fr.endpoint + fr.sign * xi, second=True)[4]
        assert np.max(np.abs(phi2 - 2.0 * fr.sign)) <= 1e-14

    def test_kink_near_an_endpoint_refused(self, kinked_phase):
        with pytest.raises(ConvergenceError, match="side 1") as info:
            build_frame(kinked_phase, beta_amp(0.3, 0.6), 1, 0.5)
        assert "misses" in str(info.value)
        # within 0.1 of p2, psi~ is smooth
        build_frame(kinked_phase, beta_amp(0.3, 0.6), 2, 0.5)
