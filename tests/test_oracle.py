import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scipy.special import fresnel

from stasis import catalog, model, oracle, quadrules
from stasis.errors import BudgetError, ConvergenceError, DomainError
from stasis.expansion import weighted_kprime_integral
from stasis.model import SingularAmplitude, build_frame
from stasis.oracle import (OracleValue, _end_sum, _xi_edges,
                           integrate_by_parts_check, integrate_oscillatory,
                           phi_primitive, reconstruct_total)
from stasis.quadratic import QuadraticPhase
from stasis.schrodinger import steepest_descent
from stasis.specfun import theta

import conftest
from conftest import EXTREME_FLOATS, beta_amp
from panel_route import integrate_quadratic
from reference import (BESSEL_ORACLE_10, BETA_OSC_SPOTS, FRESNEL_INC_25,
                       RAY_SPOT, bessel_closed_form, primitive_closed_form)


class TestIntegrateOscillatory:
    def test_omega_zero_beta_half(self, linear_phase, fresnel_amp):
        ov = integrate_oscillatory(linear_phase, fresnel_amp, 0.0, 1e-10)
        assert ov.value == pytest.approx(2.0, abs=5e-11)

    def test_bessel_omega10_frozen(self, linear_phase, bessel_amp):
        ov = integrate_oscillatory(linear_phase, bessel_amp, 10.0, 1e-10)
        assert abs(ov.value - BESSEL_ORACLE_10) < 1e-10

    def test_incomplete_fresnel_omega25(self, linear_phase, fresnel_amp):
        # 25^(-1/2) int_0^25 u^(-1/2) e^(iu) du
        ov = integrate_oscillatory(linear_phase, fresnel_amp, 25.0, 1e-10)
        assert abs(ov.value - FRESNEL_INC_25 / 5.0) < 1e-10

    def test_beta_oscillatory_frozen_spots(self, linear_phase):
        for (m1, m2, om), val in BETA_OSC_SPOTS.items():
            ov = integrate_oscillatory(linear_phase, beta_amp(m1, m2), om, 1e-10)
            assert abs(ov.value - val) < 1e-9

    def test_bessel_closed_form_sweep(self, linear_phase, bessel_amp):
        for om in (1.0, 10.0, 100.0):
            ov = integrate_oscillatory(linear_phase, bessel_amp, om, 1e-10)
            assert abs(ov.value - bessel_closed_form(om)) < 1e-9

    def test_error_estimate_fields(self, linear_phase, bessel_amp):
        ov = integrate_oscillatory(linear_phase, bessel_amp, 50.0, 1e-10)
        assert ov.method == "panels"
        assert ov.panel_count >= 1
        assert 0.0 <= ov.abs_error_estimate < 1e-9

    def test_tol_floor(self, linear_phase, bessel_amp):
        with pytest.raises(DomainError):
            integrate_oscillatory(linear_phase, bessel_amp, 1.0, 1e-13)

    def test_budget_error(self, linear_phase, bessel_amp, monkeypatch):
        # w = 1e8: the pi-phase panels alone exceed the default budget, and
        # are refused before any panel is summed
        def no_panels(*args, **kwargs):
            raise AssertionError("a panel was summed past the budget")

        monkeypatch.setattr(oracle, "adaptive_complex", no_panels)
        with pytest.raises(BudgetError) as exc:
            integrate_oscillatory(linear_phase, bessel_amp, 1e8, 1e-10)
        assert set(exc.value.diagnostics) == {"evaluations_needed", "budget",
                                              "omega"}

    def test_parts_budget_refused_before_edges(self, linear_phase,
                                               bessel_amp, monkeypatch):
        # the parts oracle must refuse before laying its w-many edges
        class NoEdges:
            def __getattr__(self, name):
                if name == "linspace":
                    raise AssertionError("pi-phase edges laid past the budget")
                return getattr(np, name)

        monkeypatch.setattr(quadrules, "np", NoEdges())
        with pytest.raises(BudgetError) as exc:
            reconstruct_total(linear_phase, bessel_amp, 1e7, 0.5, 1e-10)
        assert "evaluations_needed" in exc.value.diagnostics

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_unreachable_tol_refused_before_panels(self, linear_phase,
                                                   bessel_amp, monkeypatch,
                                                   tol):
        def no_panels(*args):
            raise AssertionError("a panel was summed for an unreachable tol")

        monkeypatch.setattr(quadrules, "panel_complex", no_panels)
        with pytest.raises(DomainError):
            integrate_oscillatory(linear_phase, bessel_amp, 100.0, tol)
        with pytest.raises(DomainError):
            reconstruct_total(linear_phase, bessel_amp, 100.0, 0.5, tol)
        fr = build_frame(linear_phase, bessel_amp, 1, 0.5)
        with pytest.raises(DomainError):
            integrate_by_parts_check(fr, 100.0, tol)

    def test_parts_tol_floor(self, linear_phase, bessel_amp):
        with pytest.raises(DomainError):
            reconstruct_total(linear_phase, bessel_amp, 1.0, 0.5, 1e-13)

    def test_negative_omega(self, linear_phase, bessel_amp):
        with pytest.raises(DomainError):
            integrate_oscillatory(linear_phase, bessel_amp, -1.0, 1e-10)


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
def test_omega_domain(omega, linear_phase, bessel_amp):
    with pytest.raises(DomainError):
        phi_primitive(0.0, omega, 1.0, 0.5, 1)
    with pytest.raises(DomainError):
        phi_primitive(0.5, omega, 2.0, 0.5, 2)
    if omega != 0.0:
        with pytest.raises(DomainError):
            integrate_oscillatory(linear_phase, bessel_amp, omega, 1e-10)


@pytest.mark.parametrize("rho, mu", [(1.7e308, 0.5), (2.0, 5e-324)])
def test_primitive_names_a_subnormal_mu_over_rho(rho, mu):
    # 1 / (n + mu/rho) in the series and Gamma(mu/rho) overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="mu/rho"):
            phi_primitive(0.5, 10.0, rho, mu, 1)


@pytest.mark.parametrize("name", ["linear", "linear-convex"])
@pytest.mark.parametrize("omega", [5e-324, 1e-323, 1e-320, 1e-310])
def test_subnormal_omega(name, omega):
    # no division by w: the panel oracle sums the w = 0 panels, and the
    # parts oracle computes or refuses by name, with no numpy warning
    ph, amp = catalog.phase(name), beta_amp(0.3, 0.6)
    ov = integrate_oscillatory(ph, amp, omega, 1e-10)
    at_zero = integrate_oscillatory(ph, amp, 0.0, 1e-10)
    assert abs(ov.value - at_zero.value) <= 1e-10
    assert ov.panel_count == at_zero.panel_count
    try:
        ov = reconstruct_total(ph, amp, omega, 0.5, 1e-10)
    except DomainError:
        return
    assert abs(ov.value - at_zero.value) <= 1e-10 + ov.abs_error_estimate


_PROPERTY_PHASE = catalog.phase("linear-convex")
_PROPERTY_AMP = catalog.amplitude("intro", mu=0.75)
_PROPERTY_ROUTES = {
    "panels": lambda w, tol: integrate_oscillatory(
        _PROPERTY_PHASE, _PROPERTY_AMP, w, tol),
    "parts": lambda w, tol: reconstruct_total(
        _PROPERTY_PHASE, _PROPERTY_AMP, w, 0.5, tol),
    "descent": lambda w, tol: steepest_descent(
        _PROPERTY_AMP, _PROPERTY_PHASE, w, tol),
    "quadratic": lambda w, tol: integrate_quadratic(
        _PROPERTY_AMP, QuadraticPhase(p0=0.3, c=0.1, p1=0.0, p2=1.0), w, tol),
}


@pytest.mark.parametrize("route", sorted(_PROPERTY_ROUTES))
@given(point=st.one_of(EXTREME_FLOATS.map(lambda x: (x, 1e-9)),
                       EXTREME_FLOATS.map(lambda x: (10.0, x))))
@example(point=(1e-8, 1e-12))
def test_any_omega_or_tol_gives_a_value_or_a_named_error(route, point):
    # omega at tol = 1e-9, or tol at omega = 10, and the corner of tiny
    # omega at the smallest tol: a finite value, or one of the package's
    # three errors, with no numpy warning on the way
    omega, tol = point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ov = _PROPERTY_ROUTES[route](omega, tol)
        except (DomainError, BudgetError, ConvergenceError):
            return
    assert math.isfinite(ov.value.real) and math.isfinite(ov.value.imag)


class TestOneVariableSide:
    def test_panel_oracle_never_evaluates_k(self, linear_phase,
                                            quadratic_left_phase,
                                            fractional_phase, monkeypatch):
        def no_k(self, p):
            raise AssertionError("the panel oracle evaluated k")

        monkeypatch.setattr(model.SubstitutionFrame, "phi_y_k_dk", no_k)
        for phase in (linear_phase, quadratic_left_phase, fractional_phase):
            amp = SingularAmplitude(phase.p1, phase.p2, 0.3, 0.6,
                                    conftest.ones, conftest.zeros, 1.0, 1.0)
            for om in (0.0, 30.0, 1e4):
                integrate_oscillatory(phase, amp, om, 1e-10)
        qp = QuadraticPhase(p0=0.4, c=0.0, p1=0.0, p2=1.0)
        integrate_quadratic(catalog.amplitude("intro", mu=0.75), qp, 1e3, 1e-10)

    @pytest.mark.parametrize("omega", [0.0, 3.0, 100.0, 3000.0])
    @pytest.mark.parametrize("mu1, mu2", [(0.05, 0.9), (0.1, 0.5), (0.9, 0.1),
                                          (1.0, 0.2), (0.3, 1.0)])
    def test_linear_beta_closed_form(self, linear_phase, mu1, mu2, omega):
        # int_0^1 p^(mu1-1) (1-p)^(mu2-1) e^(i w p) dp
        #   = B(mu1, mu2) 1F1(mu1; mu1 + mu2; i w)
        tol = 1e-10
        ov = integrate_oscillatory(linear_phase, beta_amp(mu1, mu2), omega, tol)
        want = complex(mpmath.beta(mu1, mu2)
                       * mpmath.hyp1f1(mu1, mu1 + mu2, 1j * omega))
        assert abs(ov.value - want) <= max(tol, ov.abs_error_estimate)


def _count_evals(monkeypatch):
    """Integrand evaluations, counted from the call on."""
    evals = [0]
    panel_complex = quadrules.panel_complex

    def counted_panel_complex(f, a, b):
        evals[0] += quadrules.KRONROD_NODES * np.size(a)
        return panel_complex(f, a, b)

    monkeypatch.setattr(quadrules, "panel_complex", counted_panel_complex)
    return evals


def _intro_amp_half():
    return SingularAmplitude(0.0, 0.5, 0.75, 1.0,
                             lambda p: 1.0 - np.asarray(p, dtype=float),
                             lambda p: -np.ones_like(np.asarray(p, dtype=float)),
                             1.0, 1.0)


def _intro_half_descent(omega, tol):
    """steepest_descent on the analytic twin of ``_intro_amp_half`` and
    ``quadratic_left_phase`` as a QuadraticPhase: a reference that sums no
    pi-phase panels."""
    amp = SingularAmplitude(0.0, 0.5, 0.75, 1.0, lambda p: 1.0 - np.asarray(p),
                            lambda p: -np.ones_like(np.asarray(p)), 1.0, 1.0,
                            analytic=True)
    qp = QuadraticPhase(p0=0.5, c=0.25, p1=0.0, p2=0.5)
    return steepest_descent(amp, qp, omega, tol)


class TestTailInP:
    def test_evaluations_at_high_omega(self, quadratic_left_phase,
                                       monkeypatch):
        # each side is summed in v = |p - p_j|^mu on pi-phase panels
        tol = 1e-10
        ref = _intro_half_descent(1e5, tol)
        evals = _count_evals(monkeypatch)
        ov = integrate_oscillatory(quadratic_left_phase, _intro_amp_half(),
                                   1e5, tol)
        assert evals[0] > 100_000
        assert abs(ov.value - ref.value) <= max(
            tol, ov.abs_error_estimate + ref.abs_error_estimate)

    def test_parts_evaluations_at_high_omega(self, quadratic_left_phase,
                                             monkeypatch):
        # the parts integral is summed in xi = |p - p_j| on pi-phase panels
        tol = 1e-10
        ref = _intro_half_descent(1e5, tol)
        evals = _count_evals(monkeypatch)
        ov = reconstruct_total(quadratic_left_phase, _intro_amp_half(), 1e5,
                               0.25, tol)
        assert evals[0] > 100_000
        assert abs(ov.value - ref.value) <= max(
            tol, ov.abs_error_estimate + ref.abs_error_estimate)

    @pytest.mark.parametrize("omega", [1.0, 1e2, 1e4, 1e6])
    def test_edges_at_most_pi_apart(self, linear_phase, convex_phase,
                                    quadratic_left_phase, fractional_phase,
                                    omega):
        # edges interpolated on the frame's grid stay pi-phase panels to 1 %
        for phase in (linear_phase, convex_phase, quadratic_left_phase,
                      fractional_phase):
            amp = SingularAmplitude(phase.p1, phase.p2, 0.5, 0.5,
                                    conftest.ones, conftest.zeros, 1.0, 1.0)
            for side in (1, 2):
                for frac in (0.3, 0.5, 0.7):
                    fr = build_frame(phase, amp, side, frac * phase.p2)
                    xi = _xi_edges(fr, omega)
                    assert np.all(np.diff(xi) > 0) and xi[-1] == fr.hi_dist
                    step = np.diff(fr.phi_rho(fr.endpoint + fr.sign * xi))
                    assert omega * step.max() <= 1.01 * math.pi

    def test_weighted_kprime_summed_on_panels(self, quadratic_left_phase,
                                              monkeypatch):
        # int s^e |k'| ds is summed in xi on the panel engine
        frames = [build_frame(quadratic_left_phase, _intro_amp_half(), side, 0.25)
                  for side in (1, 2)]
        evals = _count_evals(monkeypatch)
        for fr in frames:
            weighted_kprime_integral(fr, -0.25)
        assert evals[0] > 0

    @pytest.mark.parametrize("omega", [3.0, 1e2, 1e4, 1e6])
    @pytest.mark.parametrize("p0", [0.0, 0.3, 0.5, 1.0, 1.3])
    def test_fresnel_closed_form(self, omega, p0):
        # int_0^1 e^(-i w (p - p0)^2) dp = sqrt(pi/(2w)) [C - i S] between
        # z = (p - p0) sqrt(2w/pi) at p = 0 and p = 1
        tol = 1e-10
        qp = QuadraticPhase(p0=p0, c=0.0, p1=0.0, p2=1.0)
        ov = integrate_quadratic(catalog.amplitude("fresnel", mu=1.0), qp,
                                 omega, tol)
        scale = math.sqrt(2.0 * omega / math.pi)
        s_lo, c_lo = fresnel(-p0 * scale)
        s_hi, c_hi = fresnel((1.0 - p0) * scale)
        want = ((c_hi - c_lo) - 1j * (s_hi - s_lo)) / scale
        err = abs(ov.value - want)
        assert err <= 1e-12
        assert err <= max(tol, ov.abs_error_estimate)

class TestEndSum:
    """``_end_sum`` against closed forms, from p1 on beta(mu, 1) and from
    p2 on beta(1, mu), where U(p_j + x u) = x^(mu-1)."""

    @staticmethod
    def _amp_and_unit(j, mu):
        return (beta_amp(mu, 1.0), 1.0) if j == 1 else (beta_amp(1.0, mu), -1.0)

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("mu", [0.25, 0.5, 0.9])
    def test_finite_power(self, j, mu):
        # int_0^X x^(mu-1) dx = X^mu / mu
        amp, unit = self._amp_and_unit(j, mu)
        x_end, tol = 0.8, 1e-12
        value, err, panels = _end_sum(
            amp, j, lambda x: (unit, np.ones_like(x)),
            quadrules.power_edges(np.linspace(0.1, x_end, 8), mu), tol, "test")
        exact = x_end ** mu / mu
        assert abs(value - exact) <= max(tol, err)
        assert abs(value - exact) <= 1e-14 * exact
        assert panels >= 1

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("mu", [0.25, 0.5, 0.9])
    def test_tail_bound_counted(self, j, mu):
        # int_0^inf x^(mu-1) e^-x dx = Gamma(mu), cut at X = 10: the dropped
        # tail (up to 8e-6) is far above tol and inside the estimate only
        # through the slope-1 tail term
        amp, unit = self._amp_and_unit(j, mu)
        tol = 1e-12
        value, err, _ = _end_sum(
            amp, j, lambda x: (unit, np.exp(-x)),
            np.linspace(0.0, 10.0, 8) ** mu, tol, "test", slope=1.0)
        tail = abs(value - math.gamma(mu))
        assert tol < tail <= err


class TestPhiPrimitive:
    def test_zero_matches_theta_closed_form(self):
        for rho in (1.0, 2.0, 3.0):
            for mu in (0.25, 0.5, 0.75, 1.0):
                for side in (1, 2):
                    for om in (1.0, 10.0, 100.0):
                        got = phi_primitive(0.0, om, rho, mu, side)
                        want = theta(side, rho, mu) * om ** (-mu / rho)
                        assert abs(got - want) <= 1e-8 * abs(want)

    def test_quadratic_endpoint_value(self):
        got = phi_primitive(0.0, 4.0, 2.0, 1.0, 1)
        want = (math.sqrt(math.pi) / 4.0) * np.exp(1j * math.pi / 4.0)
        assert got == pytest.approx(want, rel=1e-9)

    def test_ray_spot_value_and_majorant(self):
        got = phi_primitive(0.5, 10.0, 1.0, 0.5, 1)
        assert got == pytest.approx(RAY_SPOT, rel=1e-9)
        majorant = 0.5 ** (-0.5) / 10.0  # int 0.5^(-1/2) e^(-10 t) dt
        assert abs(got) <= majorant

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi_primitive(-0.1, 1.0, 1.0, 0.5, 1)
        with pytest.raises(DomainError):
            phi_primitive(0.0, 1.0, 1.0, 0.5, 3)
        # s or rho not finite, rho below 1, omega * s^rho overflowing
        for s, rho in ((math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan),
                       (0.5, math.inf), (0.5, 0.5), (1e200, 2.0),
                       (1e308, 1.0)):
            with pytest.raises(DomainError):
                phi_primitive(s, 10.0, rho, 0.5, 1)


class TestRayMajorant:
    def test_pointwise_decay_bound(self):
        # |e^((-1)^(j+1) i w z^rho)| <= e^(-w t^rho) on the ray
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            side = int(rng.integers(1, 3))
            rho = float(rng.uniform(1.0, 4.0))
            s = float(rng.uniform(0.01, 2.0))
            t = float(rng.uniform(0.0, 3.0))
            om = float(rng.uniform(0.1, 50.0))
            sig = 1.0 if side == 1 else -1.0
            z = s + t * np.exp(sig * 1j * math.pi / (2 * rho))
            mag = abs(np.exp(sig * 1j * om * z ** rho))
            assert mag <= math.exp(-om * t ** rho) * (1.0 + 1e-12)


class TestPartsIdentity:
    def test_constant_k_reduces_to_boundary(self):
        # U = c p^(mu-1) with psi = p makes k identically constant
        amp = beta_amp(0.5, 1.0)
        phase = conftest.PhaseModel(
            0.0, 1.0, 1.0, 1.0,
            psi=lambda p: np.asarray(p, dtype=float),
            psi_prime=conftest.ones, psi_tilde=conftest.ones)
        fr = build_frame(phase, amp, 1, 0.5)
        om = 40.0
        ov = integrate_by_parts_check(fr, om, 1e-11)
        phi_send = -(-1.0) ** 2 * phi_primitive(fr.s_end, om, 1.0, 0.5, 1)
        phi_zero = -theta(1, 1.0, 0.5) * om ** (-0.5)
        boundary = phi_send * fr.phi_y_k_dk(fr.q)[2] - phi_zero * fr.k_at_zero
        assert ov.value == pytest.approx(boundary, rel=1e-9)

    def test_bessel_side1_vs_panel(self, linear_phase, bessel_amp):
        from stasis.oracle import _side_integral
        fr = build_frame(linear_phase, bessel_amp, 1, 0.5)
        parts = integrate_by_parts_check(fr, 100.0, 1e-10)
        panel, err, _ = _side_integral(fr, 100.0, 1e-11)
        assert abs(parts.value - panel) <= 1e-9

    def test_quadratic_intro_side2_high_omega(self, quadratic_left_phase):
        # rho = 2 side of the quadratic split at omega = 1000
        from stasis.model import SingularAmplitude
        from stasis.oracle import _side_integral
        amp = SingularAmplitude(0.0, 0.5, 0.75, 1.0,
                                lambda p: 1.0 - np.asarray(p, dtype=float),
                                lambda p: -np.ones_like(np.asarray(p, dtype=float)),
                                1.0, 1.0)
        fr = build_frame(quadratic_left_phase, amp, 2, 0.25)
        parts = integrate_by_parts_check(fr, 1000.0, 1e-10)
        panel, err, _ = _side_integral(fr, 1000.0, 1e-11)
        assert abs(parts.value - panel) <= 1e-9

    @pytest.mark.parametrize("rho", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("side", [1, 2])
    def test_primitive_matches_incomplete_gamma(self, rho, side):
        # -Phi at s = 0 and at nodes with x = w s^rho on both sides of the
        # series / continued-fraction split at x = 4 and of the fraction's
        # depth switches at x = 10 and 40, exactly at each, up to 1e3
        from stasis.oracle import _primitive
        switches = np.array([4.0, 10.0, 40.0])
        x = np.concatenate(([0.0], switches, switches * (1 - 1e-12),
                            switches * (1 + 1e-12), np.geomspace(1e-9, 1e3, 40)))
        for mu in (0.25, 0.5, 0.75, 1.0):
            for om in (1.0, 50.0):
                s = (x / om) ** (1.0 / rho)
                got = _primitive(s, om, rho, mu, side)
                ref = -np.array([primitive_closed_form(float(si), om, rho, mu,
                                                       side) for si in s])
                assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12
                phi = np.array([phi_primitive(si, om, rho, mu, side)
                                for si in s])
                assert np.array_equal(phi, -(1.0 if side == 1 else -1.0) * got)

    def test_fractional_order_estimate_is_honest(self, fractional_phase):
        # rho = 3/2 at p1: the parts oracle must meet the panel oracle within
        # its own error estimate, which needs an accurate k' on that side
        amp = beta_amp(0.5, 0.5)
        for om in (1.3, 5.0, 500.0):
            panel = integrate_oscillatory(fractional_phase, amp, om, 1e-10)
            parts = reconstruct_total(fractional_phase, amp, om, 0.4, 1e-10)
            assert abs(parts.value - panel.value) <= parts.abs_error_estimate

    def test_parts_sum_stops_at_its_floor(self):
        # at tiny w the floor of the parts estimate lies above tol, and no
        # panel can lower it: the sum stops there, and side 2's cut is
        # refused by name at once instead of side 1 refining past the budget
        phase = catalog.phase("linear-convex")
        amp = catalog.amplitude("beta", mu1=0.3, mu2=0.6)
        with pytest.raises(DomainError, match=r"side 2: the cut q=0\.5"):
            reconstruct_total(phase, amp, 1e-8, 0.5, 1e-12)
        fr = build_frame(phase, amp, 1, 0.5)
        ov = integrate_by_parts_check(fr, 1e-8, 0.5e-12)
        assert ov.abs_error_estimate > 0.5e-12 and ov.panel_count < 10_000

    @pytest.mark.parametrize("name", ["linear", "linear-convex"])
    def test_parts_side_in_one_round(self, name, monkeypatch):
        # the geometric head starts near 1e-5 of the first pi-phase edge,
        # so the s^mu cusp of Phi at xi = 0 does not send a further round
        # after [0, h] alone: at most one pass beyond the first per side
        passes = [0]
        panel_complex = quadrules.panel_complex

        def counted(f, a, b):
            passes[0] += 1
            return panel_complex(f, a, b)

        monkeypatch.setattr(quadrules, "panel_complex", counted)
        phase = catalog.phase(name)
        for mu1, mu2 in ((0.3, 0.6), (0.7, 0.4)):
            amp = catalog.amplitude("beta", mu1=mu1, mu2=mu2)
            for q in (0.3, 0.5, 0.7):
                for side in (1, 2):
                    fr = build_frame(phase, amp, side, q)
                    for om in (1.0, 10.0, 100.0):
                        passes[0] = 0
                        integrate_by_parts_check(fr, om, 0.5e-10)
                        assert passes[0] <= 2, (mu1, mu2, q, side, om)

    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_cut_near_an_endpoint(self, gap, mirror):
        # near q the far side's k' carries |p - p_far|^(mu - 2), and the
        # nodes p_j +- xi round: the estimate holds, or a cut within 1e-4
        # of an endpoint is refused by name
        phase = catalog.phase("linear")
        amp = catalog.amplitude("beta", mu1=0.4, mu2=0.6)
        q = 1.0 - gap if mirror else gap
        want = integrate_oscillatory(phase, amp, 10.0, 1e-12).value
        try:
            ov = reconstruct_total(phase, amp, 10.0, q, 1e-10)
        except (DomainError, ConvergenceError) as err:
            assert gap < 1e-4 and f"q={q}" in str(err)
            return
        assert abs(ov.value - want) <= max(1e-10, ov.abs_error_estimate)

    @pytest.mark.parametrize("q", [1e-300, 5e-324])
    def test_cut_within_rounding_of_an_endpoint_named(self, q):
        # no overflow warning from k' near the far end, and no ConvergenceError
        # from a phi grid that collapses: the frame refuses the cut by name
        with pytest.raises(DomainError, match=re.escape(f"q={q}")):
            reconstruct_total(catalog.phase("linear"),
                              catalog.amplitude("beta", mu1=0.3, mu2=0.6),
                              10.0, q, 1e-9)

    def test_reconstruction_q_independence(self, linear_phase, bessel_amp):
        panel = integrate_oscillatory(linear_phase, bessel_amp, 100.0, 1e-10)
        for q in (0.3, 0.5, 0.7):
            parts = reconstruct_total(linear_phase, bessel_amp, 100.0, q, 1e-10)
            tol = max(1e-9, 1e-8 * abs(panel.value))
            assert abs(parts.value - panel.value) <= tol


def test_oracle_value_validation():
    with pytest.raises(DomainError):
        OracleValue(value=0j, abs_error_estimate=-1.0, panel_count=3,
                    method="panels")
    with pytest.raises(DomainError):
        OracleValue(value=0j, abs_error_estimate=0.0, panel_count=0,
                    method="panels")
