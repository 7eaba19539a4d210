"""Numerical steepest descent for every phase with a poly: against the panel
oracle on the acceptance matrix, the Bessel closed form, a stationary
singular endpoint and a nearly linear phase; flat cost in omega; and the
inputs it refuses before any panel."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from stasis import catalog, quadrules
from stasis.errors import DomainError
from stasis.model import PhaseModel, SingularAmplitude
from stasis.oracle import integrate_oscillatory
from stasis.quadratic import QuadraticPhase
from stasis.schrodinger import steepest_descent

from conftest import OMEGAS, beta_amp, intro_amp
from reference import bessel_closed_form

C2_SMALL = 1e-8


def _ones(p):
    # keeps a complex argument complex, as an analytic u~ must
    return np.ones(np.shape(p))


def _zeros(p):
    return np.zeros(np.shape(p))


def _nearly_linear(p):
    p = np.asarray(p, dtype=float)
    return p + C2_SMALL * p * p


def _nearly_linear_prime(p):
    return 1.0 + 2.0 * C2_SMALL * np.asarray(p, dtype=float)


def test_matrix_agrees_with_panel_oracle(matrix, matrix_oracle):
    # the 300 (configuration, omega) pairs of criteria 2 and 9, whose panel
    # values the acceptance suite has already computed
    worst = 0.0
    checked = 0
    for label, phase, amp in matrix:
        twin = catalog.amplitude("beta", mu1=amp.mu1, mu2=amp.mu2)
        for om in OMEGAS:
            om = float(om)
            panel = matrix_oracle[(label, om)]
            ov = steepest_descent(twin, phase, om, 1e-10)
            tol = max(1e-9, 1e-8 * abs(panel))
            diff = abs(ov.value - panel)
            worst = max(worst, diff / tol)
            assert ov.method == "steepest-descent"
            assert diff <= tol, f"{label}, omega={om}: |diff|={diff:.2e}"
            checked += 1
    assert checked == 300
    assert worst <= 1e-2


@pytest.mark.parametrize("omega", [1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6])
def test_bessel_closed_form(omega):
    amp = catalog.amplitude("beta-bessel")
    ov = steepest_descent(amp, catalog.phase("linear"), omega, 1e-10)
    err = abs(ov.value - bessel_closed_form(omega))
    assert err <= 1e-10
    assert err <= max(1e-10, ov.abs_error_estimate)


@pytest.mark.parametrize("name", ["linear", "linear-convex"])
@pytest.mark.parametrize("omega", [1.0, 30.0, 1e3])
def test_reaches_tol_floor(name, omega):
    # 1e-12, the smallest oracle_tol a sweep accepts
    amp = catalog.amplitude("beta", mu1=0.3, mu2=0.6)
    phase = catalog.phase(name)
    ov = steepest_descent(amp, phase, omega, 1e-12)
    panel = integrate_oscillatory(phase, amp, omega, 1e-12)
    assert ov.abs_error_estimate <= 1e-12
    assert abs(ov.value - panel.value) <= 1e-12 + panel.abs_error_estimate


@pytest.mark.parametrize("name", ["linear", "linear-convex"])
@pytest.mark.parametrize("mu1, mu2", [(0.3, 0.4), (0.5, 0.5), (0.7, 0.6)])
def test_cost_flat_in_omega(name, mu1, mu2):
    amp = catalog.amplitude("beta", mu1=mu1, mu2=mu2)
    phase = catalog.phase(name)
    counts = [steepest_descent(amp, phase, om, 1e-10).panel_count
              for om in (1e2, 1e4, 1e6, 1e8)]
    # the paths shrink onto the endpoints as omega grows: never more panels
    assert counts[-1] <= counts[0] <= 30
    assert max(counts) == counts[0]


@pytest.mark.parametrize("mu1, mu2", [(1.0, 0.5), (0.5, 0.5), (0.3, 0.25),
                                      (0.8, 0.7)])
@pytest.mark.parametrize("omega", [1.0, 10.0, 1e2, 1e3, 1e4])
def test_singular_stationary_end(quadratic_left_phase, mu1, mu2, omega):
    # psi = -(p - 1/2)^2 + 1/4 on [0, 1/2]: rho2 = 2, the vertex at p2,
    # where the amplitude is singular; steepest descent takes the ray from p2
    amp = SingularAmplitude(0.0, 0.5, mu1, mu2, _ones, _zeros, 1.0, 1.0,
                            analytic=True)
    ov = steepest_descent(amp, quadratic_left_phase, omega, 1e-10)
    panel = integrate_oscillatory(quadratic_left_phase, amp, omega, 1e-11)
    assert abs(ov.value - panel.value) <= 1e-10 + panel.abs_error_estimate


@pytest.mark.parametrize("mu1, mu2", [(0.3, 0.6), (0.7, 0.4), (0.5, 1.0)])
def test_nearly_linear_phase(mu1, mu2):
    # c2 = 1e-8: the vertex sits at -5e7, where w psi is -2.5e11 at w = 1e4
    phase = PhaseModel(0.0, 1.0, 1.0, 1.0, _nearly_linear, _nearly_linear_prime,
                       _nearly_linear_prime)
    assert phase.poly[2] == pytest.approx(C2_SMALL, rel=1e-6)
    amp = catalog.amplitude("beta", mu1=mu1, mu2=mu2)
    ov = steepest_descent(amp, phase, 1e4, 1e-10)
    panel = integrate_oscillatory(phase, amp, 1e4, 1e-11)
    assert abs(ov.value - panel.value) <= 1e-10 + panel.abs_error_estimate


class TestRefusedBeforeAnyPanel:
    @pytest.fixture(autouse=True)
    def no_panel(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a panel was summed before the input check")

        monkeypatch.setattr(quadrules, "panel_complex", forbidden)

    def test_guard_is_live(self):
        # an input that steepest descent takes trips the patched panel rule
        with pytest.raises(AssertionError, match="before the input check"):
            steepest_descent(catalog.amplitude("beta"), catalog.phase("linear"),
                             10.0, 1e-10)

    def test_overflowing_vertex(self):
        # p0 = 1e200: c - p0^2 overflows
        with pytest.raises(DomainError, match="poly"):
            steepest_descent(intro_amp(0.5),
                             QuadraticPhase(1e200, 0.0, 0.0, 1.0), 10.0, 1e-10)

    @pytest.mark.parametrize("poly, omega, quantity", [
        ((0.0, math.nan, 0.0), 10.0, "poly"),
        ((0.0, 1.0, math.inf), 10.0, "poly"),
        ((1.0, 0.0, 0.0), 10.0, "c1 = c2 = 0"),
        ((1e308, 1.0, 0.0), 10.0, "w psi(p1)"),
        ((0.0, 0.0, 1e308), 10.0, "w psi(p2)"),
        ((0.0, 1e160, 0.0), 1.0, "psi'(p1)^2"),
        ((0.0, 1.0, 5e-324), 0.1, "w |c2|"),
    ])
    def test_quantity_named(self, poly, omega, quantity):
        phase = SimpleNamespace(p1=0.0, p2=1.0, poly=poly)
        with pytest.raises(DomainError) as info:
            steepest_descent(catalog.amplitude("beta"), phase, omega, 1e-10)
        assert quantity in str(info.value)

    def test_non_analytic_amplitude(self, linear_phase):
        with pytest.raises(DomainError, match="analytic"):
            steepest_descent(beta_amp(0.5, 0.5), linear_phase, 10.0, 1e-10)

    def test_phase_without_poly(self, fractional_phase):
        with pytest.raises(DomainError, match="poly"):
            steepest_descent(catalog.amplitude("beta"), fractional_phase,
                             10.0, 1e-10)

    def test_mismatched_interval(self):
        amp = catalog.amplitude("beta")
        for phase in (SimpleNamespace(p1=0.0, p2=2.0, poly=(0.0, 1.0, 0.0)),
                      QuadraticPhase(0.5, 0.25, 0.0, 2.0)):
            with pytest.raises(DomainError, match="interval"):
                steepest_descent(amp, phase, 10.0, 1e-10)

    @pytest.mark.parametrize("omega, tol", [(0.0, 1e-9), (-1.0, 1e-9),
                                            (math.inf, 1e-9),
                                            (10.0, math.nan), (10.0, 1e-13)])
    def test_omega_and_tol(self, omega, tol):
        with pytest.raises(DomainError):
            steepest_descent(catalog.amplitude("beta"), catalog.phase("linear"),
                             omega, tol)


@pytest.mark.parametrize("name", ["linear", "linear-convex"])
@pytest.mark.parametrize("amp_name, params", [("beta", {"mu1": 0.3, "mu2": 0.6}),
                                              ("intro", {"mu": 0.5})])
@pytest.mark.parametrize("omega", [1e-6, 1e-3, 1.0, 4.0, 8.0])
def test_small_omega(name, amp_name, params, omega):
    # w psi varies by at most 9 over the band: [p1, p2] itself, where paths
    # of length 40/w from both ends would cancel to many digits
    amp = catalog.amplitude(amp_name, **params)
    phase = catalog.phase(name)
    ov = steepest_descent(amp, phase, omega, 1e-10)
    panel = integrate_oscillatory(phase, amp, omega, 1e-11)
    assert abs(ov.value - panel.value) <= 1e-10 + panel.abs_error_estimate
    assert ov.panel_count <= 60
