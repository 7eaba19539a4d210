"""The panel route of ``panel_route``: against the monotone panel oracle and
steepest descent, its refusals and budget, its pi-phase half edges, and
that it builds no frame."""

import math
import warnings

import numpy as np
import pytest

import panel_route
from stasis import catalog, model, oracle, quadrules
from stasis.errors import BudgetError, DomainError
from stasis.quadratic import QuadraticPhase
from stasis.schrodinger import steepest_descent

from conftest import _qp, intro_amp
from panel_route import integrate_quadratic


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

        monkeypatch.setattr(quadrules, "panel_complex", forbidden)
        amp = intro_amp(0.75)
        # p0 = 0.02 at w = 5e6: the half at p1 fits the budget, the half at
        # p2 does not; p0 = 0.7 lies in the half at p2, which fits per side
        # of p0, and the half at p1 is refused; p0 = 0.3 at w = 2e7: the
        # half at p1 fits per side of p0 but not as a whole, and the half at
        # p2 is refused
        for p0, omega in ((0.3, 1e8), (0.02, 5e6), (0.7, 5e6), (0.3, 2e7)):
            with pytest.raises(BudgetError) as info:
                integrate_quadratic(amp, _qp(p0, amp), omega, 1e-9)
            assert set(info.value.diagnostics) == {"evaluations_needed",
                                                   "budget", "omega"}
        # the guard is live: an input within the budget trips it
        with pytest.raises(AssertionError, match="before the budget check"):
            integrate_quadratic(amp, _qp(0.3, amp), 1e3, 1e-9)

    @pytest.mark.parametrize("omega", [0.0, 3.0, 1e3, 1e5])
    @pytest.mark.parametrize("p0", [-0.3, 0.0, 1e-9, 0.3, 0.5, 0.7, 1.0, 1.3])
    def test_half_edges_are_pi_phase_panels(self, p0, omega):
        # from p_j (xi = 0) to the far end of the half: at most pi of
        # w (xi - a)^2 and at most half/8 per panel, ending at half exactly
        qp = QuadraticPhase(p0=p0, c=0.0, p1=0.0, p2=1.0)
        half = 0.5
        for j, a in ((1, p0), (2, 1.0 - p0)):
            xi = np.concatenate(([0.0], panel_route._half_edges(qp, j, omega)))
            assert xi[-1] == half
            assert np.all(np.diff(xi) > 0.0)
            assert np.all(np.diff(xi) <= half / 8.0 * (1.0 + 1e-12))
            phase = omega * (xi - a) ** 2
            slack = 8.0 * np.finfo(float).eps * phase.max()
            assert np.all(np.abs(np.diff(phase))
                          <= math.pi * (1.0 + 1e-12) + slack)

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
