"""The panel route for the quadratic phase: a test reference for numerical
steepest descent.

``integrate_quadratic`` sums int_{p1}^{p2} U e^(i w psi) dp for
psi(p) = -(p - p0)^2 + c along [p1, p2] itself, on pi-phase panels, at a
cost linear in w.  It needs no analytic continuation of U, so the tests
compare ``schrodinger.steepest_descent`` against it, and check it in turn
against closed forms and mpmath.

Unlike ``reference``, it is built from the package's own parts: the
pi-phase edges of ``quadrules.phase_edges``, the sum from a singular
endpoint of ``oracle._end_sum`` and the half sums of
``schrodinger._half_sum``.

A p0 beyond about 2^53 half-bands from the band (say p0 = 1e17 on
[0, 1]) lies outside its domain: there a - half rounds to a, so
``_half_edges`` budgets and lays the half as one panel of zero phase
variation, however fast it oscillates.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from stasis.errors import DomainError
from stasis.model import SingularAmplitude
from stasis.oracle import OracleValue, _combined, check_tol
from stasis.quadratic import QuadraticPhase
from stasis.quadrules import phase_edges
from stasis.schrodinger import _half_sum


def _half_edges(qp: QuadraticPhase, j: int, omega: float):
    """Panel edges xi = |p - p_j| of the half of [p1, p2] at p_j, with p0
    at xi = a (counted into the band from p_j), xi = 0 left out, up to the
    far end of the half: on each side of p0 that the half holds, the edges of
    ``quadrules.phase_edges`` (and its BudgetError) for the phase w r^2,
    r = |xi - a|, mapped back by xi = a -+ r, capped at half/8."""
    a = qp.p0 - qp.p1 if j == 1 else qp.p2 - qp.p0
    half = 0.5 * (qp.p2 - qp.p1)
    label, cap = f"segment at p{j}", half / 8.0
    pieces = []
    if a > 0.0:     # xi <= a
        r = phase_edges(label, omega, 2.0, max(0.0, a - half), a, cap)
        pieces.append(a - r)
    if a < half:    # xi >= a
        r = phase_edges(label, omega, 2.0, max(0.0, -a), half - a, cap)
        pieces.append(a + r)
    # sorted from xi = 0, exact; the far end a -+ r rounds: half replaces it
    xi = np.unique(np.clip(np.concatenate(pieces), 0.0, half))
    return np.append(xi[1:-1], half)


def integrate_quadratic(amp: SingularAmplitude, qp: QuadraticPhase,
                        omega: float, tol: float) -> OracleValue:
    """int_{p1}^{p2} U e^(i w psi) dp for the quadratic phase by panel
    summation along [p1, p2], at a cost linear in w.

    The band is cut at its midpoint and each half is one adaptive sum from
    its end p_j (``_half_sum``, tol/2 each) of U(p) e^(i w (psi(p) -
    psi(p_j))), on the pi-phase edges of ``_half_edges`` in |p - p0|,
    times e^(i w psi(p_j)).  |value - true| <= max(tol, abs_error_estimate).
    w = 0 is accepted; a negative or non-finite w, or a tol that is not
    finite or below 1e-12, is a DomainError; pi-phase panels beyond the
    default evaluation budget are a BudgetError before any panel.
    """
    omega = float(omega)
    if (amp.p1, amp.p2) != (qp.p1, qp.p2):
        raise DomainError("phase and amplitude must share the interval")
    if not (math.isfinite(omega) and omega >= 0.0):
        raise DomainError(f"omega must be finite and >= 0, got {omega}")
    check_tol(tol)
    # Both halves' edges first, so that a BudgetError comes before any
    # panel.  A half that holds p0 is budgeted per side of p0: it varies by
    # a^2 + (half - a)^2 <= half^2 in (xi - a)^2, the other half by at least
    # half^2 as one piece, so whenever the two-sided half is over budget the
    # other half is refused too.
    edges = [_half_edges(qp, j, omega) for j in (1, 2)]
    return _combined([
        (cmath.exp(1j * omega * float(qp.psi(p_j))),
         _half_sum(amp, j, omega, 2.0 * (qp.p0 - p_j), -1.0, xi, 0.5 * tol))
        for j, p_j, xi in zip((1, 2), (qp.p1, qp.p2), edges)], "panels")
