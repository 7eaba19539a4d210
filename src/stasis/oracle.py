"""High-accuracy reference evaluation of the oscillatory integrals.

Two independent routes to the same numbers.  Both split the integral at a
cutting point q, take everything about a side from the frame of
``model.build_frame`` (endpoint, s_end, the phase factor e^(i w psi(p_j))
from ``psi_at_end``), and sum each side in xi = |p - p_j| on the panel edges
of ``_xi_edges``: the pi-phase edges are interpolated on the frame's phi_j
grid, and phi_j is evaluated, never inverted, at the nodes.  The edges only
set the partition; each panel sum's own error estimate sets the accuracy.
Nothing here depends on omega but the edges and the sums.  Both refuse an
unreachable tol, and a side whose pi-phase panels alone would exceed the
evaluation budget, before building a panel.  Their integrands share
nothing else:

* ``integrate_oscillatory`` sums each side exactly as it is,
  int from p_j to q of U(p) e^(i w psi(p)) dp, by ``_end_sum``, the one
  sum from a singular endpoint, in v = xi^mu_j, which absorbs the endpoint
  factor of U.  Its nodes evaluate U's other factors and
  phi_j^rho_j = |psi - psi(p_j)|; it never evaluates k_j.

* ``integrate_by_parts_check`` rebuilds each side from the primitive
  Phi(s) = int_s^inf r^(mu-1) e^(+-i w r^rho) dr, an incomplete gamma
  function of imaginary argument, as boundary terms minus
  int_0^{s_j} Phi(s) k'(s) ds
  = int_0^{xi_q} Phi(phi_j(p)) d/dxi[k_j(phi_j(p))] dxi.  It shares phi_j
  at the nodes with the panel oracle; Phi in closed form and
  d/dxi[k_j o phi_j] are its own.

Within their combined error estimates the two must agree; every certified
bound in the package is checked against these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import PhaseModel, SingularAmplitude, SubstitutionFrame, build_frame
from .quadrules import (adaptive_complex, capped_edges, check_phase_budget,
                        geometric_edges, power_edges)
from .specfun import theta

__all__ = [
    "OracleValue",
    "integrate_oscillatory",
    "phi_primitive",
    "integrate_by_parts_check",
    "reconstruct_total",
]

@dataclass(frozen=True)
class OracleValue:
    value: complex
    abs_error_estimate: float
    panel_count: int
    method: str

    def __post_init__(self):
        if not (self.abs_error_estimate >= 0.0 and math.isfinite(self.abs_error_estimate)):
            raise DomainError("error estimate must be finite and non-negative")
        if self.panel_count < 1:
            raise DomainError("panel_count must be at least 1")


def _combined(parts, method: str) -> OracleValue:
    """sum factor * value, error and panels over (factor, (value, error, panels))."""
    return OracleValue(
        value=complex(sum(f * v for f, (v, _, _) in parts)),
        abs_error_estimate=sum(e for _, (_, e, _) in parts),
        panel_count=sum(n for _, (_, _, n) in parts), method=method)


def _sig(side: int) -> float:
    """Sign of the oscillation exponent: +1 on side 1, -1 on side 2."""
    return 1.0 if side == 1 else -1.0


def _phase_edges(omega, rho, s_lo, s_hi, cap):
    """Edges of [s_lo, s_hi], s_lo < s_hi, at n + 1 equal increments of
    s^rho, n = max(1, ceil(w (s_hi^rho - s_lo^rho) / pi)), so that the
    phase w s^rho grows by at most pi per panel, with no panel longer than
    ``cap``.  Nothing divides by w, so a subnormal w gives one panel before
    the cap."""
    lo, hi = s_lo ** rho, s_hi ** rho
    n = max(1, math.ceil(omega * (hi - lo) / math.pi))
    edges = np.linspace(lo, hi, n + 1) ** (1.0 / rho)
    edges[0], edges[-1] = s_lo, s_hi
    # the length cap can bind near s = 0 when rho > 1
    return capped_edges(np.clip(edges, s_lo, s_hi), cap)


TOL_FLOOR = 1e-12   # smallest tol the panel sums reach
_EPS = float(np.finfo(float).eps)
_HEAD_START = 1e-5  # the parts sum's first panel, relative to its first edge
# the parts identity's evaluation floor, relative to its two boundary terms
# B_q = Phi(s_j) k(q) and B_0 = Phi(0) k(0), which its integral cancels: k'
# comes from the near-endpoint fit (refused beyond 1e-13 of psi~) and Phi
# is good to about 1e-14 relative, so the sum resolves them no better
_PARTS_REL_FLOOR = 1e-12


def check_tol(tol, floor=TOL_FLOOR):
    """DomainError unless tol is finite and >= floor, which the sums reach."""
    if not (math.isfinite(tol) and tol >= floor):
        raise DomainError(f"tol must be finite and >= {floor:g}, got {tol}")


def _xi_edges(frame: SubstitutionFrame, omega: float):
    """xi = |p - p_j| at the pi-phase s-edges of the side, from
    a0 = min(s_end/8, (pi/w)^(1/rho)) to s_end, each interpolated linearly
    on the frame's (phi_j, xi) grid; the last is xi_q exactly.  On the
    tested phases the interpolated panels stay within 1 % of pi in phase.
    Each caller adds its own head on [0, xi[0]].
    BudgetError, before the edges are built, when their panels alone
    exceed ``check_phase_budget`` for the phase variation s_end^rho."""
    rho, s_end = frame.rho, frame.s_end
    check_phase_budget(f"side {frame.side}", omega, s_end ** rho)
    a0 = s_end / 8.0
    if omega > 0.0:
        a0 = min(a0, (math.pi / omega) ** (1.0 / rho))
    xi = np.interp(_phase_edges(omega, rho, a0, s_end, s_end / 8.0),
                   frame.phi_grid, frame.xi_grid)
    xi[-1] = frame.hi_dist
    return xi


def _end_sum(amp: SingularAmplitude, j: int, path, edges, tol: float,
             label: str, slope=None):
    """(value, error, panels) of int_0^X U(p_j + x u(x)) g(x) dx, where
    (u, g) = path(x) at an array of x > 0 gives the unit u = (h - p_j)/x of
    the point h on the path and the rest g of the integrand, and X is
    edges[-1]^(1/mu_j).

    Summed in v = x^mu_j on the v-edges ``edges`` by one ``adaptive_complex``
    sum to mu_j tol: U(h) = x^(mu_j-1) times U's factors with u in place of
    h - p_j (``SingularAmplitude.factored``), so the endpoint factor goes
    into dv = mu_j x^(mu_j-1) dx and nothing cancels near p_j; the value
    and error are the sum's over mu_j.

    With ``slope`` the path runs on to infinity and X cuts it: the error
    adds 2 |U g|(X) / slope, a bound on the dropped tail int_X^inf |U g| dx.
    It holds when the exponent of the path's decaying factor falls with
    slope at least ``slope`` beyond X and the rest of |U g| grows at most
    half as fast there: at depth 40, a polynomial u~ of degree below 20
    whose zeros keep away from the path's end.
    """
    p_j, mu = (amp.p1, amp.mu1) if j == 1 else (amp.p2, amp.mu2)

    def smooth(x):
        # x^(1 - mu_j) U(h) g(x)
        u, g = path(x)
        h = p_j + x * u
        ends = (u, amp.p2 - h) if j == 1 else (h - amp.p1, -u)
        return amp.factored(h, *ends) * g

    value, err, count = adaptive_complex(
        lambda v: smooth(v ** (1.0 / mu)), edges, tol=mu * tol, label=label)
    value, err = value / mu, err / mu
    if slope is not None:
        x_end = edges[-1] ** (1.0 / mu)
        err += (2.0 * x_end ** (mu - 1.0)
                * abs(smooth(np.array([x_end]))[0]) / slope)
    return value, err, count


def _side_integral(frame: SubstitutionFrame, omega: float, tol_abs: float):
    """M_j = int_0^{s_end} k(s) s^(mu-1) e^(sig i w s^rho) ds, that is the
    side sign times int_0^{xi_q} U e^(sig i w phi^rho) dxi, xi = |p - p_j|,
    by ``_end_sum`` on the v-edges of ``_xi_edges`` behind a geometric head.
    """
    sig = _sig(frame.side)

    def path(xi):
        p = frame.endpoint + frame.sign * xi
        return frame.sign, np.exp(sig * 1j * omega * frame.phi_rho(p))

    value, err, count = _end_sum(
        frame.amp, frame.side, path,
        power_edges(_xi_edges(frame, omega), frame.mu), tol_abs,
        f"side {frame.side}")
    return frame.sign * value, err, count


def _sum_sides(phase, amp, omega, q, side_sum, method):
    """Both sides of the cut q, each side_sum(frame) = (M_j, error, panels)
    re-phased by e^(i w psi(p_j)) and its orientation sign."""
    parts = []
    for side in (1, 2):
        frame = build_frame(phase, amp, side, q)
        parts.append((_sig(side) * np.exp(1j * omega * frame.psi_at_end),
                      side_sum(frame)))
    return _combined(parts, method)


def integrate_oscillatory(phase: PhaseModel, amp: SingularAmplitude,
                          omega: float, tol: float) -> OracleValue:
    """int_{p1}^{p2} U(p) e^(i w psi(p)) dp by panel summation.

    The integral is split at the interval midpoint (the value does not
    depend on the split) and each side is one adaptive sum of pi-phase
    G7/K15 panels in v = |p - p_j|^mu_j.
    |value - true| <= max(tol, abs_error_estimate).

    BudgetError when a side's pi-phase panels alone would exceed the
    default evaluation budget, before any panel, or when its refinement
    would.
    """
    omega = float(omega)
    if not (math.isfinite(omega) and omega >= 0.0):
        raise DomainError(f"omega must be finite and >= 0, got {omega}")
    check_tol(tol)
    return _sum_sides(phase, amp, omega, 0.5 * (phase.p1 + phase.p2),
                      lambda fr: _side_integral(fr, omega, 0.5 * tol),
                      "panels")


# ---------------------------------------------------------------------------
# primitive
# ---------------------------------------------------------------------------

_SPLIT = 4.0        # x = w s^rho: power series below, continued fraction above
_SERIES_TERMS = 44  # (4^n / n!) / (n + m) < 1e-27 beyond
# continued-fraction depth from each x = w s^rho on; the fraction converges
# faster as x grows, and each depth keeps it within 1e-14 relative of
# mpmath's gammainc from its x on
_CF_DEPTHS = ((40.0, 8), (10.0, 16), (_SPLIT, 64))


def _primitive(s, omega, rho, mu, side):
    """-Phi(s) on an array of s >= 0, where
    Phi(s) = int_s^inf r^(mu-1) e^(sig i w r^rho) dr.

    With r = s^rho and m = mu/rho in (0, 1], Phi(s) = Phi_1(r; m)/rho and
    Phi_1(r; m) = (-sig i w)^(-m) Gamma(m, -sig i w r) (DLMF 8.2.2).  Below
    x = w r = 4, Phi_1(r; m) = Phi_1(0; m) - sum_n (sig i x)^n r^m / (n! (n+m))
    with Phi_1(0; m) / rho = sig theta(side, rho, mu) w^(-m).  From x = 4 on,
    Phi_1(r; m) = r^m e^(sig i x) / (z + 1 - m - 1(1-m)/(z + 3 - m - ...))
    with z = -sig i x: the even Legendre fraction of Gamma(m, z)
    (DLMF 8.9.2), summed backward from a depth that falls as x grows
    (``_CF_DEPTHS``): 64 below x = 10, 16 below 40, 8 from there on.
    """
    sig = _sig(side)
    m = mu / rho
    r = np.asarray(s, dtype=float) ** rho
    x = omega * r
    out = np.empty(r.shape, dtype=complex)
    low = x < _SPLIT
    if low.any():
        rl, step = r[low], sig * 1j * x[low]
        acc = np.zeros(rl.shape, dtype=complex)
        term = np.ones(rl.shape, dtype=complex)   # (sig i x)^n / n!
        for n in range(_SERIES_TERMS):
            acc += term / (n + m)
            term *= step / (n + 1)
        phi0 = sig * complex(theta(side, rho, mu)) * omega ** (-m)
        out[low] = phi0 - rl ** m * acc / rho
    todo = ~low
    for x_min, depth in _CF_DEPTHS:
        sel = todo & (x >= x_min)
        if sel.any():
            z = -sig * 1j * x[sel]
            tail = np.zeros(z.shape, dtype=complex)
            for k in range(depth, 0, -1):
                tail = k * (k - m) / (z + (2 * k + 1 - m) - tail)
            out[sel] = r[sel] ** m * np.exp(-z) / (z + (1 - m) - tail) / rho
        todo &= ~sel
    return -out


def phi_primitive(s: float, omega: float, rho: float, mu: float,
                  side: int) -> complex:
    """Phi(s) normalised so that the s = 0 value is
    theta(side, rho, mu) * omega^(-mu/rho).

    The sign convention follows the endpoint coefficients: the function
    returned here is (-1)^side times the primitive of
    s^(mu-1) e^((-1)^(side+1) i w s^rho) used in the parts identity.
    DomainError unless s >= 0, rho >= 1 and omega * s^rho are finite.
    """
    s, omega, rho, mu = float(s), float(omega), float(rho), float(mu)
    if not (math.isfinite(s) and s >= 0.0):
        raise DomainError(f"s must be finite and >= 0, got {s}")
    if not (math.isfinite(omega) and omega > 0.0):
        raise DomainError(f"omega must be finite and > 0, got {omega}")
    if not (0.0 < mu <= 1.0 and math.isfinite(rho) and rho >= 1.0):
        raise DomainError(f"need mu in (0,1] and finite rho >= 1, got "
                          f"mu={mu}, rho={rho}")
    if side not in (1, 2):
        raise DomainError("side must be 1 or 2")
    try:
        x = omega * s ** rho
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise DomainError(f"omega * s^rho must be finite, got s={s}, "
                          f"rho={rho}, omega={omega}")
    return -_sig(side) * complex(_primitive(s, omega, rho, mu, side))


# ---------------------------------------------------------------------------
# parts identity
# ---------------------------------------------------------------------------

def integrate_by_parts_check(frame: SubstitutionFrame, omega: float,
                             tol: float) -> OracleValue:
    """Second oracle for the side integral M_j of ``frame``, via the parts
    identity

        M_j = Phi(s_j) k(s_j) - Phi(0) k(0) - int_0^{s_j} Phi(s) k'(s) ds,

    the integral summed in xi as int_0^{xi_q} Phi(phi(p)) d/dxi[k(phi(p))] dxi
    on ``_xi_edges`` behind a geometric head from 1e-5 of the first edge.
    Phi at the nodes and at both ends comes from ``_primitive``, everything
    else from the frame.  The error estimate is the panel sums' own plus a
    floor: 1e-12 of the boundary terms |B_q| + |B_0|, which the evaluation
    of k' and Phi does not resolve, and the rounding of the nodes near q
    (see below).  A tol that is not finite or below 5e-13 (DomainError),
    pi-phase panels beyond the default evaluation budget (BudgetError) and
    a cut q so close to the far end that that rounding exceeds tol
    (DomainError naming q) are refused before any panel.
    """
    omega = float(omega)
    if not (math.isfinite(omega) and omega > 0.0):
        raise DomainError(f"parts identity needs finite omega > 0, got {omega}")
    # reconstruct_total gives each side half of a tol of at least 1e-12
    check_tol(tol, 0.5e-12)
    xi = _xi_edges(frame, omega)

    def prim(s):
        return _primitive(s, omega, frame.rho, frame.mu, frame.side)

    phi_send, phi_zero = prim(np.array([frame.s_end, 0.0]))
    _, _, k_q, dk_q = frame.phi_y_k_dk(frame.q)
    b_q, b_0 = phi_send * k_q, phi_zero * frame.k_at_zero
    # a node xi near xi_q, and p_j +- xi, round by up to about
    # eps/2 (xi_q + |q|); near q, k' grows like |p - p_far|^(mu - 2) when q
    # lies close to the far end, and that shift moves the sum by up to about
    # |Phi(s_j) dk/dxi(q)| times it (measured: below 0.66 of this term)
    rounding = 0.5 * _EPS * (frame.hi_dist + abs(frame.q)) * abs(phi_send * dk_q)
    if rounding > tol:
        raise DomainError(
            f"side {frame.side}: the cut q={frame.q} lies "
            f"{abs(frame.far_end - frame.q):.1e} from p{3 - frame.side}; "
            f"rounding in the parts sum reaches about {rounding:.1e}, above "
            f"tol {tol:.1e}")
    floor = rounding + _PARTS_REL_FLOOR * (abs(b_q) + abs(b_0))

    def f(xi):
        phi, _, _, dk = frame.phi_y_k_dk(frame.endpoint + frame.sign * xi)
        return prim(phi) * dk

    # the head's first panel lies deep inside the cusp Phi(s) - Phi(0) ~ s^mu
    # at xi = 0, so no refinement round is spent splitting [0, h] alone
    head = geometric_edges(0.0, xi[0], xi[0] * _HEAD_START)[:-1]
    value, err, count = adaptive_complex(f, np.concatenate((head, xi)),
                                         tol=tol, label="parts")
    return OracleValue(value=complex(b_q - b_0 - value),
                       abs_error_estimate=float(err + floor),
                       panel_count=count, method="parts-identity")


def reconstruct_total(phase: PhaseModel, amp: SingularAmplitude, omega: float,
                      q: float, tol: float) -> OracleValue:
    """Whole integral rebuilt from the two parts-identity sides at cutting
    point q, re-phased by e^(i w psi(p_j)) and orientation signs."""
    check_tol(tol)

    def side_sum(frame):
        ov = integrate_by_parts_check(frame, omega, 0.5 * tol)
        return ov.value, ov.abs_error_estimate, ov.panel_count

    return _sum_sides(phase, amp, omega, q, side_sum, "parts-identity")
