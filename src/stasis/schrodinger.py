"""Free Schrodinger evolution for frequency-band data with one singular
frequency, and the space-time geometry of its decay.

The solution is the oscillatory integral

    u(t, x) = (1/2 pi) int_{p1}^{p2} Fu0(p) e^(i t Psi(p)) dp,
    Psi(p) = -(p - x/(2t))^2 + x^2/(4t^2),

so each (t, x) is a quadratic-phase problem with stationary point
p0 = x/(2t) and large parameter t.  For an analytic Fu0 it is summed by
numerical steepest descent, at a cost that does not grow with t; otherwise
along [p1, p2] itself, cut at the midpoint and summed from each end on the
closed-form pi-phase points p0 +- sqrt(k pi / t), at a cost linear in t.
Both take every quantity of the phase in closed form: no frame or rebuilt
amplitude.  The steepest-descent route,
``steepest_descent``, takes any phase c0 + c1 p + c2 p^2, so it also sums
the catalog phases of the generic integral.  On the curves G_eps given by
p0 - p1 = t^-eps the leading decay is t^(-1/2 + eps(1-mu)) or
t^(-mu + eps mu) depending on mu; along the critical direction x = 2 p1 t
it degrades to t^(-mu/2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .model import SingularAmplitude
from .oracle import OracleValue, _combined, check_tol
from .quadratic import (QuadraticPhase, _leading_terms, check_amp,
                        curve_exponents, resolve_delta)
from .quadrules import (adaptive_complex, capped_edges, check_phase_budget,
                        power_edges)

__all__ = [
    "SchrodingerSetup",
    "DecayFit",
    "CurveReport",
    "integrate_quadratic",
    "steepest_descent",
    "evaluate_solution",
    "stationary_point",
    "curve_point",
    "threshold_time",
    "region_contains",
    "predicted_exponents",
    "fit_decay",
    "verify_curve_expansion",
    "critical_direction_fit",
    "region_scan",
    "supremum_scan",
]

SOLUTION_TOL_FLOOR = 1e-10   # smallest tol evaluate_solution accepts


@dataclass(frozen=True)
class SchrodingerSetup:
    """Initial datum via its Fourier transform Fu0 = amp on [p1, p2].

    ``amp`` must pass ``quadratic.check_amp``: one algebraic singularity of
    order mu = mu1 in (0, 1) at p1, mu2 = 1 and u~(p2) = 0 to 1e-12 of
    sup |u~|.  p1, p2 and mu must equal amp.p1, amp.p2 and amp.mu1, and |U|
    must also die out on the last 1 % of the band before p2.
    """

    amp: SingularAmplitude
    p1: float
    p2: float
    mu: float

    def __post_init__(self):
        if (self.p1, self.p2) != (self.amp.p1, self.amp.p2):
            raise DomainError("setup interval must match the amplitude")
        if self.mu != self.amp.mu1:
            raise DomainError("mu must equal amp.mu1")
        check_amp(self.amp)
        tail = self.p2 - np.geomspace(1e-6, 1e-2, 24) * (self.p2 - self.p1)
        vals = np.abs(self.amp.value(tail))
        if not vals[0] <= max(2.0 * vals[-1], 1e-8 * self.amp.sup_norm_u):
            raise DomainError("Fu0 must vanish at p2")


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log10 |u| against log10 t."""

    slope: float
    intercept: float
    max_residual: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 8:
            raise DomainError("decay fits need at least 8 samples")
        if not math.isfinite(self.max_residual):
            raise DomainError("residual must be finite")


@dataclass(frozen=True)
class CurveReport:
    mu: float
    eps: float
    delta: float
    case: str
    predicted_exp: float
    alpha: float
    beta: float
    lead_fit: DecayFit
    residual_fit: DecayFit
    passed: bool
    rows: tuple
    notes: tuple


# ---------------------------------------------------------------------------
# direct sum along the segment
# ---------------------------------------------------------------------------

def _amp_on_path(amp: SingularAmplitude, h, left, right):
    """left^(mu1-1) right^(mu2-1) u~(h), principal branches.

    With left = h - p1 and right = p2 - h this is U(h).  A path from p_j
    passes the unit z = (h - p_j)/t, t > 0, in their place (left = z, or
    right = -z) and gets U(h) / t^(mu_j - 1), free of cancellation."""
    out = np.asarray(amp.u_tilde(h), dtype=complex)
    if amp.mu1 != 1.0:
        out = out * left ** (amp.mu1 - 1.0)
    if amp.mu2 != 1.0:
        out = out * right ** (amp.mu2 - 1.0)
    return out


def _half_edges(qp: QuadraticPhase, j: int, omega: float):
    """Panel edges xi = |p - p_j| of the half of [p1, p2] at p_j, with p0
    at xi = a (counted into the band from p_j): the pi-phase points
    xi = a +- sqrt(k pi / w) in the half and its far end, no panel longer
    than an eighth of the half.  BudgetError, before an edge is built, when
    ``check_phase_budget`` refuses their panels for the variation of
    (xi - a)^2 on the half."""
    a = qp.p0 - qp.p1 if j == 1 else qp.p2 - qp.p0
    half = 0.5 * (qp.p2 - qp.p1)
    lo, hi = -a, half - a          # xi - a at the two ends of the half
    if lo < 0.0 < hi:
        r_min, var = 0.0, lo * lo + hi * hi
    else:
        r_min, var = min(abs(lo), abs(hi)), abs(hi * hi - lo * lo)
    check_phase_budget(f"segment at p{j}", omega, var)
    xi = np.array([0.0, half])
    if omega > 0.0:
        k = np.arange(math.ceil(omega * r_min * r_min / math.pi),
                      math.floor(omega * max(lo * lo, hi * hi) / math.pi) + 1)
        r = np.sqrt(k * math.pi / omega)
        xi = np.concatenate((xi, a - r, a + r))
        xi = xi[(xi >= 0.0) & (xi <= half)]
    return capped_edges(np.unique(xi), half / 8.0)[1:]


def _half_sum(amp: SingularAmplitude, j: int, omega: float, d: float,
              c2: float, xi, tol: float):
    """(value, error, panels) of int U(p) e^(i w (psi(p) - psi(p_j))) dp
    over the half of [p1, p2] at p_j, with psi(p) - psi(p_j) = t (+-d + c2 t)
    at t = |p - p_j|, d = psi'(p_j): small where U is singular, however far
    the vertex is.  Summed from p_j in v = t^mu_j, which absorbs the
    endpoint factor of U, on the edges xi behind a geometric head."""
    mu = amp.mu1 if j == 1 else amp.mu2
    slope = d if j == 1 else -d

    def f(v):
        t = v ** (1.0 / mu)
        p = amp.p1 + t if j == 1 else amp.p2 - t
        sides = (1.0, amp.p2 - p) if j == 1 else (p - amp.p1, 1.0)
        return (_amp_on_path(amp, p, *sides)
                * np.exp(1j * omega * t * (slope + c2 * t)))

    value, err, count = adaptive_complex(f, power_edges(xi, mu), tol=mu * tol,
                                         label=f"segment at p{j}")
    return value / mu, err / mu, count


def integrate_quadratic(amp: SingularAmplitude, qp: QuadraticPhase,
                        omega: float, tol: float) -> OracleValue:
    """int_{p1}^{p2} U e^(i w psi) dp for the quadratic phase by panel
    summation along [p1, p2], at a cost linear in w.

    The band is cut at its midpoint and each half is one adaptive sum from
    its end p_j (``_half_sum``, tol/2 each) of U(p) e^(i w (psi(p) -
    psi(p_j))), on the pi-phase points p0 +- sqrt(k pi / w) in closed form,
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
    # both halves' edges first, so that a BudgetError comes before any panel
    edges = [_half_edges(qp, j, omega) for j in (1, 2)]
    return _combined([
        (cmath.exp(1j * omega * float(qp.psi(p_j))),
         _half_sum(amp, j, omega, 2.0 * (qp.p0 - p_j), -1.0, xi, 0.5 * tol))
        for j, p_j, xi in zip((1, 2), (qp.p1, qp.p2), edges)], "panels")


# ---------------------------------------------------------------------------
# numerical steepest descent
# ---------------------------------------------------------------------------

_NEAR_C = 3.0     # |v - p_j| sqrt(|c2| w) up to this: one straight ray from p_j
_DEPTH = 40.0     # every path stops where its decaying factor reaches e^-40
_DOWN = cmath.exp(-0.25j * math.pi)   # the right valley's direction for c2 < 0


def _tail(f_end, slope):
    """Bound on the dropped tail int_{x_end}^inf |f| dx of a path, from
    |f(x_end)| = f_end.  It holds when the exponent of the path's decaying
    factor falls with slope at least ``slope`` beyond x_end and the rest of
    |f| grows at most half as fast there: at depth 40, a polynomial u~ of
    degree below 20 whose zeros keep away from the path's end."""
    return 2.0 * f_end / slope


def _far_path(amp, j, omega, d, c2, tol):
    """(value, error, panels) of int U(h) e^(i w (psi(h) - psi(p_j))) dh
    from p_j into its valley along psi(h) = psi(p_j) + i r/w, r >= 0, where
    the exponential is e^-r.  With t = r/w, d = psi'(p_j), s = sign d and
    G = sqrt(d^2 + 4 i c2 t) = s psi'(h), the path is h = p_j + t z with
    z = 2 i / (d + s G): no cancellation, exact for c2 = 0, and
    dh/dr = i s / (w G).  Summing in v = r^mu_j absorbs the endpoint
    factor t^(mu_j - 1) of U."""
    p_j, mu = (amp.p1, amp.mu1) if j == 1 else (amp.p2, amp.mu2)
    s = math.copysign(1.0, d)

    def f(v):
        r = v ** (1.0 / mu)
        t = r / omega
        g = np.sqrt(d * d + 4j * c2 * t)
        z = 2j / (d + s * g)
        h = p_j + t * z
        sides = (z, amp.p2 - h) if j == 1 else (h - amp.p1, -z)
        return (_amp_on_path(amp, h, *sides) * (1j * s / omega) / g
                * np.exp(-r))

    pre = omega ** (1.0 - mu) / mu
    edges = np.array([0.0, 0.25, 1.0, 2.5, 5.0, 10.0, 20.0, _DEPTH]) ** mu
    value, err, count = adaptive_complex(f, edges, tol=tol / pre,
                                         label=f"steepest descent from p{j}")
    # in r the sum's integrand is pre f(r^mu) mu r^(mu-1), under e^-r
    f_end = abs(f(edges[-1:])[0]) * mu * _DEPTH ** (mu - 1.0)
    return pre * value, pre * (err + _tail(f_end, 1.0)), count


def _near_ray(amp, j, omega, d, c2, e, tol):
    """(value, error, panels) of int U(h) e^(i w (psi(h) - psi(p_j))) dh
    from p_j along the straight ray h = p_j + e x / sqrt(W), x >= 0,
    W = |c2| w, into the valley of direction e, where e^2 = i sign(c2).
    With kappa = d w / sqrt(W), d = psi'(p_j), the exponential is
    e^(i kappa e x - x^2), of modulus e^(-x^2 - k x), k = kappa Im e;
    |kappa| <= 6 bounds its rise by e^(kappa^2 / 8).  Summed in
    v = x^mu_j, which absorbs the endpoint factor of U."""
    p_j, mu = (amp.p1, amp.mu1) if j == 1 else (amp.p2, amp.mu2)
    root = math.sqrt(abs(c2) * omega)
    kappa = d * omega / root
    k = kappa * e.imag
    x_end = 0.5 * (math.sqrt(k * k + 4.0 * _DEPTH) - k)

    def f(v):
        x = v ** (1.0 / mu)
        h = p_j + e * x / root
        sides = (e, amp.p2 - h) if j == 1 else (h - amp.p1, -e)
        return _amp_on_path(amp, h, *sides) * np.exp(1j * kappa * e * x - x * x)

    pre = root ** -mu / mu
    edges = np.linspace(0.0, x_end, 8) ** mu
    value, err, count = adaptive_complex(f, edges, tol=tol / pre,
                                         label=f"steepest descent from p{j}")
    f_end = abs(f(edges[-1:])[0]) * mu * x_end ** (mu - 1.0)
    return (pre * e * value,
            pre * (err + _tail(f_end, 2.0 * x_end + k)), count)


def _saddle_path(amp, vertex, omega, c2, right, tol):
    """(value, error, panels) of int U(h) e^(i w (psi(h) - psi(v))) dh
    along h = v + right x / sqrt(W), W = |c2| w, x from -inf to inf, where
    the exponential is e^(-x^2): from the left valley to the right one."""
    x_end = math.sqrt(_DEPTH)
    root = math.sqrt(abs(c2) * omega)
    gap1, gap2 = vertex - amp.p1, amp.p2 - vertex

    def f(x):
        step = right * x / root
        return _amp_on_path(amp, vertex + step, gap1 + step, gap2 - step) \
            * np.exp(-x * x)

    pre = 1.0 / root
    value, err, count = adaptive_complex(f, np.linspace(-x_end, x_end, 9),
                                         tol=tol / pre,
                                         label="steepest descent saddle")
    f_end = float(np.sum(np.abs(f(np.array([-x_end, x_end])))))
    return (pre * right * value,
            pre * (err + _tail(f_end, 2.0 * x_end)), count)


def _descent_data(amp: SingularAmplitude, phase, omega: float, tol: float):
    """The phase's (c0, c1, c2) with psi(p_j) and psi'(p_j) at both ends,
    after refusing, as DomainError before any panel, everything the paths
    cannot take."""
    if not amp.analytic:
        raise DomainError("steepest descent needs an analytic amplitude")
    poly = getattr(phase, "poly", None)
    if poly is None:
        raise DomainError("steepest descent needs a phase with poly")
    if (amp.p1, amp.p2) != (phase.p1, phase.p2):
        raise DomainError("phase and amplitude must share the interval")
    if not (math.isfinite(omega) and omega > 0.0):
        raise DomainError(f"omega must be finite and > 0, got {omega}")
    check_tol(tol)
    c0, c1, c2 = (float(c) for c in poly)
    if not all(math.isfinite(c) for c in (c0, c1, c2)):
        raise DomainError(f"poly must be finite, got {poly}")
    if c1 == 0.0 and c2 == 0.0:
        raise DomainError("poly has c1 = c2 = 0: a constant phase has no "
                          "steepest descent path")
    ends = (amp.p1, amp.p2)
    values = [c0 + p * (c1 + c2 * p) for p in ends]
    slopes = [c1 + 2.0 * (c2 * p) for p in ends]
    for j, (value, slope) in enumerate(zip(values, slopes), 1):
        for name, x in ((f"w psi(p{j})", omega * value),
                        (f"psi'(p{j})^2", slope * slope)):
            if not math.isfinite(x):
                raise DomainError(f"{name} must be finite, got {x}")
    if c2 != 0.0 and not 0.0 < abs(c2) * omega < math.inf:
        raise DomainError(f"w |c2| must be finite and positive, got "
                          f"{abs(c2) * omega}")
    return (c0, c1, c2), values, slopes


def steepest_descent(amp: SingularAmplitude, phase, omega: float,
                     tol: float) -> OracleValue:
    """int_{p1}^{p2} U e^(i w psi) dp for a phase psi = c0 + c1 p + c2 p^2,
    given as ``phase.poly`` (a ``PhaseModel`` whose psi is such a
    polynomial, or a ``QuadraticPhase``), by numerical steepest descent
    (Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44, 2006): [p1, p2] is
    deformed onto paths on which e^(i w psi) decays without oscillating,
    each summed by ``adaptive_complex`` and cut where its decaying factor
    reaches e^-40, with a bound on the dropped tail added to the estimate.
    |value - true| <= max(tol, abs_error_estimate), and the cost does not
    grow with w.

    For c2 != 0, psi = c2 (h - v)^2 + psi(v) about the vertex
    v = -c1 / (2 c2), and e^(i w psi) decays in two valleys through v,
    right and left: arg(h - v) near -pi/4 and 3 pi/4 for c2 < 0, mirrored
    to pi/4 and -3 pi/4 for c2 > 0 by an orientation sign, not by
    conjugating U.  For c2 = 0 it decays as Im(c1 h) grows.
    I = E_1 - E_2 + S: E_j runs from p_j into a valley, S through v from
    the left valley to the right one, taken only when E_1 ends left and
    E_2 right, that is when psi' changes sign on the band.  Each is scaled
    by e^(i w psi) at its own start, p_j or v, never at a vertex far from
    the band, whose phases would be huge and cancel.  With
    c_j = |v - p_j| sqrt(|c2| w) (infinite for c2 = 0):

    * c_j > 3: E_j is the closed-form steepest descent path of
      ``_far_path``, into the valley on p_j's side of v;
    * c_j <= 3: the saddle is too close to p_j for it; E_j is the straight
      ray of ``_near_ray``, into the valley of the other endpoint's path,
      so that the saddle goes with it.  This is the critical direction
      p0 = p1 of the Schrodinger phase and the paper's saddle near the
      singular endpoint.
    * w psi varies by at most 9 over [p1, p2] (for c2 != 0 with v on the
      band: c_1, c_2 <= 3): [p1, p2] itself is the path, each half summed
      from its end by ``_half_sum`` on eight equal panels.  Paths would
      cancel to many digits as w goes to 0.

    Every path leaves the real axis at once into one open half plane and
    stays in it (Im(h - p_j) has the sign of psi'(p_j) along ``_far_path``),
    and what it encloses with [p1, p2] touches the real axis only on
    [p1, p2].  The cuts of the principal powers (h - p1)^(mu1-1) and
    (p2 - h)^(mu2-1), the real half lines left of p1 and right of p2,
    therefore lie outside, and the principal branches continue U from the
    band.

    The band is the amplitude's.  DomainError, before any panel, unless
    ``amp.analytic``, ``phase.poly`` is set, finite and not constant, the
    phase shares the band, w > 0 and tol >= 1e-12 are finite, and so are
    w psi(p_j), psi'(p_j)^2 and w |c2|.
    """
    omega = float(omega)
    (c0, c1, c2), values, slopes = _descent_data(amp, phase, omega, tol)
    factors = [cmath.exp(1j * omega * value) for value in values]
    d1, d2 = slopes
    # w times the range of psi over [p1, p2]
    if d1 * d2 < 0.0:
        spread = omega * max(d1 * d1, d2 * d2) / (4.0 * abs(c2))
    else:
        spread = omega * 0.5 * (amp.p2 - amp.p1) * abs(d1 + d2)
    if spread <= _NEAR_C ** 2:
        half = 0.5 * (amp.p2 - amp.p1)
        xi = np.linspace(half / 8.0, half, 8)
        parts = [(f, _half_sum(amp, j, omega, d, c2, xi, 0.5 * tol))
                 for j, f, d in zip((1, 2), factors, slopes)]
    else:
        near = [omega * d * d <= (2.0 * _NEAR_C) ** 2 * abs(c2)
                for d in slopes]
        # +1: the right valley, of direction ``right``; -1: the left one
        right = _DOWN if c2 < 0.0 else _DOWN.conjugate()
        valley = [math.copysign(1.0, d * c2) for d in slopes]
        if near[0]:
            valley[0] = valley[1]
        if near[1]:
            valley[1] = valley[0]
        saddle = valley == [-1.0, 1.0]
        part = tol / (3 if saddle else 2)
        parts = []
        for j, sign in ((1, 1.0), (2, -1.0)):
            d = slopes[j - 1]
            leg = (_near_ray(amp, j, omega, d, c2, valley[j - 1] * right, part)
                   if near[j - 1] else _far_path(amp, j, omega, d, c2, part))
            parts.append((sign * factors[j - 1], leg))
        if saddle:
            vertex = -c1 / (2.0 * c2)
            at_vertex = c0 + vertex * (c1 + c2 * vertex)
            parts.append((cmath.exp(1j * omega * at_vertex),
                          _saddle_path(amp, vertex, omega, c2, right, part)))
    return _combined(parts, "steepest-descent")


# ---------------------------------------------------------------------------
# solution and geometry
# ---------------------------------------------------------------------------

def evaluate_solution(setup: SchrodingerSetup, t: float, x: float,
                      tol: float = 1e-9) -> complex:
    """u(t, x) with omega = t, absolute accuracy ~ tol: by
    ``steepest_descent`` when the amplitude is analytic, at a
    cost that does not grow with t, and otherwise by the panel oracle
    ``integrate_quadratic``.  DomainError unless t > 0 and x are finite
    and tol is finite and >= 1e-10."""
    check_tol(tol, SOLUTION_TOL_FLOOR)
    p0 = stationary_point(t, x)
    qp = QuadraticPhase(p0=p0, c=p0 * p0, p1=setup.p1, p2=setup.p2)
    oracle = steepest_descent if setup.amp.analytic else integrate_quadratic
    ov = oracle(setup.amp, qp, t, tol * 2.0 * math.pi)
    return complex(ov.value / (2.0 * math.pi))


def stationary_point(t: float, x: float) -> float:
    """p0 = x / (2t); DomainError unless t > 0 and x are finite."""
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be finite and positive, got {t}")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    return x / (2.0 * t)


def curve_point(setup: SchrodingerSetup, eps: float, t: float):
    """The unique (t, x) on G_eps: stationary_point(t, x) - p1 = t^-eps."""
    if t <= 1.0:
        raise DomainError("curve points require t > 1")
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be finite and positive, got {eps}")
    return t, 2.0 * setup.p1 * t + 2.0 * t ** (1.0 - eps)


def threshold_time(setup: SchrodingerSetup, p: float, eps: float) -> float:
    """T_p = (p - p1)^(-1/eps), the time after which G_eps stays left of
    the direction p: its stationary point p1 + t^-eps reaches p at T_p."""
    if p <= setup.p1:
        raise DomainError("p must exceed p1")
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be finite and positive, got {eps}")
    return (p - setup.p1) ** (-1.0 / eps)


def region_contains(setup: SchrodingerSetup, eps: float, t: float,
                    x: float) -> bool:
    """Membership in the region N_eps (curve boundary included)."""
    if t <= 0.0:
        return False
    p0 = stationary_point(t, x)
    # a few ulps of slack so exact curve points stay members under rounding
    return (p0 - setup.p1 >= t ** (-eps) * (1.0 - 1e-13)
            and x < 2.0 * setup.p2 * t
            and t > threshold_time(setup, setup.p2, eps))


def predicted_exponents(mu: float, eps: float):
    """Leading decay exponent of |u| on G_eps and which regime it is in,
    for the eps in (0, 1/2) where these rates hold."""
    if not 0.0 < mu < 1.0:
        raise DomainError("mu must lie in (0, 1)")
    if not 0.0 < eps < 0.5:
        raise DomainError(f"eps must lie in (0, 1/2), got {eps}")
    if abs(mu - 0.5) < 1e-12:
        return -0.5 + 0.5 * eps, "mu=1/2"
    if mu > 0.5:
        return -0.5 + eps * (1.0 - mu), "mu>1/2"
    return -mu + eps * mu, "mu<1/2"


def fit_decay(samples: Sequence[tuple]) -> DecayFit:
    """Ordinary least squares of log10 magnitude on log10 t.

    Requires >= 8 samples at strictly increasing t spanning at least two
    decades, all magnitudes positive.
    """
    t = np.asarray([s[0] for s in samples], dtype=float)
    m = np.asarray([s[1] for s in samples], dtype=float)
    if t.size < 8:
        raise DomainError("need at least 8 samples")
    if not np.all(np.diff(t) > 0):
        raise DomainError("t values must be strictly increasing")
    if t[-1] < 100.0 * t[0] * (1.0 - 1e-12):
        raise DomainError("samples must span at least two decades")
    if not np.all(m > 0):
        raise DomainError("magnitudes must be positive")
    lx = np.log10(t)
    ly = np.log10(m)
    lxc = lx - lx.mean()
    slope = float((lxc @ (ly - ly.mean())) / (lxc @ lxc))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    return DecayFit(slope=slope, intercept=intercept,
                    max_residual=float(np.max(np.abs(resid))),
                    n_points=int(t.size))


def verify_curve_expansion(setup: SchrodingerSetup, eps: float,
                           t_grid: Sequence[float], tol: float = 1e-9,
                           slope_tol: float = 0.05,
                           margin: float = 0.03) -> CurveReport:
    """Evaluate u on G_eps, subtract the leading term of the case, and
    compare fitted decay slopes against the predicted exponents.

    The lead at each point is quadratic's: the leading PowerTerms K, H1 and
    H2 of ``expand_quadratic`` for the phase with p0 = stationary_point(t, x)
    and c = p0^2, evaluated at (t, p0 - p1) and divided by 2 pi, and summed
    by case: H1 + H2 for mu > 1/2, K for mu < 1/2, K + H1 + H2 for mu = 1/2.
    Rows are (t, x, u, lead, |u|, |u - lead|).  Passes when |u| decays at
    the predicted exponent within slope_tol and the residual decays faster
    than |u| by at least margin.
    """
    mu = setup.mu
    delta = resolve_delta(mu, eps)
    ce = curve_exponents(mu, eps, delta)
    predicted, case = predicted_exponents(mu, eps)
    t_min = max(1.0, threshold_time(setup, setup.p2, eps))
    rows = []
    for t in t_grid:
        t = float(t)
        if t <= t_min:
            raise DomainError(f"t={t} below the admissible threshold {t_min}")
        _, x = curve_point(setup, eps, t)
        u = evaluate_solution(setup, t, x, tol)
        p0 = stationary_point(t, x)
        qp = QuadraticPhase(p0=p0, c=p0 * p0, p1=setup.p1, p2=setup.p2)
        k, h1, h2 = (term.evaluate(t, qp.gap) / (2.0 * math.pi)
                     for term in _leading_terms(setup.amp, qp))
        lead = {"mu>1/2": h1 + h2, "mu<1/2": k, "mu=1/2": k + h1 + h2}[case]
        rows.append((t, x, u, lead, abs(u), abs(u - lead)))
    lead_fit = fit_decay([(r[0], r[4]) for r in rows])
    residual_fit = fit_decay([(r[0], r[5]) for r in rows])
    passed = (abs(lead_fit.slope - predicted) <= slope_tol
              and residual_fit.slope <= lead_fit.slope - margin)
    notes = (
        "H phase follows e^(i t p0^2), the general-coefficient convention",
        "remainder alpha/beta exponents use L = 1 (non-certified prefactor)",
    )
    return CurveReport(mu=mu, eps=eps, delta=delta, case=case,
                       predicted_exp=predicted, alpha=ce.alpha, beta=ce.beta,
                       lead_fit=lead_fit, residual_fit=residual_fit,
                       passed=passed, rows=tuple(rows), notes=notes)


def critical_direction_fit(setup: SchrodingerSetup, t_grid: Sequence[float],
                           tol: float = 1e-9):
    """Fitted |u| decay along the critical direction x = 2 p1 t (expected
    slope: -mu/2).  Returns (fit, rows) with rows (t, x, |u|)."""
    rows = []
    for t in t_grid:
        t = float(t)
        x = 2.0 * setup.p1 * t
        rows.append((t, x, abs(evaluate_solution(setup, t, x, tol))))
    return fit_decay([(r[0], r[2]) for r in rows]), rows


def region_scan(setup: SchrodingerSetup, eps: float, t_grid: Sequence[float],
                n_rays: int = 10, tol: float = 1e-9):
    """Scaled |u| t^(-predicted) over N_eps: the boundary G_eps and n_rays
    interior rays, a fraction frac = i/(n_rays + 1) of the way from G_eps
    to the direction p2.

    Returns one t-major list of rows (t, x, frac, |u|, scaled value), the
    boundary row (frac = 0) first for each t; ray points outside N_eps are
    left out.  The region estimate holds when the interior sup stays within
    a small factor of the boundary sup.
    """
    predicted, _ = predicted_exponents(setup.mu, eps)
    rows = []
    for t in t_grid:
        t = float(t)
        p_curve = setup.p1 + t ** (-eps)
        if p_curve >= setup.p2:
            raise DomainError(f"curve outside the band at t={t}")
        for i in range(n_rays + 1):
            frac = i / (n_rays + 1.0)
            if i == 0:
                _, x = curve_point(setup, eps, t)
            else:
                x = 2.0 * (p_curve + frac * (setup.p2 - p_curve)) * t
                if not region_contains(setup, eps, t, x):
                    continue
            u = abs(evaluate_solution(setup, t, x, tol))
            rows.append((t, x, frac, u, u / t ** predicted))
    return rows


def supremum_scan(setup: SchrodingerSetup, t: float, n_x: int = 121,
                  tol: float = 1e-8):
    """Exploratory scan of |u(t, .)| around the critical direction.

    Samples x = 2 p1 t + eta sqrt(t) at n_x points eta in [-8, 8], and
    reports (sup |u| * t^(mu/2), its x).  Exploration of the conjectured
    global bound; never asserted as a pass/fail criterion.
    """
    if t <= 0.0:
        raise DomainError("t must be positive")
    if n_x < 1:
        raise DomainError(f"n_x must be >= 1, got {n_x}")
    best = 0.0
    best_x = None
    for eta in np.linspace(-8.0, 8.0, n_x):
        x = 2.0 * setup.p1 * t + eta * math.sqrt(t)
        v = abs(evaluate_solution(setup, t, x, tol))
        if v > best:
            best, best_x = v, x
    return best * t ** (setup.mu / 2.0), best_x
