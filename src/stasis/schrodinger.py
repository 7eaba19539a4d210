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
Both take every quantity of the phase in closed form: no frame, Newton
solve or rebuilt amplitude.  On the curves G_eps given by
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

from .errors import BudgetError, DomainError
from .model import SingularAmplitude
from .oracle import OracleValue, check_tol
from .quadratic import QuadraticPhase, curve_exponents, resolve_delta
from .quadrules import (DEFAULT_BUDGET, KRONROD_NODES, adaptive_complex,
                        capped_edges)
from .specfun import gamma_pos

__all__ = [
    "SchrodingerSetup",
    "DecayFit",
    "CurveReport",
    "integrate_quadratic",
    "steepest_descent_quadratic",
    "evaluate_solution",
    "stationary_point",
    "curve_point",
    "threshold_time",
    "region_contains",
    "predicted_exponents",
    "curve_coefficients",
    "fit_decay",
    "curve_sample",
    "curve_verdict",
    "region_sample",
    "critical_sample",
    "verify_curve_expansion",
    "critical_direction_fit",
    "region_scan",
    "supremum_scan",
]

SOLUTION_TOL_FLOOR = 1e-10   # smallest tol evaluate_solution accepts


@dataclass(frozen=True)
class SchrodingerSetup:
    """Initial datum via its Fourier transform Fu0 = amp on [p1, p2].

    Requires mu2 = 1 with Fu0 vanishing at p2 and one algebraic
    singularity of order mu = mu1 in (0, 1) at p1.
    """

    amp: SingularAmplitude
    p1: float
    p2: float
    mu: float

    def __post_init__(self):
        if (self.p1, self.p2) != (self.amp.p1, self.amp.p2):
            raise DomainError("setup interval must match the amplitude")
        if self.mu != self.amp.mu1 or not 0.0 < self.mu < 1.0:
            raise DomainError("mu must equal amp.mu1 and lie in (0, 1)")
        if self.amp.mu2 != 1.0:
            raise DomainError("the band's right endpoint must be regular (mu2 = 1)")
        # Fu0(p2) = 0: |U| must die out approaching p2
        tail = self.p2 - np.geomspace(1e-6, 1e-2, 24) * (self.p2 - self.p1)
        vals = np.abs(self.amp.value(tail))
        if not (abs(complex(self.amp.u_tilde(self.p2))) <=
                1e-10 * max(self.amp.sup_norm_u, 1e-300)
                and vals[0] <= max(2.0 * vals[-1], 1e-8 * self.amp.sup_norm_u)):
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


def _gap(qp: QuadraticPhase, j: int) -> float:
    """Where p0 sits in xi = |p - p_j|, counted into the band from p_j."""
    return qp.p0 - qp.p1 if j == 1 else qp.p2 - qp.p0


def _half_edges(qp: QuadraticPhase, j: int, omega: float):
    """Panel edges xi = |p - p_j| of the half of [p1, p2] at p_j, with p0
    at xi = a = ``_gap``: the pi-phase points xi = a +- sqrt(k pi / w)
    inside the half and its far end, no panel longer than an eighth of the
    half.  BudgetError, before an edge is built, when their panels alone,
    about KRONROD_NODES * (w V / pi + 16) evaluations with V the variation
    of (xi - a)^2 over the half, exceed the default budget."""
    a, half = _gap(qp, j), 0.5 * (qp.p2 - qp.p1)
    lo, hi = -a, half - a          # xi - a at the two ends of the half
    if lo < 0.0 < hi:
        r_min, var = 0.0, lo * lo + hi * hi
    else:
        r_min, var = min(abs(lo), abs(hi)), abs(hi * hi - lo * lo)
    est = KRONROD_NODES * (omega * var / math.pi + 16)
    if est > DEFAULT_BUDGET:
        raise BudgetError(
            f"segment at p{j}: ~{est:.0f} evaluations exceed budget "
            f"{DEFAULT_BUDGET}",
            diagnostics={"evaluations_needed": est, "budget": DEFAULT_BUDGET,
                         "omega": omega})
    xi = np.array([0.0, half])
    if omega > 0.0:
        k = np.arange(math.ceil(omega * r_min * r_min / math.pi),
                      math.floor(omega * max(lo * lo, hi * hi) / math.pi) + 1)
        r = np.sqrt(k * math.pi / omega)
        xi = np.concatenate((xi, a - r, a + r))
        xi = xi[(xi >= 0.0) & (xi <= half)]
    return capped_edges(np.unique(xi), half / 8.0)[1:]


def _half_sum(amp: SingularAmplitude, qp: QuadraticPhase, j: int, xi,
              omega: float, tol: float):
    """(value, error, panels) of int U(p) e^(-i w (p - p0)^2) dp over the
    half of [p1, p2] at p_j, summed from p_j in v = |p - p_j|^mu_j, which
    absorbs the endpoint factor of U, on the edges xi behind a geometric
    head."""
    mu = amp.mu1 if j == 1 else amp.mu2
    a = _gap(qp, j)

    def f(v):
        t = v ** (1.0 / mu)
        p = qp.p1 + t if j == 1 else qp.p2 - t
        sides = (1.0, qp.p2 - p) if j == 1 else (p - qp.p1, 1.0)
        return _amp_on_path(amp, p, *sides) * np.exp(-1j * omega * (t - a) ** 2)

    edges = np.concatenate(([0.0], xi[0] ** mu * 0.25 ** np.arange(5, 0, -1.0),
                            xi ** mu))
    value, err, count = adaptive_complex(f, edges, tol=mu * tol,
                                         label=f"segment at p{j}")
    return value / mu, err / mu, count


def _segment(amp: SingularAmplitude, qp: QuadraticPhase, omega: float,
             tol: float):
    """The two ``_half_sum``s of int_{p1}^{p2} U(p) e^(-i w (p - p0)^2) dp,
    tol/2 each; both halves' edges come first, so that a BudgetError comes
    before any panel."""
    edges = [_half_edges(qp, j, omega) for j in (1, 2)]
    return [_half_sum(amp, qp, j, xi, omega, 0.5 * tol)
            for j, xi in zip((1, 2), edges)]


def integrate_quadratic(amp: SingularAmplitude, qp: QuadraticPhase,
                        omega: float, tol: float) -> OracleValue:
    """int_{p1}^{p2} U e^(i w psi) dp for the quadratic phase by panel
    summation along [p1, p2], at a cost linear in w.

    The band is cut at its midpoint and each half is one adaptive sum from
    its end p_j (``_segment``, tol/2 each) of U(p) e^(-i w (p - p0)^2),
    on the pi-phase points p0 +- sqrt(k pi / w) in closed form, times
    e^(i w c).  |value - true| <= max(tol, abs_error_estimate).  w = 0 is
    accepted; a negative or non-finite w, or a tol that is not finite or
    below 1e-12, is a DomainError; pi-phase panels beyond the default
    evaluation budget are a BudgetError before any panel.
    """
    omega = float(omega)
    if (amp.p1, amp.p2) != (qp.p1, qp.p2):
        raise DomainError("phase and amplitude must share the interval")
    if not (math.isfinite(omega) and omega >= 0.0):
        raise DomainError(f"omega must be finite and >= 0, got {omega}")
    check_tol(tol)
    sums = _segment(amp, qp, omega, tol)
    return OracleValue(
        value=complex(np.exp(1j * omega * qp.c) * sum(v for v, _, _ in sums)),
        abs_error_estimate=sum(e for _, e, _ in sums),
        panel_count=sum(n for _, _, n in sums), method="panels")


# ---------------------------------------------------------------------------
# numerical steepest descent
# ---------------------------------------------------------------------------

_NEAR_C = 3.0     # c_j = |p0 - p_j| sqrt(w) up to this: one straight ray from p_j
_DEPTH = 40.0     # every path stops where its decaying factor reaches e^-40
_DOWN = cmath.exp(-0.25j * math.pi)   # direction of the lower right valley


def _tail(f_end, slope):
    """Bound on the dropped tail int_{x_end}^inf |f| dx of a path, from
    |f(x_end)| = f_end.  It holds when the exponent of the path's decaying
    factor falls with slope at least ``slope`` beyond x_end and the rest of
    |f| grows at most half as fast there: at depth 40, a polynomial u~ of
    degree below 20 whose zeros keep away from the path's end."""
    return 2.0 * f_end / slope


def _far_path(amp, qp, j, omega, tol):
    """(value, error, panels) of int U(h) e^(-i w (h - p0)^2) dh from p_j
    into its valley along h(r) = p0 + s sqrt(d^2 - i r/w), d = p_j - p0,
    s = sign d, where the exponential is e^(-i w d^2) e^(-r).  There
    h - p_j = t z with t = r/w and z = -i s / (g + |d|), g = s (h - p0), so
    summing in v = r^mu_j absorbs the endpoint factor t^(mu_j - 1) of U."""
    p_j, mu = (qp.p1, amp.mu1) if j == 1 else (qp.p2, amp.mu2)
    d = p_j - qp.p0
    s, a = math.copysign(1.0, d), abs(d)

    def f(v):
        r = v ** (1.0 / mu)
        t = r / omega
        g = np.sqrt(d * d - 1j * t)
        z = -1j * s / (g + a)
        h = p_j + t * z
        sides = (z, qp.p2 - h) if j == 1 else (h - qp.p1, -z)
        # dh/dr = -i s / (2 w g)
        return (_amp_on_path(amp, h, *sides) * (-0.5j * s / omega) / g
                * np.exp(-r))

    pre = omega ** (1.0 - mu) / mu
    edges = np.array([0.0, 0.25, 1.0, 2.5, 5.0, 10.0, 20.0, _DEPTH]) ** mu
    value, err, count = adaptive_complex(f, edges, tol=tol / pre,
                                         label=f"steepest descent from p{j}")
    # in r the sum's integrand is pre f(r^mu) mu r^(mu-1), under e^-r
    f_end = abs(f(edges[-1:])[0]) * mu * _DEPTH ** (mu - 1.0)
    return (pre * np.exp(-1j * omega * d * d) * value,
            pre * (err + _tail(f_end, 1.0)), count)


def _near_ray(amp, qp, j, omega, valley, tol):
    """(value, error, panels) of int U(h) e^(-i w (h - p0)^2) dh from p_j
    along the straight ray h = p_j + e x / sqrt(w), x >= 0, into the valley
    e = valley e^(-i pi/4).  With delta = (p_j - p0) sqrt(w) the exponential
    is e^(-i (delta + e x)^2), of modulus e^(-x^2 - k x), k = sqrt(2) valley
    delta; |delta| <= 3 bounds its rise by e^(delta^2 / 2).  Summed in
    v = x^mu_j, which absorbs the endpoint factor of U."""
    p_j, mu = (qp.p1, amp.mu1) if j == 1 else (qp.p2, amp.mu2)
    e = valley * _DOWN
    delta = (p_j - qp.p0) * math.sqrt(omega)
    k = math.sqrt(2.0) * valley * delta
    x_end = 0.5 * (math.sqrt(k * k + 4.0 * _DEPTH) - k)

    def f(v):
        x = v ** (1.0 / mu)
        h = p_j + e * x / math.sqrt(omega)
        sides = (e, qp.p2 - h) if j == 1 else (h - qp.p1, -e)
        return _amp_on_path(amp, h, *sides) * np.exp(-1j * (delta + e * x) ** 2)

    pre = omega ** (-0.5 * mu) / mu
    edges = np.linspace(0.0, x_end, 8) ** mu
    value, err, count = adaptive_complex(f, edges, tol=tol / pre,
                                         label=f"steepest descent from p{j}")
    f_end = abs(f(edges[-1:])[0]) * mu * x_end ** (mu - 1.0)
    return (pre * e * value,
            pre * (err + _tail(f_end, 2.0 * x_end + k)), count)


def _saddle_path(amp, qp, omega, tol):
    """(value, error, panels) of int U(h) e^(-i w (h - p0)^2) dh along
    h = p0 + e^(-i pi/4) x / sqrt(w), x from -inf to inf, where the
    exponential is e^(-x^2): from the upper left valley to the lower right."""
    x_end = math.sqrt(_DEPTH)
    gap1, gap2 = qp.p0 - qp.p1, qp.p2 - qp.p0

    def f(x):
        step = _DOWN * x / math.sqrt(omega)
        return _amp_on_path(amp, qp.p0 + step, gap1 + step, gap2 - step) \
            * np.exp(-x * x)

    pre = 1.0 / math.sqrt(omega)
    value, err, count = adaptive_complex(f, np.linspace(-x_end, x_end, 9),
                                         tol=tol / pre,
                                         label="steepest descent saddle")
    f_end = float(np.sum(np.abs(f(np.array([-x_end, x_end])))))
    return (pre * _DOWN * value,
            pre * (err + _tail(f_end, 2.0 * x_end)), count)


def steepest_descent_quadratic(amp: SingularAmplitude, qp: QuadraticPhase,
                               omega: float, tol: float) -> OracleValue:
    """int_{p1}^{p2} U e^(i w psi) dp for the quadratic phase by numerical
    steepest descent (Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44,
    2006): [p1, p2] is deformed onto paths on which e^(i w psi) decays
    without oscillating, each summed by ``adaptive_complex`` and cut where
    its decaying factor reaches e^-40, with a bound on the dropped tail
    added to the estimate.  |value - true| <= max(tol, abs_error_estimate),
    and the cost does not grow with w.

    e^(-i w (h - p0)^2) decays in two valleys: the lower right
    (arg(h - p0) near -pi/4) and the upper left (near 3 pi/4).
    I = E_1 - E_2 + S: E_j runs from p_j into a valley, S through p0 from
    the upper left valley to the lower right one, taken only when E_1 ends
    upper left and E_2 lower right.  With c_j = |p0 - p_j| sqrt(w):

    * c_j > 3: E_j is the closed-form steepest descent path of
      ``_far_path``, into the valley on p_j's side of p0;
    * c_j <= 3: the saddle is too close to p_j for it; E_j is the straight
      ray of ``_near_ray``, into the valley of the other endpoint's path,
      so that the saddle goes with it.  This is the critical direction
      p0 = p1 and the paper's saddle near the singular endpoint.
    * c_1, c_2 <= 3: the band is narrower than 6 / sqrt(w), and
      w (p - p0)^2 stays below 9 on it: [p1, p2] itself is the path,
      summed from each end by ``_segment`` as in ``integrate_quadratic``.
      Rays would cancel to many digits as w goes to 0.

    Every path leaves the real axis at once into one open half plane and
    stays in it, and what it encloses with [p1, p2] touches the real axis
    only on [p1, p2].  The cuts of the principal powers (h - p1)^(mu1-1)
    and (p2 - h)^(mu2-1), the real half lines left of p1 and right of p2,
    therefore lie outside, and the principal branches continue U from the
    band.  Requires ``amp.analytic``; DomainError otherwise.
    """
    omega = float(omega)
    if not amp.analytic:
        raise DomainError("steepest descent needs an analytic amplitude")
    if (amp.p1, amp.p2) != (qp.p1, qp.p2):
        raise DomainError("phase and amplitude must share the interval")
    if not (math.isfinite(omega) and omega > 0.0):
        raise DomainError(f"omega must be finite and > 0, got {omega}")
    check_tol(tol)
    root = math.sqrt(omega)
    near = [abs(qp.p0 - p) * root <= _NEAR_C for p in (qp.p1, qp.p2)]
    if all(near):
        signs = (1.0, 1.0)
        sums = _segment(amp, qp, omega, tol)
    else:
        # +1: the lower right valley, -1: the upper left one
        valley = [math.copysign(1.0, p - qp.p0) for p in (qp.p1, qp.p2)]
        if near[0]:
            valley[0] = valley[1]
        if near[1]:
            valley[1] = valley[0]
        saddle = valley == [-1.0, 1.0]
        signs = (1.0, -1.0, 1.0) if saddle else (1.0, -1.0)
        part = tol / len(signs)
        sums = [_near_ray(amp, qp, j, omega, valley[j - 1], part) if near[j - 1]
                else _far_path(amp, qp, j, omega, part) for j in (1, 2)]
        if saddle:
            sums.append(_saddle_path(amp, qp, omega, part))
    value = sum(sign * v for sign, (v, _, _) in zip(signs, sums))
    return OracleValue(value=complex(np.exp(1j * omega * qp.c) * value),
                       abs_error_estimate=sum(e for _, e, _ in sums),
                       panel_count=sum(n for _, _, n in sums),
                       method="steepest-descent")

# ---------------------------------------------------------------------------
# solution and geometry
# ---------------------------------------------------------------------------

def evaluate_solution(setup: SchrodingerSetup, t: float, x: float,
                      tol: float = 1e-9) -> complex:
    """u(t, x) with omega = t, absolute accuracy ~ tol: by
    ``steepest_descent_quadratic`` when the amplitude is analytic, at a
    cost that does not grow with t, and otherwise by the panel oracle
    ``integrate_quadratic``."""
    if t <= 0.0:
        raise DomainError("t must be positive")
    if tol < SOLUTION_TOL_FLOOR:
        raise DomainError(f"tol below the supported floor {SOLUTION_TOL_FLOOR:g}")
    p0 = stationary_point(t, x)
    qp = QuadraticPhase(p0=p0, c=p0 * p0, p1=setup.p1, p2=setup.p2)
    oracle = (steepest_descent_quadratic if setup.amp.analytic
              else integrate_quadratic)
    ov = oracle(setup.amp, qp, t, tol * 2.0 * math.pi)
    return complex(ov.value / (2.0 * math.pi))


def stationary_point(t: float, x: float) -> float:
    if t <= 0.0:
        raise DomainError("t must be positive")
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
    """Leading decay exponent of |u| on G_eps and which regime it is in."""
    if not 0.0 < mu < 1.0:
        raise DomainError("mu must lie in (0, 1)")
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be finite and positive, got {eps}")
    if abs(mu - 0.5) < 1e-12:
        return -0.5 + 0.5 * eps, "mu=1/2"
    if mu > 0.5:
        return -0.5 + eps * (1.0 - mu), "mu>1/2"
    return -mu + eps * mu, "mu<1/2"


def curve_coefficients(setup: SchrodingerSetup, eps: float, t: float):
    """(H, K) on G_eps at time t.

    H = (1/(2 sqrt pi)) e^(-i pi/4) e^(i t c) u~(p1 + t^-eps) with
    c = (p1 + t^-eps)^2 (the phase follows the general e^(i w c) coefficient;
    |H| is what the decay statements use), and
    K = Gamma(mu)/(2^(mu+1) pi) e^(i pi mu/2) e^(i t psi(p1)) u~(p1).
    """
    if t <= threshold_time(setup, setup.p2, eps):
        raise DomainError("t must exceed the threshold time of p2")
    mu = setup.mu
    p0 = setup.p1 + t ** (-eps)
    c = p0 * p0
    psi_p1 = -(setup.p1 - p0) ** 2 + c
    u_p0 = complex(setup.amp.u_tilde(p0))
    u_p1 = complex(setup.amp.u_tilde(setup.p1))
    h = (1.0 / (2.0 * math.sqrt(math.pi)) * np.exp(-1j * math.pi / 4.0)
         * np.exp(1j * t * c) * u_p0)
    k = (gamma_pos(mu) / (2.0 ** (mu + 1.0) * math.pi)
         * np.exp(1j * math.pi * mu / 2.0) * np.exp(1j * t * psi_p1) * u_p1)
    return complex(h), complex(k)


def coefficient_bounds(setup: SchrodingerSetup):
    """(R_H, R_K): uniform bounds for |H| and |K|."""
    mu = setup.mu
    r_h = setup.amp.sup_norm_u / (2.0 * math.sqrt(math.pi))
    r_k = gamma_pos(mu) * setup.amp.sup_norm_u / (2.0 ** (mu + 1.0) * math.pi)
    return r_h, r_k


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


def curve_sample(setup: SchrodingerSetup, eps: float, t: float,
                 tol: float = 1e-9):
    """(t, x, u, lead) at the point of G_eps at time t, where lead is the
    leading term of the case: H, K or H + K times t^predicted."""
    predicted, case = predicted_exponents(setup.mu, eps)
    _, x = curve_point(setup, eps, t)
    u = evaluate_solution(setup, t, x, tol)
    h, k = curve_coefficients(setup, eps, t)
    lead = {"mu>1/2": h, "mu<1/2": k, "mu=1/2": h + k}[case] * t ** predicted
    return t, x, u, lead


def curve_verdict(samples: Sequence[tuple], predicted: float,
                  slope_tol: float = 0.05, margin: float = 0.03):
    """(lead_fit, residual_fit, passed) over (t, |u|, |u - lead|) samples.

    Passes when |u| decays at the predicted exponent within slope_tol and
    the residual decays faster than |u| by at least margin.
    """
    lead_fit = fit_decay([(s[0], s[1]) for s in samples])
    residual_fit = fit_decay([(s[0], s[2]) for s in samples])
    passed = (abs(lead_fit.slope - predicted) <= slope_tol
              and residual_fit.slope <= lead_fit.slope - margin)
    return lead_fit, residual_fit, passed


def region_sample(setup: SchrodingerSetup, eps: float, t: float, frac: float,
                  tol: float = 1e-9):
    """(t, x, |u|, |u| t^(-predicted)) on the ray a fraction frac of the way
    from G_eps (frac = 0) to the direction p2, or None when that point lies
    outside N_eps."""
    predicted, _ = predicted_exponents(setup.mu, eps)
    p_curve = setup.p1 + t ** (-eps)
    if p_curve >= setup.p2:
        raise DomainError(f"curve outside the band at t={t}")
    if frac == 0.0:
        _, x = curve_point(setup, eps, t)
    else:
        x = 2.0 * (p_curve + frac * (setup.p2 - p_curve)) * t
        if not region_contains(setup, eps, t, x):
            return None
    u = abs(evaluate_solution(setup, t, x, tol))
    return t, x, u, u / t ** predicted


def critical_sample(setup: SchrodingerSetup, t: float, tol: float = 1e-9):
    """(t, x, |u|) on the critical direction x = 2 p1 t."""
    x = 2.0 * setup.p1 * t
    return t, x, abs(evaluate_solution(setup, t, x, tol))


def verify_curve_expansion(setup: SchrodingerSetup, eps: float,
                           t_grid: Sequence[float], tol: float = 1e-9,
                           slope_tol: float = 0.05,
                           margin: float = 0.03) -> CurveReport:
    """Evaluate u on G_eps, subtract the case-appropriate leading term(s),
    and compare fitted decay slopes against the predicted exponents."""
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
        _, x, u, lead = curve_sample(setup, eps, t, tol)
        rows.append((t, x, u, lead, abs(u), abs(u - lead)))
    lead_fit, residual_fit, passed = curve_verdict(
        [(r[0], r[4], r[5]) for r in rows], predicted, slope_tol, margin)
    notes = (
        "H phase follows e^(i t p0^2), the general-coefficient convention",
        "remainder alpha/beta exponents use L = 1 (non-certified prefactor)",
    )
    return CurveReport(mu=mu, eps=eps, delta=delta, case=case,
                       predicted_exp=predicted, alpha=ce.alpha, beta=ce.beta,
                       lead_fit=lead_fit, residual_fit=residual_fit,
                       passed=passed, rows=tuple(rows), notes=notes)


def critical_direction_fit(setup: SchrodingerSetup, t_grid: Sequence[float],
                           tol: float = 1e-9) -> DecayFit:
    """Fitted |u| decay along x = 2 p1 t (expected slope: -mu/2)."""
    samples = [critical_sample(setup, float(t), tol) for t in t_grid]
    return fit_decay([(s[0], s[2]) for s in samples])


def region_scan(setup: SchrodingerSetup, eps: float, t_grid: Sequence[float],
                n_rays: int = 10, tol: float = 1e-9):
    """Scaled |u| t^(-predicted) over N_eps: interior rays and the boundary.

    Returns (boundary_rows, interior_rows) with rows
    (t, x, |u|, scaled value); the region estimate holds when the interior
    sup stays within a small factor of the boundary sup.
    """
    boundary = []
    interior = []
    for t in t_grid:
        t = float(t)
        boundary.append(region_sample(setup, eps, t, 0.0, tol))
        for i in range(1, n_rays + 1):
            row = region_sample(setup, eps, t, i / (n_rays + 1.0), tol)
            if row is not None:
                interior.append(row)
    return boundary, interior


def supremum_scan(setup: SchrodingerSetup, t: float, n_x: int = 121,
                  half_width: float = 8.0, tol: float = 1e-8):
    """Exploratory scan of |u(t, .)| around the critical direction.

    Samples x = 2 p1 t + eta sqrt(t), eta in [-half_width, half_width], and
    reports sup |u| * t^(mu/2).  Exploration of the conjectured global
    bound; never asserted as a pass/fail criterion.
    """
    if t <= 0.0:
        raise DomainError("t must be positive")
    if n_x < 1:
        raise DomainError(f"n_x must be >= 1, got {n_x}")
    etas = np.linspace(-half_width, half_width, n_x)
    best = 0.0
    best_x = None
    for eta in etas:
        x = 2.0 * setup.p1 * t + eta * math.sqrt(t)
        v = abs(evaluate_solution(setup, t, x, tol))
        if v > best:
            best, best_x = v, x
    return best * t ** (setup.mu / 2.0), best_x
