"""Free Schrodinger evolution for frequency-band data with one singular
frequency, and the space-time geometry of its decay.

The solution is the oscillatory integral

    u(t, x) = (1/2 pi) int_{p1}^{p2} Fu0(p) e^(i t Psi(p)) dp,
    Psi(p) = -(p - x/(2t))^2 + x^2/(4t^2),

so each (t, x) is a quadratic-phase problem with stationary point
p0 = x/(2t) and large parameter t.  On the curves G_eps given by
p0 - p1 = t^-eps the leading decay is t^(-1/2 + eps(1-mu)) or
t^(-mu + eps mu) depending on mu; along the critical direction x = 2 p1 t
it degrades to t^(-mu/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .model import PhaseModel, SingularAmplitude
from .oracle import OracleValue, integrate_oscillatory
from .quadratic import QuadraticPhase, curve_exponents, resolve_delta
from .specfun import gamma_pos

__all__ = [
    "SchrodingerSetup",
    "DecayFit",
    "CurveReport",
    "integrate_quadratic",
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

_SPLIT_MARGIN = 1e-12


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
# amplitude/phase piece builders
# ---------------------------------------------------------------------------

def _grid_norms(p1, p2, f, fp):
    grid = np.linspace(p1, p2, 1024)
    sup = float(np.max(np.abs(np.asarray(f(grid), dtype=complex)))) * (1 + 1e-9)
    supp = float(np.max(np.abs(np.asarray(fp(grid), dtype=complex)))) * (1 + 1e-9)
    sup = max(sup, 1e-300)
    return sup, max(sup, supp)


def _restrict_left(amp: SingularAmplitude, p0: float) -> SingularAmplitude:
    """Amplitude on [p1, p0]; the (p2 - p)^(mu2-1) factor is smooth there."""
    if amp.mu2 == 1.0:
        return SingularAmplitude(amp.p1, p0, amp.mu1, 1.0,
                                 amp.u_tilde, amp.u_tilde_prime,
                                 amp.sup_norm_u, amp.sobolev_norm_u)
    p2, mu2 = amp.p2, amp.mu2
    ut, utp = amp.u_tilde, amp.u_tilde_prime

    def f(p):
        return (p2 - np.asarray(p, dtype=float)) ** (mu2 - 1.0) * np.asarray(ut(p))

    def fp(p):
        p = np.asarray(p, dtype=float)
        return (-(mu2 - 1.0) * (p2 - p) ** (mu2 - 2.0) * np.asarray(ut(p))
                + (p2 - p) ** (mu2 - 1.0) * np.asarray(utp(p)))

    sup, sob = _grid_norms(amp.p1, p0, f, fp)
    return SingularAmplitude(amp.p1, p0, amp.mu1, 1.0, f, fp, sup, sob)


def _reflect(amp: SingularAmplitude, lo: float, hi: float,
             absorb_left: bool) -> SingularAmplitude:
    """Amplitude r -> U(-r) on [-hi, -lo] (regular wherever U was regular).

    absorb_left: fold the (p - p1)^(mu1-1) factor (smooth on [lo, hi]) into
    the regular part, used for pieces to the right of the stationary point.
    """
    p1, mu1 = amp.p1, amp.mu1
    ut, utp = amp.u_tilde, amp.u_tilde_prime
    if absorb_left and mu1 != 1.0:
        def f(r):
            p = -np.asarray(r, dtype=float)
            return (p - p1) ** (mu1 - 1.0) * np.asarray(ut(p))

        def fp(r):
            p = -np.asarray(r, dtype=float)
            return -((mu1 - 1.0) * (p - p1) ** (mu1 - 2.0) * np.asarray(ut(p))
                     + (p - p1) ** (mu1 - 1.0) * np.asarray(utp(p)))

        mu_pair = (amp.mu2, 1.0)
    else:
        def f(r):
            return np.asarray(ut(-np.asarray(r, dtype=float)))

        def fp(r):
            return -np.asarray(utp(-np.asarray(r, dtype=float)))

        mu_pair = (amp.mu2, amp.mu1)
    sup, sob = _grid_norms(-hi, -lo, f, fp)
    return SingularAmplitude(-hi, -lo, mu_pair[0], mu_pair[1], f, fp, sup, sob)


def _piece_phase(qp: QuadraticPhase, lo: float, hi: float,
                 reflected: bool) -> PhaseModel:
    """PhaseModel for psi = -(p-p0)^2 on a monotone piece.

    The constant c is deliberately dropped (the caller re-applies the factor
    e^(i w c)): with it included, pieces whose phase range is far smaller
    than |c| would lose the difference psi(p) - psi(p_j) to cancellation.

    reflected=False: increasing piece (hi <= p0, or p0 past hi).
    reflected=True: the decreasing piece [lo, hi] mapped to [-hi, -lo].
    """
    p0 = qp.p0
    L = hi - lo
    if not reflected:
        rho2 = 2.0 if abs(p0 - hi) <= _SPLIT_MARGIN * L else 1.0

        def tilde(p):
            p = np.asarray(p, dtype=float)
            return 2.0 * np.ones_like(p) if rho2 == 2.0 else 2.0 * (p0 - p)

        return PhaseModel(lo, hi, 1.0, rho2,
                          psi=lambda p: -(np.asarray(p, dtype=float) - p0) ** 2,
                          psi_prime=lambda p: 2.0 * (p0 - np.asarray(p, dtype=float)),
                          psi_tilde=tilde)
    rho2 = 2.0 if abs(p0 - lo) <= _SPLIT_MARGIN * L else 1.0

    def tilde_r(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * np.ones_like(r) if rho2 == 2.0 else 2.0 * (-p0 - r)

    return PhaseModel(-hi, -lo, 1.0, rho2,
                      psi=lambda r: -(-np.asarray(r, dtype=float) - p0) ** 2,
                      psi_prime=lambda r: 2.0 * (-p0 - np.asarray(r, dtype=float)),
                      psi_tilde=tilde_r)


def integrate_quadratic(amp: SingularAmplitude, qp: QuadraticPhase,
                        omega: float, tol: float) -> OracleValue:
    """Oracle value of int_{p1}^{p2} U e^(i w psi) dp for the quadratic
    phase, split at the stationary point only when it is strictly inside."""
    p1, p2 = qp.p1, qp.p2
    L = p2 - p1
    p0 = qp.p0
    if p0 >= p2 - _SPLIT_MARGIN * L:
        pieces = [(_piece_phase(qp, p1, p2, False), amp)]
    elif p0 <= p1 + _SPLIT_MARGIN * L:
        pieces = [(_piece_phase(qp, p1, p2, True), _reflect(amp, p1, p2, False))]
    else:
        pieces = [(_piece_phase(qp, p1, p0, False), _restrict_left(amp, p0)),
                  (_piece_phase(qp, p0, p2, True), _reflect(amp, p0, p2, True))]
    ovs = [integrate_oscillatory(ph, a, omega, tol / len(pieces))
           for ph, a in pieces]
    c_phase = complex(np.exp(1j * omega * qp.c))
    return OracleValue(value=c_phase * sum(ov.value for ov in ovs),
                       abs_error_estimate=sum(ov.abs_error_estimate for ov in ovs),
                       panel_count=sum(ov.panel_count for ov in ovs),
                       method="panels")


# ---------------------------------------------------------------------------
# solution and geometry
# ---------------------------------------------------------------------------

def evaluate_solution(setup: SchrodingerSetup, t: float, x: float,
                      tol: float = 1e-9) -> complex:
    """u(t, x) by the oracle with omega = t; absolute accuracy ~ tol."""
    if t <= 0.0:
        raise DomainError("t must be positive")
    if tol < 1e-10:
        raise DomainError("tol below the supported floor 1e-10")
    p0 = stationary_point(t, x)
    qp = QuadraticPhase(p0=p0, c=p0 * p0, p1=setup.p1, p2=setup.p2)
    ov = integrate_quadratic(setup.amp, qp, t, tol * 2.0 * math.pi)
    return complex(ov.value / (2.0 * math.pi))


def stationary_point(t: float, x: float) -> float:
    if t <= 0.0:
        raise DomainError("t must be positive")
    return x / (2.0 * t)


def curve_point(setup: SchrodingerSetup, eps: float, t: float):
    """The unique (t, x) on G_eps: stationary_point(t, x) - p1 = t^-eps."""
    if t <= 1.0:
        raise DomainError("curve points require t > 1")
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    return t, 2.0 * setup.p1 * t + 2.0 * t ** (1.0 - eps)


def threshold_time(setup: SchrodingerSetup, p: float, eps: float) -> float:
    """T_p = (p - p1)^(-1/eps), the time after which G_eps stays left of
    the direction p: its stationary point p1 + t^-eps reaches p at T_p."""
    if p <= setup.p1:
        raise DomainError("p must exceed p1")
    if eps <= 0.0:
        raise DomainError("eps must be positive")
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
    if eps <= 0.0:
        raise DomainError("eps must be positive")
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
