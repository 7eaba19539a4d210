"""Quadratic-phase specialization: psi(p) = -(p - p0)^2 + c with a single
amplitude singularity (p - p1)^(mu - 1) at the left endpoint.

Everything is explicit here.  With gap := p0 - p1 and the cutting point at
the midpoint q = p1 + gap/2, the two pieces I1 = int_{p1}^{p0} and
I2 = int_{p0}^{p2} expand as

    I1 ~ K (gap)^(-mu) w^(-mu)  +  H1 (gap)^(mu-1) w^(-1/2)
    I2 ~ H2 (gap)^(mu-1) w^(-1/2)

with eight remainder contributions R_k * gap^(-a) * w^(-b) whose
coefficients depend only on the amplitude norms.  On the curves
p0 = p1 + w^(-eps) the remainder decays like w^(-alpha(eps, delta)) on the
singular side and w^(-beta(eps, delta)) on the regular side, both strictly
faster than the leading terms for eps < delta - 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import amplitude
from .errors import DomainError
from .expansion import ExpansionResult, PowerTerm, check_omega
from .model import SingularAmplitude
from .specfun import gamma_pos

__all__ = [
    "QuadraticPhase",
    "CurveExponents",
    "quadratic_remainder_terms",
    "curve_exponents",
    "expand_quadratic",
    "resolve_delta",
]

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadraticPhase:
    """psi(p) = -(p - p0)^2 + c on [p1, p2]."""

    p0: float
    c: float
    p1: float
    p2: float

    def __post_init__(self):
        if not (math.isfinite(self.p0) and math.isfinite(self.c)
                and self.p1 < self.p2):
            raise DomainError("need finite parameters and p1 < p2")

    @property
    def gap(self) -> float:
        return self.p0 - self.p1

    @property
    def poly(self):
        """(c0, c1, c2) with psi(p) = c0 + c1 p + c2 p^2."""
        return (self.c - self.p0 * self.p0, 2.0 * self.p0, -1.0)

    def psi(self, p):
        return -(np.asarray(p, dtype=float) - self.p0) ** 2 + self.c

    def require_interior(self):
        if not (self.p1 < self.p0 < self.p2):
            raise DomainError(
                f"stationary point p0={self.p0} outside ({self.p1}, {self.p2})")


@dataclass(frozen=True)
class CurveExponents:
    """Decay bookkeeping on the curve p0 = p1 + w^(-eps)."""

    eps: float
    delta: float
    lead_mu_exp: float
    lead_half_exp: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not -self.alpha < min(self.lead_mu_exp, self.lead_half_exp):
            raise DomainError("alpha fails the remainder-vs-leading ordering")
        if not -self.beta < self.lead_half_exp:
            raise DomainError("beta fails the remainder-vs-leading ordering")

    @property
    def min_gap(self) -> float:
        """Distance between the slowest remainder and the fastest leading
        rate; tends to 0 (linearly, via the regular side) as
        eps -> delta - 1/2."""
        gap_alpha = min(self.lead_mu_exp, self.lead_half_exp) - (-self.alpha)
        gap_beta = self.lead_half_exp - (-self.beta)
        return min(gap_alpha, gap_beta)


def check_amp(amp: SingularAmplitude):
    """DomainError unless ``amp`` is a band datum of the quadratic case:
    mu1 in (0, 1) at p1, a regular right end (mu2 = 1) and
    |u~(p2)| <= 1e-12 sup |u~|, so that U vanishes at p2."""
    if amp.mu2 != 1.0:
        raise DomainError("quadratic case requires a regular right endpoint (mu2 = 1)")
    if not 0.0 < amp.mu1 < 1.0:
        raise DomainError("quadratic case requires mu1 in (0, 1)")
    if abs(complex(amp.u_tilde(amp.p2))) > 1e-12 * max(amp.sup_norm_u, 1e-300):
        raise DomainError("amplitude must vanish at p2")


def check_delta(mu: float, delta: float):
    """DomainError unless delta lies in [(mu+1)/2, 1)."""
    if not (mu + 1.0) / 2.0 <= delta < 1.0:
        raise DomainError(
            f"delta={delta} outside [(mu+1)/2, 1) = [{(mu + 1) / 2}, 1)")


def resolve_delta(mu: float, eps: float | None = None) -> float:
    """Smallest admissible delta, raised just enough to admit eps.

    Default is (mu+1)/2; when the requested eps violates
    eps < delta - 1/2, delta moves to the midpoint of (eps + 1/2, 1).
    """
    if not 0.0 < mu < 1.0:
        raise DomainError("mu must lie in (0, 1)")
    d0 = (mu + 1.0) / 2.0
    if eps is None or eps < d0 - 0.5:
        return d0
    if eps >= 0.5:
        raise DomainError("eps must be below 1/2")
    return 0.5 * (eps + 0.5 + 1.0)


def _leading_terms(amp: SingularAmplitude, qp: QuadraticPhase):
    """K gap^(-mu) w^(-mu) with phase psi(p1); H1, H2 gap^(mu-1) w^(-1/2)
    with phase c."""
    mu = amp.mu1
    u1 = complex(amp.u_tilde(qp.p1))
    u0 = complex(amp.u_tilde(qp.p0))
    k = complex(gamma_pos(mu) / 2.0 ** mu * np.exp(1j * math.pi * mu / 2.0) * u1)
    h = complex(_SQRT_PI / 2.0 * np.exp(-1j * math.pi / 4.0) * u0)
    return (PowerTerm(k, omega_exp=mu, gap_exp=mu,
                      phase=float(qp.psi(qp.p1)), origin="lead_side1"),
            PowerTerm(h, omega_exp=0.5, gap_exp=1.0 - mu, phase=qp.c,
                      origin="lead_side2"),
            PowerTerm(h, omega_exp=0.5, gap_exp=1.0 - mu, phase=qp.c,
                      origin="lead_right"))


def quadratic_remainder_terms(amp: SingularAmplitude, delta: float):
    """The eight remainder power terms (six for I1, two for I2).

    Each PowerTerm contributes coeff * gap^(-gap_exp) * w^(-omega_exp);
    terms carrying the unpinned prefactor L, taken as 1, are flagged
    non_certified.
    """
    check_amp(amp)
    mu = amp.mu1
    check_delta(mu, delta)
    gamma = 2.0 * delta - 1.0
    w_norm = amp.sobolev_norm_u
    s_norm = amp.sup_norm_u
    band = amp.p2 - amp.p1
    l_fac = 1.0 / (1.0 - gamma)
    side1 = [
        PowerTerm(2.0 ** (1 - mu) / mu * 2.0 * (2.0 - mu) * w_norm,
                  omega_exp=1.0, gap_exp=2.0 - mu, origin="r1_side1"),
        PowerTerm(2.0 ** (1 - mu) / mu * w_norm,
                  omega_exp=1.0, gap_exp=1.0 - mu, origin="r1_side1"),
        PowerTerm((1.0 - mu) * 2.0 ** (2.0 - mu) * s_norm,
                  omega_exp=2.0, gap_exp=4.0 - mu, origin="r2_side1"),
        PowerTerm(l_fac * 2.0 ** (gamma - mu) * 2.0 * (1.0 - mu) * w_norm,
                  omega_exp=delta, gap_exp=1.0 + gamma - mu,
                  origin="r1_side2", non_certified=True),
        PowerTerm(l_fac * 2.0 ** (gamma - mu) * w_norm,
                  omega_exp=delta, gap_exp=gamma - mu,
                  origin="r1_side2", non_certified=True),
        PowerTerm(_SQRT_PI * 2.0 ** (2.0 - mu) * s_norm,
                  omega_exp=1.5, gap_exp=3.0 - mu, origin="r2_side2"),
    ]
    side2 = [
        PowerTerm(l_fac * band ** (1.0 - gamma) * (1.0 - mu) * w_norm,
                  omega_exp=delta, gap_exp=2.0 - mu,
                  origin="r1_right", non_certified=True),
        PowerTerm(l_fac * band ** (1.0 - gamma) * w_norm,
                  omega_exp=delta, gap_exp=1.0 - mu,
                  origin="r1_right", non_certified=True),
    ]
    return side1, side2


def curve_exponents(mu: float, eps: float, delta: float) -> CurveExponents:
    """alpha, beta such that the remainders decay like w^-alpha, w^-beta on
    the curve p0 = p1 + w^-eps; admissible for eps in (0, delta - 1/2)."""
    if not 0.0 < mu < 1.0:
        raise DomainError("mu must lie in (0, 1)")
    check_delta(mu, delta)
    if not 0.0 < eps < delta - 0.5:
        raise DomainError(
            f"eps={eps} outside the admissible open interval (0, {delta - 0.5})")
    side1, side2 = quadratic_remainder_terms(amplitude("intro", mu=mu), delta)
    alpha = -max(eps * t.gap_exp - t.omega_exp for t in side1)
    beta = -max(eps * t.gap_exp - t.omega_exp for t in side2)
    return CurveExponents(eps=eps, delta=delta,
                          lead_mu_exp=-mu + eps * mu,
                          lead_half_exp=-0.5 + eps * (1.0 - mu),
                          alpha=alpha, beta=beta)


def expand_quadratic(amp: SingularAmplitude, qp: QuadraticPhase,
                     omega: float) -> ExpansionResult:
    """Leading terms and the eight-term remainder budget for the full
    integral I1 + I2, with ``omega`` as the default evaluation point.

    The cutting point is the midpoint q = p1 + gap/2, the choice the
    printed constants assume, and delta is the smallest admissible one,
    (mu + 1)/2.  DomainError unless the phase and the amplitude share the
    band [p1, p2] and p0 lies inside it.
    """
    omega = check_omega(omega)
    if (amp.p1, amp.p2) != (qp.p1, qp.p2):
        raise DomainError("phase and amplitude must share the interval")
    qp.require_interior()
    check_amp(amp)
    gap = qp.gap
    side1, side2 = quadratic_remainder_terms(amp, resolve_delta(amp.mu1))
    return ExpansionResult(leading=_leading_terms(amp, qp),
                           bound_terms=tuple(side1 + side2),
                           q_used=float(qp.p1 + 0.5 * gap),
                           omega=omega, gap=float(gap))
