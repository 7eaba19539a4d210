"""One-term stationary-phase expansion with certified remainder bounds.

For each side j of the cutting point the integral contributes a leading term

    A_j(w) = e^(i w psi(p_j)) k_j(0) theta(j, rho_j, mu_j) w^(-mu_j/rho_j)

and two remainders with fully explicit bounds,

    |R1_j| <= Gamma(1/rho_j)/rho_j * int_0^{s_j} s^(mu_j-1) |k_j'(s)| ds * w^(-1/rho_j),
    |R2_j| <= (rho_j-mu_j)/rho_j * Gamma(1/rho_j) * |U(q)/phi_j'(q)| * phi_j(q)^(-rho_j)
              * w^(-(1+1/rho_j)).

When mu_j = 1 the R1 rate above degenerates to the rate of A_j; for
rho_j >= 2 the refined bound

    |R1_j| <= L * int_0^{s_j} s^(-gamma) |k_j'(s)| ds * w^(-(gamma+1)/rho_j)

applies, taken at gamma = 1/2.  Its prefactor L is not pinned down here:
it is taken as 1, and such terms are flagged non-certified and excluded
from certified totals.  No constant depends on w: ``leading_term``,
``remainder_bound_r1`` and ``remainder_bound_r2`` build each term from the
side's frame alone, once, as a PowerTerm that evaluates at any w > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import PhaseModel, SingularAmplitude, SubstitutionFrame, build_frame
from .quadrules import adaptive_complex, power_edges
from .specfun import gamma_pos, theta

__all__ = [
    "PowerTerm",
    "ExpansionResult",
    "leading_term",
    "remainder_bound_r1",
    "remainder_bound_r2",
    "expand_integral",
    "weighted_kprime_integral",
]


# the mu = 1 branch of R1: weight s^(-_GAMMA) and the unpinned prefactor _L
_GAMMA = 0.5
_L = 1.0
_WK_REL_TOL = 1e-8   # relative accuracy of the weighted k' integral


def check_omega(omega):
    """omega after checking that it (or every entry of an array) is finite
    and > 0; a float for scalar input, a float array otherwise."""
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise DomainError(f"omega must be finite and > 0, got {omega}")
    return w if w.ndim else float(w)


@dataclass(frozen=True)
class PowerTerm:
    """One omega-free term coeff * gap^(-gap_exp) * w^(-omega_exp) * e^(i w phase).

    Exponents are stored as decay exponents (positive numbers mean decay),
    matching the (alpha_k^1, alpha_k^2) bookkeeping of the quadratic case;
    gap_exp is 0 whenever no gap parameter is in play.  ``phase`` is psi(p_j)
    (or c) for a leading term and 0 for a bound.  ``evaluate`` gives the
    complex term, ``value`` its modulus, at scalar or array omega.
    """

    coeff: complex
    omega_exp: float
    gap_exp: float = 0.0
    origin: str = ""
    non_certified: bool = False
    phase: float = 0.0

    def __post_init__(self):
        if not math.isfinite(abs(self.coeff)):
            raise DomainError("coefficient must be finite")

    def coeff_at(self, omega):
        """coeff * e^(i w phase): the coefficient of the power law at omega."""
        return self.coeff * np.exp(1j * check_omega(omega) * self.phase)

    def evaluate(self, omega, gap: float = 1.0):
        w = check_omega(omega)
        return (self.coeff * np.exp(1j * w * self.phase)
                * gap ** (-self.gap_exp) * w ** (-self.omega_exp))

    def value(self, omega, gap: float = 1.0):
        w = check_omega(omega)
        return abs(self.coeff) * gap ** (-self.gap_exp) * w ** (-self.omega_exp)


@dataclass(frozen=True)
class ExpansionResult:
    """Leading terms plus the certified remainder budget, free of omega.

    ``leading`` and ``bound_terms`` are PowerTerms: the expansion is the sum
    of the evaluated leading terms, and the sum of the bound-term moduli at
    (omega, gap) bounds |integral - expansion| at every omega > 0.  ``omega``
    is only the default point of ``leading_sum`` and ``total_bound``.
    """

    leading: tuple
    bound_terms: tuple
    q_used: float
    omega: float
    gap: float = 1.0

    def __post_init__(self):
        if not self.leading:
            raise DomainError("at least one leading term required")

    def leading_sum(self, omega=None):
        w = self.omega if omega is None else omega
        return sum(t.evaluate(w, self.gap) for t in self.leading)

    def total_bound(self, omega=None, certified_only: bool = False):
        w = self.omega if omega is None else omega
        return sum((bt.value(w, self.gap) for bt in self.bound_terms
                    if not (certified_only and bt.non_certified)), 0.0)

    def has_non_certified(self) -> bool:
        return any(bt.non_certified for bt in self.bound_terms)


def leading_term(frame: SubstitutionFrame) -> PowerTerm:
    """A_j = e^(i w psi(p_j)) k_j(0) theta(j, rho_j, mu_j) w^(-mu_j/rho_j),
    free of omega."""
    mu, rho = frame.mu, frame.rho
    return PowerTerm(coeff=complex(frame.k_at_zero * theta(frame.side, rho, mu)),
                     omega_exp=mu / rho, phase=frame.psi_at_end,
                     origin=f"lead_side{frame.side}")


def _zero_crossings(f, b, n_scan=512):
    """Roots of Re f and Im f on (0, b]: each sign change on an n_scan-point
    grid, bisected 20 times, all brackets at once, to about b 2^-29."""
    grid = np.linspace(b / n_scan, b, n_scan)
    vals = f(grid)
    roots = set()
    for part in (np.real, np.imag):
        comp = part(vals)
        i = np.nonzero(np.sign(comp[:-1]) * np.sign(comp[1:]) < 0)[0]
        if i.size == 0:
            continue
        lo, hi, sign_lo = grid[i], grid[i + 1], np.sign(comp[i])
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            left = np.sign(part(f(mid))) == sign_lo
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        roots.update(0.5 * (lo + hi))
    return sorted(roots)


def weighted_kprime_integral(frame: SubstitutionFrame, exponent: float) -> float:
    """int_0^{s_end} s^exponent |k'(s)| ds with exponent in (-1, 0], summed
    in xi = |p - p_j| as int_0^{xi_q} xi^exponent Y^exponent |dk/dxi| dxi,
    with Y = phi/xi smooth and dk/dxi = d/dxi k(phi(p)).

    One adaptive G7/K15 sum in v = xi^a, a = exponent + 1, absorbs the
    weight xi^exponent: the integral is (1/a) int_0^{xi_q^a} Y^exponent
    |dk/dxi| dv.  Its edges are ``power_edges`` of the zero crossings of
    Re k' / Im k' (|k'| loses smoothness where k' passes through zero) and
    of xi_q, to relative accuracy 1e-8.  Y comes from the frame's pass at
    each node, so it stays finite where p_j +- xi rounds to p_j.  No node
    inverts phi.
    """
    if not -1.0 < exponent <= 0.0:
        raise DomainError("weight exponent must lie in (-1, 0]")
    a = exponent + 1.0
    xi_q = frame.hi_dist

    def f(v):
        _, y, _, dk = frame.phi_y_k_dk(frame.endpoint
                                       + frame.sign * v ** (1.0 / a))
        return y ** exponent * np.abs(dk)

    crossings = _zero_crossings(
        lambda xi: frame.dk_dxi(frame.endpoint + frame.sign * xi), xi_q)
    value, err, _ = adaptive_complex(
        f, power_edges(np.array(crossings + [xi_q]), a), rel_tol=_WK_REL_TOL,
        label="weighted k'")
    if err > 10.0 * _WK_REL_TOL * max(value.real, 1e-300):
        raise DomainError(f"weighted k' quadrature stuck at error {err / a:.2e}")
    return float(value.real) / a


def remainder_bound_r1(frame: SubstitutionFrame) -> PowerTerm:
    """Certified bound for the remainder driven by k' (R1 of the side).

    For mu < 1: Gamma(1/rho)/rho * int s^(mu-1)|k'| ds * w^(-1/rho).
    For mu = 1 (requires rho >= 2): L * int s^(-gamma)|k'| ds
    * w^(-(gamma+1)/rho) with gamma = 1/2 and L = 1, an unpinned prefactor,
    so the term is flagged non-certified.
    """
    mu, rho = frame.mu, frame.rho
    origin = f"r1_side{frame.side}"
    if mu < 1.0:
        integral = weighted_kprime_integral(frame, mu - 1.0)
        return PowerTerm(coeff=gamma_pos(1.0 / rho) / rho * integral,
                         omega_exp=1.0 / rho, origin=origin)
    if rho < 2.0:
        raise DomainError(f"side {frame.side}: mu = 1 needs rho >= 2")
    integral = weighted_kprime_integral(frame, -_GAMMA)
    return PowerTerm(coeff=_L * integral, omega_exp=(_GAMMA + 1.0) / rho,
                     origin=origin, non_certified=True)


def remainder_bound_r2(frame: SubstitutionFrame) -> PowerTerm:
    """Certified closed-form bound for the cutting-point remainder."""
    mu, rho = frame.mu, frame.rho
    u_q = abs(frame.amp.value(frame.q))
    dphi_q = abs(frame.phi_prime(frame.q))
    coeff = ((rho - mu) / rho * gamma_pos(1.0 / rho) * u_q / dphi_q
             * frame.s_end ** (-rho))
    return PowerTerm(coeff=float(coeff), omega_exp=1.0 + 1.0 / rho,
                     origin=f"r2_side{frame.side}")


def expand_integral(phase: PhaseModel, amp: SingularAmplitude, q: float,
                    omega: float) -> ExpansionResult:
    """Both leading terms A_1, A_2 and the four remainder bounds at cut q,
    with ``omega`` as the default evaluation point.

    Requires 0 < mu_j < 1 (fully explicit branch) or mu_j = 1 with
    rho_j >= 2 (flagged non-certified R1).
    """
    omega = check_omega(omega)
    leading = []
    bounds = []
    for side in (1, 2):
        frame = build_frame(phase, amp, side, q)
        leading.append(leading_term(frame))
        bounds += [remainder_bound_r1(frame), remainder_bound_r2(frame)]
    return ExpansionResult(leading=tuple(leading), bound_terms=tuple(bounds),
                           q_used=float(q), omega=omega)


def check_rate_ordering(result: ExpansionResult) -> bool:
    """Every certified remainder rate must be strictly faster than the
    leading rate of its side: omega_exp(bound) >= 1/rho_j > mu_j/rho_j when
    mu_j < 1."""
    lead = {t.origin.split("_")[-1]: t.omega_exp for t in result.leading}
    return all(bt.omega_exp > lead[bt.origin.split("_")[-1]]
               for bt in result.bound_terms if not bt.non_certified)
