"""One-term stationary-phase expansion with certified remainder bounds.

For each side j of the cutting point the integral contributes a leading term

    A_j(w) = e^(i w psi(p_j)) k_j(0) theta(j, rho_j, mu_j) w^(-mu_j/rho_j)

and two remainders with fully explicit bounds,

    |R1_j| <= Gamma(1/rho_j)/rho_j * int_0^{s_j} s^(mu_j-1) |k_j'(s)| ds * w^(-1/rho_j),
    |R2_j| <= (rho_j-mu_j)/rho_j * Gamma(1/rho_j) * |U(q)/phi_j'(q)| * phi_j(q)^(-rho_j)
              * w^(-(1+1/rho_j)).

When mu_j = 1 the R1 rate above degenerates to the rate of A_j; for
rho_j >= 2 a sharper weighted bound L * int s^(-gamma) |k'| * w^(-delta)
applies, but its prefactor L is not pinned down here, so such terms are
flagged non-certified and excluded from certified totals.  No constant
depends on w: ``leading_term``, ``remainder_bound_r1`` and
``remainder_bound_r2`` build each term from the side's frame alone, once,
as a PowerTerm that evaluates at any w > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import PhaseModel, SingularAmplitude, SubstitutionFrame, build_frame
from .quadrules import adaptive_complex, jacobi_nodes_01
from .specfun import gamma_pos, theta

__all__ = [
    "ExpansionConfig",
    "PowerTerm",
    "ExpansionResult",
    "leading_term",
    "remainder_bound_r1",
    "remainder_bound_r2",
    "expand_integral",
    "weighted_kprime_integral",
]


@dataclass(frozen=True)
class ExpansionConfig:
    """Knobs for the mu = 1 remainder branch.

    The bound decays like w^(-delta) with delta = (gamma + 1)/rho on the
    side it is applied to; L_const defaults to 1 and marks the bound
    non-certified.
    """

    gamma: float = 0.5
    L_const: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise DomainError("gamma must lie in (0, 1)")
        if self.L_const <= 0.0:
            raise DomainError("L_const must be positive")

    def delta_for(self, rho: float) -> float:
        return (self.gamma + 1.0) / rho


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
        return self.coeff_at(w) * gap ** (-self.gap_exp) * w ** (-self.omega_exp)

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


def _zero_crossing_edges(f, s_end, n_scan=512):
    """Panel edges at sign changes of Re f and Im f on (0, s_end]."""
    grid = np.linspace(s_end / n_scan, s_end, n_scan)
    vals = f(grid)
    edges = set()
    for comp in (np.real(vals), np.imag(vals)):
        flips = np.nonzero(np.sign(comp[:-1]) * np.sign(comp[1:]) < 0)[0]
        for i in flips:
            edges.add(0.5 * (grid[i] + grid[i + 1]))
    return sorted(edges)


def weighted_kprime_integral(frame: SubstitutionFrame, exponent: float,
                             rel_tol: float = 1e-8) -> float:
    """int_0^{s_end} s^exponent |k'(s)| ds with exponent in (-1, 0].

    Gauss-Jacobi absorbs the weight on a first panel [0, s_end/8]; the rest
    is adaptive G7/K15 with panel edges at detected zero crossings of
    Re k' / Im k' (|k'| loses smoothness where k' passes through zero).
    """
    if not -1.0 < exponent <= 0.0:
        raise DomainError("weight exponent must lie in (-1, 0]")
    s_end = frame.s_end
    crossings = _zero_crossing_edges(frame.k_prime, s_end)
    a0 = s_end / 8.0
    if crossings and crossings[0] < a0:
        a0 = 0.8 * crossings[0]    # keep |k'| smooth on the Jacobi panel

    def head_val(n):
        v, w = jacobi_nodes_01(n, exponent)
        s = a0 * v
        return a0 ** (exponent + 1.0) * float(np.abs(frame.k_prime(s)) @ w)

    head, head_ref = head_val(40), head_val(80)
    head_err = abs(head - head_ref)
    head = head_ref

    def f(s):
        return np.abs(frame.k_prime(s)) * s ** exponent + 0j

    edges = [a0] + [e for e in crossings if e > a0] + [s_end]
    edges = np.unique(np.asarray(edges))
    refined = np.unique(np.concatenate([
        np.linspace(edges[i], edges[i + 1], 5) for i in range(edges.size - 1)]))
    tail, tail_err, _ = adaptive_complex(f, refined, tol=rel_tol * head,
                                         rel_tol=rel_tol, label="weighted k'")
    total = head + float(tail.real)
    if head_err + tail_err > 10.0 * rel_tol * max(total, 1e-300):
        raise DomainError(
            f"weighted k' quadrature stuck at error {head_err + tail_err:.2e}")
    return total


def remainder_bound_r1(frame: SubstitutionFrame,
                       config: ExpansionConfig | None = None) -> PowerTerm:
    """Certified bound for the remainder driven by k' (R1 of the side).

    For mu < 1: Gamma(1/rho)/rho * int s^(mu-1)|k'| ds * w^(-1/rho).
    For mu = 1 (requires rho >= 2 and a config): L * int s^(-gamma)|k'| ds
    * w^(-delta), delta = (gamma+1)/rho -- non-certified prefactor.
    """
    mu, rho = frame.mu, frame.rho
    origin = f"r1_side{frame.side}"
    if mu < 1.0:
        integral = weighted_kprime_integral(frame, mu - 1.0)
        return PowerTerm(coeff=gamma_pos(1.0 / rho) / rho * integral,
                         omega_exp=1.0 / rho, origin=origin)
    if rho < 2.0:
        raise DomainError(f"side {frame.side}: mu = 1 needs rho >= 2")
    if config is None:
        raise DomainError("mu = 1 branch requires an ExpansionConfig")
    integral = weighted_kprime_integral(frame, -config.gamma)
    return PowerTerm(coeff=config.L_const * integral,
                     omega_exp=config.delta_for(rho), origin=origin,
                     non_certified=True)


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
                    config: ExpansionConfig, omega: float) -> ExpansionResult:
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
        bounds += [remainder_bound_r1(frame, config), remainder_bound_r2(frame)]
    return ExpansionResult(leading=tuple(leading), bound_terms=tuple(bounds),
                           q_used=float(q), omega=omega)


def check_rate_ordering(result: ExpansionResult) -> bool:
    """Every certified remainder rate must be strictly faster than the
    leading rate of its side: omega_exp(bound) >= 1/rho_j > mu_j/rho_j when
    mu_j < 1."""
    lead = {t.origin.split("_")[-1]: t.omega_exp for t in result.leading}
    return all(bt.omega_exp > lead[bt.origin.split("_")[-1]]
               for bt in result.bound_terms if not bt.non_certified)
