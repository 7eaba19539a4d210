"""High-accuracy reference evaluation of the oscillatory integrals.

Two independent routes to the same numbers.  Both split the integral at a
cutting point q and take everything about a side from the frame of
``model.build_frame``: endpoint, s_end, the phase factor e^(i w psi(p_j))
from ``psi_at_end``, and phi_j^-1 at the pi-phase panel edges.  Both refuse
a side whose pi-phase panels alone would exceed the evaluation budget
before building them.  They share nothing else:

* ``integrate_oscillatory`` sums each side exactly as it is,
  int from p_j to q of U(p) e^(i w psi(p)) dp, in the variable
  v = |p - p_j|^mu_j, which absorbs the endpoint factor of U.  Its nodes
  evaluate the regular factor V_j of U and phi_j^rho_j = |psi - psi(p_j)|;
  it never evaluates k_j and never inverts phi_j at a node.

* ``integrate_by_parts_check`` rebuilds each side from the primitive Phi of
  s^(mu-1) e^(+-i w s^rho) -- a ray integral in the complex plane along
  s + t e^(+-i pi/(2 rho)), where the oscillation turns into e^(-w t^rho)
  decay -- as boundary terms minus int_0^{s_j} Phi(s) k'(s) ds.  Its nodes
  evaluate Phi on the ray and k, k' in s.

Within their combined error estimates the two must agree; every certified
bound in the package is checked against these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError
from .model import PhaseModel, SingularAmplitude, SubstitutionFrame, build_frame
from .quadrules import (DEFAULT_BUDGET, KRONROD_NODES, adaptive_complex,
                        gauss_nodes, geometric_edges, panel_nodes)
from .specfun import theta

__all__ = [
    "OracleValue",
    "integrate_oscillatory",
    "phi_primitive",
    "integrate_by_parts_check",
    "reconstruct_total",
]

RAY_CUTOFF = 46.0          # e^-46 ~ 1e-20: ray truncation at w t^rho = 46


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


def _sig(side: int) -> float:
    """Sign of the oscillation exponent: +1 on side 1, -1 on side 2."""
    return 1.0 if side == 1 else -1.0


def _phase_edges(omega, rho, s_lo, s_hi, cap):
    """Edges of [s_lo, s_hi] with phase increments w*(s^rho) of at most pi
    and panel length of at most ``cap``."""
    if s_hi <= s_lo:
        return np.array([s_lo, s_hi])
    if omega <= 0.0:
        n = max(1, int(np.ceil((s_hi - s_lo) / cap)))
        return np.linspace(s_lo, s_hi, n + 1)
    n = int(np.ceil(omega * (s_hi ** rho - s_lo ** rho) / math.pi))
    k = np.arange(n + 1, dtype=float)
    edges = (s_lo ** rho + k * math.pi / omega) ** (1.0 / rho)
    edges[0], edges[-1] = s_lo, s_hi
    edges = np.clip(edges, s_lo, s_hi)
    # enforce the length cap (can bind near s = 0 when rho > 1): panel i
    # becomes m[i] equal parts, as np.linspace(edges[i], edges[i+1], m[i]+1)
    width = np.diff(edges)
    m = np.where(width > cap, np.ceil(width / cap), 1.0).astype(np.int64)
    first = np.cumsum(m) - m
    j = np.arange(first[-1] + m[-1]) - np.repeat(first, m)
    out = j * np.repeat(width / m, m) + np.repeat(edges[:-1], m)
    return np.unique(np.append(out, s_hi))


def _check_budget(frame: SubstitutionFrame, omega: float, budget: int):
    """BudgetError when a side's pi-phase panels alone, about
    KRONROD_NODES * (w s_end^rho / pi + 16) evaluations, exceed ``budget``:
    raised before the edges are built, whose number grows like w."""
    est = KRONROD_NODES * (omega * frame.s_end ** frame.rho / math.pi + 16)
    if est > budget:
        raise BudgetError(
            f"side {frame.side}: ~{est:.0f} evaluations exceed budget {budget}",
            diagnostics={"evaluations_needed": est, "budget": budget,
                         "omega": omega})


def _side_integral(frame: SubstitutionFrame, omega: float, tol_abs: float,
                   budget: int):
    """M_j = int_0^{s_end} k(s) s^(mu-1) e^(sig i w s^rho) ds, that is the
    side sign times int_0^{xi_q} U e^(sig i w phi^rho) dxi, xi = |p - p_j|.

    Summed in v = xi^mu, which absorbs the factor xi^(mu-1) of U:
    M_j = sign/mu * int_0^{xi_q^mu} V_j(p(v)) e^(sig i w phi(p(v))^rho) dv
    with p(v) = p_j +- v^(1/mu).  The panel edges are the pi-phase s-edges,
    each inverted once, behind a geometric head.
    """
    mu, rho, s_end = frame.mu, frame.rho, frame.s_end
    sig = _sig(frame.side)
    _check_budget(frame, omega, budget)

    a0 = s_end / 8.0
    if omega > 0.0:
        a0 = min(a0, (math.pi / omega) ** (1.0 / rho))
    xi = frame.inv_dist(_phase_edges(omega, rho, a0, s_end, s_end / 8.0))
    xi[-1] = frame.hi_dist
    edges = np.concatenate(([0.0], xi[0] ** mu * 0.25 ** np.arange(5, 0, -1.0),
                            xi ** mu))

    def f(v):
        p = frame.endpoint + frame.sign * v ** (1.0 / mu)
        return frame.v_reg(p) * np.exp(sig * 1j * omega * frame.phi_rho(p))

    value, err, count = adaptive_complex(f, edges, tol=mu * tol_abs,
                                         budget=budget, label=f"side {frame.side}")
    return frame.sign / mu * value, err / mu, count


def integrate_oscillatory(phase: PhaseModel, amp: SingularAmplitude,
                          omega: float, tol: float,
                          budget: int = DEFAULT_BUDGET) -> OracleValue:
    """int_{p1}^{p2} U(p) e^(i w psi(p)) dp by panel summation.

    The integral is split at the interval midpoint (the value does not
    depend on the split) and each side is one adaptive sum of pi-phase
    G7/K15 panels in v = |p - p_j|^mu_j.
    |value - true| <= max(tol, abs_error_estimate).

    ``budget`` counts integrand evaluations, allowed to each side's adaptive
    panel sum; BudgetError when one would exceed it.
    """
    omega = float(omega)
    if not (math.isfinite(omega) and omega >= 0.0):
        raise DomainError(f"omega must be finite and >= 0, got {omega}")
    if tol < 1e-12:
        raise DomainError("tol below the supported floor 1e-12")
    q = 0.5 * (phase.p1 + phase.p2)
    total = 0j
    err = 0.0
    count = 0
    for side in (1, 2):
        frame = build_frame(phase, amp, side, q)
        m, e, n = _side_integral(frame, omega, 0.5 * tol, budget)
        ph = np.exp(1j * omega * frame.psi_at_end)
        total += _sig(side) * ph * m
        err += e
        count += n
    return OracleValue(value=complex(total), abs_error_estimate=err,
                       panel_count=count, method="panels")


# ---------------------------------------------------------------------------
# ray primitive
# ---------------------------------------------------------------------------

def _ray_integral(s, omega, rho, mu, side, rel_tol=1e-11):
    """J(s) = int over the ray of z^(mu-1) e^(sig i w z^rho) dz."""
    sig = _sig(side)
    direction = np.exp(sig * 1j * math.pi / (2.0 * rho))
    t_max = (RAY_CUTOFF / omega) ** (1.0 / rho)

    if s == 0.0:
        # purely decaying: z^rho = +- i t^rho on the ray
        pre = direction * np.exp(sig * 1j * math.pi * (mu - 1.0) / (2.0 * rho))
        if mu != 1.0:
            def f(v):
                t = v ** (1.0 / mu)
                return (1.0 / mu) * np.exp(-omega * t ** rho) + 0j
            v_hi = t_max ** mu
            edges = np.concatenate(([0.0], v_hi * 0.2 ** np.arange(8, -1, -1.0)))
        else:
            def f(t):
                return np.exp(-omega * t ** rho) + 0j
            edges = np.concatenate(([0.0], t_max * 0.2 ** np.arange(8, -1, -1.0)))
    else:
        pre = 1.0

        def f(t):
            z = s + t * direction
            return z ** (mu - 1.0) * np.exp(sig * 1j * omega * z ** rho) * direction

        edges = _phase_edges(omega, rho, s, s + t_max, np.inf) - s
        # resolve both the decay scale and the |z|^(mu-1) corner at t ~ s
        if edges.size > 1 and edges[1] > 0:
            first = max(min(0.25 * s, edges[1] / 64.0), edges[1] * 1e-12)
            fine = geometric_edges(0.0, edges[1], first)
            edges = np.unique(np.concatenate((fine, edges)))
    return pre * adaptive_complex(f, edges, rel_tol=rel_tol, label="ray")[0]


def phi_primitive(s: float, omega: float, rho: float, mu: float, side: int,
                  tol: float = 1e-10) -> complex:
    """Ray integral normalised so that the s = 0 value is
    theta(side, rho, mu) * omega^(-mu/rho).

    The sign convention follows the endpoint coefficients: the function
    returned here is (-1)^side times the primitive of
    s^(mu-1) e^((-1)^(side+1) i w s^rho) used in the parts identity.
    """
    s, omega = float(s), float(omega)
    if s < 0.0:
        raise DomainError("s must be >= 0")
    if not (math.isfinite(omega) and omega > 0.0):
        raise DomainError(f"omega must be finite and > 0, got {omega}")
    if not (0.0 < mu <= 1.0) or rho < 1.0:
        raise DomainError("need mu in (0,1] and rho >= 1")
    if side not in (1, 2):
        raise DomainError("side must be 1 or 2")
    sign = 1.0 if side == 1 else -1.0   # (-1)^(side+1)
    return sign * _ray_integral(s, omega, rho, mu, side, rel_tol=tol)


# ---------------------------------------------------------------------------
# parts identity
# ---------------------------------------------------------------------------

_TAU_PANELS = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, RAY_CUTOFF])


def _panel_grid(edges):
    """15-point Gauss nodes and weights on every panel of ``edges``."""
    x, w = gauss_nodes(15)
    nodes, half = panel_nodes(edges[:-1], edges[1:], x)
    return nodes.ravel(), (half[:, None] * w).ravel()


def _tau_grid():
    return _panel_grid(_TAU_PANELS)


def _fine_tau_grid():
    head = geometric_edges(0.0, 1.0, 1.0 / 16.0)
    return _panel_grid(np.unique(np.concatenate((head, _TAU_PANELS))))


def _laplace_factor(s_nodes, omega, mu, side):
    """L(s) = int_0^inf (s + sig i tau/w)^(mu-1) e^-tau dtau on an array of
    s with w s >= 1 (rho = 1 fast path).  Uses a common tau grid for
    w s >= 4 and a per-node refined grid below (the integrand has a
    near-singularity at distance w s from the path)."""
    sig = _sig(side)
    s_nodes = np.asarray(s_nodes, dtype=float)
    out = np.empty(s_nodes.shape, dtype=complex)
    big = omega * s_nodes >= 4.0
    if big.any():
        tau, wts = _tau_grid()
        zb = s_nodes[big, None] + sig * 1j * tau[None, :] / omega
        out[big] = (zb ** (mu - 1.0) * np.exp(-tau[None, :])) @ wts
    if (~big).any():
        # 1 <= w s < 4: shared grid refined to 1/16 near tau = 0
        tau, wts = _fine_tau_grid()
        zb = s_nodes[~big, None] + sig * 1j * tau[None, :] / omega
        out[~big] = (zb ** (mu - 1.0) * np.exp(-tau[None, :])) @ wts
    return out


def _series_increment(s_nodes, omega, mu, side, n_terms=24):
    """int_0^s r^(mu-1) e^(sig i w r) dr for w s <= 1, by the power series
    sum_n (sig i w)^n s^(n+mu) / (n! (n+mu))."""
    sig = _sig(side)
    s_nodes = np.asarray(s_nodes, dtype=float)
    acc = np.zeros(s_nodes.shape, dtype=complex)
    term = np.ones(s_nodes.shape, dtype=complex)   # (sig i w s)^n / n!
    smu = s_nodes ** mu
    for n in range(n_terms):
        acc = acc + term * smu / (n + mu)
        term = term * (sig * 1j * omega * s_nodes) / (n + 1)
    return acc


class _PrimitiveEval:
    """Vectorized Phi(s) with a Chebyshev-in-log accelerator.

    Every rho runs on the rho = 1 path: the substitution r = s^rho gives
    Phi_rho(s; mu) = Phi_1(s^rho; mu/rho) / rho, with mu/rho in (0, 1].
    Below, s and mu are the rho = 1 variables r and mu/rho.
    """

    def __init__(self, omega, rho, mu, side, s_end):
        self.rho = rho
        mu, s_end = mu / rho, s_end ** rho
        self.omega, self.mu, self.side = omega, mu, side
        self.sig = _sig(side)
        self.cheb = None
        self.s_lo = 4.0 / omega if omega > 0 else np.inf
        if s_end > 4.0 * self.s_lo and omega * s_end > 64.0:
            from numpy.polynomial.chebyshev import Chebyshev
            lo, hi = math.log(self.s_lo), math.log(s_end)

            def lf(u):
                return _laplace_factor(np.exp(u), omega, mu, side)

            self.cheb = Chebyshev.interpolate(lf, 120, domain=[lo, hi])

    def __call__(self, s):
        s = np.asarray(s, dtype=float) ** self.rho
        out = np.empty(s.shape, dtype=complex)
        tiny = self.omega * s < 1.0
        if tiny.any():
            # Phi(s) = Phi(0) + int_0^s r^(mu-1) e^(sig i w r) dr
            phi0 = (-1.0) ** self.side * complex(theta(self.side, 1.0, self.mu)) \
                * self.omega ** (-self.mu)
            out[tiny] = phi0 + _series_increment(s[tiny], self.omega, self.mu,
                                                 self.side)
        rest = ~tiny
        if rest.any():
            sr = s[rest]
            if self.cheb is not None:
                L = np.empty(sr.shape, dtype=complex)
                direct = sr < self.s_lo * (1 + 1e-12)
                if direct.any():
                    L[direct] = _laplace_factor(sr[direct], self.omega,
                                                self.mu, self.side)
                L[~direct] = self.cheb(np.log(sr[~direct]))
            else:
                L = _laplace_factor(sr, self.omega, self.mu, self.side)
            out[rest] = -self.sig * 1j \
                * np.exp(self.sig * 1j * self.omega * sr) * L / self.omega
        return out / self.rho


def integrate_by_parts_check(frame: SubstitutionFrame, omega: float,
                             tol: float) -> OracleValue:
    """Second oracle for the side integral M_j of ``frame``, via the parts
    identity

        M_j = Phi(s_j) k(s_j) - Phi(0) k(0) - int_0^{s_j} Phi(s) k'(s) ds.

    Independent of the panel route: Phi comes from the ray representation.
    Everything else comes from the frame; ``reconstruct_total`` phases M_j
    by e^(i w psi(p_j)) with the frame's ``psi_at_end``.  Raises BudgetError
    before building any panel when the pi-phase panels alone would exceed
    the default evaluation budget.
    """
    omega = float(omega)
    if not (math.isfinite(omega) and omega > 0.0):
        raise DomainError(f"parts identity needs finite omega > 0, got {omega}")
    _check_budget(frame, omega, DEFAULT_BUDGET)
    mu, rho, s_end = frame.mu, frame.rho, frame.s_end
    prim = _PrimitiveEval(omega, rho, mu, frame.side, s_end)

    phi_send = -_ray_integral(s_end, omega, rho, mu, frame.side, rel_tol=1e-11)
    phi_zero = -(-1.0) ** (frame.side + 1) * theta(frame.side, rho, mu) \
        * omega ** (-mu / rho)
    boundary = phi_send * frame.k(s_end) - phi_zero * frame.k_at_zero

    def f(s):
        return prim(s) * frame.k_prime(s)

    edges = _phase_edges(omega, rho, 0.0, s_end, s_end / 8.0)
    if edges.size > 1 and edges[1] > 0:
        head = geometric_edges(0.0, edges[1], edges[1] / 64.0)
        edges = np.unique(np.concatenate((head, edges)))
    value, err, count = adaptive_complex(f, edges, tol=tol, label="parts")
    return OracleValue(value=complex(boundary - value),
                       abs_error_estimate=float(err),
                       panel_count=count, method="parts-identity")


def reconstruct_total(phase: PhaseModel, amp: SingularAmplitude, omega: float,
                      q: float, tol: float) -> OracleValue:
    """Whole integral rebuilt from the two parts-identity sides at cutting
    point q, re-phased by e^(i w psi(p_j)) and orientation signs."""
    total = 0j
    err = 0.0
    count = 0
    for side in (1, 2):
        frame = build_frame(phase, amp, side, q)
        ov = integrate_by_parts_check(frame, omega, 0.5 * tol)
        ph = np.exp(1j * omega * frame.psi_at_end)
        total += _sig(side) * ph * ov.value
        err += ov.abs_error_estimate
        count += ov.panel_count
    return OracleValue(value=complex(total), abs_error_estimate=err,
                       panel_count=count, method="parts-identity")
