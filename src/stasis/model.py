"""Data model: singular amplitudes, phases with stationary endpoints, and
per-side substitution frames.

An amplitude U(p) = (p-p1)^(mu1-1) (p2-p)^(mu2-1) u~(p) and a phase psi with
psi'(p) = (p-p1)^(rho1-1) (p2-p)^(rho2-1) psi~(p), psi~ > 0, are flattened on
each side j of a cutting point q by the substitution s = phi_j(p),

    phi_1(p) = (psi(p) - psi(p1))^(1/rho1),   increasing on [p1, q],
    phi_2(p) = (psi(p2) - psi(p))^(1/rho2),   decreasing on [q, p2],

which turns the side integral into int_0^{s_j} k_j(s) s^(mu_j - 1)
e^(+-i w s^rho_j) ds with k_j(s) = U(phi_j^-1(s)) s^(1-mu_j) (phi_j^-1)'(s).
The frame object carries the phase and amplitude it was built from and
packages phi_j, its inverse, k_j and k_j' in numerically stable form: the
ratio W_j(p) = (psi(p)-psi(p_j))/(p-p_j)^rho_j (and its mirror) is
evaluated by Gauss-Jacobi quadrature of psi~ near the endpoint, where the
naive difference quotient cancels.  With xi = |p - p_j|,
Y = phi_j/xi = W_j^(1/rho_j) and V_j the part of U regular at p_j, k_j is a
closed form at p = phi_j^-1(s),

    k_j = V_j Y^(1-mu_j) / phi_j',    k_j' = (d/dp k_j) / phi_j',

so each node of k_j or k_j' costs one Newton solve for p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrules import jacobi_nodes_01

__all__ = [
    "SingularAmplitude",
    "PhaseModel",
    "SubstitutionFrame",
    "build_frame",
    "k_limit_at_zero",
]

_XI_SMALL = 1e-3    # below xi/(p2-p1): W by quadrature instead of difference
_NEAR = 0.1         # below xi/(p2-p1): W-derivatives by stencils on quadrature
_NEWTON_TOL = 1e-14
_NEWTON_MAX = 200


def _as_array(x):
    a = np.asarray(x, dtype=float)
    scalar = a.ndim == 0
    return np.atleast_1d(a), scalar


@dataclass(frozen=True)
class SingularAmplitude:
    """Amplitude with algebraic endpoint singularities of orders mu1, mu2.

    ``u_tilde`` / ``u_tilde_prime`` must accept numpy arrays.  The norm
    fields are caller-supplied (test amplitudes know them analytically) and
    are only sanity-checked against a 1024-point grid.
    """

    p1: float
    p2: float
    mu1: float
    mu2: float
    u_tilde: Callable
    u_tilde_prime: Callable
    sup_norm_u: float
    sobolev_norm_u: float

    def __post_init__(self):
        if not (math.isfinite(self.p1) and math.isfinite(self.p2) and self.p1 < self.p2):
            raise DomainError(f"need finite p1 < p2, got ({self.p1}, {self.p2})")
        for mu in (self.mu1, self.mu2):
            if not 0.0 < mu <= 1.0:
                raise DomainError(f"mu must lie in (0, 1], got {mu}")
        for j, (mu, p) in enumerate(((self.mu1, self.p1), (self.mu2, self.p2)), 1):
            if mu != 1.0 and abs(complex(self.u_tilde(p))) == 0.0:
                raise DomainError(f"u_tilde(p{j}) must be nonzero when mu{j} != 1")
        grid = np.linspace(self.p1, self.p2, 1024)
        m = float(np.max(np.abs(np.asarray(self.u_tilde(grid), dtype=complex))))
        if self.sup_norm_u < m * (1.0 - 1e-12):
            raise DomainError(
                f"sup_norm_u={self.sup_norm_u} below grid maximum {m} of |u_tilde|")
        if self.sobolev_norm_u < self.sup_norm_u * (1.0 - 1e-12):
            raise DomainError("sobolev_norm_u must dominate sup_norm_u")

    def value(self, p):
        """U(p) on (p1, p2); singular endpoint factors included."""
        p, scalar = _as_array(p)
        left = np.power(np.maximum(p - self.p1, 0.0), self.mu1 - 1.0) \
            if self.mu1 != 1.0 else 1.0
        right = np.power(np.maximum(self.p2 - p, 0.0), self.mu2 - 1.0) \
            if self.mu2 != 1.0 else 1.0
        out = left * right * np.asarray(self.u_tilde(p), dtype=complex)
        return out.item() if scalar else out


@dataclass(frozen=True)
class PhaseModel:
    """Phase with stationary endpoints of orders rho1-1, rho2-1.

    psi, psi_prime, psi_tilde must accept numpy arrays; psi_tilde must be
    strictly positive on [p1, p2].
    """

    p1: float
    p2: float
    rho1: float
    rho2: float
    psi: Callable
    psi_prime: Callable
    psi_tilde: Callable

    def __post_init__(self):
        if not (math.isfinite(self.p1) and math.isfinite(self.p2) and self.p1 < self.p2):
            raise DomainError(f"need finite p1 < p2, got ({self.p1}, {self.p2})")
        if not all(math.isfinite(r) and r >= 1.0 for r in (self.rho1, self.rho2)):
            raise DomainError(
                f"stationary orders require finite rho1, rho2 >= 1, "
                f"got ({self.rho1}, {self.rho2})")
        grid = np.linspace(self.p1, self.p2, 257)
        tld = np.asarray(self.psi_tilde(grid), dtype=float)
        if not np.all(tld > 0.0):
            raise DomainError("psi_tilde must be positive on [p1, p2]")
        inner = grid[1:-1]
        lhs = np.asarray(self.psi_prime(inner), dtype=float)
        rhs = ((inner - self.p1) ** (self.rho1 - 1.0)
               * (self.p2 - inner) ** (self.rho2 - 1.0) * tld[1:-1])
        scale = np.maximum(np.max(np.abs(lhs)), 1e-300)
        if np.max(np.abs(lhs - rhs)) > 1e-10 * scale:
            raise DomainError("psi_prime does not factor as stated by the model")

    def rho(self, side: int) -> float:
        return self.rho1 if side == 1 else self.rho2

    def endpoint(self, side: int) -> float:
        return self.p1 if side == 1 else self.p2


class SubstitutionFrame:
    """One side j of the split integral at the cutting point q.

    Carries the side's data (``side``, ``q``, ``s_end``, ``mu``, ``rho``,
    ``endpoint``), the ``phase`` and ``amp`` it was built from with
    ``psi_at_end`` = psi(p_j), and the value ``k_at_zero`` = k_j(0).
    ``phi`` maps p to s on I_j; ``phi_inv`` maps [0, s_end] back; ``k`` and
    ``k_prime`` are the flattened amplitude and its derivative on [0, s_end],
    evaluated in closed form at p = phi_inv(s): k = V Y^(1-mu) / phi'(p)
    with Y = phi/|p - p_j|.  All four accept scalars or numpy arrays.
    Use ``build_frame``, which validates the frame.
    """

    def __init__(self, phase: PhaseModel, amp: SingularAmplitude, side: int, q: float):
        if side not in (1, 2):
            raise DomainError(f"side must be 1 or 2, got {side!r}")
        if not (phase.p1 < q < phase.p2):
            raise DomainError(f"cutting point q={q} outside ({phase.p1}, {phase.p2})")
        if (phase.p1, phase.p2) != (amp.p1, amp.p2):
            raise DomainError("phase and amplitude must share the interval")
        self.phase = phase
        self.amp = amp
        self.side = side
        self.q = float(q)
        self.L = phase.p2 - phase.p1
        self.sign = 1.0 if side == 1 else -1.0
        self.rho = phase.rho(side)
        self.rho_other = phase.rho(2 if side == 1 else 1)
        self.mu = amp.mu1 if side == 1 else amp.mu2
        self.mu_other = amp.mu2 if side == 1 else amp.mu1
        self.endpoint = phase.endpoint(side)
        self.far_end = phase.endpoint(2 if side == 1 else 1)
        self.psi_at_end = float(phase.psi(self.endpoint))
        self.hi_dist = abs(self.q - self.endpoint)
        # (phi^-1)'(0), closed form from the leading behaviour of psi
        tilde_end = float(phase.psi_tilde(self.endpoint))
        self.d = self.sign * (self.rho / (self.L ** (self.rho_other - 1.0)
                                          * tilde_end)) ** (1.0 / self.rho)
        self.s_end = float(self.phi(self.q))
        self.k_at_zero = self.sign * abs(self.d) ** self.mu * self.v_reg(self.endpoint)

    # -- forward map -----------------------------------------------------
    def _w(self, p):
        """W(p) = |psi(p) - psi(endpoint)| / xi^rho, xi = |p - endpoint|."""
        p, scalar = _as_array(p)
        xi = self.sign * (p - self.endpoint)
        out = np.empty_like(xi)
        near = xi < _XI_SMALL * self.L
        fardist = ~near
        if fardist.any():
            out[fardist] = self.phi_rho(p[fardist]) / xi[fardist] ** self.rho
        if near.any():
            out[near] = self._w_quad_xi(xi[near])
        return out.item() if scalar else out

    def phi(self, p):
        p, scalar = _as_array(p)
        xi = self.sign * (p - self.endpoint)
        out = xi * self._w(p) ** (1.0 / self.rho)
        return out.item() if scalar else out

    def phi_rho(self, p):
        """phi(p)^rho = |psi(p) - psi(endpoint)|: the difference itself, and
        xi^rho W with W by quadrature near the endpoint, where it cancels."""
        p, scalar = _as_array(p)
        xi = self.sign * (p - self.endpoint)
        out = self.sign * (np.asarray(self.phase.psi(p), dtype=float)
                           - self.psi_at_end)
        near = xi < _XI_SMALL * self.L
        if near.any():
            out[near] = xi[near] ** self.rho * self._w_quad_xi(xi[near])
        return out.item() if scalar else out

    def phi_prime(self, p):
        """d phi / dp; negative on side 2."""
        p, scalar = _as_array(p)
        xi_other = np.abs(p - self.far_end)
        tld = np.asarray(self.phase.psi_tilde(p), dtype=float)
        out = (self.sign / self.rho * xi_other ** (self.rho_other - 1.0)
               * tld * self._w(p) ** (1.0 / self.rho - 1.0))
        return out.item() if scalar else out

    def _psi_second(self, p, h):
        """psi''(p) by 4th-order differencing of the exact psi_prime, with
        step h at each node."""
        p = np.asarray(p, dtype=float)
        lo, hi = self.phase.p1, self.phase.p2
        dp = self.phase.psi_prime
        out = np.empty_like(p)
        mid = (p - 2 * h >= lo) & (p + 2 * h <= hi)
        if mid.any():
            pc, hc = p[mid], h[mid]
            out[mid] = (np.asarray(dp(pc - 2 * hc)) - 8 * np.asarray(dp(pc - hc))
                        + 8 * np.asarray(dp(pc + hc))
                        - np.asarray(dp(pc + 2 * hc))) / (12.0 * hc)
        if (~mid).any():
            pc, hc = p[~mid], h[~mid]
            st = np.where(pc - lo < 2 * hc, hc, -hc)
            out[~mid] = (-25 * np.asarray(dp(pc)) + 48 * np.asarray(dp(pc + st))
                         - 36 * np.asarray(dp(pc + 2 * st))
                         + 16 * np.asarray(dp(pc + 3 * st))
                         - 3 * np.asarray(dp(pc + 4 * st))) / (12.0 * st)
        return out

    def _w_quad_xi(self, xi):
        """W at distance xi from the endpoint, always by Gauss-Jacobi."""
        v, w = jacobi_nodes_01(24, self.rho - 1.0)
        sigma = self.endpoint + self.sign * xi[:, None] * v[None, :]
        other = np.abs(sigma - self.far_end) ** (self.rho_other - 1.0)
        tld = np.asarray(self.phase.psi_tilde(sigma.ravel()),
                         dtype=float).reshape(sigma.shape)
        return (other * tld) @ w

    def phi_second(self, p):
        """d^2 phi / dp^2.

        For rho = 1 this is just +-psi''.  Otherwise it is assembled from
        Delta = psi(p) - psi(endpoint) in the stable xi^rho * W form, except
        in a wide endpoint layer where psi'' itself is singular (fractional
        rho) or the assembly cancels: there the W-derivatives come from
        one-sided stencils on the quadrature representation, which has
        neither cancellation nor a psi'' evaluation.
        """
        p, scalar = _as_array(p)
        if self.rho == 1.0:
            # psi' may have a fractional stationary point at the far end, where
            # it varies on the scale |p - far_end|: the step follows that scale
            h = 1e-3 * np.minimum(self.L, np.abs(p - self.far_end))
            out = self.sign * self._psi_second(p, h)
            return out.item() if scalar else out
        xi = self.sign * (p - self.endpoint)
        r = 1.0 / self.rho
        out = np.empty_like(p)
        near = xi < _NEAR * self.L
        if (~near).any():
            pc = p[~near]
            xic = xi[~near]
            w = self._w(pc)
            psn = np.asarray(self.phase.psi_prime(pc), dtype=float)
            # psi' ~ xi^(rho-1) varies on the scale xi, so the step follows it
            pss = self._psi_second(pc, 1e-3 * np.minimum(self.L, xic))
            # phi = Delta^r  (as a function of p, up to the side sign in psi)
            t1 = r * (r - 1.0) * xic ** (self.rho * (r - 2.0)) * w ** (r - 2.0) * psn ** 2
            t2 = r * xic ** (self.rho * (r - 1.0)) * w ** (r - 1.0) \
                * self.sign * pss
            out[~near] = t1 + t2
        if near.any():
            # phi(xi) = xi * Y(xi):  d2 phi/dp2 = 2 Y' + xi Y''
            yp, ypp = self._y_near(xi[near])
            out[near] = 2.0 * yp + xi[near] * ypp
        return out.item() if scalar else out

    def _y_near(self, xi):
        """Y' and Y'' (d/dxi) of Y = W^(1/rho) = phi/xi, from one-sided
        four-point stencils on the Gauss-Jacobi W: no cancellation near
        the endpoint, where the difference forms lose digits."""
        h = min(1e-3 * self.L, 0.25 * self.hi_dist)
        w0, w1, w2, w3 = (self._w_quad_xi(xi + i * h) for i in range(4))
        wp = (-11 * w0 + 18 * w1 - 9 * w2 + 2 * w3) / (6.0 * h)
        wpp = (2 * w0 - 5 * w1 + 4 * w2 - w3) / h ** 2
        r = 1.0 / self.rho
        yp = r * w0 ** (r - 1.0) * wp
        ypp = r * (r - 1.0) * w0 ** (r - 2.0) * wp ** 2 + r * w0 ** (r - 1.0) * wpp
        return yp, ypp

    # -- inverse map -----------------------------------------------------
    def inv_dist(self, s):
        """xi(s) = |phi^-1(s) - endpoint|, safeguarded Newton on [0, hi_dist]."""
        s, scalar = _as_array(s)
        mask_bad = (s < -1e-300) | (s > self.s_end * (1.0 + 1e-9))
        if np.any(mask_bad):
            bad = float(np.atleast_1d(s)[np.atleast_1d(mask_bad)][0])
            raise DomainError(f"s={bad} outside [0, s_end={self.s_end}]")
        s = np.clip(s, 0.0, self.s_end)
        xi = np.clip(np.abs(self.d) * s, 0.0, self.hi_dist)
        lo = np.zeros_like(s)
        hi = np.full_like(s, self.hi_dist)
        tol = _NEWTON_TOL * self.L
        active = np.ones(s.shape, dtype=bool)
        active[s == 0.0] = False
        xi[s == 0.0] = 0.0
        for _ in range(_NEWTON_MAX):
            if not active.any():
                break
            xia = xi[active]
            p = self.endpoint + self.sign * xia
            f = self.phi(p) - s[active]
            hi[active] = np.where(f > 0.0, xia, hi[active])
            lo[active] = np.where(f < 0.0, xia, lo[active])
            deriv = np.abs(self.phi_prime(p))
            with np.errstate(divide="ignore", invalid="ignore"):
                step = f / deriv
            nxt = xia - step
            bad = ~np.isfinite(nxt) | (nxt < lo[active]) | (nxt > hi[active])
            nxt = np.where(bad, 0.5 * (lo[active] + hi[active]), nxt)
            moved = np.abs(nxt - xia)
            xi[active] = nxt
            # done when the step is below tol or the residual is already far
            # below the 1e-12 * s_end round-trip contract (phi evaluation
            # noise can two-cycle the iterate by an ulp around the root)
            eps_f = 8.0 * np.finfo(float).eps
            sub = ((moved > tol)
                   & (moved > eps_f * np.abs(nxt))
                   & (np.abs(f) > 2.5e-13 * self.s_end))
            if not sub.any():
                break
            act = np.zeros_like(active)
            act[np.nonzero(active)[0][sub]] = True
            active = act
        else:
            raise ConvergenceError(
                f"phi_inv failed to converge at s={s[active][0]}",
                where=float(s[active][0]))
        return xi.item() if scalar else xi

    def phi_inv(self, s):
        s, scalar = _as_array(s)
        p = self.endpoint + self.sign * self.inv_dist(s)
        return p.item() if scalar else p

    # -- regular amplitude factor ----------------------------------------
    def v_reg(self, x):
        """V_j(p): the part of U regular at this side's endpoint."""
        x, scalar = _as_array(x)
        xi_other = np.abs(x - self.far_end)
        fac = xi_other ** (self.mu_other - 1.0) if self.mu_other != 1.0 else 1.0
        out = fac * np.asarray(self.amp.u_tilde(x), dtype=complex)
        return out.item() if scalar else out

    def v_reg_prime(self, x):
        x, scalar = _as_array(x)
        xi_other = np.abs(x - self.far_end)
        ut = np.asarray(self.amp.u_tilde(x), dtype=complex)
        utp = np.asarray(self.amp.u_tilde_prime(x), dtype=complex)
        if self.mu_other != 1.0:
            # d/dx |x - far|^(mu_other - 1) = -sign_to_far * (mu_other-1) |...|^(mu_other-2)
            sgn = -self.sign  # direction from x towards far end
            out = (sgn * (self.mu_other - 1.0) * xi_other ** (self.mu_other - 2.0) * ut
                   + xi_other ** (self.mu_other - 1.0) * utp)
        else:
            out = utp
        return out.item() if scalar else out

    # -- k and k' -----------------------------------------------------------
    def _k_core(self, s, want_prime):
        """k(s) (and k'(s)) in closed form at p = phi^-1(s), one Newton
        solve per node.  With xi = |p - p_j| and Y = phi/xi = W^(1/rho),
        k = V Y^(1-mu) / phi' and k' = (dk/dp) / phi'."""
        s, scalar = _as_array(s)
        xi = self.inv_dist(s)
        x = self.endpoint + self.sign * xi
        y = self._w(x) ** (1.0 / self.rho)
        d1 = self.phi_prime(x)
        v = self.v_reg(x)
        ymu = y ** (1.0 - self.mu)
        out = v * ymu / d1
        der = None
        if want_prime:
            # Y' = dY/dxi from phi' = Y + xi Y', by stencils where that cancels
            yp = np.empty_like(xi)
            near = xi < _NEAR * self.L
            far = ~near
            yp[far] = (np.abs(d1[far]) - y[far]) / xi[far]
            if near.any():
                yp[near] = self._y_near(xi[near])[0]
            dk = (self.v_reg_prime(x) * ymu
                  + self.sign * (1.0 - self.mu) * v * y ** -self.mu * yp
                  - v * ymu * self.phi_second(x) / d1) / d1
            der = dk / d1
        if scalar:
            return out.item(), der.item() if want_prime else None
        return out, der

    def k(self, s):
        return self._k_core(s, False)[0]

    def k_prime(self, s):
        return self._k_core(s, True)[1]


# the name under which perfbench/tracing.py hooks __init__ and inv_dist
_SideGeometry = SubstitutionFrame


def build_frame(phase: PhaseModel, amp: SingularAmplitude, side: int,
                q: float) -> SubstitutionFrame:
    """Construct the substitution frame for one side of the cutting point.

    Raises DomainError for q outside (p1, p2) and ConvergenceError if the
    safeguarded Newton inversion ever fails (it carries the offending s).
    The returned frame is validated: monotone forward map and round trip
    phi(phi_inv(s)) = s to 1e-12 * s_end on a 64-point grid.
    """
    frame = SubstitutionFrame(phase, amp, side, q)
    lo, hi = (phase.p1, q) if side == 1 else (q, phase.p2)
    pg = np.linspace(lo, hi, 256)
    vals = frame.phi(pg)
    diffs = np.diff(vals)
    if side == 1 and not np.all(diffs > 0):
        raise ConvergenceError("phi_1 not strictly increasing on its interval")
    if side == 2 and not np.all(diffs < 0):
        raise ConvergenceError("phi_2 not strictly decreasing on its interval")
    sg = np.linspace(0.0, frame.s_end, 64)
    rt = frame.phi(frame.phi_inv(sg))
    if np.max(np.abs(rt - sg)) > 1e-12 * frame.s_end:
        raise ConvergenceError(
            f"round-trip error {np.max(np.abs(rt - sg)):.3e} exceeds 1e-12*s_end")
    return frame


def k_limit_at_zero(phase: PhaseModel, amp: SingularAmplitude, side: int,
                    q: float | None = None) -> complex:
    """k_j(0) in closed form, cross-validated against the numeric limit.

    Closed form: k_j(0) = (-1)^(j+1) |d_j|^mu_j V_j(p_j) with
    d_j = (phi_j^-1)'(0).  The numeric limit extrapolates k_j(s) from
    s in {1e-4, 1e-5, 1e-6} * s_end; disagreement beyond 1e-8 relative
    raises ConvergenceError.
    """
    if q is None:
        q = 0.5 * (phase.p1 + phase.p2)
    frame = build_frame(phase, amp, side, q)
    closed = frame.k_at_zero
    ss = np.array([1e-4, 1e-5, 1e-6]) * frame.s_end
    kv = frame.k(ss)
    # quadratic Lagrange extrapolation to s = 0
    ell = np.array([
        (0 - ss[1]) * (0 - ss[2]) / ((ss[0] - ss[1]) * (ss[0] - ss[2])),
        (0 - ss[0]) * (0 - ss[2]) / ((ss[1] - ss[0]) * (ss[1] - ss[2])),
        (0 - ss[0]) * (0 - ss[1]) / ((ss[2] - ss[0]) * (ss[2] - ss[1])),
    ])
    numeric = complex(kv @ ell)
    denom = max(abs(closed), 1e-300)
    if abs(numeric - closed) / denom > 1e-8:
        raise ConvergenceError(
            f"k(0) closed form {closed} disagrees with numeric limit {numeric}")
    return closed
