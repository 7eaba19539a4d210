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
packages phi_j, its inverse and k_j o phi_j in numerically stable form: the
ratio W_j(p) = (psi(p)-psi(p_j))/(p-p_j)^rho_j (and its mirror) is
evaluated by Gauss-Jacobi quadrature of psi~ near the endpoint, where the
naive difference quotient cancels.  With xi = |p - p_j|,
Y = phi_j/xi = W_j^(1/rho_j) and V_j the part of U regular at p_j, k_j o phi_j
is a closed form in p, so no node of it inverts phi_j:

    k_j(phi_j(p)) = V_j Y^(1-mu_j) / phi_j',    k_j'(s) = d/dxi k_j(phi_j(p)) / |phi_j'|.

Every node takes one pass over the side geometry: W once, then Y and phi_j',
and for k_j's derivative Y' and phi_j'' with one decision for the endpoint
layer where those come from stencils.

A frame depends on the phase, the amplitude, the side and q, not on omega.
It keeps phi_j on a 256-point grid in xi, on which it is checked monotone
and on which the oracle places its pi-phase edges.  ``build_frame`` keeps
the last few validated frames and hands one out again for the same phase
and amplitude objects, so a sweep over omega builds each frame once.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrules import jacobi_nodes_01

__all__ = [
    "SingularAmplitude",
    "PhaseModel",
    "SubstitutionFrame",
    "build_frame",
]

_XI_SMALL = 1e-3    # below xi/(p2-p1): W by quadrature instead of difference
_NEAR = 0.1         # below xi/(p2-p1): W-derivatives by stencils on quadrature
_NEWTON_TOL = 1e-14
_NEWTON_MAX = 200
_GRID_POINTS = 256  # the frame's phi grid from p_j to q
_FRAMES_KEPT = 8    # frames build_frame hands out again


def _as_array(x):
    a = np.asarray(x, dtype=float)
    scalar = a.ndim == 0
    return np.atleast_1d(a), scalar


def _poly_matches(got, want, size) -> bool:
    """got equals want to 1e-12 of the largest term size (False on nan)."""
    return bool(np.max(np.abs(got - want)) <= 1e-12 * max(np.max(size), 1e-300))


@dataclass(frozen=True)
class SingularAmplitude:
    """Amplitude with algebraic endpoint singularities of orders mu1, mu2.

    ``u_tilde`` / ``u_tilde_prime`` must accept numpy arrays.  The norm
    fields are caller-supplied (test amplitudes know them analytically) and
    are only sanity-checked against a 1024-point grid.

    ``analytic`` declares that ``u_tilde`` is entire, grows at most
    polynomially and accepts complex arrays; the endpoint factors then
    continue off the real axis on their principal branches.  Only such
    amplitudes are integrated along complex paths
    (``schrodinger.steepest_descent``, for any phase with ``poly``, whose
    tail bound assumes a degree below 20).
    """

    p1: float
    p2: float
    mu1: float
    mu2: float
    u_tilde: Callable
    u_tilde_prime: Callable
    sup_norm_u: float
    sobolev_norm_u: float
    analytic: bool = False

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

    ``poly`` = (c0, c1, c2), derived on construction, is set when
    psi(p) = c0 + c1 p + c2 p^2 on the validation grid and None otherwise.
    Only phases with a poly are integrated along complex paths
    (``schrodinger.steepest_descent``).
    """

    p1: float
    p2: float
    rho1: float
    rho2: float
    psi: Callable
    psi_prime: Callable
    psi_tilde: Callable
    poly: tuple | None = field(default=None, init=False, compare=False)

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
        object.__setattr__(self, "poly", self._fit_poly(grid, lhs))

    def _fit_poly(self, grid, slope):
        """(c0, c1, c2) fitted to psi' (``slope``, on the inner grid points)
        at the first and last inner points and to psi at p1, kept only if it
        gives psi' on the inner points and psi on ``grid`` to 1e-12 of the
        terms' size; None otherwise.  A constant psi' gives c2 = 0 exactly."""
        inner = grid[1:-1]
        if slope.shape != inner.shape:
            return None
        with np.errstate(all="ignore"):
            c2 = float((slope[-1] - slope[0]) / (2.0 * (inner[-1] - inner[0])))
            c1 = float(slope[0] - 2.0 * c2 * inner[0])
            if not _poly_matches(slope, c1 + 2.0 * c2 * inner,
                                 abs(c1) + 2.0 * abs(c2) * np.abs(inner)):
                return None
            values = np.asarray(self.psi(grid), dtype=float)
            if values.shape != grid.shape:
                return None
            c0 = float(values[0] - self.p1 * (c1 + c2 * self.p1))
            if not _poly_matches(values, c0 + grid * (c1 + c2 * grid),
                                 abs(c0) + np.abs(grid)
                                 * (abs(c1) + abs(c2) * np.abs(grid))):
                return None
        return (c0, c1, c2)

    def rho(self, side: int) -> float:
        return self.rho1 if side == 1 else self.rho2

    def endpoint(self, side: int) -> float:
        return self.p1 if side == 1 else self.p2


class SubstitutionFrame:
    """One side j of the split integral at the cutting point q.

    Carries the side's data (``side``, ``q``, ``s_end``, ``mu``, ``rho``,
    ``endpoint``), the ``phase`` and ``amp`` it was built from with
    ``psi_at_end`` = psi(p_j), and the value ``k_at_zero`` = k_j(0).
    ``phi`` maps p to s on I_j; ``phi_inv`` maps [0, s_end] back.
    ``phi_k_dk`` takes p and gives phi_j(p), the flattened amplitude
    k_j(phi_j(p)) and its derivative in xi = |p - p_j|, in closed form
    k = V Y^(1-mu) / phi'(p) with Y = phi/xi, all from one pass over the
    side geometry; ``phi``, ``phi_prime``, ``k_at`` and ``dk_dxi`` are views
    of that pass.  All of them accept scalars or numpy arrays.
    ``xi_grid`` and ``phi_grid`` (read-only) hold phi_j at 256 points from
    xi = 0 to hi_dist.  A frame is never changed after ``__init__``, so
    ``build_frame`` may hand it to several callers; use ``build_frame``,
    which validates the frame.
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
        # phi on a grid from the endpoint out to q: build_frame checks it is
        # increasing, and the oracle interpolates its pi-phase edges on it
        self.xi_grid = np.linspace(0.0, self.hi_dist, _GRID_POINTS)
        self.phi_grid = self.phi(self.endpoint + self.sign * self.xi_grid)
        for a in (self.xi_grid, self.phi_grid):
            a.flags.writeable = False

    # -- one pass over the side geometry ----------------------------------
    def _geometry(self, p, second=False):
        """At an array p: xi = |p - p_j|, Y = phi/xi = W^(1/rho) and phi',
        with W(p) = |psi(p) - psi(p_j)| / xi^rho evaluated once (by
        Gauss-Jacobi below xi = 1e-3 L, where the difference cancels).

        With ``second``, also Y' = dY/dxi and phi''.  Y' comes from
        phi' = +-(Y + xi Y') and phi'' from W, psi' and psi'' in difference
        form, except below xi = 0.1 L, where both cancel: there they come
        from one-sided stencils on the quadrature W (``_y_near``), with
        phi'' = 2 Y' + xi Y''.  For rho = 1, phi'' is just +-psi''.
        """
        xi = self.sign * (p - self.endpoint)
        r = 1.0 / self.rho
        w = np.empty_like(xi)
        small = xi < _XI_SMALL * self.L
        if (~small).any():
            w[~small] = self.phi_rho(p[~small]) / xi[~small] ** self.rho
        if small.any():
            w[small] = self._w_quad_xi(xi[small])
        y = w ** r
        tld = np.asarray(self.phase.psi_tilde(p), dtype=float)
        xi_other = np.abs(p - self.far_end)
        d1 = (self.sign / self.rho * xi_other ** (self.rho_other - 1.0) * tld
              * w ** (r - 1.0))
        if not second:
            return xi, y, d1
        yp = np.empty_like(xi)
        near = xi < _NEAR * self.L
        far = ~near
        yp[far] = (np.abs(d1[far]) - y[far]) / xi[far]
        if near.any():
            yp[near], ypp = self._y_near(xi[near])
        if self.rho == 1.0:
            # psi' may have a fractional stationary point at the far end, where
            # it varies on the scale |p - far_end|: the step follows that scale
            h = 1e-3 * np.minimum(self.L, xi_other)
            return xi, y, d1, yp, self.sign * self._psi_second(p, h)
        d2 = np.empty_like(xi)
        if far.any():
            pc, xic, wc = p[far], xi[far], w[far]
            psn = np.asarray(self.phase.psi_prime(pc), dtype=float)
            # psi' ~ xi^(rho-1) varies on the scale xi, so the step follows it
            pss = self._psi_second(pc, 1e-3 * np.minimum(self.L, xic))
            # phi = Delta^r  (as a function of p, up to the side sign in psi)
            t1 = r * (r - 1.0) * xic ** (self.rho * (r - 2.0)) * wc ** (r - 2.0) * psn ** 2
            t2 = r * xic ** (self.rho * (r - 1.0)) * wc ** (r - 1.0) \
                * self.sign * pss
            d2[far] = t1 + t2
        if near.any():
            # phi(xi) = xi * Y(xi):  d2 phi/dp2 = 2 Y' + xi Y''
            d2[near] = 2.0 * yp[near] + xi[near] * ypp
        return xi, y, d1, yp, d2

    def phi(self, p):
        p, scalar = _as_array(p)
        xi, y, _ = self._geometry(p)
        out = xi * y
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
        out = self._geometry(p)[2]
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
            xip, y, d1 = self._geometry(self.endpoint + self.sign * xia)
            f = xip * y - s[active]
            hi[active] = np.where(f > 0.0, xia, hi[active])
            lo[active] = np.where(f < 0.0, xia, lo[active])
            deriv = np.abs(d1)
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

    # -- k and dk/dxi, in p ---------------------------------------------------
    def phi_k_dk(self, p):
        """(phi_j(p), k_j(phi_j(p)), d/dxi k_j(phi_j(p))) from one pass at p.

        With xi = |p - p_j| and Y = phi/xi = W^(1/rho), k = V Y^(1-mu) / phi'
        in closed form, and d/dxi = sign * d/dp.
        """
        p, scalar = _as_array(p)
        xi, y, d1, yp, d2 = self._geometry(p, second=True)
        xi_other = np.abs(p - self.far_end)
        ut = np.asarray(self.amp.u_tilde(p), dtype=complex)
        utp = np.asarray(self.amp.u_tilde_prime(p), dtype=complex)
        if self.mu_other != 1.0:
            # V = |p - far|^(mu_other-1) u~, and d/dp |p - far| = -sign
            fac = xi_other ** (self.mu_other - 1.0)
            vp = (-self.sign * (self.mu_other - 1.0)
                  * xi_other ** (self.mu_other - 2.0) * ut + fac * utp)
        else:
            fac, vp = 1.0, utp
        v = fac * ut
        ymu = y ** (1.0 - self.mu)
        k = v * ymu / d1
        dk = (vp * ymu + self.sign * (1.0 - self.mu) * v * y ** -self.mu * yp
              - v * ymu * d2 / d1) / d1
        dk = self.sign * dk
        phi = xi * y
        if scalar:
            return phi.item(), k.item(), dk.item()
        return phi, k, dk

    def k_at(self, p):
        """k_j(phi_j(p))."""
        return self.phi_k_dk(p)[1]

    def dk_dxi(self, p):
        """d/dxi k_j(phi_j(p)), xi = |p - p_j|; k_j'(s) is this over |phi'|."""
        return self.phi_k_dk(p)[2]


# the name under which perfbench/tracing.py hooks __init__ and inv_dist
_SideGeometry = SubstitutionFrame

# the last _FRAMES_KEPT validated frames, by (id(phase), id(amp), side, q)
_frames: OrderedDict = OrderedDict()


def build_frame(phase: PhaseModel, amp: SingularAmplitude, side: int,
                q: float) -> SubstitutionFrame:
    """Construct the substitution frame for one side of the cutting point.

    Raises DomainError for q outside (p1, p2) and ConvergenceError if the
    safeguarded Newton inversion ever fails (it carries the offending s).
    The returned frame is validated: phi strictly monotone on the frame's
    256-point grid and round trip phi(phi_inv(s)) = s to 1e-12 * s_end on a
    64-point grid.

    The last few validated frames are kept, keyed on the identity of
    ``phase`` and ``amp`` with ``side`` and ``q``, and handed out again to
    the same objects: every omega of a sweep gets the frame its first
    omega built.  A kept frame holds its phase and amplitude, so their ids
    are not reused while it lives; a frame is never changed after it is
    built.  A failure is not kept.
    """
    if side not in (1, 2):   # before side is hashed into the key
        raise DomainError(f"side must be 1 or 2, got {side!r}")
    key = (id(phase), id(amp), side, float(q))
    frame = _frames.get(key)
    if frame is not None and frame.phase is phase and frame.amp is amp:
        return frame
    frame = SubstitutionFrame(phase, amp, side, q)
    if not np.all(np.diff(frame.phi_grid) > 0):
        raise ConvergenceError(f"phi_{side} not strictly monotone on its interval")
    sg = np.linspace(0.0, frame.s_end, 64)
    rt = frame.phi(frame.phi_inv(sg))
    if np.max(np.abs(rt - sg)) > 1e-12 * frame.s_end:
        raise ConvergenceError(
            f"round-trip error {np.max(np.abs(rt - sg)):.3e} exceeds 1e-12*s_end")
    _frames[key] = frame
    if len(_frames) > _FRAMES_KEPT:
        _frames.popitem(last=False)
    return frame
