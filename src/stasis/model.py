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
packages phi_j and k_j o phi_j in numerically stable form; it maps forward
only, from p to s, and never inverts phi_j.  With
xi = |p - p_j|, W_j = |psi(p) - psi(p_j)| / xi^rho_j = int_0^1 v^(rho_j-1)
g(p_j +- xi v) dv, g = |p - p_far|^(rho_other-1) psi~, is a difference
quotient that cancels near the endpoint; below xi = 0.1 (p2 - p1) it comes
from one polynomial fit of g per frame instead, which gives W_j, W_j' and
W_j'' in closed form.  With Y = phi_j/xi = W_j^(1/rho_j) and V_j the part of
U regular at p_j, k_j o phi_j is a closed form in p, so no node of it
inverts phi_j:

    k_j(phi_j(p)) = V_j Y^(1-mu_j) / phi_j',    k_j'(s) = d/dxi k_j(phi_j(p)) / |phi_j'|.

Every node takes one pass over the side geometry: W once, then Y and phi_j',
and for k_j's derivative Y' and phi_j'', from the fit in the endpoint layer
and from difference forms beyond it.

A frame depends on the phase, the amplitude, the side and q, not on omega.
It keeps phi_j on a 256-point grid in xi, on which it is checked monotone
and on which the oracle places its pi-phase edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "SingularAmplitude",
    "PhaseModel",
    "SubstitutionFrame",
    "build_frame",
]

_NEAR = 0.1         # below xi/(p2-p1): W and its derivatives by the fit
_GRID_POINTS = 256  # the frame's phi grid from p_j to q
# a cut keeps this times p2 - p1 from both endpoints: beyond the fit layer
# psi'' comes from differences with step 1e-3 |p - p_far|, which a closer cut
# brings within a few hundred rounding units of the nodes p_j +- xi
_MIN_GAP = 1e-10

# The near-endpoint fit of g(p_j +- h t), t in [0, 1]: values at t = (1 +
# cos theta) / 2, theta = i pi / 2n, i even (odd i: the midpoints it is checked
# at) -> Chebyshev coefficients a_k = (2/n) sum'' g cos(k theta) -> powers of
# t.  Two steps: one merged map has entries of 2e10.
_FIT_N = 16
_FIT_T = 0.5 * (1.0 + np.cos(np.pi * np.arange(2 * _FIT_N + 1) / (2 * _FIT_N)))
_FIT_MISS = 1e-13   # largest miss at the midpoints, relative to max |g|
_CHOP = 2e-15       # Chebyshev coefficients below this times the largest go
_POWERS = np.arange(_FIT_N + 1.0)
_TO_CHEB = (2.0 / _FIT_N) * np.cos(np.outer(_POWERS, np.pi * _POWERS / _FIT_N))
_TO_CHEB[:, [0, -1]] *= 0.5
_TO_CHEB[[0, -1], :] *= 0.5
# column k: T_k(2t - 1) in powers of t, integers exact in floats
_TO_POWERS = np.zeros((_FIT_N + 1, _FIT_N + 1))
_TO_POWERS[0, 0], _TO_POWERS[:2, 1] = 1.0, (-1.0, 2.0)
for _k in range(2, _FIT_N + 1):
    _TO_POWERS[:, _k] = (4.0 * np.roll(_TO_POWERS[:, _k - 1], 1)
                         - 2.0 * _TO_POWERS[:, _k - 1] - _TO_POWERS[:, _k - 2])


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
    tail bound assumes a degree below 20), and only they make a
    ``schrodinger.SchrodingerSetup``.
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

    def factored(self, h, left, right):
        """left^(mu1-1) right^(mu2-1) u~(h), principal branches.

        With left = h - p1 and right = p2 - h this is U(h).  A path from
        p_j passes the unit u = (h - p_j)/x, x > 0, in their place (left = u,
        or right = -u) and gets U(h) / x^(mu_j - 1), free of cancellation."""
        fac = left ** (self.mu1 - 1.0) if self.mu1 != 1.0 else 1.0
        if self.mu2 != 1.0:
            fac = fac * right ** (self.mu2 - 1.0)
        return fac * np.asarray(self.u_tilde(h), dtype=complex)

    def value(self, p):
        """U(p) on (p1, p2); singular endpoint factors included."""
        p, scalar = _as_array(p)
        out = self.factored(p, np.maximum(p - self.p1, 0.0),
                            np.maximum(self.p2 - p, 0.0))
        return out.item() if scalar else out


@dataclass(frozen=True)
class PhaseModel:
    """Phase with stationary endpoints of orders rho1-1, rho2-1.

    psi, psi_prime, psi_tilde must accept numpy arrays; psi_tilde must be
    strictly positive on [p1, p2], and smooth (analytic, in practice)
    within 0.1 (p2 - p1) of each endpoint: a frame fits it there by one
    polynomial and refuses, as ConvergenceError, a fit that misses.

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
    ``phi`` maps p to s on I_j; nothing maps s back.
    ``phi_y_k_dk`` takes p and gives phi_j(p), Y = phi/xi, the flattened
    amplitude k_j(phi_j(p)) and its derivative in xi = |p - p_j|, in closed
    form k = V Y^(1-mu) / phi'(p), all from one pass over the side
    geometry; ``phi``, ``phi_prime`` and ``dk_dxi`` are views of
    that pass.  All of them accept scalars or numpy arrays.
    ``xi_grid`` and ``phi_grid`` (read-only) hold phi_j at 256 points from
    xi = 0 to hi_dist.  Use ``build_frame``, which validates the frame.
    """

    def __init__(self, phase: PhaseModel, amp: SingularAmplitude, side: int, q: float):
        if side not in (1, 2):
            raise DomainError(f"side must be 1 or 2, got {side!r}")
        if not (phase.p1 < q < phase.p2):
            raise DomainError(f"cutting point q={q} outside ({phase.p1}, {phase.p2})")
        gap = min(q - phase.p1, phase.p2 - q)
        if gap < _MIN_GAP * (phase.p2 - phase.p1):
            raise DomainError(
                f"cutting point q={q} lies {gap:.1e} from an endpoint; a cut "
                f"must keep {_MIN_GAP:g} (p2 - p1) from both")
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
        g_end = self._fit_near()
        # |(phi^-1)'(0)|, closed form from the leading behaviour of psi
        d = (self.rho / g_end) ** (1.0 / self.rho)
        self.s_end = float(self.phi(self.q))
        # V_j(p_j): U's factors with the side's own one taken out
        ends = (1.0, self.L) if side == 1 else (self.L, 1.0)
        self.k_at_zero = (self.sign * d ** self.mu
                          * complex(amp.factored(self.endpoint, *ends)))
        # phi on a grid from the endpoint out to q: build_frame checks it is
        # increasing, and the oracle interpolates its pi-phase edges on it
        self.xi_grid = np.linspace(0.0, self.hi_dist, _GRID_POINTS)
        self.phi_grid = self.phi(self.endpoint + self.sign * self.xi_grid)
        for a in (self.xi_grid, self.phi_grid):
            a.flags.writeable = False

    # -- the near-endpoint fit -------------------------------------------
    def _fit_near(self):
        """g = sum b_k t^k at xi = h t, h = 0.1 L, so that
        W = sum b_k t^k / (k + rho).  Coefficients at rounding level are
        chopped before the conversion to powers (Aurentz & Trefethen, ACM
        TOMS 43, 2017): a constant g gives W' = 0.  ConvergenceError when
        the fit misses g between its points; else returns g(p_j)."""
        self._h = _NEAR * self.L
        p = self.endpoint + self.sign * self._h * _FIT_T
        g = (np.abs(p - self.far_end) ** (self.rho_other - 1.0)
             * np.asarray(self.phase.psi_tilde(p), dtype=float))
        # g(p_j) taken out first: the sums' rounding scales with what is left
        a = _TO_CHEB @ (g[::2] - g[-1])
        a[0] += g[-1]
        n = int(np.nonzero(np.abs(a) > _CHOP * np.max(np.abs(a)))[0][-1]) + 1
        b = _TO_POWERS[:n, :n] @ a[:n]
        self._k = k = _POWERS[:n]
        miss = np.max(np.abs(_FIT_T[1::2, None] ** k @ b - g[1::2]))
        top = np.max(np.abs(g))
        if not miss <= _FIT_MISS * top:
            raise ConvergenceError(
                f"side {self.side}: the fit of psi~ within 0.1 (p2 - p1) of "
                f"p{self.side} misses by {miss:.3e} of max {top:.3e}; psi~ "
                f"must be smooth there", where=self.endpoint)
        c = b / (k + self.rho)
        # W, W' and W'' in powers of t = xi/h, one column each
        self._fit = np.column_stack((c, np.roll(k * c, -1) / self._h,
                                     np.roll(k * (k - 1.0) * c, -2) / self._h ** 2))
        return float(g[-1])

    # -- one pass over the side geometry ----------------------------------
    def _geometry(self, p, second=False):
        """At an array p: xi = |p - p_j|, Y = phi/xi = W^(1/rho) and phi',
        with W evaluated once: below xi = 0.1 L from the fit, beyond it as
        the difference |psi(p) - psi(p_j)| / xi^rho.

        With ``second``, also Y' = dY/dxi and phi'': below xi = 0.1 L from
        the fit's W' and W'', beyond it from phi' = +-(Y + xi Y') and from
        W, psi' and psi'' in difference form.
        """
        xi = self.sign * (p - self.endpoint)
        r = 1.0 / self.rho
        w = np.empty_like(xi)
        near = xi < _NEAR * self.L
        far = ~near
        if far.any():
            w[far] = self.phi_rho(p[far]) / xi[far] ** self.rho
        if near.any():
            fit = (xi[near, None] / self._h) ** self._k @ self._fit
            w[near] = fit[:, 0]
        y = w ** r
        tld = np.asarray(self.phase.psi_tilde(p), dtype=float)
        xi_other = np.abs(p - self.far_end)
        d1 = (self.sign / self.rho * xi_other ** (self.rho_other - 1.0) * tld
              * w ** (r - 1.0))
        if not second:
            return xi, y, d1
        yp = np.empty_like(xi)
        d2 = np.empty_like(xi)
        if near.any():
            wn, wp, wpp = fit.T
            yp[near] = r * wn ** (r - 1.0) * wp
            ypp = r * (r - 1.0) * wn ** (r - 2.0) * wp ** 2 + r * wn ** (r - 1.0) * wpp
            # phi(xi) = xi * Y(xi):  d2 phi/dp2 = 2 Y' + xi Y''
            d2[near] = 2.0 * yp[near] + xi[near] * ypp
        if far.any():
            pc, xic, wc, xoc = p[far], xi[far], w[far], xi_other[far]
            yp[far] = (np.abs(d1[far]) - y[far]) / xic
            psn = np.asarray(self.phase.psi_prime(pc), dtype=float)
            # psi' varies on the scale |p - far_end| at a fractional far end
            # and, for rho > 1, as xi^(rho-1) on the scale xi
            h = 1e-3 * (xoc if self.rho == 1.0 else np.minimum(xic, xoc))
            # phi = Delta^r  (as a function of p, up to the side sign in psi)
            t1 = r * (r - 1.0) * xic ** (self.rho * (r - 2.0)) * wc ** (r - 2.0) * psn ** 2
            t2 = r * xic ** (self.rho * (r - 1.0)) * wc ** (r - 1.0) \
                * self.sign * self._psi_second(pc, h)
            d2[far] = t1 + t2
        return xi, y, d1, yp, d2

    def phi(self, p):
        p, scalar = _as_array(p)
        xi, y, _ = self._geometry(p)
        out = xi * y
        return out.item() if scalar else out

    def phi_rho(self, p):
        """phi(p)^rho = |psi(p) - psi(endpoint)|: the difference itself, and
        xi^rho W with W from the fit below xi = 0.1 L, where it cancels."""
        p, scalar = _as_array(p)
        xi = self.sign * (p - self.endpoint)
        out = self.sign * (np.asarray(self.phase.psi(p), dtype=float)
                           - self.psi_at_end)
        near = xi < _NEAR * self.L
        if near.any():
            t = xi[near, None] / self._h
            out[near] = xi[near] ** self.rho * (t ** self._k @ self._fit[:, 0])
        return out.item() if scalar else out

    def phi_prime(self, p):
        """d phi / dp; negative on side 2."""
        p, scalar = _as_array(p)
        out = self._geometry(p)[2]
        return out.item() if scalar else out

    def _psi_second(self, p, h):
        """psi''(p) by 4th-order central differencing of the exact
        psi_prime, with step h at each node; h must keep p +- 2h inside
        [p1, p2]."""
        dp = self.phase.psi_prime
        return (np.asarray(dp(p - 2 * h)) - 8 * np.asarray(dp(p - h))
                + 8 * np.asarray(dp(p + h))
                - np.asarray(dp(p + 2 * h))) / (12.0 * h)

    # -- k and dk/dxi, in p ---------------------------------------------------
    def phi_y_k_dk(self, p):
        """(phi_j(p), Y, k_j(phi_j(p)), d/dxi k_j(phi_j(p))) from one pass at p.

        With xi = |p - p_j| and Y = phi/xi = W^(1/rho), k = V Y^(1-mu) / phi'
        in closed form, and d/dxi = sign * d/dp.  Y stays finite where
        p rounds to p_j and phi is 0.
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
            return phi.item(), y.item(), k.item(), dk.item()
        return phi, y, k, dk

    def dk_dxi(self, p):
        """d/dxi k_j(phi_j(p)), xi = |p - p_j|; k_j'(s) is this over |phi'|."""
        return self.phi_y_k_dk(p)[3]


# the name under which perfbench/tracing.py hooks __init__
_SideGeometry = SubstitutionFrame

def build_frame(phase: PhaseModel, amp: SingularAmplitude, side: int,
                q: float) -> SubstitutionFrame:
    """Construct the substitution frame for one side of the cutting point.

    Raises DomainError for q outside (p1, p2), or closer than
    1e-10 (p2 - p1) to either endpoint, or a side other than 1 or 2, and
    ConvergenceError when the near-endpoint fit of psi~ misses (it
    names the side) or phi is not strictly increasing on the frame's
    256-point grid, on which the oracle interpolates its pi-phase edges.
    Every call builds a new frame.
    """
    frame = SubstitutionFrame(phase, amp, side, q)
    if not np.all(np.diff(frame.phi_grid) > 0):
        raise ConvergenceError(
            f"phi_{side} not strictly monotone on its interval (q={frame.q})")
    return frame
