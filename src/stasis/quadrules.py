"""Shared quadrature: the adaptive panel engine and its panel edges.

Panel convention used by the oracles and the bound integrals: a partition is
an increasing array of edges; each panel is evaluated once on the 15 nodes of
the Gauss-Kronrod pair G7/K15 (QUADPACK ``qk15``, Piessens et al. 1983).  The
K15 sum is the panel's value; the embedded 7-point Gauss sum reuses every
other node, and |K15 - G7| is the panel's error estimate.
``adaptive_complex`` is the one refinement loop: it splits the panels whose
estimate exceeds their share of the target until the summed estimate meets
it.  A weight xi^(a-1) at an integrable endpoint singularity is absorbed by
summing in v = xi^a on ``power_edges``, not by a weighted rule, so every
sum runs on the same G7/K15 panels: ``oracle._end_sum`` does so for the
endpoint factor of U on every path from an endpoint, and
``expansion.weighted_kprime_integral`` for its own weight.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError

__all__ = [
    "panel_complex",
    "adaptive_complex",
    "check_phase_budget",
    "geometric_edges",
    "capped_edges",
    "power_edges",
    "KRONROD_NODES",
    "MAX_ROUNDS",
    "DEFAULT_BUDGET",
]

_CHUNK = 200_000  # max evaluation points per vectorized call
MAX_ROUNDS = 24   # splitting rounds before the engine returns what it has
DEFAULT_BUDGET = 10_000_000  # integrand evaluations per adaptive panel sum

# QUADPACK qk15 on [0, 1], decreasing: Kronrod abscissae (every other one,
# from the second, a 7-point Gauss node), Kronrod weights, Gauss weights.
_XGK = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
                 0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
                 0.20778495500789848, 0.0])
_WGK = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                 0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                 0.20443294007529889, 0.20948214108472782])
_WG = np.array([0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
                0.4179591836734694])
KRONROD_NODES = 15
_XK = np.concatenate((-_XGK, _XGK[-2::-1]))     # increasing, 15 nodes
_WK = np.concatenate((_WGK, _WGK[-2::-1]))
_WG7 = np.zeros(KRONROD_NODES)                  # G7 weights on the K15 nodes
_WG7[1::2] = np.concatenate((_WG, _WG[-2::-1]))


def panel_complex(f, a, b):
    """K15 value and |K15 - G7| error estimate of complex-valued f on each
    panel [a[i], b[i]].

    Every node is evaluated once, in chunks of at most _CHUNK points.
    Returns (values, errors), one entry per panel.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    npan = a.size
    val = np.empty(npan, dtype=complex)
    err = np.empty(npan)
    per = max(1, _CHUNK // KRONROD_NODES)
    for lo in range(0, npan, per):
        hi = min(npan, lo + per)
        half = 0.5 * (b[lo:hi] - a[lo:hi])
        nodes = (a[lo:hi] + half)[:, None] + half[:, None] * _XK[None, :]
        fv = np.asarray(f(nodes.ravel()), dtype=complex).reshape(nodes.shape)
        k15 = half * (fv @ _WK)
        val[lo:hi] = k15
        err[lo:hi] = np.abs(k15 - half * (fv @ _WG7))
    return val, err


def adaptive_complex(f, edges, *, tol=0.0, rel_tol=0.0, label="panel sum"):
    """Integral of complex-valued f over [edges[0], edges[-1]], refining
    the partition ``edges``.

    Stops when the summed estimate is at most max(tol, rel_tol * |value|)
    or after MAX_ROUNDS rounds.  Each round halves the panels whose
    estimate exceeds their share (target / panel count) of that target and
    evaluates only the halves.  Raises BudgetError, with diagnostics, before
    a pass would take the integrand evaluations past DEFAULT_BUDGET.

    Returns (value, error_estimate, panel_count).
    """
    budget = DEFAULT_BUDGET
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]            # panels to evaluate next
    lo = hi = err = np.empty(0)             # the partition evaluated so far
    val = np.empty(0, dtype=complex)
    bad = np.zeros(0, dtype=bool)           # its panels that a, b replace
    used = 0
    for rounds in range(MAX_ROUNDS + 1):
        cost = KRONROD_NODES * a.size
        if used + cost > budget:
            raise BudgetError(
                f"{label}: {cost} more evaluations after {used} exceed budget "
                f"{budget}; error {err.sum():.3e}",
                diagnostics={"label": label, "evaluations": used,
                             "next_pass": cost, "budget": budget,
                             "panels": val.size, "error": float(err.sum()),
                             "value": complex(val.sum())})
        used += cost
        va, ea = panel_complex(f, a, b)
        keep = ~bad
        lo, hi = np.concatenate((lo[keep], a)), np.concatenate((hi[keep], b))
        val = np.concatenate((val[keep], va))
        err = np.concatenate((err[keep], ea))
        target = max(tol, rel_tol * abs(val.sum()))
        if err.sum() <= target or rounds == MAX_ROUNDS:
            break
        # split every panel contributing more than its share of the target
        bad = err > target / err.size
        mid = 0.5 * (lo[bad] + hi[bad])
        a, b = np.concatenate((lo[bad], mid)), np.concatenate((mid, hi[bad]))
    return val.sum(), float(err.sum()), val.size


def check_phase_budget(label, omega, variation):
    """BudgetError, with diagnostics, when the pi-phase panels of a sum whose
    phase varies by ``variation`` (times omega), about
    KRONROD_NODES * (omega * variation / pi + 16) evaluations, exceed
    DEFAULT_BUDGET.  The oracles call it before they build an edge."""
    est = KRONROD_NODES * (omega * variation / math.pi + 16)
    if est > DEFAULT_BUDGET:
        raise BudgetError(
            f"{label}: ~{est:.0f} evaluations exceed budget {DEFAULT_BUDGET}",
            diagnostics={"evaluations_needed": est, "budget": DEFAULT_BUDGET,
                         "omega": omega})


def geometric_edges(a, b, first, ratio=2.0):
    """Edges of [a, b] starting with panel width ``first`` growing by
    ``ratio`` (used for boundary layers and decaying tails)."""
    if not (b > a):
        raise ValueError("need b > a")
    edges = [a]
    w = float(first)
    while edges[-1] + w < b:
        edges.append(edges[-1] + w)
        w *= ratio
    edges.append(b)
    return np.asarray(edges)


def capped_edges(edges, cap):
    """``edges`` with every panel wider than ``cap`` cut into equal parts:
    panel i becomes m[i] parts, as np.linspace(edges[i], edges[i+1], m[i]+1)."""
    width = np.diff(edges)
    m = np.where(width > cap, np.ceil(width / cap), 1.0).astype(np.int64)
    first = np.cumsum(m) - m
    j = np.arange(first[-1] + m[-1]) - np.repeat(first, m)
    out = j * np.repeat(width / m, m) + np.repeat(edges[:-1], m)
    return np.unique(np.append(out, edges[-1]))


def power_edges(xi, a):
    """Edges in v = xi^a of a sum from xi = 0 over the increasing edges
    ``xi`` > 0: 0, the geometric head xi[0]^a 4^-k for k = 5, ..., 1, then
    xi^a."""
    return np.concatenate(([0.0], xi[0] ** a * 0.25 ** np.arange(5, 0, -1.0),
                           xi ** a))
