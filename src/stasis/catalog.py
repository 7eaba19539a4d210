"""Built-in amplitudes and phases for experiments.

The catalog is closed on purpose: every entry carries its exact sup and
W^(1,inf) norms (max of the function and derivative sup norms), which the
certified bounds consume.  All entries live on [0, 1].  Every amplitude's
u~ is a polynomial of degree at most 1 that keeps the dtype of its
argument, so each entry declares itself ``analytic``; every phase is a
polynomial of degree at most 2, so ``PhaseModel`` derives its ``poly``.
Together they let ``schrodinger.steepest_descent`` integrate every catalog
pair.
"""

from __future__ import annotations

import inspect

import numpy as np

from .errors import DomainError
from .model import PhaseModel, SingularAmplitude

__all__ = ["amplitude", "phase", "listing"]


def _ones(p):
    return np.ones(np.shape(p))


def _zeros(p):
    return np.zeros(np.shape(p))


def _minus_ones(p):
    return -_ones(p)


def _identity(p):
    return np.asarray(p, dtype=float)


def _one_minus(p):
    return 1.0 - np.asarray(p)


def _p_plus_p2(p):
    p = np.asarray(p, dtype=float)
    return p * (1.0 + p)


def _one_plus_2p(p):
    return 1.0 + 2.0 * np.asarray(p, dtype=float)


def _intro(mu):
    # u~(p) = 1 - p: sup 1 on [0,1], |u~'| = 1
    return SingularAmplitude(
        0.0, 1.0, mu, 1.0,
        u_tilde=_one_minus, u_tilde_prime=_minus_ones,
        sup_norm_u=1.0, sobolev_norm_u=1.0, analytic=True)


def _beta(mu1, mu2):
    return SingularAmplitude(0.0, 1.0, mu1, mu2, _ones, _zeros, 1.0, 1.0,
                             analytic=True)


_AMPLITUDES = {
    "beta": ("U = p^(mu1-1) (1-p)^(mu2-1) on [0,1]",
             lambda mu1=0.5, mu2=0.5: _beta(mu1, mu2)),
    "beta-bessel": ("U = p^(-1/2) (1-p)^(-1/2), the Bessel closed-form case",
                    lambda: _beta(0.5, 0.5)),
    "fresnel": ("U = p^(mu-1), regular right endpoint",
                lambda mu=0.5: _beta(mu, 1.0)),
    "intro": ("Fu0 = p^(mu-1) (1-p) on [0,1], the running example",
              _intro),
}

_PHASES = {
    "linear": ("psi(p) = p", lambda: PhaseModel(
        0.0, 1.0, 1.0, 1.0, _identity, _ones, _ones)),
    "linear-convex": ("psi(p) = p + p^2", lambda: PhaseModel(
        0.0, 1.0, 1.0, 1.0, _p_plus_p2, _one_plus_2p, _one_plus_2p)),
}


def amplitude(name: str, **params) -> SingularAmplitude:
    if name not in _AMPLITUDES:
        raise DomainError(f"unknown amplitude {name!r}; have {sorted(_AMPLITUDES)}")
    build = _AMPLITUDES[name][1]
    try:
        inspect.signature(build).bind(**params)
    except TypeError:
        raise DomainError(f"amplitude {name!r} takes parameters "
                          f"{inspect.signature(build)}, got {params}") from None
    return build(**params)


def phase(name: str) -> PhaseModel:
    if name not in _PHASES:
        raise DomainError(f"unknown phase {name!r}; have {sorted(_PHASES)}")
    return _PHASES[name][1]()


def listing() -> str:
    lines = ["amplitudes:"]
    for name in sorted(_AMPLITUDES):
        lines.append(f"  {name:14s} {_AMPLITUDES[name][0]}")
    lines.append("phases (poly = (c0, c1, c2): psi = c0 + c1 p + c2 p^2):")
    for name in sorted(_PHASES):
        c0, c1, c2 = phase(name).poly
        lines.append(f"  {name:14s} {_PHASES[name][0]}, poly = "
                     f"({c0:g}, {c1:g}, {c2:g})")
    lines.append("  quadratic      psi(p) = -(p-p0)^2 + c (set p0, c in the "
                 "config), poly = (c - p0^2, 2 p0, -1)")
    return "\n".join(lines)
