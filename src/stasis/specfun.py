"""Special-function primitives.

Everything downstream (leading coefficients, remainder constants, the
parts-identity primitive at 0) is assembled from two ingredients: the
gamma function on the positive reals and the endpoint coefficients

    theta(j, rho, mu) = (-1)^(j+1) / rho * Gamma(mu/rho) * exp((-1)^(j+1) i pi mu / (2 rho)).

All functions are pure and take scalars.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError

__all__ = ["gamma_pos", "theta"]


def gamma_pos(x) -> float:
    """Gamma(x) for real x > 0, by ``math.gamma``; DomainError otherwise."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_pos requires finite x > 0, got {x!r}")
    return math.gamma(x)


def theta(side: int, rho: float, mu: float) -> complex:
    """Endpoint coefficient of the one-term expansion.

    side 1 carries the +i pi mu/(2 rho) phase and a + sign, side 2 the
    conjugate phase and a - sign; |theta| = Gamma(mu/rho)/rho either way.
    """
    if side not in (1, 2):
        raise DomainError(f"side must be 1 or 2, got {side!r}")
    rho = float(rho)
    mu = float(mu)
    if not (rho >= 1.0 and math.isfinite(rho)):
        raise DomainError(f"rho must satisfy rho >= 1, got {rho!r}")
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"mu must lie in (0, 1], got {mu!r}")
    sign = 1.0 if side == 1 else -1.0
    mag = gamma_pos(mu / rho) / rho
    return sign * mag * cmath.exp(1j * sign * math.pi * mu / (2.0 * rho))

