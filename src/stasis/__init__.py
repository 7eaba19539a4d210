"""Stationary-phase expansions for singular oscillatory integrals.

Leading terms with fully explicit remainder bounds for integrals

    int_{p1}^{p2} U(p) e^(i w psi(p)) dp

whose amplitude has algebraic endpoint singularities and whose phase has
stationary endpoints, plus the application to the free Schrodinger equation
on the line (space-time decay on curves, regions and the critical
direction), all checked against high-accuracy quadrature oracles.
"""

from .errors import BudgetError, ConvergenceError, DomainError
from .expansion import (ExpansionResult, PowerTerm, expand_integral,
                        leading_term, remainder_bound_r1, remainder_bound_r2)
from .model import (PhaseModel, SingularAmplitude, SubstitutionFrame,
                    build_frame)
from .oracle import (OracleValue, integrate_by_parts_check,
                     integrate_oscillatory, phi_primitive, reconstruct_total)
from .quadratic import (CurveExponents, QuadraticPhase, curve_exponents,
                        expand_quadratic, quadratic_coefficients,
                        quadratic_remainder_terms, resolve_delta)
from .schrodinger import (DecayFit, SchrodingerSetup, critical_direction_fit,
                          curve_point, evaluate_solution, fit_decay,
                          integrate_quadratic, predicted_exponents,
                          region_contains, region_scan, stationary_point,
                          steepest_descent, supremum_scan,
                          threshold_time, verify_curve_expansion)
from .specfun import gamma_pos, theta

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "ConvergenceError", "DomainError",
    "ExpansionResult", "PowerTerm",
    "expand_integral", "leading_term", "remainder_bound_r1",
    "remainder_bound_r2",
    "PhaseModel", "SingularAmplitude", "SubstitutionFrame",
    "build_frame",
    "OracleValue", "integrate_by_parts_check", "integrate_oscillatory",
    "phi_primitive", "reconstruct_total",
    "CurveExponents", "QuadraticPhase", "curve_exponents",
    "expand_quadratic", "quadratic_coefficients",
    "quadratic_remainder_terms", "resolve_delta",
    "DecayFit", "SchrodingerSetup", "critical_direction_fit",
    "curve_point", "evaluate_solution", "fit_decay",
    "integrate_quadratic", "predicted_exponents", "region_contains",
    "region_scan", "stationary_point", "steepest_descent",
    "supremum_scan", "threshold_time",
    "verify_curve_expansion",
    "gamma_pos", "theta",
    "__version__",
]
