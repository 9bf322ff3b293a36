"""Desk-scale spectral laboratory for gap-edge eigenvalue counting.

Band functions of fibered magnetic Schrodinger operators with a monotone
edge profile, gap-edge asymptotics, resolvent-route eigenvalue counting,
the exponential/sinc model-operator family, and the geometric constants
of the square-root-of-log accumulation law.
"""

from .counting import CountingReport, LogHermitian, count_above, n_star
from .errors import (ConstantPotential, ConvergenceFailure, DomainError,
                     EdgegapError, EmptyIntersection, NoGap, ScenarioError,
                     TruncationWarning, WrongPotentialKind)
from .fiber import (EdgeComparison, FiberDiscretization, GapModel,
                    band_table, edge_comparison, edge_comparisons, gap_edges,
                    phi_squared, solve_fiber)
from .geometry import (PolygonDomain, asymptotic_constants, c_minus, c_plus,
                       clip_positive_halfplane, kappa, optimal_disk)
from .operators import DiscretizedOperator, QuadratureSpec
from .potentials import (EdgePotential, Perturbation, finiteness_predicate,
                         gap_condition, step_potential, upper_envelope)
from .scenario import (Scenario, load_scenario, normalized_scenario,
                       scenario_from_dict, schema_json)

__version__ = "0.1.0"

__all__ = [
    "ConstantPotential", "ConvergenceFailure",
    "CountingReport", "DiscretizedOperator", "DomainError",
    "EdgeComparison", "EdgePotential", "EdgegapError", "EmptyIntersection",
    "FiberDiscretization", "GapModel", "LogHermitian",
    "NoGap", "Perturbation", "PolygonDomain",
    "QuadratureSpec", "Scenario", "ScenarioError",
    "TruncationWarning", "WrongPotentialKind", "asymptotic_constants",
    "band_table", "c_minus", "c_plus", "clip_positive_halfplane",
    "count_above", "edge_comparison", "edge_comparisons",
    "finiteness_predicate", "gap_condition", "gap_edges", "kappa",
    "load_scenario", "n_star", "normalized_scenario", "optimal_disk",
    "phi_squared", "scenario_from_dict", "schema_json", "solve_fiber",
    "step_potential", "upper_envelope",
]
