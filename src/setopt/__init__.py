"""Set optimization with polyhedral cone orders: quasi-Newton and
steepest-descent solvers, scalarization utilities, benchmark harness,
and brute-force verification oracles."""

from . import bench, cli, cone, direction, expr, oracle, problem, setorder, solver
from .cone import (ConeSpec, gerstewitz, gerstewitz_batch, in_cone, in_int_cone,
                   leq, lt, nonnegative_orthant, validate, varsigma)
from .direction import (HessianStore, SubproblemSolution, bfgs_update, solve_minmax,
                        solve_subproblem)
from .errors import SetoptError
from .problem import (ProblemSpec, ScalarizedComponents, builtin, eval_F,
                      eval_jacobians, load)
from .setorder import (MinimalStructure, analyze, minimal_elements,
                       weakly_minimal_elements)
from .solver import IterateTrace, SolverConfig, run, stationarity_report

__version__ = "0.1.0"
