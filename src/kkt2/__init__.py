"""Optimality certification for box/hull-constrained problems with finitely
many nonlinear constraints: stationarity, constraint qualifications, and
no-gap second-order necessary/sufficient checks built on the maximized
Lagrangian Hessian over the multiplier polytope."""

from .curvature import check_snc, check_ssc
from .kkt import check_rzkcq, foc_residual, multiplier_set
from .model import BoxSet, ProblemSpec, SmoothFunction, check_feasible, quadratic

__version__ = "0.1.0"
