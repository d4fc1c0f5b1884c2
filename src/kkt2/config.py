"""Verdict tolerances and search budget, one object each per run.  Guards
of one algorithm stay beside it: the growth sampler's 1e-13 residual, 8
Newton steps, 1e-14 determinant and 40 tries per sample, the descent
floors, ``linalg._PIVOT_TOL``.  All dataclasses are frozen; pass a
modified copy (``dataclasses.replace``) to override.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class Tolerances:
    feasibility: float = 1e-9        # double-description tightness, polytope rows, CQ axis signs
    vertex_dedup: float = 1e-8       # vertex enumeration duplicate merge
    activity: float = 1e-8           # constraint / bound activity
    residual: float = 1e-9           # stationarity residual
    violation: float = 1e-7          # second-order violation, on unit directions
    alpha_slack: float = 1e-6        # coercivity slack in the sufficient check
    growth_slack: float = 1e-9       # growth-inequality slack before flagging
    derivative_abs: float = 1e-6     # finite-difference validation, absolute
    derivative_rel: float = 1e-4     # finite-difference validation, relative
    density_gap: float = 0.05        # radial-vs-tangent distance threshold


@dataclass(frozen=True)
class SearchBudget:
    """Direction-search effort for the second-order checks."""

    structured: int = 64
    random: int = 512
    # rungs of the descent's step ladder, each tried alone or in a screened
    # row block: one step per rung either way
    descent_steps: int = 200
    seed: int = DEFAULT_SEED


DEFAULT_TOLERANCES = Tolerances()
DEFAULT_BUDGET = SearchBudget()
