"""Self-similar profiles of the Muskat slope equation.

Solves the compactified profile equation on [0, pi/2] by collocation
with a degree-4 odd spline, Levenberg-Marquardt least squares, and
continuation in the far-field slope; validates the cubic smallness of
the deviation from the arctan profile.
"""

from .analytic import (
    BrickSample,
    delta_brick,
    delta_brick_polarized,
    j_brick,
    kappa,
    linear_profile,
    pi_s,
    sliding_average,
)
from .continuation import (
    Branch,
    BranchStep,
    branch_from_json,
    branch_to_json,
    continue_branch,
    load_branch,
    save_branch,
    solve_profile,
)
from .diagnostics import (
    FigureTable,
    H1Report,
    ds_derivative_check,
    figure_data,
    fit_loglog_slope,
    h1_distance,
    h1_norm,
    h1_profile_distance,
)
from .grid_spline import Grid, Profile, fit_spline, make_grid
from .lm import LMConfig, Problem, SolverError, SolverReport, fd_jacobian, lm_solve
from .quadrature import (
    QuadConfig,
    QuadratureError,
    QuadResult,
    gk15_adaptive,
    trapezoid,
)
from .residual import ResidualConfig, ResidualVector, delta_tilde, residual_at, residual_vector

__version__ = "0.1.0"
