import json

import numpy as np
import pytest

from muskatss import (
    Branch,
    BranchStep,
    LMConfig,
    ResidualConfig,
    SolverReport,
    branch_to_json,
    fit_spline,
    kappa,
    make_grid,
)


def cheap_residual_config():
    """Small outer grid for unit tests that only need qualitative behavior."""
    return ResidualConfig(outer_nodes=120)


def cheap_lm_config():
    return LMConfig(threads=2)


@pytest.fixture(scope="session")
def grid129():
    return make_grid(129)


@pytest.fixture(scope="session")
def linear_profile_01(grid129):
    """Linear-in-z ansatz with slope 0.1 (not a solution; cheap test input)."""
    values = (2.0 / np.pi) * 0.1 * grid129.nodes
    return fit_spline(grid129, values, 0.1)


def random_odd_values(grid, rng, scale=0.3):
    """Smooth random odd-consistent nodal values (values[0] = 0)."""
    z = grid.nodes
    coeffs = rng.normal(size=4) * scale
    vals = (coeffs[0] * np.sin(z) + coeffs[1] * np.sin(2 * z) / 2
            + coeffs[2] * z * np.cos(z / 2) + coeffs[3] * z ** 3 / 5)
    vals[0] = 0.0
    return vals


def synthetic_branch_doc(N=17, nsteps=5, ds=0.1) -> dict:
    """Parsed branch JSON: kappa-arctan steps plus a small s^3 deviation."""
    grid = make_grid(N)
    z = grid.nodes
    branch = Branch(ds=ds, N=N)
    for m in range(1, nsteps + 1):
        s = m * ds
        values = ((2.0 * s / np.pi) * np.arctan(np.tan(z) / kappa(s))
                  + 0.02 * s ** 3 * np.sin(2.0 * z))
        values[0], values[-1] = 0.0, s
        report = SolverReport(solution=values[1:], residual_norm=0.0, iterations=0,
                              converged=True)
        branch.steps.append(BranchStep(s=s, profile=fit_spline(grid, values, s), report=report))
    return json.loads(branch_to_json(branch))
