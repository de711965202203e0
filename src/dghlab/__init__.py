"""Numerical laboratory for wave breaking in the Dullin-Gottwald-Holm
equation and its two-component system."""

from .core import (
    Field,
    Grid,
    Parameters,
    State,
    ic_preset,
    make_grid,
    make_parameters,
)
from .helmholtz import NonlocalOperator, make_operator
from .evolution import BlowupReport, SolverConfig, simulate
from .characteristics import (
    CharacteristicPath,
    PathIntegrator,
    advect,
    momentum_residual,
    plain_ab,
    rho_invariant_residual,
    weighted_ab_log,
)
from .analysis import (
    CriterionVerdict,
    check_criterion_dgh,
    check_criterion_dgh2,
    energy_E,
    energy_F,
    full_kernel_gap,
    one_sided_gaps,
    peakon_witness_study,
    sobolev_gap,
)

__version__ = "0.1.0"
