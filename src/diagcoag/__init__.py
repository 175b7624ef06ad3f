"""Self-similar profiles with fat tails for the diagonal-kernel coagulation equation."""

from .params import (
    KernelParams,
    SimilarityParams,
    beta_from_rho,
    make_params,
    params_from_rho,
    rho_from_beta,
)
from .mu import F_of, MuSolveReport, solve_mu
from .expansion import (
    ExpansionGrid,
    apply_T,
    contraction_margin,
    default_z,
    fixed_point,
    h_from_expansion,
)
from .profile import (
    Profile,
    integrate,
    normalize,
    read_profile_csv,
    rescale,
    rhs,
    write_profile_csv,
)
from .tail import TailReport, build_tail_report, check_bounds, estimate_d, fit_slope, p_of, phi_of, residual_sss4b
from .dynamics import (
    CollapseReport,
    NumberDensityField,
    coag_rhs,
    field_from_profile,
    moments,
    power_law_field,
    pulse_field,
    self_similar_distance,
    simulate_collapse,
    step,
)
from .pipeline import build_profile, sweep_row

__all__ = [
    "KernelParams",
    "SimilarityParams",
    "beta_from_rho",
    "make_params",
    "params_from_rho",
    "rho_from_beta",
    "F_of",
    "MuSolveReport",
    "solve_mu",
    "ExpansionGrid",
    "apply_T",
    "contraction_margin",
    "default_z",
    "fixed_point",
    "h_from_expansion",
    "Profile",
    "integrate",
    "normalize",
    "read_profile_csv",
    "rescale",
    "rhs",
    "write_profile_csv",
    "TailReport",
    "build_tail_report",
    "check_bounds",
    "estimate_d",
    "fit_slope",
    "p_of",
    "phi_of",
    "residual_sss4b",
    "CollapseReport",
    "NumberDensityField",
    "coag_rhs",
    "field_from_profile",
    "moments",
    "power_law_field",
    "pulse_field",
    "self_similar_distance",
    "simulate_collapse",
    "step",
    "build_profile",
    "sweep_row",
]

__version__ = "0.1.0"
