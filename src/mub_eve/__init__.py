"""Optimal symmetric incoherent eavesdropping on MUB-based qudit QKD.

Construction and verification of the optimal symmetric attack for protocols
using two mutually unbiased bases in any dimension d >= 2 (plus the
three-basis qutrit variant), the closed-form information curves and critical
disturbances, and an independent Monte Carlo protocol simulator that
cross-checks the closed forms.
"""

__version__ = "0.1.0"

from .attack import (
    AttackIsometry,
    AttackParams,
    EveStateSet,
    ScalarProductProfile,
    build_eve_states,
    build_isometry,
    coeff_pair,
    disturbance_per_state,
    isometry_from_states,
    isometry_residual,
    scalar_product_profile,
)
from .bases import (
    Basis,
    computational_basis,
    fourier_basis,
    protocol_bases,
    qutrit_three_basis_set,
)
from .errors import AnalysisError, DimensionError, DomainError, ProtocolError
from .information import (
    ProtocolSpec,
    dits_to_bits,
    guess_probability,
    i_ab,
    i_ae,
    i_d,
    lambda_d,
    phi_d,
)
from .optimize import (
    CriticalPoint,
    OptimumReport,
    admissible_w_interval,
    critical_disturbance,
    d_c_closed_form,
    golden_section_maximize,
    i_ae_optimal,
    maximize_w,
    optimal_w,
    w_bar,
)
from .simulate import (
    ComparisonReport,
    SessionStats,
    SimConfig,
    compare_to_analytic,
    empirical_mutual_information,
    outcome_distribution,
    resolve_w,
    simulate,
)

__all__ = [
    "__version__",
    "AnalysisError",
    "AttackIsometry",
    "AttackParams",
    "Basis",
    "ComparisonReport",
    "CriticalPoint",
    "DimensionError",
    "DomainError",
    "EveStateSet",
    "OptimumReport",
    "ProtocolError",
    "ProtocolSpec",
    "ScalarProductProfile",
    "SessionStats",
    "SimConfig",
    "admissible_w_interval",
    "build_eve_states",
    "build_isometry",
    "coeff_pair",
    "compare_to_analytic",
    "computational_basis",
    "critical_disturbance",
    "d_c_closed_form",
    "disturbance_per_state",
    "dits_to_bits",
    "empirical_mutual_information",
    "fourier_basis",
    "golden_section_maximize",
    "guess_probability",
    "i_ab",
    "i_ae",
    "i_ae_optimal",
    "i_d",
    "isometry_from_states",
    "isometry_residual",
    "lambda_d",
    "maximize_w",
    "optimal_w",
    "outcome_distribution",
    "phi_d",
    "protocol_bases",
    "qutrit_three_basis_set",
    "resolve_w",
    "scalar_product_profile",
    "simulate",
    "w_bar",
]
