"""Optimal symmetric incoherent eavesdropping on MUB-based qudit QKD.

Construction and verification of the optimal symmetric attack for protocols
using two mutually unbiased bases in any dimension d >= 2 (plus the
three-basis qutrit variant), the closed-form information curves and critical
disturbances, and an independent Monte Carlo protocol simulator that
cross-checks the closed forms.

Names load lazily (PEP 562): the first read of a name in ``_EXPORTS`` imports
its submodule and binds all that submodule's names here, so the closed forms
load without numpy. ``mub_eve.simulate`` is the function in every import
order: the package's module class declines the one binding that the import
system makes of a loaded submodule on its package, so the module is reached
as ``importlib.import_module("mub_eve.simulate")``.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "attack": ("AttackParams", "EveStateSet", "ScalarProductProfile", "build_eve_states", "coeff_pair",
               "disturbance_per_state", "isometry_residual", "scalar_product_profile"),
    "bases": ("Basis", "ProtocolSpec", "computational_basis", "fourier_basis", "protocol_bases",
              "qutrit_three_basis_set"),
    "errors": ("AnalysisError", "DimensionError", "DomainError", "ProtocolError"),
    "information": ("dits_to_bits", "guess_probability", "i_ab", "i_ae", "i_d", "lambda_d", "phi_d"),
    "optimize": ("CriticalPoint", "OptimumReport", "admissible_w_interval", "critical_disturbance",
                 "d_c_closed_form", "i_ae_optimal", "maximize_w", "optimal_w", "resolve_w", "w_bar"),
    "simulate": ("ComparisonReport", "SessionStats", "SimConfig", "compare_to_analytic",
                 "empirical_mutual_information", "outcome_distribution", "simulate"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        if name in _EXPORTS:  # a submodule read as an attribute, as when every layer loaded with the package
            return importlib.import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = importlib.import_module(f".{module}", __name__)
    globals().update((export, getattr(namespace, export)) for export in _EXPORTS[module])
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        if not (name == "simulate" and isinstance(value, types.ModuleType)):  # the submodule's binding
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
