"""Steady-state simulator and design calculator for four-wave-mixing
suppression in a double-lambda EIT medium with an auxiliary Raman absorber."""

__version__ = "0.2.0"

from .errors import (
    DomainError,
    InfeasibleTargetError,
    IntegrationError,
    LambdaMixerError,
    SingularityError,
    ValidationError,
    Violation,
)
from .model import (
    CouplingMatrix,
    EitMedium,
    FieldPair,
    RamanAbsorber,
    ScanOptions,
    Scenario,
    SweepSpec,
    validate,
)
from .propagation import (
    TransferMatrix,
    analytic_resonant_output,
    approx_output_with_absorber,
    build_coupling_matrix,
    n_fwm,
    noise_suppression_ratio,
    propagate,
)
from .susceptibility import (
    chi_abs,
    effective_depth,
    normalized_lineshape,
    two_photon_width,
)
from .design import (
    DesignReport,
    bandwidth_check,
    full_report,
    fwm_strength,
    rabi_window,
    raman_scatter_strength,
    solve_omega_a,
)
from .scenario import load_scenario, parse_scenario_text, resolve_scenario_path

# served from .scan on first access: the sweep engine imports numpy, and the
# design and noise calculus never needs it
_SCAN_NAMES = {
    "SpectrumRecord",
    "asymmetry_metric",
    "default_detuning_spec",
    "sweep_absorber_depth",
    "sweep_detuning",
}


def __getattr__(name):
    if name in _SCAN_NAMES:
        from . import scan

        return getattr(scan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "CouplingMatrix",
    "DesignReport",
    "DomainError",
    "EitMedium",
    "FieldPair",
    "InfeasibleTargetError",
    "IntegrationError",
    "LambdaMixerError",
    "RamanAbsorber",
    "ScanOptions",
    "Scenario",
    "SingularityError",
    "SpectrumRecord",
    "SweepSpec",
    "TransferMatrix",
    "ValidationError",
    "Violation",
    "analytic_resonant_output",
    "approx_output_with_absorber",
    "asymmetry_metric",
    "bandwidth_check",
    "build_coupling_matrix",
    "chi_abs",
    "default_detuning_spec",
    "effective_depth",
    "full_report",
    "fwm_strength",
    "load_scenario",
    "n_fwm",
    "noise_suppression_ratio",
    "normalized_lineshape",
    "parse_scenario_text",
    "propagate",
    "rabi_window",
    "raman_scatter_strength",
    "resolve_scenario_path",
    "solve_omega_a",
    "sweep_absorber_depth",
    "sweep_detuning",
    "two_photon_width",
    "validate",
]
