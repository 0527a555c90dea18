"""Feasibility calculus for a candidate suppression experiment.

Evaluates every figure of merit a designer needs to judge one parameter
point: the control Rabi window for good transparency, the FWM strength, the
Raman control amplitude required to reach a target absorber depth, the
bandwidth comparison between the absorption line and the generated Stokes
spectrum, the residual noise-photon ratio, and the strength of spurious Raman
scattering induced by the extra control field.

Qualitative inequalities are made auditable: "much greater" is encoded as a
factor of ten, and the spurious-scattering bound is strict x < 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .errors import DomainError, InfeasibleTargetError, ValidationError, Violation
from .model import EitMedium, RamanAbsorber, Scenario, validate
from .propagation import noise_suppression_ratio
from .susceptibility import two_photon_width

MUCH_GREATER_FACTOR = 10.0


@dataclass(frozen=True)
class DesignReport:
    """All figures of merit plus their pass/fail verdicts."""

    rabi_lower: float
    rabi_upper: float
    rabi_ok: bool
    fwm_strength: float
    d_abs_target: float
    omega_a_required: float
    bandwidth_lhs: float
    bandwidth_rhs: float
    bandwidth_ok: bool
    noise_ratio: float
    raman_x: float
    raman_ok: bool
    overall: bool


def rabi_window(eit: EitMedium) -> tuple[float, float, bool]:
    """Admissible control Rabi window (MHz) and the verdict for omega_c.

    The lower edge sqrt(gamma_ge * gamma_gs) must be exceeded by a factor of
    MUCH_GREATER_FACTOR; the upper edge gamma_ge is a strict bound.
    """
    lower = math.sqrt(eit.gamma_ge * eit.gamma_gs)
    upper = eit.gamma_ge
    ok = eit.omega_c >= MUCH_GREATER_FACTOR * lower and eit.omega_c < upper
    return lower, upper, ok


def fwm_strength(eit: EitMedium) -> float:
    """Dimensionless FWM parameter depth * gamma_ge / delta_control."""
    return eit.depth * eit.gamma_ge / eit.delta_control


def solve_omega_a(absorber: RamanAbsorber, target_d_abs: float) -> float:
    """Raman control Rabi frequency reaching a target effective depth.

    Inverts D = u / (gamma_cb + u) * depth_2l, u = gamma_ab * omega_a^2 / delta_2^2,
    in closed form: u = gamma_cb * D / (depth_2l - D) and
    omega_a = |delta_2| * sqrt(u / gamma_ab).  The target must stay below the
    depth_2l saturation ceiling.
    """
    if target_d_abs < 0:
        raise DomainError("target depth must be nonnegative")
    if target_d_abs == 0:
        return 0.0
    if target_d_abs >= absorber.depth_2l:
        raise InfeasibleTargetError(
            f"target depth {target_d_abs:g} is not reachable: the effective depth "
            f"saturates at depth_2l = {absorber.depth_2l:g} (the gamma_cb -> 0 ceiling)"
        )
    if absorber.gamma_cb == 0:
        raise DomainError(
            "with gamma_cb = 0 the effective depth equals depth_2l for any "
            "nonzero omega_a; there is nothing to invert"
        )
    u = absorber.gamma_cb * target_d_abs / (absorber.depth_2l - target_d_abs)
    omega_a = abs(absorber.delta_2) * math.sqrt(u / absorber.gamma_ab)
    if not math.isfinite(omega_a):
        raise InfeasibleTargetError(f"the omega_a reaching {target_d_abs:g} overflows a float")
    return omega_a


def bandwidth_check(absorber: RamanAbsorber, eit: EitMedium) -> tuple[float, float, bool]:
    """Absorption line width versus generated Stokes width (MHz) and the verdict.

    The absorption half-width must exceed the EIT/FWM bandwidth estimate
    |omega_c|^2 / (gamma_ge sqrt(D)) * sqrt(2 / (1 + D/12)).
    """
    lhs = two_photon_width(absorber)
    den = eit.gamma_ge * math.sqrt(eit.depth)  # 0 at depth 0, and where the product underflows
    try:
        rhs = eit.omega_c**2 / den * math.sqrt(2.0 / (1.0 + eit.depth / 12.0))
    except (ZeroDivisionError, OverflowError):  # den is 0, or |omega_c| is above ~1.34e154
        rhs = 0.0 if eit.omega_c == 0 else math.inf
    return lhs, rhs, lhs > rhs


def raman_scatter_strength(eit: EitMedium, absorber: RamanAbsorber, delta_a: float) -> float:
    """Relative strength of spontaneous Raman scattering driven by the extra control.

    x = depth * (|omega_a| / |omega_c|) * (gamma_ge / delta_a); the design
    bound is x < 1.
    """
    if delta_a == 0:
        raise DomainError("delta_a must be nonzero")
    if absorber.omega_a == 0:
        return 0.0
    if eit.omega_c == 0:
        return math.inf
    return eit.depth * (absorber.omega_a / eit.omega_c) * (eit.gamma_ge / delta_a)


def mix_depth_2l(scenario: Scenario) -> float:
    """Two-level absorber depth implied by the isotope mix, if one is given."""
    opt = scenario.options
    if opt.eit_fraction is not None and opt.absorber_fraction is not None:
        return opt.absorber_fraction / opt.eit_fraction * scenario.eit.depth
    assert scenario.absorber is not None
    return scenario.absorber.depth_2l


def full_report(scenario: Scenario) -> DesignReport:
    """Assemble the complete feasibility report for one scenario.

    The absorber two-level depth is derived from the isotope mix fractions
    when both are present.  The bandwidth and scattering checks use the
    scenario's own Raman control amplitude; the noise ratio is evaluated at
    the design target depth.
    """
    validate(scenario)
    missing = []
    if scenario.absorber is None:
        missing.append(Violation("absorber", None, "design report requires an absorber section"))
    if scenario.options.delta_a is None:
        missing.append(
            Violation("options.delta_a", None, "design report requires the Raman control detuning")
        )
    if missing:
        raise ValidationError(missing)
    assert scenario.absorber is not None and scenario.options.delta_a is not None

    eit = scenario.eit
    absorber = replace(scenario.absorber, depth_2l=mix_depth_2l(scenario))
    target = scenario.options.target_depth_ratio * eit.depth

    rabi_lower, rabi_upper, rabi_ok = rabi_window(eit)
    strength = fwm_strength(eit)
    omega_a_required = solve_omega_a(absorber, target)
    lhs, rhs, bandwidth_ok = bandwidth_check(absorber, eit)
    noise = noise_suppression_ratio(eit, target) if target > 0 else 0.0
    x = raman_scatter_strength(eit, absorber, scenario.options.delta_a)
    raman_ok = x < 1.0

    report = DesignReport(
        rabi_lower=rabi_lower,
        rabi_upper=rabi_upper,
        rabi_ok=rabi_ok,
        fwm_strength=strength,
        d_abs_target=target,
        omega_a_required=omega_a_required,
        bandwidth_lhs=lhs,
        bandwidth_rhs=rhs,
        bandwidth_ok=bandwidth_ok,
        noise_ratio=noise,
        raman_x=x,
        raman_ok=raman_ok,
        overall=rabi_ok and bandwidth_ok and raman_ok,
    )
    if report.overall:  # an infinite figure is a limit, as raman_x at omega_c = 0, only in a FAIL
        for name, value in asdict(report).items():
            if not math.isfinite(value):
                raise OverflowError(f"{name} is {value!r} in a passing design report of {scenario}")
    return report
