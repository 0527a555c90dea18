"""Domain types, unit convention, and validation.

All rates, Rabi frequencies, and detunings are stored in MHz under a single
linear-frequency convention.  Every propagation and design formula is a ratio
or product of same-convention quantities, so the choice of a 2*pi factor
cancels throughout.  Optical depths follow the amplitude convention: a
resonant field amplitude decays as exp(-depth), its intensity as
exp(-2*depth).  The propagation coordinate is normalized to zeta = z/L, so a
physical length never appears downstream of the depths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from .errors import ValidationError, Violation

C_LIGHT = 299_792_458.0  # m/s
MHZ = 1e6  # Hz per MHz


def mhz_to_ghz(x: float) -> float:
    return x / 1000.0


def ghz_to_mhz(x: float) -> float:
    return x * 1000.0


@dataclass(frozen=True)
class EitMedium:
    """Rates, detuning, control Rabi frequency, and optical depth of the EIT/FWM lambda system.

    gamma_ge: optical coherence decay rate (MHz)
    gamma_gs: ground-state spin decoherence rate (MHz)
    delta_control: control detuning from the far optical transition (MHz)
    omega_c: control Rabi frequency (MHz)
    depth: resonant optical depth (amplitude convention, dimensionless)
    """

    gamma_ge: float
    gamma_gs: float
    delta_control: float
    omega_c: float
    depth: float


@dataclass(frozen=True)
class RamanAbsorber:
    """The auxiliary far-detuned lambda system acting as a tunable idler absorber.

    omega_a: Raman control Rabi frequency (MHz)
    delta_2: Raman control detuning from its optical transition (MHz)
    gamma_ab: optical coherence decay rate of the absorber isotope (MHz)
    gamma_ac: optical coherence decay rate on the control leg (MHz)
    gamma_cb: ground-state coherence decay rate of the absorber (MHz)
    depth_2l: peak two-level optical depth of the absorber isotope
    center_offset: displacement of the absorption line center from the
        idler's FWM resonance (MHz); 0 means centered
    """

    omega_a: float
    delta_2: float
    gamma_ab: float
    gamma_ac: float
    gamma_cb: float
    depth_2l: float
    center_offset: float = 0.0


@dataclass(frozen=True)
class AtomicLine:
    """Radiative rate (MHz), wavelength (nm), and density (atoms/cm^3) of the absorber line."""

    gamma_r: float
    wavelength: float
    density: float


@dataclass(frozen=True)
class FieldPair:
    """Mean-field complex amplitudes of the signal and the conjugated idler."""

    a_s: complex
    a_i_dag: complex


def _frozen_2x2(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CouplingMatrix:
    """Per-unit-zeta generator of signal/idler propagation at one two-photon detuning."""

    m: np.ndarray
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "m", _frozen_2x2(self.m))


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for one sweep axis."""

    axis: Literal["two-photon-detuning", "absorber-depth"]
    start: float
    stop: float
    points: int
    scale: Literal["linear", "logarithmic"] = "linear"

    def grid(self) -> np.ndarray:
        if self.scale == "logarithmic":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


_NORMALIZE_MODES = ("input", "max")
MAX_SWEEP_POINTS = 100_000  # bounds one sweep's output; a depth scan times its inner grid


@dataclass(frozen=True)
class ScanOptions:
    """Behavioral switches shared by the sweep engine and the design calculator.

    stokes_seed: input idler amplitude relative to the input signal
    apply_light_shift: move the absorber line center by |omega_a|^2/delta_2
    exact_absorber: use the full absorber susceptibility profile instead of
        the Lorentzian approximation (requires an AtomicLine)
    normalize_stokes: "input" references Stokes output to the input signal
        intensity, "max" renormalizes the curve to its own maximum
    delta_a: detuning of the Raman control seen by the EIT isotope (MHz),
        needed by the spurious-scattering design check
    eit_fraction / absorber_fraction: isotope mix fractions used to derive
        the absorber two-level depth in design reports
    target_depth_ratio: design target for absorber depth as a multiple of
        the EIT optical depth
    """

    stokes_seed: float = 1.0
    apply_light_shift: bool = True
    exact_absorber: bool = False
    normalize_stokes: str = "input"
    delta_a: Optional[float] = None
    eit_fraction: Optional[float] = None
    absorber_fraction: Optional[float] = None
    target_depth_ratio: float = 1.1


@dataclass(frozen=True)
class Scenario:
    """A complete, self-contained description of one computation."""

    eit: EitMedium
    absorber: Optional[RamanAbsorber] = None
    line: Optional[AtomicLine] = None
    sweep: Optional[SweepSpec] = None
    options: ScanOptions = field(default_factory=ScanOptions)


def compute_optical_depth(g: float, n: float, length: float, gamma_ge: float) -> float:
    """Resonant optical depth g^2*N*L/(c*gamma_ge) with MHz rates and meters.

    g is the single-photon Rabi frequency (MHz), n the atom count, length the
    medium length (m).
    """
    violations = []
    for name, value in (("g", g), ("n", n), ("length", length), ("gamma_ge", gamma_ge)):
        if not value > 0:
            violations.append(Violation(name, value, "must be positive"))
    if violations:
        raise ValidationError(violations)
    return (g * MHZ) ** 2 * n * length / (C_LIGHT * gamma_ge * MHZ)


def _check_finite(violations: list, prefix: str, name: str, value: float) -> bool:
    if isinstance(value, complex):
        ok = math.isfinite(value.real) and math.isfinite(value.imag)
    else:
        ok = math.isfinite(value)
    if not ok:
        violations.append(Violation(f"{prefix}{name}", value, "must be finite"))
    return ok


def eit_violations(eit: EitMedium, prefix: str = "") -> list[Violation]:
    v: list[Violation] = []
    fields = {
        "gamma_ge": eit.gamma_ge,
        "gamma_gs": eit.gamma_gs,
        "delta_control": eit.delta_control,
        "omega_c": eit.omega_c,
        "depth": eit.depth,
    }
    finite = {k: _check_finite(v, prefix, k, x) for k, x in fields.items()}
    if finite["gamma_ge"] and not eit.gamma_ge > 0:
        v.append(Violation(prefix + "gamma_ge", eit.gamma_ge, "must be positive"))
    if finite["gamma_gs"] and not eit.gamma_gs >= 0:
        v.append(Violation(prefix + "gamma_gs", eit.gamma_gs, "must be nonnegative"))
    if finite["gamma_ge"] and finite["gamma_gs"] and 0 < eit.gamma_ge < eit.gamma_gs:
        v.append(
            Violation(
                prefix + "gamma_gs",
                eit.gamma_gs,
                "must not exceed gamma_ge (ordering of coherence decay rates)",
            )
        )
    if finite["depth"] and not eit.depth >= 0:
        v.append(Violation(prefix + "depth", eit.depth, "must be nonnegative"))
    if finite["delta_control"] and eit.delta_control == 0:
        v.append(
            Violation(
                prefix + "delta_control",
                eit.delta_control,
                "must be nonzero (the FWM coupling divides by it)",
            )
        )
    if finite["omega_c"] and not eit.omega_c >= 0:
        v.append(Violation(prefix + "omega_c", eit.omega_c, "must be nonnegative"))
    return v


def absorber_violations(a: RamanAbsorber, prefix: str = "") -> list[Violation]:
    v: list[Violation] = []
    fields = {
        "omega_a": a.omega_a,
        "delta_2": a.delta_2,
        "gamma_ab": a.gamma_ab,
        "gamma_ac": a.gamma_ac,
        "gamma_cb": a.gamma_cb,
        "depth_2l": a.depth_2l,
        "center_offset": a.center_offset,
    }
    finite = {k: _check_finite(v, prefix, k, x) for k, x in fields.items()}
    if finite["omega_a"] and not a.omega_a >= 0:
        v.append(Violation(prefix + "omega_a", a.omega_a, "must be nonnegative"))
    if finite["delta_2"] and a.delta_2 == 0:
        v.append(Violation(prefix + "delta_2", a.delta_2, "must be nonzero"))
    if finite["gamma_ab"] and not a.gamma_ab > 0:
        v.append(Violation(prefix + "gamma_ab", a.gamma_ab, "must be positive"))
    if finite["gamma_ac"] and not a.gamma_ac > 0:
        v.append(Violation(prefix + "gamma_ac", a.gamma_ac, "must be positive"))
    if finite["gamma_cb"] and not a.gamma_cb >= 0:
        v.append(Violation(prefix + "gamma_cb", a.gamma_cb, "must be nonnegative"))
    if finite["depth_2l"] and not a.depth_2l >= 0:
        v.append(Violation(prefix + "depth_2l", a.depth_2l, "must be nonnegative"))
    return v


def line_violations(line: AtomicLine, prefix: str = "") -> list[Violation]:
    v: list[Violation] = []
    for name, value in (
        ("gamma_r", line.gamma_r),
        ("wavelength", line.wavelength),
        ("density", line.density),
    ):
        if _check_finite(v, prefix, name, value) and not value > 0:
            v.append(Violation(prefix + name, value, "must be positive"))
    return v


def field_pair_violations(fp: FieldPair, prefix: str = "") -> list[Violation]:
    v: list[Violation] = []
    _check_finite(v, prefix, "a_s", fp.a_s)
    _check_finite(v, prefix, "a_i_dag", fp.a_i_dag)
    return v


def sweep_violations(spec: SweepSpec, prefix: str = "") -> list[Violation]:
    v: list[Violation] = []
    if spec.axis not in ("two-photon-detuning", "absorber-depth"):
        v.append(Violation(prefix + "axis", spec.axis, "unknown sweep axis"))
    if not spec.points >= 2:
        v.append(Violation(prefix + "points", spec.points, "must be at least 2"))
    elif spec.points > MAX_SWEEP_POINTS:
        v.append(Violation(prefix + "points", spec.points, f"must be at most {MAX_SWEEP_POINTS}"))
    if not spec.start < spec.stop:
        v.append(Violation(prefix + "start", spec.start, "must be less than stop"))
    if spec.scale not in ("linear", "logarithmic"):
        v.append(Violation(prefix + "scale", spec.scale, "must be linear or logarithmic"))
    elif spec.scale == "logarithmic" and not spec.start > 0:
        v.append(
            Violation(prefix + "start", spec.start, "must be positive on a logarithmic scale")
        )
    return v


def options_violations(opt: ScanOptions, prefix: str = "") -> list[Violation]:
    v: list[Violation] = []
    if opt.normalize_stokes not in _NORMALIZE_MODES:
        v.append(
            Violation(
                prefix + "normalize_stokes",
                opt.normalize_stokes,
                f"must be one of {_NORMALIZE_MODES}",
            )
        )
    if not opt.stokes_seed >= 0:
        v.append(Violation(prefix + "stokes_seed", opt.stokes_seed, "must be nonnegative"))
    if opt.delta_a is not None and not (math.isfinite(opt.delta_a) and opt.delta_a != 0):
        v.append(Violation(prefix + "delta_a", opt.delta_a, "must be finite and nonzero when given"))
    for name, value in (
        ("eit_fraction", opt.eit_fraction),
        ("absorber_fraction", opt.absorber_fraction),
    ):
        if value is not None and not 0 < value < 1:
            v.append(Violation(prefix + name, value, "must lie strictly between 0 and 1"))
    if not (math.isfinite(opt.target_depth_ratio) and opt.target_depth_ratio > 0):
        v.append(
            Violation(prefix + "target_depth_ratio", opt.target_depth_ratio, "must be positive")
        )
    return v


def scenario_violations(s: Scenario) -> list[Violation]:
    v = eit_violations(s.eit, "eit.")
    if s.absorber is not None:
        v += absorber_violations(s.absorber, "absorber.")
    if s.line is not None:
        v += line_violations(s.line, "line.")
    if s.sweep is not None:
        v += sweep_violations(s.sweep, "sweep.")
    v += options_violations(s.options, "options.")
    if s.options.exact_absorber and s.line is None:
        v.append(
            Violation(
                "options.exact_absorber",
                True,
                "requires a [line] section for the exact absorber profile",
            )
        )
    return v


def validate(scenario: Scenario) -> Scenario:
    """Return the scenario unchanged if every invariant holds.

    Violations are collected across all sections, not fail-fast, and raised
    together as a :class:`ValidationError`.
    """
    violations = scenario_violations(scenario)
    if violations:
        raise ValidationError(violations)
    return scenario
