"""Domain types, unit convention, and validation.

All rates, Rabi frequencies, and detunings are stored in MHz under a single
linear-frequency convention.  Every propagation and design formula is a ratio
or product of same-convention quantities, so the choice of a 2*pi factor
cancels throughout.  Optical depths follow the amplitude convention: a
resonant field amplitude decays as exp(-depth), its intensity as
exp(-2*depth).  The propagation coordinate is normalized to zeta = z/L, so a
physical length never appears downstream of the depths.

The dataclasses below are the only declaration of a scenario field: its type
(a ``Literal`` lists the allowed values of a choice field), whether it has a
default, and its range rule, attached as ``field(metadata={"rule": ...})``.
The scenario parser and :func:`validate` both read them through
:func:`field_specs`.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from typing import (
    TYPE_CHECKING,
    Callable,
    Literal,
    NamedTuple,
    Optional,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from .errors import DomainError, ValidationError, Violation

if TYPE_CHECKING:
    import numpy as np

C_LIGHT = 299_792_458.0  # m/s
MHZ = 1e6  # Hz per MHz
MAX_SWEEP_POINTS = 100_000  # bounds one sweep's output; a depth scan times its inner grid
SweepAxis = Literal["two-photon-detuning", "absorber-depth"]
DETUNING_AXIS, DEPTH_AXIS = get_args(SweepAxis)


def _rule(check: Callable[[float], bool], constraint: str, **default):
    """A dataclass field whose values must pass ``check``; ``constraint`` words a failure."""
    return field(metadata={"rule": (check, constraint)}, **default)


def _positive(**default):
    return _rule(lambda x: x > 0, "must be positive", **default)


def _nonnegative(**default):
    return _rule(lambda x: x >= 0, "must be nonnegative", **default)


def _nonzero(constraint: str = "must be nonzero", **default):
    return _rule(lambda x: x != 0, constraint, **default)


def _fraction(**default):
    return _rule(lambda x: 0 < x < 1, "must lie strictly between 0 and 1", **default)


@dataclass(frozen=True)
class EitMedium:
    """Rates, detuning, control Rabi frequency, and optical depth of the EIT/FWM lambda system.

    gamma_ge: optical coherence decay rate (MHz)
    gamma_gs: ground-state spin decoherence rate (MHz), at most gamma_ge
    delta_control: control detuning from the far optical transition (MHz)
    omega_c: control Rabi frequency (MHz)
    depth: resonant optical depth (amplitude convention, dimensionless)
    """

    gamma_ge: float = _positive()
    gamma_gs: float = _nonnegative()
    delta_control: float = _nonzero("must be nonzero (the FWM coupling divides by it)")
    omega_c: float = _nonnegative()
    depth: float = _nonnegative()


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

    omega_a: float = _nonnegative()
    delta_2: float = _nonzero()
    gamma_ab: float = _positive()
    gamma_ac: float = _positive()
    gamma_cb: float = _nonnegative()
    depth_2l: float = _nonnegative()
    center_offset: float = 0.0


@dataclass(frozen=True)
class FieldPair:
    """Mean-field complex amplitudes of the signal and the conjugated idler."""

    a_s: complex
    a_i_dag: complex


def _is_array(x) -> bool:
    """Whether ``x`` is a numpy array, asked without importing numpy: an unloaded numpy made none."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def _frozen_2x2(m) -> np.ndarray:
    import numpy as np

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
    """Grid description for one sweep axis.

    start < stop; start > 0 on a logarithmic scale, start >= 0 on the absorber-depth axis.
    """

    axis: SweepAxis
    start: float
    stop: float
    points: int = _rule(
        lambda n: 2 <= n <= MAX_SWEEP_POINTS, f"must be at least 2 and at most {MAX_SWEEP_POINTS}"
    )
    scale: Literal["linear", "logarithmic"] = "linear"

    def grid(self) -> np.ndarray:
        import numpy as np

        if not math.isfinite(self.stop - self.start):  # also an inf or nan endpoint
            raise DomainError(
                "sweep start, stop and their difference must be finite, "
                f"got {self.start!r} .. {self.stop!r}"
            )
        if self.scale == "logarithmic":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ScanOptions:
    """Behavioral switches shared by the sweep engine and the design calculator.

    stokes_seed: input idler amplitude relative to the input signal
    apply_light_shift: move the absorber line center by |omega_a|^2/delta_2
    exact_absorber: use the full absorber susceptibility profile instead of
        the Lorentzian approximation
    normalize_stokes: "input" references Stokes output to the input signal
        intensity, "max" renormalizes the curve to its own maximum
    delta_a: detuning of the Raman control seen by the EIT isotope (MHz),
        needed by the spurious-scattering design check
    eit_fraction / absorber_fraction: isotope mix fractions used to derive
        the absorber two-level depth in design reports
    target_depth_ratio: design target for absorber depth as a multiple of
        the EIT optical depth
    """

    stokes_seed: float = _nonnegative(default=1.0)
    apply_light_shift: bool = True
    exact_absorber: bool = False
    normalize_stokes: Literal["input", "max"] = "input"
    delta_a: Optional[float] = _nonzero("must be nonzero when given", default=None)
    eit_fraction: Optional[float] = _fraction(default=None)
    absorber_fraction: Optional[float] = _fraction(default=None)
    target_depth_ratio: float = _positive(default=1.1)


@dataclass(frozen=True)
class Scenario:
    """A complete, self-contained description of one computation."""

    eit: EitMedium
    absorber: Optional[RamanAbsorber] = None
    sweep: Optional[SweepSpec] = None
    options: ScanOptions = field(default_factory=ScanOptions)


def compute_optical_depth(g: float, n: float, length: float, gamma_ge: float) -> float:
    """Resonant optical depth g^2*N*L/(c*gamma_ge) with MHz rates and meters.

    g is the single-photon Rabi frequency (MHz), n the atom count, length the
    medium length (m).
    """
    violations = []
    for name, value in (("g", g), ("n", n), ("length", length), ("gamma_ge", gamma_ge)):
        if not math.isfinite(value):
            violations.append(Violation(name, value, "must be finite"))
        elif not value > 0:
            violations.append(Violation(name, value, "must be positive"))
    if violations:
        raise ValidationError(violations)
    return (g * MHZ) ** 2 * n * length / (C_LIGHT * gamma_ge * MHZ)


class FieldSpec(NamedTuple):
    """What a dataclass declares about one field, as the parser and the validator read it."""

    name: str
    type: type  # the value type with Optional removed; str for a Literal
    required: bool  # the field has no default
    choices: tuple  # the allowed values of a Literal field, else ()
    rule: Optional[tuple[Callable, str]]  # (check, constraint) from the field's metadata


@cache
def field_specs(cls: type) -> tuple[FieldSpec, ...]:
    """The :class:`FieldSpec` of every field of dataclass ``cls``, in declaration order."""
    hints = get_type_hints(cls)
    specs = []
    for f in fields(cls):
        tp, choices = hints[f.name], ()
        if get_origin(tp) is Union:  # Optional[X]
            (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
        if get_origin(tp) is Literal:
            tp, choices = str, get_args(tp)
        required = f.default is MISSING and f.default_factory is MISSING
        specs.append(FieldSpec(f.name, tp, required, choices, f.metadata.get("rule")))
    return tuple(specs)


def field_violations(obj, prefix: str = "") -> list[Violation]:
    """Per-field violations of one dataclass instance: choices, finiteness, then its rule.

    ``None`` (an absent optional value) and booleans are not checked.  A field
    reports at most one violation.
    """
    v: list[Violation] = []
    for name, _, _, choices, rule in field_specs(type(obj)):
        value = getattr(obj, name)
        if value is None or isinstance(value, bool):
            continue
        if choices and value not in choices:
            constraint = f"must be one of {choices}"
        elif isinstance(value, (float, complex)) and not cmath.isfinite(value):
            constraint = "must be finite"
        elif rule is not None and not rule[0](value):
            constraint = rule[1]
        else:
            continue
        v.append(Violation(prefix + name, value, constraint))
    return v


def scenario_violations(s: Scenario) -> list[Violation]:
    """Every per-field violation of every section, then the rules that span fields."""
    v: list[Violation] = []
    for section in field_specs(Scenario):
        obj = getattr(s, section.name)
        if obj is not None:
            v += field_violations(obj, section.name + ".")
    if 0 < s.eit.gamma_ge < s.eit.gamma_gs < math.inf:
        v.append(
            Violation(
                "eit.gamma_gs",
                s.eit.gamma_gs,
                "must not exceed gamma_ge (ordering of coherence decay rates)",
            )
        )
    sweep = s.sweep
    if sweep is not None and math.isfinite(sweep.start):
        if math.isfinite(sweep.stop) and not sweep.start < sweep.stop:
            v.append(Violation("sweep.start", sweep.start, "must be less than stop"))
        if sweep.scale == "logarithmic" and not sweep.start > 0:
            v.append(
                Violation("sweep.start", sweep.start, "must be positive on a logarithmic scale")
            )
        elif sweep.axis == DEPTH_AXIS and sweep.start < 0:
            v.append(
                Violation("sweep.start", sweep.start, "must be nonnegative on the absorber-depth axis")
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
