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

A number field holds one Python type whatever was passed: each section
converts, on construction, every real number (an ``int``, a ``Fraction``, a
numpy scalar) in a float field to ``float`` and every integer in the int
field ``sweep.points`` to ``int``, so every formula below :func:`validate`
computes in Python's float arithmetic.  An int beyond the double range
becomes +-inf there and is reported as ``must be finite``.  A bool, a
string, ``None`` or any other object is stored as given, for
:func:`field_violations` to report.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, cached_property
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

MAX_SWEEP_POINTS = 100_000  # bounds one sweep's output; a depth scan times its inner grid
SweepAxis = Literal["two-photon-detuning", "absorber-depth"]
DETUNING_AXIS, DEPTH_AXIS = get_args(SweepAxis)
_ABC = {int: numbers.Integral, float: numbers.Real}  # the numbers an int or float field converts
_MUST_BE = {bool: "true or false", int: "an integer", float: "a real number", str: "a string"}


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


class _Section:
    """Stores a real number (not a bool) in a float field as float, an integer in an int field as int."""

    def __post_init__(self):
        for name, tp, _, _, _, _ in field_specs(type(self)):
            value = getattr(self, name)
            if type(value) not in (tp, bool) and isinstance(value, _ABC.get(tp, ())):
                try:  # frozen: bypass __setattr__
                    object.__setattr__(self, name, tp(value))
                except OverflowError:  # an int beyond the double range, reported as not finite
                    object.__setattr__(self, name, math.inf if value > 0 else -math.inf)


@dataclass(frozen=True)
class EitMedium(_Section):
    """Rates, detuning, control Rabi frequency, and optical depth of the EIT/FWM lambda system.

    gamma_ge: optical coherence decay rate (MHz)
    gamma_gs: ground-state spin decoherence rate (MHz), at most gamma_ge
    delta_control: control detuning from the far optical transition (MHz)
    omega_c: control Rabi frequency (MHz)
    depth: resonant optical depth (amplitude convention, dimensionless)
    """

    gamma_ge: float = _positive()
    gamma_gs: float = _nonnegative()
    delta_control: float = _rule(  # its square underflows to 0 below about 1.6e-162
        lambda x: x * x != 0, "must be nonzero, also when squared (the FWM coupling divides by it)"
    )
    omega_c: float = _nonnegative()
    depth: float = _nonnegative()


@dataclass(frozen=True)
class RamanAbsorber(_Section):
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


def _entries_2x2(m) -> tuple[complex, complex, complex, complex]:
    """Row-major entries of a 2x2 matrix (nested sequences or an array) as Python complexes."""
    try:
        (m00, m01), (m10, m11) = m
        if _is_array(m00 + m01 + m10 + m11):  # an entry is an array
            raise TypeError  # complex() takes one of size 1 below numpy 2.4
        return complex(m00), complex(m01), complex(m10), complex(m11)
    except (TypeError, ValueError):
        raise ValueError(f"expected a 2x2 matrix, got {m!r}") from None


def _frozen_array(record) -> np.ndarray:
    """``record.entries`` as a read-only complex 2x2 array."""
    import numpy as np

    arr = np.array(record.entries, dtype=complex).reshape(2, 2)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, init=False)
class CouplingMatrix:
    """Per-unit-zeta signal/idler generator at one detuning; ``m`` is ``entries`` as a 2x2 array."""

    entries: tuple[complex, complex, complex, complex]
    delta: float

    def __init__(self, m, delta: float):
        self.__dict__.update(entries=_entries_2x2(m), delta=delta)  # frozen: bypass __setattr__

    m = cached_property(_frozen_array)


@dataclass(frozen=True)
class SweepSpec(_Section):
    """Grid description for one sweep axis; :meth:`violations` holds every rule it must meet."""

    axis: SweepAxis
    start: float
    stop: float
    points: int = _rule(  # after the type check: an int (a numpy integer is converted), not 3.5 or True
        lambda n: 2 <= n <= MAX_SWEEP_POINTS,
        f"must be an integer, at least 2 and at most {MAX_SWEEP_POINTS}",
    )
    scale: Literal["linear", "logarithmic"] = "linear"

    def violations(self) -> list[Violation]:
        """The field rules, then those that span fields; none builds the grid.

        start < stop with a finite stop - start; start > 0 on a logarithmic
        scale, start >= 0 on the absorber-depth axis.
        """
        v = field_violations(self, "sweep.")
        failed = {violation.field for violation in v}
        start, stop = self.start, self.stop
        if "sweep.start" in failed:
            return v
        if "sweep.stop" not in failed and not start < stop:
            v.append(Violation("sweep.start", start, "must be less than stop"))
        elif "sweep.stop" not in failed and not math.isfinite(stop - start):
            v.append(Violation("sweep.stop", stop, f"must lie a finite distance above {start!r}"))
        if self.scale == "logarithmic" and not start > 0:
            v.append(Violation("sweep.start", start, "must be positive on a logarithmic scale"))
        elif self.axis == DEPTH_AXIS and start < 0:
            v.append(Violation("sweep.start", start, "must be nonnegative on the absorber-depth axis"))
        return v

    def grid(self) -> np.ndarray:
        """The points, strictly increasing; DomainError if a rule is broken or the span is too narrow.

        The rules are checked before numpy runs: a spec built in code has not been validated.
        """
        if violations := self.violations():
            raise DomainError("; ".join(map(str, violations)))
        import numpy as np

        space = np.geomspace if self.scale == "logarithmic" else np.linspace
        with np.errstate(over="ignore"):  # geomspace overflows at a stop near the float maximum,
            grid = space(self.start, self.stop, self.points)  # then puts stop itself there
        if not (grid[1:] > grid[:-1]).all():  # np.unique would cost ~20 ms on its first call
            raise DomainError(
                f"sweep {self.start!r} .. {self.stop!r} is too narrow for "
                f"{self.points} distinct {'detunings' if self.axis == DETUNING_AXIS else 'depths'}"
            )
        return grid


@dataclass(frozen=True)
class ScanOptions(_Section):
    """Behavioral switches shared by the sweep engine and the design calculator.

    stokes_seed: input idler amplitude relative to the input signal
    apply_light_shift: move the absorber line center by |omega_a|^2/delta_2
    exact_absorber: use the full absorber susceptibility profile instead of
        the Lorentzian approximation
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


class FieldSpec(NamedTuple):
    """What a dataclass declares about one field, as the parser and the validator read it."""

    name: str
    type: type  # the value type with Optional removed; str for a Literal
    required: bool  # the field has no default
    optional: bool  # the type is Optional: None is a value
    choices: tuple  # the allowed values of a Literal field, else ()
    rule: Optional[tuple[Callable, str]]  # (check, constraint) from the field's metadata


@cache
def field_specs(cls: type) -> tuple[FieldSpec, ...]:
    """The :class:`FieldSpec` of every field of dataclass ``cls``, in declaration order."""
    hints = get_type_hints(cls)
    specs = []
    for f in fields(cls):
        tp, choices = hints[f.name], ()
        if optional := get_origin(tp) is Union:  # Optional[X]
            (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
        if get_origin(tp) is Literal:
            tp, choices = str, get_args(tp)
        required = f.default is MISSING and f.default_factory is MISSING
        specs.append(FieldSpec(f.name, tp, required, optional, choices, f.metadata.get("rule")))
    return tuple(specs)


def field_violations(obj, prefix: str = "") -> list[Violation]:
    """Per-field violations of one dataclass instance: type, choices, finiteness, then its rule.

    A number field of a section holds a Python ``float`` (``int`` for
    ``points``) wherever a real number was passed, converted on construction;
    an int beyond the double range is held as +-inf and reported as
    ``must be finite``.  ``None`` is a value only of an ``Optional`` field.
    A field reports at most one violation.
    """
    v: list[Violation] = []
    for name, tp, _, optional, choices, rule in field_specs(type(obj)):
        value = getattr(obj, name)
        if value is None and optional:
            continue
        if type(value) is not tp and (isinstance(value, bool) or not isinstance(value, tp)):
            constraint = f"must be {_MUST_BE.get(tp) or 'an instance of ' + tp.__name__}"
        elif choices and value not in choices:
            constraint = f"must be one of {choices}"
        elif (tp is float or tp is complex) and not cmath.isfinite(value):
            constraint = "must be finite"
        elif rule is not None and not rule[0](value):
            constraint = rule[1]
        else:
            continue
        v.append(Violation(prefix + name, value, constraint))
    return v


def scenario_violations(s: Scenario) -> list[Violation]:
    """Every violation of every section in turn, then the rule that spans the eit fields."""
    v = field_violations(s)  # each section is its dataclass, or None where it is optional
    for section in field_specs(Scenario):
        obj = getattr(s, section.name)
        if isinstance(obj, SweepSpec):
            v += obj.violations()
        elif isinstance(obj, section.type):
            v += field_violations(obj, section.name + ".")
    failed = {violation.field for violation in v}
    if not {"eit", "eit.gamma_ge", "eit.gamma_gs"} & failed and s.eit.gamma_gs > s.eit.gamma_ge:
        rule = "must not exceed gamma_ge (ordering of coherence decay rates)"
        v.append(Violation("eit.gamma_gs", s.eit.gamma_gs, rule))
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
