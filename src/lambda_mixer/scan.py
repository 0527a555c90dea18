"""Sweep engine: transmission spectra and absorber-depth scans.

Grid points are independent.  Sweeps evaluate them through the broadcasting
propagation kernels, at most BLOCK points per numpy pass, which bounds the
temporaries whatever the grid size.  A point with a non-finite output (a
singular denominator or an overflow) is flagged and zeroed.

A sweep returns a Sweep: a sequence of SpectrumRecord built on demand from
six read-only numpy columns, which it also exposes by name and as .columns.
A depth scan refines the peaks of all its rows in one array pass.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError
from .model import DEPTH_AXIS, DETUNING_AXIS, EitMedium, Scenario, SweepSpec
from .propagation import coupling_entries, expm2
from .susceptibility import (
    chi_abs,
    effective_depth,
    light_shift,
    normalized_lineshape,
    two_photon_width,
)

DEFAULT_DETUNING_POINTS = 401
DEFAULT_WINDOW_WIDTHS = 20.0
BLOCK = 4096  # grid points per numpy pass


class SpectrumRecord(NamedTuple):
    """One grid point of a sweep.

    For detuning sweeps the axis value is the two-photon detuning (MHz); for
    absorber-depth sweeps it is the effective depth and the intensities are
    the detuning-maximized peak values.
    """

    axis_value: float
    probe_transmission: float
    stokes_output: float
    absorber_profile: float
    eit_reference: float
    flagged: bool = False


class Sweep(Sequence[SpectrumRecord]):
    """The result of a sweep: one read-only numpy column per SpectrumRecord field.

    The columns are attributes named after the fields, and .columns in field
    order.  As a sequence it holds one SpectrumRecord per grid point, built
    when indexed or iterated; no record is kept.  It compares equal to a
    list of the same records.
    """

    __slots__ = SpectrumRecord._fields

    def __init__(self, *columns: np.ndarray):
        for name, column in zip(self.__slots__, columns, strict=True):
            column.flags.writeable = False
            setattr(self, name, column)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return len(self.axis_value)

    def __getitem__(self, i: int) -> SpectrumRecord:
        return SpectrumRecord._make(column[i].item() for column in self.columns)

    def __iter__(self) -> Iterator[SpectrumRecord]:
        # SpectrumRecord._make without its Python-level call per record
        rows = zip(*(column.tolist() for column in self.columns))
        return map(tuple.__new__, repeat(SpectrumRecord), rows)

    def __eq__(self, other):
        if isinstance(other, Sweep):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented


def eit_linewidth(eit: EitMedium) -> float:
    """Power-broadened EIT window scale |omega_c|^2 / (gamma_ge * sqrt(depth))."""
    if eit.omega_c == 0.0 or eit.depth == 0.0:
        return eit.gamma_ge
    return eit.omega_c**2 / (eit.gamma_ge * math.sqrt(eit.depth))


def default_detuning_spec(eit: EitMedium, points: int = DEFAULT_DETUNING_POINTS) -> SweepSpec:
    """Linear detuning grid covering the EIT window, FWM sidebands, and absorber.

    Raises DomainError when the window is too narrow to hold points strictly
    increasing detunings, as when omega_c**2 underflows.
    """
    half = DEFAULT_WINDOW_WIDTHS * eit_linewidth(eit)
    spec = SweepSpec(axis=DETUNING_AXIS, start=-half, stop=half, points=points)
    grid = spec.grid()
    if not (grid[1:] > grid[:-1]).all():  # np.unique would cost ~20 ms on its first call
        raise DomainError(
            f"the default detuning window +/- {half!r} MHz (omega_c = {eit.omega_c!r}) "
            f"is too narrow for {points} distinct detunings"
        )
    return spec


def _no_loss(delta):
    return 0j  # broadcasts against any detuning array


def absorber_loss_profile(
    scenario: Scenario,
) -> tuple[Callable[[float], complex], float]:
    """Peak-normalized complex loss profile and the effective absorber depth.

    The profile is oriented for the conjugated-idler equation: its value is 1
    at the line center and its conjugate is the physical idler response.  The
    loss subtracted from the idler diagonal is depth times the profile.  The
    profile takes a detuning or a numpy array of them.  Without a derivable
    line shape the result is (_no_loss, 0.0).
    """
    absorber = scenario.absorber
    if absorber is None:
        return _no_loss, 0.0
    depth = effective_depth(absorber)
    exact = scenario.options.exact_absorber
    # checked before light_shift, whose omega_a**2 can overflow where this exits
    if exact and depth == 0.0:  # nothing to normalize the susceptibility against
        return _no_loss, 0.0
    shift = light_shift(absorber)
    # turning the shift off models retuning the Raman control
    center = absorber.center_offset + (shift if scenario.options.apply_light_shift else 0.0)
    if exact:
        # the full susceptibility peaks at the light-shifted two-photon
        # resonance; translate it so the peak sits at the configured center
        offset = shift - center

        def profile(delta: float) -> complex:
            # conj(-i * chi) is the loss seen by the conjugated idler.
            return 1j * chi_abs(absorber, delta + offset).conjugate() / depth

        return profile, depth
    width = two_photon_width(absorber)
    if width <= 0:
        if depth == 0.0:  # degenerate width but lossless; harmless
            return _no_loss, 0.0
        raise DomainError(
            "absorber response width is zero; a finite gamma_cb or omega_a is required"
        )
    return partial(normalized_lineshape, center=center, hwhm=width), depth


def _row_groups(eit: EitMedium, profile, deltas, depths, seed: float) -> Iterator[tuple]:
    """Evaluate the depths x deltas grid, at most BLOCK points per numpy pass.

    Yields (values, flags) for consecutive groups of rows: as many whole
    rows as fit in BLOCK points, or one row split into blocks.  values
    stacks probe, Stokes, |profile|^2 and EIT reference, shape (4, rows,
    len(deltas)); a point where any of them is not finite is flagged and zeroed.
    """
    n = len(deltas)
    step = max(1, BLOCK // max(n, 1))
    for r in range(0, len(depths), step):
        rows = depths[r : r + step]
        values = np.empty((4, len(rows), n))
        for c in range(0, n, BLOCK):
            delta = deltas[c : c + BLOCK]
            with np.errstate(all="ignore"):
                lam = profile(delta)
                m00, m01, m10, m11 = coupling_entries(eit, rows[:, None] * lam, delta)
                t00, t01, t10, t11 = expm2(m00, m01, m10, m11)
                outputs = (
                    np.abs(t00 + t01 * seed) ** 2,
                    np.abs(t10 + t11 * seed) ** 2,
                    np.abs(lam) ** 2,
                    np.exp(2.0 * m00.real),
                )
            for out, value in zip(values[:, :, c : c + BLOCK], outputs):
                out[...] = value
        flagged = ~np.isfinite(values).all(axis=0)
        values[:, flagged] = 0.0
        yield values, flagged


def sweep_detuning(
    scenario: Scenario,
    spec: Optional[SweepSpec] = None,
    workers: Optional[int] = None,
) -> Sweep:
    """Transmission spectrum versus two-photon detuning.

    workers is accepted for compatibility and ignored: the grid is evaluated
    in numpy blocks on the calling thread.
    """
    if spec is None:
        spec = default_detuning_spec(scenario.eit)
    if spec.axis != DETUNING_AXIS:
        raise DomainError(f"sweep_detuning requires axis {DETUNING_AXIS!r}, got {spec.axis!r}")
    profile, depth = absorber_loss_profile(scenario)
    grid = spec.grid()
    values, flagged = next(
        _row_groups(scenario.eit, profile, grid, np.array([depth]), scenario.options.stokes_seed)
    )
    probe, stokes, shape, reference = values[:, 0]
    peak = stokes.max(initial=0.0)  # flagged points are zero
    if scenario.options.normalize_stokes == "max" and peak > 0.0:
        stokes = stokes / peak
    return Sweep(grid, probe, stokes, shape, reference, flagged[0])


def _row_peaks(values: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """Peaks of each row of values (4, rows, n), shape (4, rows).

    The probe, Stokes and reference peaks start from the first grid maximum
    and are refined by the three-point parabola through it and its
    neighbours; at an edge of the grid, or where the curvature is not
    negative, the grid value stands.  The profile is read at the probe's
    grid maximum.  A row with a flagged point is refined over its clean
    points alone, or over all points if none is clean.
    """
    kinds, rows, n = values.shape
    dirty = flagged.any(axis=1)
    at = values.argmax(axis=-1)  # the first maximum, as np.argmax
    kind, row = np.arange(kinds)[:, None], np.arange(rows)
    y0 = values[kind, row, np.maximum(at - 1, 0)]
    peaks = values[kind, row, at]
    y2 = values[kind, row, np.minimum(at + 1, n - 1)]
    with np.errstate(all="ignore"):  # IEEE inf and nan, as Python float arithmetic gives
        curv = y0 - 2.0 * peaks + y2
        refine = (at > 0) & (at < n - 1) & ~(curv >= 0.0) & ~dirty
        refine[2] = False  # the profile is not refined
        # squared by Python's float pow, as a scalar refinement squares: numpy
        # squares by multiplying, which rounds differently for about 1 value
        # in 1,000, and gives inf where Python raises OverflowError
        square = np.array([d**2 for d in (y2 - y0)[refine].tolist()])
        peaks[refine] -= 0.125 * square / curv[refine]
    peaks[2] = values[2, row, at[0]]
    for r in np.flatnonzero(dirty):
        clean = values[:, r] if flagged[r].all() else values[:, r, ~flagged[r]]
        peaks[:, r] = _row_peaks(clean[:, None], np.zeros((1, clean.shape[-1]), bool))[:, 0]
    return peaks


def peak_outputs(
    scenario: Scenario,
    depth_override: float,
    inner_spec: Optional[SweepSpec] = None,
) -> SpectrumRecord:
    """Detuning-maximized probe/Stokes outputs at one absorber depth."""
    one = SweepSpec(axis=DEPTH_AXIS, start=depth_override, stop=depth_override, points=1)
    return sweep_absorber_depth(scenario, one, inner_spec=inner_spec)[0]


def sweep_absorber_depth(
    scenario: Scenario,
    spec: SweepSpec,
    workers: Optional[int] = None,
    inner_spec: Optional[SweepSpec] = None,
) -> Sweep:
    """Peak probe/Stokes outputs as a function of the effective absorber depth.

    The scenario's absorber sets the line shape; its effective depth is
    replaced by each grid value in turn, which must be nonnegative.  workers
    is accepted for compatibility and ignored, as in sweep_detuning.
    """
    if spec.axis != DEPTH_AXIS:
        raise DomainError(f"sweep_absorber_depth requires axis {DEPTH_AXIS!r}, got {spec.axis!r}")
    if inner_spec is None:
        inner_spec = default_detuning_spec(scenario.eit)
    if not (spec.start >= 0.0 and spec.stop >= 0.0):  # also catches NaN; the grid lies between
        raise DomainError(
            f"absorber depths must be nonnegative numbers, got {spec.start!r} .. {spec.stop!r}"
        )
    depths = spec.grid()
    profile, _ = absorber_loss_profile(scenario)
    if profile is _no_loss and np.any(depths != 0.0):
        raise DomainError(
            "overriding the absorber depth requires an absorber section "
            "with a derivable line shape"
        )
    inner, seed = inner_spec.grid(), scenario.options.stokes_seed
    groups = [
        (_row_peaks(values, flagged), flagged.any(axis=1))
        for values, flagged in _row_groups(scenario.eit, profile, inner, depths, seed)
    ]
    peaks, flagged = (np.concatenate(parts, axis=-1) for parts in zip(*groups))
    return Sweep(depths, *peaks, flagged)


def asymmetry_metric(records: Sequence[SpectrumRecord]) -> float:
    """Mirror asymmetry of the probe spectrum, in [0, 1].

    L1 difference between the probe curve and its mirror image about zero
    detuning, normalized so a symmetric curve gives 0 and a curve wholly on
    one side gives 1.  The grid must be symmetric about 0.  A Sweep is read
    by its columns.
    """
    if not records:
        raise DomainError("asymmetry metric requires at least one grid point")
    if isinstance(records, Sweep):
        deltas, p = records.axis_value, records.probe_transmission
    else:
        deltas = np.array([r.axis_value for r in records])
        p = np.array([r.probe_transmission for r in records])
    tol = 1e-9 * max(1.0, float(np.abs(deltas).max()))
    if not np.all(np.abs(deltas + deltas[::-1]) <= tol):
        raise DomainError("asymmetry metric requires a grid symmetric about zero detuning")
    q = p[::-1]
    mass = float(np.sum(p + q))
    if mass == 0.0:
        return 0.0
    return float(np.sum(np.abs(p - q)) / mass)

