"""Sweep engine: transmission spectra and absorber-depth scans.

Grid points are independent.  Sweeps evaluate them at most BLOCK points per
numpy pass: coupling_entries for the depth-independent columns, then the
closed form of propagation.expm2 into one workspace allocated per sweep,
six complex, one float and one boolean buffer of at most BLOCK points
(~0.4 MB) whatever the grid size.  Every step is an in-place ufunc with the
operands and order of evaluating the block out of place, so the columns are
byte-identical to that.  A point with a non-finite output (a singular
denominator or an overflow) is flagged and zeroed.

A sweep returns a Sweep: a sequence of SpectrumRecord built on demand from
six read-only numpy columns, which it also exposes by name and as .columns.
Iterating a Sweep, like the command line's CSV writer, reads the columns out
as Python values BLOCK rows at a time (row_blocks), so its transient memory
is one block of rows, ~0.7 MB, whatever the grid size; the JSON sidecar and
the SVG still hold the whole sweep.  A depth scan refines the peaks of all
its rows in one array pass.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError
from .model import DEPTH_AXIS, DETUNING_AXIS, MAX_SWEEP_POINTS, EitMedium, Scenario, SweepSpec, validate
from .propagation import _closed_form, _workspace, coupling_entries
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


def row_blocks(columns: Sequence[np.ndarray]) -> Iterator[Iterable[tuple]]:
    """The rows of equal-length columns as tuples of Python values, BLOCK rows per block.

    Yields one iterable of rows per block, read out of the columns as it is
    reached, so at most one block of rows exists as Python objects at a time.
    """
    for i in range(0, len(columns[0]), BLOCK):
        yield zip(*(column[i : i + BLOCK].tolist() for column in columns))


class Sweep(Sequence[SpectrumRecord]):
    """The result of a sweep: one read-only numpy column per SpectrumRecord field.

    The columns are attributes named after the fields, and .columns in field
    order.  As a sequence it holds one SpectrumRecord per grid point, built
    when indexed or iterated (BLOCK rows at a time); no record is kept.  A
    slice is a Sweep over views of the columns.  It compares equal to a
    Sweep with equal columns.
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

    def __getitem__(self, i: int | slice) -> SpectrumRecord | Sweep:
        if isinstance(i, slice):
            return Sweep(*(column[i] for column in self.columns))
        i = operator.index(i)  # a TypeError for a float index, as a list raises
        return SpectrumRecord._make(column[i].item() for column in self.columns)

    def __iter__(self) -> Iterator[SpectrumRecord]:
        # SpectrumRecord._make without its Python-level call per record
        rows = chain.from_iterable(row_blocks(self.columns))
        return map(tuple.__new__, repeat(SpectrumRecord), rows)

    def __eq__(self, other):
        if not isinstance(other, Sweep):
            return NotImplemented
        return all(map(np.array_equal, self.columns, other.columns))


def eit_linewidth(eit: EitMedium) -> float:
    """Power-broadened EIT window scale |omega_c|^2 / (gamma_ge * sqrt(depth))."""
    if eit.omega_c == 0.0 or eit.depth == 0.0:
        return eit.gamma_ge
    den = eit.gamma_ge * math.sqrt(eit.depth)
    try:
        omega2 = eit.omega_c**2
    except OverflowError:  # |omega_c| above ~1.34e154; an infinite window is rejected by name
        return math.inf
    return omega2 / den if den else math.inf  # den underflows only where the width overflows


def default_detuning_spec(eit: EitMedium, points: int = DEFAULT_DETUNING_POINTS) -> SweepSpec:
    """Linear detuning grid covering the EIT window, FWM sidebands, and absorber.

    Raises DomainError, naming the window, when SweepSpec.grid rejects it,
    as when omega_c**2 underflows or overflows.
    """
    half = DEFAULT_WINDOW_WIDTHS * eit_linewidth(eit)
    spec = SweepSpec(axis=DETUNING_AXIS, start=-half, stop=half, points=points)
    try:
        spec.grid()
    except DomainError as exc:
        raise DomainError(
            f"the default detuning window +/- {half!r} MHz (omega_c = {eit.omega_c!r}): {exc}"
        ) from None
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
    Every block is evaluated into one workspace, allocated per call and
    shaped for the largest block.  The depth-independent columns are
    computed once per call where a row fits in one block; a split row
    computes those of each block as it reaches it, keeping them block-sized.
    """
    n = len(deltas)
    step = max(1, BLOCK // max(n, 1))

    def columns(delta) -> tuple:
        lam = profile(delta)
        # the lossless generator: m11 - 0j is m11 bit for bit, and -0j - loss is -loss
        entries = coupling_entries(eit, 0j, delta)
        return lam, entries, np.abs(lam) ** 2, np.exp(2.0 * entries[0].real)

    with np.errstate(all="ignore"):
        whole = columns(deltas) if n <= BLOCK else None
    largest = (min(step, len(depths)), min(n, BLOCK))
    workspace = [*_workspace(largest), np.empty(largest, complex)]  # the last holds the idler loss
    for r in range(0, len(depths), step):
        rows = depths[r : r + step, None]
        values = np.empty((4, len(rows), n))
        with np.errstate(all="ignore"):
            for c in range(0, n, BLOCK):
                lam, (m00, m01, m10, m11), lam2, reference = whole or columns(deltas[c : c + BLOCK])
                block = values[:, :, c : c + BLOCK]
                view = block.shape[1:]
                # a partial block takes leading views; a full one, as in every small sweep, none
                *ws, loss = workspace if view == largest else [w[: view[0], : view[1]] for w in workspace]
                np.subtract(m11, np.multiply(rows, lam, out=loss), out=loss)
                t00, t01, t10, t11 = _closed_form(m00, m01, m10, loss, ws)
                for t, t_seeded, out in ((t00, t01, block[0]), (t10, t11, block[1])):
                    np.add(t, np.multiply(t_seeded, seed, out=t_seeded), out=t)
                    np.square(np.abs(t, out=out), out=out)
                block[2], block[3] = lam2, reference
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
    validate(scenario)
    if spec is None:
        spec = default_detuning_spec(scenario.eit)
    if spec.axis != DETUNING_AXIS:
        raise DomainError(f"sweep_detuning requires axis {DETUNING_AXIS!r}, got {spec.axis!r}")
    profile, depth = absorber_loss_profile(scenario)
    grid = spec.grid()
    values, flagged = next(
        _row_groups(scenario.eit, profile, grid, np.array([depth]), scenario.options.stokes_seed)
    )
    return Sweep(grid, *values[:, 0], flagged[0])


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


def _depth_scan(scenario: Scenario, depths: np.ndarray, inner_spec: Optional[SweepSpec]) -> Sweep:
    """Peak outputs at each of the nonnegative effective absorber depths.

    Raises DomainError, before any point is evaluated, where the depths
    times the inner detunings exceed the largest command-line scan.  Raises
    OverflowError, naming the first such depth and the medium, where a
    row's peak refinement leaves the double range.
    """
    inner_spec = inner_spec or default_detuning_spec(scenario.eit)
    profile, _ = absorber_loss_profile(scenario)
    if profile is _no_loss and np.any(depths != 0.0):
        raise DomainError(
            "overriding the absorber depth requires an absorber section "
            "with a derivable line shape"
        )
    inner, seed = inner_spec.grid(), scenario.options.stokes_seed
    if len(depths) * len(inner) > (most := MAX_SWEEP_POINTS * DEFAULT_DETUNING_POINTS):
        raise DomainError(
            f"a depth scan of {len(depths)} depths x {len(inner)} detunings evaluates more than "
            f"the {most} points of the largest command-line scan"
        )
    groups = []
    for values, flagged in _row_groups(scenario.eit, profile, inner, depths, seed):
        try:
            groups.append((_row_peaks(values, flagged), flagged.any(axis=1)))
        except OverflowError:  # a squared difference past the double range: find its row
            done = sum(len(group[1]) for group in groups)
            for k, d_abs in enumerate(depths[done : done + len(flagged)].tolist()):
                try:
                    _row_peaks(values[:, k : k + 1], flagged[k : k + 1])
                except OverflowError:
                    raise OverflowError(
                        f"peak refinement overflows at d_abs = {d_abs!r} in {scenario.eit}"
                    ) from None
            raise
    peaks, flagged = (np.concatenate(parts, axis=-1) for parts in zip(*groups))
    return Sweep(depths, *peaks, flagged)


def peak_outputs(
    scenario: Scenario,
    depth_override: float,
    inner_spec: Optional[SweepSpec] = None,
) -> SpectrumRecord:
    """Detuning-maximized probe/Stokes outputs at one absorber depth."""
    if not 0.0 <= depth_override < math.inf:  # also NaN
        raise DomainError(f"an absorber depth must be nonnegative and finite, got {depth_override!r}")
    return _depth_scan(scenario, np.array([depth_override], float), inner_spec)[0]


def sweep_absorber_depth(
    scenario: Scenario,
    spec: SweepSpec,
    workers: Optional[int] = None,
    inner_spec: Optional[SweepSpec] = None,
) -> Sweep:
    """Peak probe/Stokes outputs as a function of the effective absorber depth.

    The scenario's absorber sets the line shape; its effective depth is
    replaced by each grid value in turn.  workers is accepted for
    compatibility and ignored, as in sweep_detuning.

    The total work is bounded by that of the largest command-line scan:
    spec.points times the inner grid's points (DEFAULT_DETUNING_POINTS
    without inner_spec) may be at most MAX_SWEEP_POINTS *
    DEFAULT_DETUNING_POINTS = 40,100,000 point evaluations, about 5 s on a
    2-vCPU x86-64 VM.  Above it a DomainError naming both counts is raised
    before any point is evaluated.
    """
    validate(scenario)
    if spec.axis != DEPTH_AXIS:
        raise DomainError(f"sweep_absorber_depth requires axis {DEPTH_AXIS!r}, got {spec.axis!r}")
    return _depth_scan(scenario, spec.grid(), inner_spec)


def asymmetry_metric(sweep: Sweep) -> float:
    """Mirror asymmetry of the probe spectrum, in [0, 1].

    L1 difference between the probe curve and its mirror image about zero
    detuning, normalized so a symmetric curve gives 0 and a curve wholly on
    one side gives 1.  The grid must be symmetric about 0.
    """
    if not sweep:
        raise DomainError("asymmetry metric requires at least one grid point")
    deltas, p = sweep.axis_value, sweep.probe_transmission
    tol = 1e-9 * max(1.0, float(np.abs(deltas).max()))
    if not np.all(np.abs(deltas + deltas[::-1]) <= tol):
        raise DomainError("asymmetry metric requires a grid symmetric about zero detuning")
    q = p[::-1]
    mass = float(np.sum(p + q))
    if mass == 0.0:
        return 0.0
    return float(np.sum(np.abs(p - q)) / mass)

