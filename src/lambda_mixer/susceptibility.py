"""Optical response of the auxiliary Raman absorber.

The far-detuned lambda system behaves, near its two-photon resonance, like a
narrow effective two-level absorber for the idler field.  This module
evaluates its full complex susceptibility, the peak two-photon value, the
effective absorption depth with its width, and the normalized complex
Lorentzian from which :func:`lambda_mixer.scan.absorber_loss_profile` builds
the idler loss line.

Susceptibilities are expressed in the same dimensionless convention as the
optical depths: the bare two-level line at resonance has susceptibility
i * P / gamma_ab where P = 3 * gamma_r * N * lambda^3 / (8 pi^2), and that
peak corresponds to the stored two-level depth.  The conversion factor
between the two representations is therefore fixed once by
:func:`susceptibility_depth_scale` and can never drift.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import SingularityError, ValidationError, Violation
from .model import AtomicLine, RamanAbsorber

_FAR_DETUNED_FACTOR = 10.0


def line_prefactor(line: AtomicLine) -> float:
    """Dimensional prefactor 3 * gamma_r * N * lambda^3 / (8 pi^2), in MHz units.

    The wavelength is converted from nm to cm so that N (per cm^3) times
    lambda^3 is dimensionless.
    """
    lam_cm = line.wavelength * 1e-7
    return 3.0 * line.gamma_r * line.density * lam_cm**3 / (8.0 * math.pi**2)


def susceptibility_depth_scale(absorber: RamanAbsorber, line: AtomicLine) -> float:
    """Factor mapping a susceptibility value onto an amplitude optical depth.

    Chosen so the bare two-level peak maps exactly onto ``depth_2l``;
    using the same constant everywhere keeps the susceptibility and depth
    pictures consistent by construction.
    """
    return absorber.gamma_ab * absorber.depth_2l / line_prefactor(line)


def saturation_ratio(absorber: RamanAbsorber) -> float:
    """The dimensionless Raman saturation parameter |omega_a|^2 / delta_2^2."""
    return (absorber.omega_a / absorber.delta_2) ** 2


def light_shift(absorber: RamanAbsorber) -> float:
    """AC-Stark displacement |omega_a|^2 / delta_2 of the two-photon line center (MHz)."""
    return absorber.omega_a**2 / absorber.delta_2


def chi_abs(absorber: RamanAbsorber, line: AtomicLine, delta_2_probe: float) -> complex:
    """Full complex susceptibility of the absorber at probe two-photon detuning delta_2_probe.

    delta_2_probe is measured from the bare two-photon resonance; the actual
    absorption peak sits near the light-shifted center.  It may be a numpy
    array: a vanishing denominator then leaves a non-finite value at that
    point, where a scalar raises SingularityError.
    """
    if absorber.delta_2 == 0:
        raise ValidationError([Violation("delta_2", 0.0, "must be nonzero")])
    num = absorber.omega_a**2 / complex(absorber.delta_2, absorber.gamma_ac)
    den = (
        (delta_2_probe + complex(absorber.delta_2, -absorber.gamma_ab))
        * (delta_2_probe - 1j * absorber.gamma_cb)
        - absorber.omega_a**2
    )
    if not isinstance(den, np.ndarray) and den == 0:
        raise SingularityError(
            f"susceptibility denominator vanished at delta_2 = {delta_2_probe!r} MHz"
        )
    return line_prefactor(line) * num / den


def chi_2ph(absorber: RamanAbsorber, line: AtomicLine) -> complex:
    """Peak susceptibility of the two-photon absorption resonance.

    Evaluated at the (light-shifted) line center, where only the width term
    survives in the resonance denominator.  In the far-detuned regime this
    reaches the bare two-level peak as gamma_cb -> 0.  Calls outside that
    regime still evaluate but emit a warning.
    """
    if absorber.delta_2 == 0:
        raise ValidationError([Violation("delta_2", 0.0, "must be nonzero")])
    if abs(absorber.delta_2) <= _FAR_DETUNED_FACTOR * absorber.gamma_ab:
        warnings.warn(
            "absorber is not far detuned "
            f"(|delta_2| = {abs(absorber.delta_2):g} MHz <= "
            f"{_FAR_DETUNED_FACTOR:g} * gamma_ab = "
            f"{_FAR_DETUNED_FACTOR * absorber.gamma_ab:g} MHz); "
            "the two-photon reduction is inaccurate here",
            stacklevel=2,
        )
    r = saturation_ratio(absorber)
    width = absorber.gamma_cb + absorber.gamma_ab * r
    if r == 0.0:
        return 0j
    if width == 0:
        raise SingularityError("two-photon resonance width is zero")
    return 1j * line_prefactor(line) * r / width


def effective_depth(absorber: RamanAbsorber) -> float:
    """Effective peak amplitude-depth of the two-photon absorption line.

    D_abs = gamma_ab / (gamma_cb + gamma_ab * r) * r * depth_2l with
    r = |omega_a|^2 / delta_2^2.  Saturates to depth_2l as gamma_cb -> 0.
    """
    r = saturation_ratio(absorber)
    if r == 0.0:
        return 0.0
    u = absorber.gamma_ab * r
    return u / (absorber.gamma_cb + u) * absorber.depth_2l


def two_photon_width(absorber: RamanAbsorber) -> float:
    """Half-width gamma_ab * r + gamma_cb * (1 - r) of the two-photon line (MHz)."""
    r = saturation_ratio(absorber)
    return absorber.gamma_ab * r + absorber.gamma_cb * (1.0 - r)


def normalized_lineshape(delta: float, center: float, hwhm: float) -> complex:
    """Normalized complex Lorentzian response, equal to 1 at the line center.

    The real part is the (even) absorption profile, the imaginary part the
    (odd) dispersion; the loss entering propagation is the effective depth
    times this.  delta may be a numpy array.
    """
    return 1j * hwhm / ((delta - center) + 1j * hwhm)
