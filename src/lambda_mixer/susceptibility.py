"""Optical response of the auxiliary Raman absorber.

The far-detuned lambda system behaves, near its two-photon resonance, like a
narrow effective two-level absorber for the idler field.  This module
evaluates its full complex susceptibility, the effective absorption depth
with its width, and the normalized complex Lorentzian from which
:func:`lambda_mixer.scan.absorber_loss_profile` builds the idler loss line.

Susceptibilities are expressed in optical-depth units: the bare two-level
line at resonance has susceptibility i * depth_2l, so the absorber's
two-level depth is the only declaration of its strength.  In the
far-detuned regime its imaginary part at the light-shifted line center is
close to :func:`effective_depth`.
"""

from __future__ import annotations

from .errors import SingularityError
from .model import RamanAbsorber, _is_array


def saturation_ratio(absorber: RamanAbsorber) -> float:
    """The dimensionless Raman saturation parameter |omega_a|^2 / delta_2^2."""
    try:
        return (absorber.omega_a / absorber.delta_2) ** 2
    except OverflowError:
        raise OverflowError(f"(omega_a / delta_2)**2 overflows: {absorber.omega_a=}, {absorber.delta_2=}")


def light_shift(absorber: RamanAbsorber) -> float:
    """AC-Stark displacement |omega_a|^2 / delta_2 of the two-photon line center (MHz)."""
    try:
        return absorber.omega_a**2 / absorber.delta_2
    except OverflowError:
        raise OverflowError(f"omega_a**2 / delta_2 overflows: {absorber.omega_a=}, {absorber.delta_2=}")


def chi_abs(absorber: RamanAbsorber, delta_2_probe: float) -> complex:
    """Full complex susceptibility, in depth units, at probe two-photon detuning delta_2_probe.

    delta_2_probe is measured from the bare two-photon resonance; the actual
    absorption peak sits near the light-shifted center.  It may be a numpy
    array: a vanishing denominator then leaves a non-finite value at that
    point, where a scalar raises SingularityError.
    """
    num = absorber.omega_a**2 / complex(absorber.delta_2, absorber.gamma_ac)
    den = (
        (delta_2_probe + complex(absorber.delta_2, -absorber.gamma_ab))
        * (delta_2_probe - 1j * absorber.gamma_cb)
        - absorber.omega_a**2
    )
    if not _is_array(den) and den == 0:
        raise SingularityError(
            f"susceptibility denominator vanished at delta_2 = {delta_2_probe!r} MHz"
        )
    return absorber.gamma_ab * absorber.depth_2l * num / den


def effective_depth(absorber: RamanAbsorber) -> float:
    """Effective peak amplitude-depth of the two-photon absorption line.

    D_abs = gamma_ab / (gamma_cb + gamma_ab * r) * r * depth_2l with
    r = |omega_a|^2 / delta_2^2.  Saturates to depth_2l as gamma_cb -> 0.
    """
    r = saturation_ratio(absorber)
    if r == 0.0:
        return 0.0
    if absorber.gamma_cb == 0.0:  # u / u, also where gamma_ab * r underflows to 0
        return absorber.depth_2l
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
