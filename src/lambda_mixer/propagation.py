"""Steady-state propagation of the coupled signal / conjugated-idler pair.

The single-frequency component at two-photon detuning delta is obtained by
adiabatic elimination of the optical and spin coherences (time derivatives
replaced by -i*delta, a phenomenological spin decay -i*gamma_gs added), which
turns the Maxwell-Bloch system into a constant-coefficient linear ODE over
the normalized coordinate zeta = z/L:

    d/dzeta [a_S, a_I^dag] = M(delta) [a_S, a_I^dag]

with, for control Rabi frequency W, control detuning Dl, depth D and
den = (delta + i*gamma_gs)(delta + i*gamma_ge) - W^2,

    M00 = -i D gamma_ge (delta + i gamma_gs) / den
    M01 = +i D gamma_ge (W^2 / Dl) / den
    M10 = -i D gamma_ge (W^2 / Dl) / den
    M11 = +i D gamma_ge (W^2 / Dl^2)(delta + i gamma_ge) / den - absorber_loss

At delta = 0, gamma_gs = 0 and no absorber this reduces exactly to
[[0, -i D g/Dl], [+i D g/Dl, D g^2/Dl^2]].  The absorber loss passed in by
callers is the effective depth times the conjugated complex lineshape at the
idler detuning (conjugated because the equation of motion governs the
conjugated idler amplitude; at line center the loss is real either way).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, IntegrationError, SingularityError
from .model import CouplingMatrix, EitMedium, FieldPair, _frozen_2x2, _is_array

if TYPE_CHECKING:
    import numpy as np

MATRIX_EXPONENTIAL = "matrix-exponential"
ADAPTIVE_RK = "adaptive-rk"

_RK_RTOL = 1e-10
_RK_ATOL = 1e-12
_SERIES_Q = 1e-3  # |q| at or below which expm2 uses the series


@dataclass(frozen=True)
class TransferMatrix:
    """Map from input to output field pair over zeta in [0, 1]."""

    t: np.ndarray
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "t", _frozen_2x2(self.t))


def coupling_entries(
    eit: EitMedium, absorber_loss: complex = 0j, delta: float = 0.0
) -> tuple[complex, complex, complex, complex]:
    """Entries m00, m01, m10, m11 of the propagation generator.

    delta and absorber_loss may be numpy arrays, which broadcast.  A vanishing
    denominator raises SingularityError for scalars; arrays get non-finite entries.
    """
    g = eit.gamma_ge
    gs = eit.gamma_gs
    w = eit.omega_c
    dl = eit.delta_control
    k = eit.depth * g
    if w == 0.0:
        # Couplings vanish; the probe sees the bare two-level line.
        m00 = -1j * k / (delta + 1j * g)
        return m00, 0j, 0j, -absorber_loss
    den = (delta + 1j * gs) * (delta + 1j * g) - w * w
    if not _is_array(den) and den == 0:
        raise SingularityError(f"coherence denominator vanished at delta = {delta!r} MHz")
    fwm = 1j * k * (w * w / dl) / den
    m00 = -1j * k * (delta + 1j * gs) / den
    m11 = 1j * k * (w * w / (dl * dl)) * (delta + 1j * g) / den - absorber_loss
    return m00, fwm, -fwm, m11


def build_coupling_matrix(
    eit: EitMedium, absorber_loss: complex = 0j, delta: float = 0.0
) -> CouplingMatrix:
    """Propagation generator at two-photon detuning delta (MHz).

    absorber_loss is subtracted from the idler's diagonal entry verbatim.
    """
    m00, m01, m10, m11 = coupling_entries(eit, absorber_loss, delta)
    return CouplingMatrix(m=[[m00, m01], [m10, m11]], delta=delta)


def _series(emu, q2):
    """e^mu (cosh q, sinh(q)/q) from the Taylor series in q^2, for small |q|."""
    c = emu * (1.0 + q2 * (0.5 + q2 * (1.0 / 24.0 + q2 / 720.0)))
    s = emu * (1.0 + q2 * (1.0 / 6.0 + q2 * (1.0 / 120.0 + q2 / 5040.0)))
    return c, s


def expm2(
    m00: complex, m01: complex, m10: complex, m11: complex
) -> tuple[complex, complex, complex, complex]:
    """Closed-form exponential of a 2x2 complex matrix.

    Writes M = mu*I + A with A traceless, A^2 = q^2 * I, and evaluates
    exp(M) = e^mu (cosh(q) I + sinh(q)/q A).  For |q| away from zero the
    cosh/sinh pair is assembled from e^(mu+q) and e^(mu-q), which stays
    finite for strongly dissipative matrices; near q = 0 a series in q^2
    avoids the 0/0.  Numpy array entries broadcast; scalars go through cmath,
    several times cheaper per call, and raise OverflowError where arrays
    produce non-finite values.
    """
    mu = 0.5 * (m00 + m11)
    a = 0.5 * (m00 - m11)  # A = [[a, m01], [m10, -a]]
    q2 = a * a + m01 * m10
    if _is_array(q2):
        import numpy as np

        mu, q2 = np.broadcast_arrays(mu, q2)
        q = np.sqrt(q2)
        small = np.abs(q) <= _SERIES_Q
        safe = np.where(small, 1.0, q)  # series values replace these points
        ep, em = np.exp(mu + safe), np.exp(mu - safe)
        c, s = 0.5 * (ep + em), 0.5 * (ep - em) / safe
        if small.any():
            qs = q[small]
            c[small], s[small] = _series(np.exp(mu[small]), qs * qs)
    else:
        q = cmath.sqrt(q2)
        if abs(q) <= _SERIES_Q:
            c, s = _series(cmath.exp(mu), q * q)
        else:
            ep, em = cmath.exp(mu + q), cmath.exp(mu - q)
            c, s = 0.5 * (ep + em), 0.5 * (ep - em) / q
    return c + s * a, s * m01, s * m10, c - s * a


def _transfer_adaptive(m: np.ndarray) -> np.ndarray:
    """Row-major entries of exp(M), from one DOP853 pass over dT/dzeta = M T, T(0) = I."""
    import numpy as np
    # scipy.integrate is slower to import than the whole package, and only this needs it
    from scipy.integrate import solve_ivp

    k = np.kron(m, np.eye(2))  # M T, acting on the row-major entries of T
    with np.errstate(all="ignore"):  # a failed integration reports itself in sol.success
        sol = solve_ivp(
            lambda _, y: k @ y,
            (0.0, 1.0),
            np.eye(2, dtype=complex).ravel(),
            method="DOP853",
            rtol=_RK_RTOL,
            atol=_RK_ATOL,
        )
    if not sol.success:
        raise IntegrationError(
            f"adaptive integration failed: {sol.message}",
            last_zeta=float(sol.t[-1]) if sol.t.size else 0.0,
        )
    return sol.y[:, -1]


def propagate(
    matrix: CouplingMatrix,
    fields: FieldPair,
    method: str = MATRIX_EXPONENTIAL,
) -> tuple[FieldPair, TransferMatrix]:
    """Propagate an input field pair through the medium.

    Returns the output pair together with the transfer matrix, which can be
    reused across inputs at the same detuning.  Both methods solve the same
    constant-coefficient system and agree to better than 1e-8 relative.
    """
    name = method.lower() if isinstance(method, str) else None
    if name == MATRIX_EXPONENTIAL:
        t00, t01, t10, t11 = expm2(*matrix.m.ravel().tolist())
    elif name == ADAPTIVE_RK:
        t00, t01, t10, t11 = _transfer_adaptive(matrix.m).tolist()
    else:
        raise ValueError(f"unknown propagation method {method!r}")
    out = FieldPair(
        t00 * fields.a_s + t01 * fields.a_i_dag, t10 * fields.a_s + t11 * fields.a_i_dag
    )
    return out, TransferMatrix(t=[[t00, t01], [t10, t11]], delta=matrix.delta)


def analytic_resonant_output(eit: EitMedium, fields: FieldPair) -> FieldPair:
    """Closed-form resonant output in the lossless limit (gamma_gs = 0).

    Two-mode hyperbolic mixing with parameter depth * gamma_ge / delta_control.
    The off-diagonal phases follow the propagation-equation convention, i.e.
    the signal gains -i sinh times the conjugated idler input.
    """
    theta = eit.depth * eit.gamma_ge / eit.delta_control
    ch = math.cosh(theta)
    sh = math.sinh(theta)
    return FieldPair(
        a_s=ch * fields.a_s - 1j * sh * fields.a_i_dag,
        a_i_dag=1j * sh * fields.a_s + ch * fields.a_i_dag,
    )


def approx_output_with_absorber(eit: EitMedium, d_abs: float, fields: FieldPair) -> FieldPair:
    """Resonant output with a strong idler absorber, to leading order in the loss.

    Valid for gamma_ge << |delta_control| and d_abs * |delta_control| >>
    depth * gamma_ge; calls outside that regime succeed with a warning.  The
    returned idler component is the adiabatically slaved value.
    """
    if d_abs == 0:
        raise DomainError("d_abs must be nonzero; the reduced output divides by it")
    ratio = eit.gamma_ge / eit.delta_control
    strong = d_abs * abs(eit.delta_control) / max(eit.depth * eit.gamma_ge, 1e-300)
    if abs(ratio) > 0.05 or strong < 10.0:
        warnings.warn(
            f"outside the validity regime (gamma_ge/delta = {ratio:.3g}, "
            f"d_abs*delta/(depth*gamma_ge) = {strong:.3g})",
            stacklevel=2,
        )
    frac = eit.depth / d_abs
    amp = math.exp(eit.depth * ratio * ratio * frac)
    a_s = fields.a_s * amp - 0.5j * frac * ratio * fields.a_i_dag * amp
    return FieldPair(a_s=a_s, a_i_dag=1j * frac * ratio * a_s)


def n_fwm(eit: EitMedium) -> float:
    """Expected noise-photon number generated without an absorber."""
    return math.sinh(eit.depth * eit.gamma_ge / eit.delta_control) ** 2


def noise_suppression_ratio(eit: EitMedium, d_abs: float) -> float:
    """Ratio of noise photons created with the absorber to those without it.

    Raises OverflowError when the ratio is not finite, as for a d_abs so small
    that depth / d_abs is infinite.
    """
    if not d_abs > 0:
        raise DomainError("d_abs must be positive")
    ratio = eit.gamma_ge / eit.delta_control
    frac = eit.depth / d_abs
    noise = (frac * ratio) ** 2 * math.exp(-2.0 * eit.depth * ratio * (1.0 - ratio * frac))
    if not math.isfinite(noise):
        raise OverflowError(f"noise ratio is {noise!r} at d_abs = {d_abs!r}")
    return noise


def eit_reference_transmission(eit: EitMedium, delta: float = 0.0) -> float:
    """Probe intensity transmission with the FWM couplings switched off.

    Obtained by keeping only the probe's diagonal entry of the generator,
    which retains the spin decoherence.
    """
    m00, _, _, _ = coupling_entries(eit, 0j, delta)
    return math.exp(2.0 * m00.real)
