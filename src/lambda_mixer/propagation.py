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
from functools import cached_property

from .errors import DomainError, IntegrationError, SingularityError
from .model import CouplingMatrix, EitMedium, FieldPair, _entries_2x2, _frozen_array, _is_array

MATRIX_EXPONENTIAL = "matrix-exponential"
ADAPTIVE_RK = "adaptive-rk"

_RK_RTOL = 1e-10
_SERIES_Q = 1e-3  # |q| at or below which expm2 uses the series


@dataclass(frozen=True, init=False)
class TransferMatrix:
    """Map from input to output fields over zeta in [0, 1]; ``t`` is ``entries`` as a 2x2 array."""

    entries: tuple[complex, complex, complex, complex]
    delta: float

    def __init__(self, t, delta: float):
        self.__dict__.update(entries=_entries_2x2(t), delta=delta)  # frozen: bypass __setattr__

    t = cached_property(_frozen_array)


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
    avoids the 0/0.  Scalars only, through cmath, which raises OverflowError
    beyond the double range; _closed_form is the array form.
    """
    mu = 0.5 * (m00 + m11)
    a = 0.5 * (m00 - m11)  # A = [[a, m01], [m10, -a]]
    q = cmath.sqrt(a * a + m01 * m10)
    if abs(q) <= _SERIES_Q:
        c, s = _series(cmath.exp(mu), q * q)
    else:
        ep, em = cmath.exp(mu + q), cmath.exp(mu - q)
        c, s = 0.5 * (ep + em), 0.5 * (ep - em) / q
    return c + s * a, s * m01, s * m10, c - s * a


def _workspace(shape) -> list:
    """Buffers for one _closed_form pass over shape: five complex, then |q| and the series mask."""
    import numpy as np

    return [np.empty(shape, complex) for _ in range(5)] + [np.empty(shape), np.empty(shape, bool)]


def _closed_form(m00, m01, m10, m11, ws) -> tuple:
    """The array form of expm2, evaluated into the workspace ws.

    ws holds _workspace buffers of the entries' broadcast shape; the entries
    are only read.  Every step is a ufunc writing into ws, with the operands
    and the order of the scalar expm2, so a reused workspace gives the bytes
    of a fresh one.  Returns t00, t01, t10, t11 as views of ws, which the
    next pass over ws overwrites.
    """
    import numpy as np

    mu, a, u, v, w, abs_q, small = ws
    np.multiply(0.5, np.add(m00, m11, out=mu), out=mu)
    np.multiply(0.5, np.subtract(m00, m11, out=a), out=a)  # A = [[a, m01], [m10, -a]]
    np.add(np.multiply(a, a, out=u), np.multiply(m01, m10, out=v), out=u)
    q = np.sqrt(u, out=u)
    np.less_equal(np.abs(q, out=abs_q), _SERIES_Q, out=small)
    series = small.any()
    if series:  # the series values replace these points below
        mu_small, q_small = mu[small], q[small]
    safe = q
    np.copyto(safe, 1.0, where=small)
    ep = np.exp(np.add(mu, safe, out=v), out=v)
    em = np.exp(np.subtract(mu, safe, out=w), out=w)
    c = np.multiply(0.5, np.add(ep, em, out=mu), out=mu)
    s = np.divide(np.multiply(0.5, np.subtract(ep, em, out=v), out=v), safe, out=v)
    if series:
        c[small], s[small] = _series(np.exp(mu_small), q_small * q_small)
    sa = np.multiply(s, a, out=w)
    t00, t11 = np.add(c, sa, out=u), np.subtract(c, sa, out=a)
    return t00, np.multiply(s, m01, out=mu), np.multiply(s, m10, out=w), t11


def _product(a, b) -> tuple:
    """Row-major entries of the 2x2 matrix product a b."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return a00 * b00 + a01 * b10, a00 * b01 + a01 * b11, a10 * b00 + a11 * b10, a10 * b01 + a11 * b11


def _transfer_adaptive(entries) -> list[complex]:
    """Row-major entries of exp(M): classical RK4 with step doubling on dT/dzeta = M T, T(0) = I.

    2**k steps give (I + E)**(2**k), E = X + X^2/2 + X^3/6 + X^4/24 with X = M / 2**k, by Horner;
    squared as 2E + E^2, E keeps the small increments that I + E would round away.  k starts at
    |X| <= 1/4, inside RK4's stability region, and grows until two step counts agree.
    """
    norm = sum(abs(m.real) + abs(m.imag) for m in entries)  # at least |M|, and inf where abs raises
    if not norm <= _RK_RTOL * 2.0**52:  # nan too; beyond, rounding alone can exceed _RK_RTOL
        raise IntegrationError(f"RK4 cannot resolve generator norm {norm!r} to {_RK_RTOL}", last_zeta=0.0)
    first = max(0, math.frexp(norm)[1] + 2)  # norm < 2**(first - 2)
    t = None
    for k in range(first, first + 41):
        x = [m / 2**k for m in entries]
        e = [0.0] * 4  # Horner from the inside: E = X (I + X/2 (I + X/3 (I + X/4 (I + 0))))
        for j in (4.0, 3.0, 2.0, 1.0):
            e = [p / j for p in _product(x, (1.0 + e[0], e[1], e[2], 1.0 + e[3]))]
        for j in range(k):  # the power of 2**(j + 1) steps, at zeta = 2**(j + 1 - k)
            e = [2.0 * a + b for a, b in zip(e, _product(e, e))]
            # a finite sum of |Re| + |Im| bounds every |entry|, so abs() below cannot overflow
            if not math.isfinite(sum(abs(v.real) + abs(v.imag) for v in e)):
                raise IntegrationError("T left the double range", last_zeta=2.0 ** (j - k))
        last, t = t, [1.0 + e[0], e[1], e[2], 1.0 + e[3]]
        if last and max(abs(a - b) for a, b in zip(t, last)) <= _RK_RTOL * max(1.0, *map(abs, t)):
            return t
    raise IntegrationError(f"40 step doublings did not agree to {_RK_RTOL}", last_zeta=0.0)


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
        t00, t01, t10, t11 = expm2(*matrix.entries)
    elif name == ADAPTIVE_RK:
        t00, t01, t10, t11 = _transfer_adaptive(matrix.entries)
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
    """Expected noise-photon number generated without an absorber.

    Raises OverflowError, naming the medium, where the number leaves the double range.
    """
    try:
        fwm = math.sinh(eit.depth * eit.gamma_ge / eit.delta_control) ** 2
    except OverflowError:  # sinh or its square, where IEEE arithmetic gives inf
        fwm = math.inf
    if not math.isfinite(fwm):
        raise OverflowError(f"n_fwm = sinh(depth * gamma_ge / delta_control)**2 is {fwm!r} in {eit}")
    return fwm


def noise_expansion_parameter(eit: EitMedium, d_abs: float) -> float:
    """The small parameter of :func:`noise_suppression_ratio`, (gamma_ge/delta_control) * depth/d_abs.

    The ratio is leading order in it; at 1 and above its exponent has changed sign.
    """
    return eit.gamma_ge / eit.delta_control * (eit.depth / d_abs)


def noise_suppression_ratio(eit: EitMedium, d_abs: float) -> float:
    """Ratio of noise photons created with the absorber to those without it.

    Leading order in :func:`noise_expansion_parameter`, which it does not check.
    Raises OverflowError, naming the medium, where the ratio leaves the double range.
    """
    if not d_abs > 0:
        raise DomainError("d_abs must be positive")
    ratio = eit.gamma_ge / eit.delta_control
    frac = eit.depth / d_abs
    try:
        noise = (frac * ratio) ** 2 * math.exp(-2.0 * eit.depth * ratio * (1.0 - ratio * frac))
    except OverflowError:  # the square or the exponential, where IEEE arithmetic gives inf
        noise = math.inf
    if not math.isfinite(noise):
        raise OverflowError(f"noise ratio is {noise!r} at d_abs = {d_abs!r} in {eit}")
    return noise

