import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lambda_mixer.errors import DomainError
from lambda_mixer.model import RamanAbsorber, ScanOptions, Scenario
from lambda_mixer.scan import absorber_loss_profile
from lambda_mixer.susceptibility import (
    chi_abs,
    effective_depth,
    light_shift,
    normalized_lineshape,
    saturation_ratio,
    two_photon_width,
)


class TestChiAbs:
    def test_zero_raman_control_gives_zero(self, sec5_absorber):
        assert chi_abs(replace(sec5_absorber, omega_a=0.0), 1.0) == 0

    def test_center_value_consistent_with_effective_depth(self, sec5_absorber):
        center = light_shift(sec5_absorber)
        depth_from_chi = chi_abs(sec5_absorber, center).imag
        depth_closed_form = effective_depth(sec5_absorber)
        assert depth_from_chi == pytest.approx(depth_closed_form, rel=5e-3)
        # the paper-rounded working point: r = 5e-5 reaches a depth near 16
        rounded = replace(sec5_absorber, omega_a=math.sqrt(5e-5) * 14700.0)
        assert effective_depth(rounded) == pytest.approx(16.139, abs=0.01)

    def test_far_wing_decay_inverse_in_detuning(self, sec5_absorber):
        # brute-force evaluation over a log-spaced grid of distances from the
        # line center, far against the width but small against delta_2
        center = light_shift(sec5_absorber)
        offsets = np.geomspace(1.0, 100.0, 25)
        mags = np.array([abs(chi_abs(sec5_absorber, center + x)) for x in offsets])
        slope = np.polyfit(np.log(offsets), np.log(mags), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.02)

    def test_singular_denominator_raises(self):
        # requires the (unphysical, validation-rejected) coincidence of zero
        # decay on both coherences
        from lambda_mixer.errors import SingularityError

        pathological = RamanAbsorber(
            omega_a=math.sqrt(101.0),
            delta_2=100.0,
            gamma_ab=0.0,
            gamma_ac=1.0,
            gamma_cb=0.0,
            depth_2l=1.0,
        )
        with pytest.raises(SingularityError):
            chi_abs(pathological, 1.0)


class TestEffectiveDepth:
    def test_paper_rounded_working_point(self):
        absorber = RamanAbsorber(
            omega_a=math.sqrt(5e-5) * 14700.0,
            delta_2=14700.0,
            gamma_ab=300.0,
            gamma_ac=300.0,
            gamma_cb=0.064,
            depth_2l=85.0,
        )
        value = effective_depth(absorber)
        assert value == pytest.approx(16.139, abs=0.01)
        # within 10% of the 1.1 * 15 design target
        assert value == pytest.approx(16.5, rel=0.10)

    def test_zero_spin_decay_saturates_exactly(self, sec5_absorber):
        assert effective_depth(replace(sec5_absorber, gamma_cb=0.0)) == 85.0

    def test_zero_raman_control(self, sec5_absorber):
        assert effective_depth(replace(sec5_absorber, omega_a=0.0)) == 0.0

    @given(st.floats(min_value=1.0, max_value=5000.0), st.floats(min_value=1.0, max_value=5000.0))
    def test_monotone_in_omega_a(self, o1, o2):
        base = RamanAbsorber(
            omega_a=0.0, delta_2=14700.0, gamma_ab=300.0, gamma_ac=300.0, gamma_cb=0.1, depth_2l=85.0
        )
        lo, hi = sorted((o1, o2))
        d_lo = effective_depth(replace(base, omega_a=lo))
        d_hi = effective_depth(replace(base, omega_a=hi))
        assert d_lo <= d_hi <= 85.0
        if lo < hi:
            assert d_lo < d_hi


class TestTwoPhotonWidth:
    def test_sec5_value(self, sec5_absorber):
        r = saturation_ratio(sec5_absorber)
        expected = 300.0 * r + 0.064 * (1.0 - r)
        value = two_photon_width(sec5_absorber)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.0779, abs=0.0005)

    def test_zero_raman_control_leaves_spin_width(self, sec5_absorber):
        assert two_photon_width(replace(sec5_absorber, omega_a=0.0)) == 0.064

    def test_strong_control_point(self, sec5_absorber):
        value = two_photon_width(replace(sec5_absorber, omega_a=700.0))
        assert value == pytest.approx(0.7441, abs=0.0005)


def shifted_line(absorber: RamanAbsorber) -> tuple[float, float]:
    """Center and half-width of the light-shifted Lorentzian line (center_offset 0)."""
    return light_shift(absorber), two_photon_width(absorber)


class TestLineshape:
    def test_unity_at_center(self, sec5_absorber):
        center, hwhm = shifted_line(sec5_absorber)
        assert normalized_lineshape(center, center, hwhm) == pytest.approx(1.0)

    def test_half_width_definition(self, sec5_absorber):
        center, hwhm = shifted_line(sec5_absorber)
        for sign in (-1.0, 1.0):
            value = normalized_lineshape(center + sign * hwhm, center, hwhm)
            assert abs(value) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_matches_exact_profile_within_two_percent(self, sec5_absorber):
        # The physical idler response is the conjugate of the lineshape;
        # compare against the conjugated exact profile, normalized to its
        # own peak, over ten widths around the center.
        center, hwhm = shifted_line(sec5_absorber)
        deltas = np.linspace(center - 10 * hwhm, center + 10 * hwhm, 1001)
        chis = np.array([chi_abs(sec5_absorber, d) for d in deltas])
        exact = np.conj(chis / chis[np.argmax(np.abs(chis))])
        approx = np.array([normalized_lineshape(d, center, hwhm) for d in deltas])
        assert np.max(np.abs(approx - exact)) < 0.02

    def test_bounded_and_decaying(self, sec5_absorber):
        center, hwhm = shifted_line(sec5_absorber)
        for delta in np.linspace(center - 1e4, center + 1e4, 101):
            assert abs(normalized_lineshape(delta, center, hwhm)) <= 1.0 + 1e-12
        far = center + 1e6 * hwhm
        assert abs(normalized_lineshape(far, center, hwhm)) == pytest.approx(
            hwhm / (far - center), rel=1e-3
        )

    def test_parity_about_center(self, sec5_absorber):
        # absorption (real part) is even, dispersion (imaginary part) odd
        center, hwhm = shifted_line(sec5_absorber)
        for offset in (0.3, 1.7, 12.0):
            plus = normalized_lineshape(center + offset, center, hwhm)
            minus = normalized_lineshape(center - offset, center, hwhm)
            assert plus.real == pytest.approx(minus.real, rel=1e-12)
            assert plus.imag == pytest.approx(-minus.imag, rel=1e-12)

    def test_light_shift_moves_center(self, sec5_eit, sec5_absorber):
        def loss_profile(apply_light_shift):
            options = ScanOptions(apply_light_shift=apply_light_shift)
            return absorber_loss_profile(Scenario(eit=sec5_eit, absorber=sec5_absorber, options=options))

        shifted, shifted_depth = loss_profile(True)
        centered, centered_depth = loss_profile(False)
        assert shifted(light_shift(sec5_absorber)) == pytest.approx(1.0)
        assert centered(sec5_absorber.center_offset) == pytest.approx(1.0)
        assert shifted_depth == centered_depth

    def test_degenerate_width_rejected(self, sec5_eit):
        # r = 4 drives gamma_ab * r + gamma_cb * (1 - r) negative at a positive depth
        absorber = RamanAbsorber(
            omega_a=2.0 * 14700.0,
            delta_2=14700.0,
            gamma_ab=1.0,
            gamma_ac=1.0,
            gamma_cb=100.0,
            depth_2l=85.0,
        )
        assert two_photon_width(absorber) <= 0 < effective_depth(absorber)
        with pytest.raises(DomainError):
            absorber_loss_profile(Scenario(eit=sec5_eit, absorber=absorber))
        lossless = RamanAbsorber(
            omega_a=0.0, delta_2=14700.0, gamma_ab=300.0, gamma_ac=300.0, gamma_cb=0.0, depth_2l=85.0
        )
        assert two_photon_width(lossless) == 0.0
        assert absorber_loss_profile(Scenario(eit=sec5_eit, absorber=lossless))[1] == 0.0
        # nothing to normalize the exact susceptibility against: no loss at all
        exact = ScanOptions(exact_absorber=True)
        profile, depth = absorber_loss_profile(Scenario(eit=sec5_eit, absorber=lossless, options=exact))
        assert (profile(5.0), depth) == (0j, 0.0)

    @settings(max_examples=50)
    @given(
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=1.0, max_value=2000.0),
    )
    def test_modulus_never_exceeds_one(self, delta, omega_a):
        absorber = RamanAbsorber(
            omega_a=omega_a,
            delta_2=14700.0,
            gamma_ab=300.0,
            gamma_ac=300.0,
            gamma_cb=0.5,
            depth_2l=85.0,
        )
        assert abs(normalized_lineshape(delta, *shifted_line(absorber))) <= 1.0 + 1e-12
