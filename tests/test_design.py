from dataclasses import replace
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, given, strategies as st

from lambda_mixer.design import (
    bandwidth_check,
    full_report,
    fwm_strength,
    mix_depth_2l,
    rabi_window,
    raman_scatter_strength,
    solve_omega_a,
)
from lambda_mixer.errors import DomainError, InfeasibleTargetError, ValidationError
from lambda_mixer.model import EitMedium, RamanAbsorber, ScanOptions, Scenario
from lambda_mixer.scenario import load_scenario
from lambda_mixer.susceptibility import effective_depth


class TestRabiWindow:
    def test_sec5_lower_edge(self, sec5_eit):
        lower, upper, ok = rabi_window(sec5_eit)
        assert lower == pytest.approx(4.4, abs=0.05)
        assert upper == 300.0
        assert ok

    def test_as_performed_control_fails(self, sec5_eit):
        _, _, ok = rabi_window(replace(sec5_eit, omega_c=0.43))
        assert not ok

    def test_upper_edge_strict(self, sec5_eit):
        assert not rabi_window(replace(sec5_eit, omega_c=300.0))[2]

    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=400.0),
    )
    def test_increasing_spin_decay_never_rescues_a_verdict(self, gs1, gs2, omega_c):
        lo, hi = sorted((gs1, gs2))
        eit_lo = EitMedium(300.0, lo, 3036.0, omega_c, 15.0)
        eit_hi = EitMedium(300.0, hi, 3036.0, omega_c, 15.0)
        if rabi_window(eit_hi)[2]:
            assert rabi_window(eit_lo)[2]


class TestFwmStrength:
    def test_sec5_value(self, sec5_eit):
        assert fwm_strength(sec5_eit) == pytest.approx(1.48, abs=0.005)

    def test_zero_depth(self, sec5_eit):
        assert fwm_strength(replace(sec5_eit, depth=0.0)) == 0.0

    def test_linear_in_depth(self, sec5_eit):
        assert fwm_strength(replace(sec5_eit, depth=30.0)) == pytest.approx(
            2.0 * fwm_strength(sec5_eit), rel=1e-12
        )


class TestSolveOmegaA:
    def test_sec5_inversion(self, sec5_absorber):
        omega = solve_omega_a(sec5_absorber, 16.5)
        assert 98.0 <= omega <= 108.0
        assert omega == pytest.approx(105.376, abs=0.01)

    def test_zero_target(self, sec5_absorber):
        assert solve_omega_a(sec5_absorber, 0.0) == 0.0

    def test_target_at_ceiling_infeasible(self, sec5_absorber):
        with pytest.raises(InfeasibleTargetError, match="gamma_cb"):
            solve_omega_a(sec5_absorber, 85.0)

    def test_round_trip(self, sec5_absorber):
        for target in (0.5, 5.0, 16.5, 60.0, 84.0):
            omega = solve_omega_a(sec5_absorber, target)
            assert effective_depth(replace(sec5_absorber, omega_a=omega)) == pytest.approx(
                target, rel=1e-12
            )

    @given(st.floats(min_value=1e-3, max_value=84.9))
    def test_round_trip_property(self, target):
        absorber = RamanAbsorber(
            omega_a=0.0, delta_2=14700.0, gamma_ab=300.0, gamma_ac=300.0, gamma_cb=0.064, depth_2l=85.0
        )
        omega = solve_omega_a(absorber, target)
        assert effective_depth(replace(absorber, omega_a=omega)) == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize(
        "name, omega_a",
        [("sec5_proposed_mix", 105.37640561965016), ("sec5_as_performed", 38.327880630904346)],
    )
    def test_sec5_reports_pinned(self, name, omega_a):
        scenario, _ = load_scenario(name)
        assert full_report(scenario).omega_a_required == pytest.approx(omega_a, rel=1e-12)

    @given(
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e4),
        st.floats(min_value=1e-5, max_value=1e3),
        st.floats(min_value=1e-2, max_value=1e3),
        st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
    )
    def test_matches_high_precision_inverse(self, delta_2, gamma_ab, gamma_cb, depth_2l, fraction):
        absorber = RamanAbsorber(
            omega_a=0.0, delta_2=delta_2, gamma_ab=gamma_ab, gamma_ac=1.0, gamma_cb=gamma_cb, depth_2l=depth_2l
        )
        target = fraction * depth_2l
        assume(target < depth_2l)
        # the same inverse in 50-digit decimals; holds to a few ulp even next to the ceiling
        with localcontext() as ctx:
            ctx.prec = 50
            d = Decimal(target)
            u = Decimal(gamma_cb) * d / (Decimal(depth_2l) - d)
            exact = float(Decimal(delta_2) * (u / Decimal(gamma_ab)).sqrt())
        assert solve_omega_a(absorber, target) == pytest.approx(exact, rel=1e-15)

    def test_overflowing_omega_a_infeasible(self):
        absorber = RamanAbsorber(
            omega_a=0.0, delta_2=14700.0, gamma_ab=1e-300, gamma_ac=300.0, gamma_cb=1e10, depth_2l=85.0
        )
        with pytest.raises(InfeasibleTargetError):
            solve_omega_a(absorber, 84.9)

    def test_degenerate_spin_decay_not_invertible(self, sec5_absorber):
        with pytest.raises(DomainError):
            solve_omega_a(replace(sec5_absorber, gamma_cb=0.0), 10.0)


class TestBandwidthCheck:
    def test_sec5_point(self, sec5_absorber, sec5_eit):
        lhs, rhs, ok = bandwidth_check(sec5_absorber, sec5_eit)
        assert lhs == pytest.approx(0.080, abs=0.005)
        assert rhs == pytest.approx(2.03, abs=0.01)
        assert not ok

    def test_strong_raman_control(self, sec5_absorber, sec5_eit):
        lhs, _, _ = bandwidth_check(replace(sec5_absorber, omega_a=700.0), sec5_eit)
        assert lhs == pytest.approx(0.744, abs=0.005)

    def test_large_depth_always_passes(self, sec5_absorber, sec5_eit):
        lhs, rhs, ok = bandwidth_check(sec5_absorber, replace(sec5_eit, depth=1e9))
        assert rhs < 1e-3
        assert ok


class TestRamanScatter:
    def test_sec5_point(self, sec5_eit, sec5_absorber):
        x = raman_scatter_strength(sec5_eit, replace(sec5_absorber, omega_a=100.0), 14677.0)
        assert x == pytest.approx(0.613, abs=0.002)
        assert x == pytest.approx(0.64, rel=0.10)

    def test_zero_raman_control(self, sec5_eit, sec5_absorber):
        assert raman_scatter_strength(sec5_eit, replace(sec5_absorber, omega_a=0.0), 14677.0) == 0.0

    def test_linear_in_depth(self, sec5_eit, sec5_absorber):
        x1 = raman_scatter_strength(sec5_eit, sec5_absorber, 14677.0)
        x2 = raman_scatter_strength(replace(sec5_eit, depth=30.0), sec5_absorber, 14677.0)
        assert x2 == pytest.approx(2.0 * x1, rel=1e-12)

    def test_zero_detuning_rejected(self, sec5_eit, sec5_absorber):
        with pytest.raises(DomainError):
            raman_scatter_strength(sec5_eit, sec5_absorber, 0.0)


class TestFullReport:
    def test_proposed_mix(self):
        scenario, _ = load_scenario("sec5_proposed_mix")
        report = full_report(scenario)
        assert mix_depth_2l(scenario) == pytest.approx(85.0, rel=1e-12)
        assert report.fwm_strength == pytest.approx(1.48, abs=0.005)
        assert report.d_abs_target == pytest.approx(16.5)
        assert 98.0 <= report.omega_a_required <= 108.0
        assert report.noise_ratio == pytest.approx(5e-4, rel=0.20)
        assert report.raman_x == pytest.approx(0.64, rel=0.10)
        assert report.rabi_ok and report.raman_ok
        assert not report.bandwidth_ok  # narrow absorber line, flagged not resolved
        assert not report.overall

    def test_as_performed_diagnosis(self):
        scenario, _ = load_scenario("sec5_as_performed")
        report = full_report(scenario)
        assert not report.rabi_ok
        assert not report.overall

    def test_all_zero_couplings_trivial(self):
        eit = EitMedium(gamma_ge=300.0, gamma_gs=0.064, delta_control=3036.0, omega_c=0.0, depth=0.0)
        absorber = RamanAbsorber(
            omega_a=0.0, delta_2=14700.0, gamma_ab=300.0, gamma_ac=300.0, gamma_cb=0.064, depth_2l=85.0
        )
        scenario = Scenario(eit=eit, absorber=absorber, options=ScanOptions(delta_a=14677.0))
        report = full_report(scenario)
        assert report.fwm_strength == 0.0
        assert report.raman_x == 0.0
        assert report.noise_ratio == 0.0
        assert report.d_abs_target == 0.0
        assert report.omega_a_required == 0.0

    def test_purity(self):
        scenario, _ = load_scenario("sec5_proposed_mix")
        assert full_report(scenario) == full_report(scenario)

    def test_missing_delta_a_listed(self):
        scenario, _ = load_scenario("sec5_proposed_mix")
        stripped = replace(scenario, options=replace(scenario.options, delta_a=None))
        with pytest.raises(ValidationError) as err:
            full_report(stripped)
        assert any("delta_a" in v.field for v in err.value.violations)

    def test_verdicts_consistent_with_inequalities(self):
        scenario, _ = load_scenario("sec5_proposed_mix")
        report = full_report(scenario)
        assert report.bandwidth_ok == (report.bandwidth_lhs > report.bandwidth_rhs)
        assert report.raman_ok == (report.raman_x < 1.0)
        assert report.overall == (report.rabi_ok and report.bandwidth_ok and report.raman_ok)
