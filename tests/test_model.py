import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambda_mixer.errors import ValidationError
from lambda_mixer.model import (
    C_LIGHT,
    CouplingMatrix,
    EitMedium,
    FieldPair,
    RamanAbsorber,
    ScanOptions,
    Scenario,
    SweepSpec,
    compute_optical_depth,
    field_violations,
    scenario_violations,
    validate,
)


class TestOpticalDepth:
    def test_definition_identity(self):
        n, length, gamma = 1e10, 0.05, 300.0
        g = math.sqrt(15.0 * C_LIGHT * gamma * 1e6 / (n * length)) / 1e6
        assert compute_optical_depth(g, n, length, gamma) == pytest.approx(15.0, rel=1e-12)

    def test_linear_in_atom_number(self):
        d1 = compute_optical_depth(0.05, 1e10, 0.05, 300.0)
        d2 = compute_optical_depth(0.05, 2e10, 0.05, 300.0)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-12)

    def test_nonpositive_input_names_field(self):
        with pytest.raises(ValidationError) as err:
            compute_optical_depth(0.05, -1e10, 0.05, 300.0)
        assert any(v.field == "n" for v in err.value.violations)
        with pytest.raises(ValidationError) as err:
            compute_optical_depth(0.0, 1e10, 0.05, 300.0)
        assert any(v.field == "g" for v in err.value.violations)


class TestValidate:
    def test_sec5_parameter_set_is_valid(self, sec5_eit, sec5_absorber, rb_line):
        scenario = Scenario(eit=sec5_eit, absorber=sec5_absorber, line=rb_line)
        assert validate(scenario) is scenario

    def test_negative_gamma_ge(self):
        eit = EitMedium(gamma_ge=-1.0, gamma_gs=0.064, delta_control=3036.0, omega_c=50.0, depth=15.0)
        with pytest.raises(ValidationError) as err:
            validate(Scenario(eit=eit))
        messages = [str(v) for v in err.value.violations]
        assert any("gamma_ge" in m and "positive" in m for m in messages)

    def test_zero_control_detuning_names_hazard(self):
        eit = EitMedium(gamma_ge=300.0, gamma_gs=0.064, delta_control=0.0, omega_c=50.0, depth=15.0)
        violations = field_violations(eit)
        assert any(v.field == "delta_control" and "divides" in v.constraint for v in violations)

    def test_collects_all_violations(self):
        eit = EitMedium(gamma_ge=-1.0, gamma_gs=-2.0, delta_control=0.0, omega_c=-3.0, depth=-4.0)
        absorber = RamanAbsorber(
            omega_a=-1.0, delta_2=0.0, gamma_ab=0.0, gamma_ac=300.0, gamma_cb=-1.0, depth_2l=-5.0
        )
        with pytest.raises(ValidationError) as err:
            validate(Scenario(eit=eit, absorber=absorber))
        fields = {v.field for v in err.value.violations}
        assert {
            "eit.gamma_ge",
            "eit.gamma_gs",
            "eit.delta_control",
            "eit.omega_c",
            "eit.depth",
            "absorber.omega_a",
            "absorber.delta_2",
            "absorber.gamma_ab",
            "absorber.gamma_cb",
            "absorber.depth_2l",
        } <= fields

    def test_spin_decay_must_not_exceed_optical_decay(self):
        eit = EitMedium(gamma_ge=1.0, gamma_gs=2.0, delta_control=10.0, omega_c=0.5, depth=1.0)
        assert any(v.field == "eit.gamma_gs" for v in scenario_violations(Scenario(eit=eit)))

    def test_nonfinite_fields_rejected(self):
        eit = EitMedium(
            gamma_ge=math.nan, gamma_gs=0.0, delta_control=math.inf, omega_c=50.0, depth=15.0
        )
        fields = {v.field for v in field_violations(eit)}
        assert {"gamma_ge", "delta_control"} <= fields

    def test_field_pair_finite(self):
        bad = Scenario(
            eit=EitMedium(300.0, 0.064, 3036.0, 50.0, 15.0),
            options=ScanOptions(stokes_seed=1.0),
        )
        assert scenario_violations(bad) == []
        assert field_violations(FieldPair(complex("inf"), 0j)) != []
        assert field_violations(FieldPair(1 + 1j, 0j)) == []

    @given(
        st.tuples(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            st.floats(allow_nan=True, allow_infinity=True, width=64),
        )
    )
    def test_validation_is_total(self, params):
        scenario = Scenario(eit=EitMedium(*params))
        try:
            validated = validate(scenario)
        except ValidationError as err:
            assert len(err.violations) >= 1
        else:
            # a returned scenario must satisfy every invariant on re-check
            assert scenario_violations(validated) == []


class TestSweepSpec:
    def test_log_grid_requires_positive_start(self):
        spec = SweepSpec(axis="absorber-depth", start=0.0, stop=10.0, points=5, scale="logarithmic")
        assert scenario_violations(
            Scenario(eit=EitMedium(300.0, 0.064, 3036.0, 50.0, 15.0), sweep=spec)
        )

    def test_grids(self):
        lin = SweepSpec(axis="two-photon-detuning", start=-1.0, stop=1.0, points=5)
        assert np.allclose(lin.grid(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        log = SweepSpec(axis="absorber-depth", start=1.0, stop=100.0, points=3, scale="logarithmic")
        assert np.allclose(log.grid(), [1.0, 10.0, 100.0])


class TestCouplingMatrixType:
    def test_matrix_is_frozen(self):
        cm = CouplingMatrix(m=np.zeros((2, 2), dtype=complex), delta=0.0)
        with pytest.raises(ValueError):
            cm.m[0, 0] = 1.0

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            CouplingMatrix(m=np.zeros((3, 3)), delta=0.0)
