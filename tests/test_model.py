import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambda_mixer.errors import DomainError, ValidationError
from lambda_mixer.model import (
    MAX_SWEEP_POINTS,
    CouplingMatrix,
    EitMedium,
    FieldPair,
    RamanAbsorber,
    ScanOptions,
    Scenario,
    SweepSpec,
    field_violations,
    scenario_violations,
    validate,
)


class TestValidate:
    def test_sec5_parameter_set_is_valid(self, sec5_eit, sec5_absorber):
        scenario = Scenario(eit=sec5_eit, absorber=sec5_absorber)
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

    @pytest.mark.parametrize(
        "axis, start, scale, constraints",
        [
            ("absorber-depth", -5.0, "linear", ["must be nonnegative on the absorber-depth axis"]),
            ("absorber-depth", -5.0, "logarithmic", ["must be positive on a logarithmic scale"]),
            ("absorber-depth", 0.0, "linear", []),
            ("two-photon-detuning", -5.0, "linear", []),
        ],
    )
    def test_depth_axis_start_nonnegative(self, axis, start, scale, constraints):
        spec = SweepSpec(axis=axis, start=start, stop=100.0, points=5, scale=scale)
        scenario = Scenario(eit=EitMedium(300.0, 0.064, 3036.0, 50.0, 15.0), sweep=spec)
        violations = scenario_violations(scenario)
        assert [(v.field, v.constraint) for v in violations] == [
            ("sweep.start", c) for c in constraints
        ]

    def test_grids(self):
        lin = SweepSpec(axis="two-photon-detuning", start=-1.0, stop=1.0, points=5)
        assert np.allclose(lin.grid(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        log = SweepSpec(axis="absorber-depth", start=1.0, stop=100.0, points=3, scale="logarithmic")
        assert np.allclose(log.grid(), [1.0, 10.0, 100.0])
        # one point, as peak_outputs builds
        one = SweepSpec(axis="absorber-depth", start=2.0, stop=2.0, points=1)
        assert one.grid().tolist() == [2.0]

    @pytest.mark.parametrize(
        "start, points, scale, message",
        [
            (0.0, 3, "logarithmic", "a logarithmic sweep must start above 0, got 0.0"),
            (-1.0, 3, "logarithmic", "a logarithmic sweep must start above 0, got -1.0"),
            (0.5, 0, "linear", f"sweep points must lie in 1..{MAX_SWEEP_POINTS}, got 0"),
            (0.5, MAX_SWEEP_POINTS + 1, "linear", "sweep points must lie in "),
            (0.5, MAX_SWEEP_POINTS + 1, "logarithmic", "sweep points must lie in "),
        ],
    )
    def test_grid_rejects_a_spec_built_in_code_before_numpy(self, start, points, scale, message):
        # a spec built in code is not validated: numpy would raise its own ValueError at
        # start 0, warn in log10 at start -1, and allocate 8 bytes per point of any count
        spec = SweepSpec(axis="absorber-depth", start=start, stop=1.0, points=points, scale=scale)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            spec.grid()

    @pytest.mark.parametrize(
        "axis, start, stop, scale, values",
        [
            ("two-photon-detuning", 0.0, 5e-324, "linear", "detunings"),
            ("absorber-depth", 5e-324, 1e-323, "logarithmic", "depths"),
        ],
    )
    def test_grid_too_narrow_for_its_points(self, axis, start, stop, scale, values):
        # 0.0, 0.0, 5e-324 and 5e-324, 5e-324, 1e-323: fewer distinct values than points
        spec = SweepSpec(axis=axis, start=start, stop=stop, points=3, scale=scale)
        with pytest.raises(DomainError, match=f"is too narrow for 3 distinct {values}$"):
            spec.grid()


class TestCouplingMatrixType:
    def test_matrix_is_frozen(self):
        cm = CouplingMatrix(m=np.zeros((2, 2), dtype=complex), delta=0.0)
        with pytest.raises(ValueError):
            cm.m[0, 0] = 1.0

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            CouplingMatrix(m=np.zeros((3, 3)), delta=0.0)

    def test_entries_are_python_complex_and_array_is_built_once(self):
        cm = CouplingMatrix(m=[[1, 2j], [np.float64(-2.5), 3.5 - 1j]], delta=0.5)
        assert cm.entries == (1 + 0j, 2j, -2.5 + 0j, 3.5 - 1j)
        assert all(type(z) is complex for z in cm.entries)
        assert cm.m is cm.m and not cm.m.flags.writeable
        assert np.array_equal(cm.m, [[1, 2j], [-2.5, 3.5 - 1j]])
        twin = CouplingMatrix(m=np.array(cm.m), delta=0.5)
        assert twin == cm and hash(twin) == hash(cm)

    @pytest.mark.parametrize(
        "m", [np.zeros((2, 2, 1)), np.zeros(4), [[1, 2, 3], [4, 5, 6]], [[1, 2]], 1.0],
        ids=["2x2x1", "flat", "2x3", "1x2", "scalar"],
    )
    def test_non_2x2_rejected(self, m):
        from lambda_mixer.propagation import TransferMatrix

        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            CouplingMatrix(m=m, delta=0.0)
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            TransferMatrix(t=m, delta=0.0)

    @pytest.mark.parametrize(
        "m", [np.zeros((2, 2, 1)), [[np.zeros(1), 0], [0, 0]]], ids=["2x2x1", "array-entry"]
    )
    def test_size_1_arrays_rejected_where_complex_takes_them(self, m, monkeypatch, sec5_eit):
        # numpy below 2.4 lets complex() read a size-1 array (with a DeprecationWarning from 1.25)
        import builtins

        import lambda_mixer.model as model
        from lambda_mixer.propagation import TransferMatrix, build_coupling_matrix

        lenient = lambda x: builtins.complex(np.asarray(x).item())  # noqa: E731
        monkeypatch.setattr(model, "complex", lenient, raising=False)
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            CouplingMatrix(m=m, delta=0.0)
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            TransferMatrix(t=m, delta=0.0)
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            build_coupling_matrix(sec5_eit, 0j, np.array([0.5]))
