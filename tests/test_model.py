import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction
from typing import get_args
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lambda_mixer.errors import DomainError, ValidationError
from lambda_mixer.model import (
    MAX_SWEEP_POINTS,
    CouplingMatrix,
    EitMedium,
    FieldPair,
    RamanAbsorber,
    ScanOptions,
    Scenario,
    SweepAxis,
    SweepSpec,
    field_specs,
    field_violations,
    scenario_violations,
    validate,
)
from lambda_mixer.scenario import ScenarioFileError, parse_scenario_text

# any double, also nan, the infinities and subnormals, weighted toward values a grid can hold
_ENDPOINT = st.one_of(
    st.floats(width=64),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.7e308, 1.7e308, math.inf, math.nan]),
)


def _ulps_above(x: float, k: int) -> float:
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


@st.composite
def _sweep_specs(draw) -> SweepSpec:
    """Endpoints drawn apart, symmetric about 0, or a little or a few ulps apart (too narrow)."""
    start = draw(_ENDPOINT)
    stop = draw(
        st.one_of(
            _ENDPOINT,
            st.just(-start),
            st.floats(0.0, 1e3).map(lambda d: start + d),
            st.integers(0, 3).map(lambda k: _ulps_above(start, k)),
        )
    )
    points = draw(st.one_of(st.integers(2, 5), st.integers(-1, MAX_SWEEP_POINTS + 1)))
    axis = draw(st.sampled_from(get_args(SweepAxis)))
    return SweepSpec(axis, start, stop, points, draw(st.sampled_from(["linear", "logarithmic"])))


# a valid [eit] section, lines 1-6, ahead of a [sweep] section
_EIT = "[eit]\ngamma_ge = 300.0\ngamma_gs = 0.064\ndelta_control = 3036.0\nomega_c = 50.0\ndepth = 15.0\n"


def _numpy_ran(*args, **kwargs):
    raise AssertionError("numpy ran on a spec that breaks a rule")


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

    @pytest.mark.parametrize(
        "section, changes, violations",
        [
            ("eit", {"omega_c": None}, [("eit.omega_c", "must be a real number")]),
            ("eit", {"depth": True}, [("eit.depth", "must be a real number")]),
            ("eit", {"depth": "15"}, [("eit.depth", "must be a real number")]),
            ("eit", {"depth": 15j}, [("eit.depth", "must be a real number")]),
            ("eit", {"depth": np.array(15.0)}, [("eit.depth", "must be a real number")]),
            ("eit", {"depth": np.float32("inf")}, [("eit.depth", "must be finite")]),
            ("eit", {"depth": 10**400}, [("eit.depth", "must be finite")]),
            ("eit", {"depth": np.int64(15), "omega_c": np.float32(50.0)}, []),
            ("options", {"apply_light_shift": 1}, [("options.apply_light_shift", "must be true or false")]),
            ("options", {"apply_light_shift": np.True_}, [("options.apply_light_shift", "must be true or false")]),
            ("options", {"delta_a": None, "eit_fraction": None}, []),
            ("options", {"stokes_seed": None}, [("options.stokes_seed", "must be a real number")]),
        ],
        ids=[
            "none", "bool", "str", "complex", "numpy-array", "float32-inf", "int-beyond-double", "numpy",
            "int-in-bool", "numpy-bool", "optional-none", "none-with-a-default",
        ],
    )
    def test_the_dataclasses_decide_each_fields_type(self, section, changes, violations):
        base = Scenario(eit=EitMedium(300.0, 0.064, 3036.0, 50.0, 15.0))
        scenario = replace(base, **{section: replace(getattr(base, section), **changes)})
        assert [(v.field, v.constraint) for v in scenario_violations(scenario)] == violations

    @pytest.mark.parametrize("section", ["eit", "options"])
    def test_a_section_must_be_its_dataclass(self, section):
        scenario = replace(Scenario(eit=EitMedium(300.0, 0.064, 3036.0, 50.0, 15.0)), **{section: None})
        cls = "EitMedium" if section == "eit" else "ScanOptions"
        assert [str(v) for v in scenario_violations(scenario)] == [
            f"{section} = None: must be an instance of {cls}"
        ]

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
        # one point is no grid, in code as in a scenario file
        one = SweepSpec(axis="absorber-depth", start=2.0, stop=3.0, points=1)
        message = f"sweep.points = 1: must be an integer, at least 2 and at most {MAX_SWEEP_POINTS}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            one.grid()

    @pytest.mark.parametrize(
        "start, points, scale, message",
        [
            (0.0, 3, "logarithmic", "sweep.start = 0.0: must be positive on a logarithmic scale"),
            (-1.0, 3, "logarithmic", "sweep.start = -1.0: must be positive on a logarithmic scale"),
            (0.5, 0, "linear", "sweep.points = 0: must be an integer, at least 2 and at most "),
            (0.5, MAX_SWEEP_POINTS + 1, "linear", "sweep.points = 100001: must be an integer"),
            (0.5, MAX_SWEEP_POINTS + 1, "logarithmic", "sweep.points = 100001: must be an integer"),
        ],
    )
    def test_grid_rejects_a_spec_built_in_code_before_numpy(self, start, points, scale, message):
        # a spec built in code is not validated: numpy would raise its own ValueError at
        # start 0, warn in log10 at start -1, and allocate 8 bytes per point of any count
        spec = SweepSpec(axis="absorber-depth", start=start, stop=1.0, points=points, scale=scale)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            spec.grid()

    @pytest.mark.parametrize(
        "points", [3.5, 3.0, np.float64(3.0), "3", True], ids=["3.5", "3.0", "numpy-3.0", "str", "True"]
    )
    def test_points_must_be_an_integer(self, points):
        # numpy's bare TypeError for 3.5 came from inside np.linspace; True would count as 1
        spec = SweepSpec(axis="two-photon-detuning", start=-1.0, stop=1.0, points=points)
        message = f"sweep.points = {points!r}: must be an integer"
        assert [str(v) for v in spec.violations()] == [message]  # the type check, not the range
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            spec.grid()
        integral = SweepSpec(axis="two-photon-detuning", start=-1.0, stop=1.0, points=np.int64(3))
        assert integral.grid().tolist() == [-1.0, 0.0, 1.0]

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

    @settings(max_examples=200, deadline=None)
    @given(_sweep_specs())
    @example(SweepSpec("two-photon-detuning", -1.7e308, 1.7e308, 3))  # the span overflows
    def test_validation_and_grid_agree(self, spec):
        violations = spec.violations()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the example
            if violations:
                with mock.patch.object(np, "linspace", _numpy_ran), mock.patch.object(
                    np, "geomspace", _numpy_ran
                ), pytest.raises(DomainError) as err:
                    spec.grid()
                assert str(err.value) == "; ".join(map(str, violations))
            else:
                try:
                    grid = spec.grid()
                except DomainError as err:
                    assert re.fullmatch(r"sweep .* is too narrow for \d+ distinct \w+", str(err))
                else:
                    assert len(grid) == spec.points
                    assert np.isfinite(grid).all() and (grid[1:] > grid[:-1]).all()
        # the same [sweep] section in a scenario file: the same violations, at their keys' lines
        keys = {"axis": f'"{spec.axis}"', "start": repr(spec.start), "stop": repr(spec.stop)}
        keys.update(points=str(spec.points), scale=f'"{spec.scale}"')
        text = _EIT + "[sweep]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        line = {f"sweep.{key}": n for n, key in enumerate(keys, start=8)}
        try:
            parse_scenario_text(text)
            errors = []
        except ScenarioFileError as err:
            errors = err.errors
        assert errors == [f"line {line[v.field]}: {v}" for v in violations]


class TestNumberFields:
    """A section holds each real number of a float field as a float, each integer of points as an int."""

    SECTIONS = [
        EitMedium(300.0, 0.064, 3036.0, 50.0, 15.0),
        RamanAbsorber(5000.0, 10000.0, 300.0, 300.0, 0.064, 85.0),
        SweepSpec("two-photon-detuning", -1.0, 1.0, 5),
        ScanOptions(delta_a=14677.0, eit_fraction=0.15, absorber_fraction=0.85),
    ]

    @pytest.mark.parametrize(
        "value, expected",
        [
            (15, 15.0),
            (np.float64(15.0), 15.0),
            (np.float32(15.0), 15.0),
            (np.float32(0.1), float(np.float32(0.1))),
            (np.int64(15), 15.0),
            (Fraction(31, 2), 15.5),
            (10**200, 1e200),
            (10**400, math.inf),
            (-(10**400), -math.inf),
        ],
        ids=["int", "float64", "float32", "float32-inexact", "int64", "fraction", "big-int",
             "int-beyond-double", "negative-int-beyond-double"],
    )
    @pytest.mark.parametrize("section", SECTIONS, ids=lambda obj: type(obj).__name__)
    def test_every_float_field_holds_a_float(self, section, value, expected):
        names = [spec.name for spec in field_specs(type(section)) if spec.type is float]
        assert names
        for name in names:
            held = getattr(replace(section, **{name: value}), name)
            assert type(held) is float and held == expected, (name, held)

    @pytest.mark.parametrize("points", [5, np.int64(5), np.int32(5), np.uint8(5)])
    def test_points_holds_an_int(self, points):
        spec = SweepSpec("two-photon-detuning", -1.0, 1.0, points)
        assert type(spec.points) is int and spec.points == 5
        assert spec == SweepSpec("two-photon-detuning", -1.0, 1.0, 5)

    def test_an_int_beyond_the_double_range_is_reported_as_not_finite(self):
        spec = SweepSpec("two-photon-detuning", -(10**400), 10**400, 5)
        assert [str(v) for v in spec.violations()] == [
            "sweep.start = -inf: must be finite", "sweep.stop = inf: must be finite"
        ]


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
