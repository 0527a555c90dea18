import json
from dataclasses import fields, replace
from typing import Optional, get_args, get_type_hints

import pytest

from lambda_mixer.model import Scenario, field_specs
from lambda_mixer.scenario import (
    SCENARIO_DIR_ENV,
    ScenarioFileError,
    _SECTION_KEYS,
    load_scenario,
    parse_scenario_text,
    resolve_scenario_path,
    scenario_to_dict,
)

GOOD = """\
# a minimal complete scenario
[eit]
gamma_ge = 300.0
gamma_gs = 0.064
delta_control = 3036.0   # MHz
omega_c = 50.0
depth = 15.0

[absorber]
omega_a = 100.0
delta_2 = 14700.0
gamma_ab = 300.0
gamma_cb = 0.064
depth_2l = 85.0

[sweep]
axis = "two-photon-detuning"
start = -50.0
stop = 50.0
points = 401

[options]
stokes_seed = 1.0
apply_light_shift = false
exact_absorber = false
delta_a = 14677.0
"""


class TestParsing:
    def test_good_scenario(self):
        scenario = parse_scenario_text(GOOD)
        assert scenario.eit.gamma_ge == 300.0
        assert scenario.absorber.depth_2l == 85.0
        assert scenario.absorber.gamma_ac == 300.0  # defaults to gamma_ab
        assert scenario.absorber.center_offset == 0.0
        assert scenario.sweep.points == 401
        assert scenario.sweep.scale == "linear"
        assert scenario.options.apply_light_shift is False
        assert scenario.options.delta_a == 14677.0

    def test_unknown_key_rejected_with_line_number(self):
        text = GOOD.replace("omega_c = 50.0", "omega_c = 50.0\nbogus_key = 1.0")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        line_of_bogus = text.splitlines().index("bogus_key = 1.0") + 1
        assert any(f"line {line_of_bogus}:" in e and "bogus_key" in e for e in err.value.errors)

    def test_unknown_section_rejected(self):
        # [line] is not a section: depth_2l alone sets the absorber's strength
        for section in ("laser", "line"):
            with pytest.raises(ScenarioFileError) as err:
                parse_scenario_text(GOOD + f"\n[{section}]\npower = 1.0\n")
            assert any(f"unknown section [{section}]" in e for e in err.value.errors)

    def test_missing_required_section(self):
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text("[options]\nstokes_seed = 1.0\n")
        assert any("missing required section [eit]" in e for e in err.value.errors)

    def test_missing_required_key(self):
        text = GOOD.replace("depth = 15.0\n", "")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        assert any("[eit]" in e and "'depth'" in e for e in err.value.errors)

    def test_duplicate_key(self):
        text = GOOD.replace("omega_c = 50.0", "omega_c = 50.0\nomega_c = 60.0")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        assert any("duplicate key 'omega_c'" in e for e in err.value.errors)

    def test_bad_value_types(self):
        # the parser reads literals; the model decides which type a key takes
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(GOOD.replace("points = 401", "points = 401.5"))
        assert err.value.errors == ["line 20: sweep.points = 401.5: must be an integer"]
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(GOOD.replace('axis = "two-photon-detuning"', "axis = detuning"))
        assert err.value.errors == [
            'line 17: axis = detuning: not true, false, a number or a "string"',
            "section [sweep] is missing required key 'axis'",
        ]

    def test_integer_literal_in_a_float_field_is_a_float(self):
        # as the sidecar JSON prints it: depth = 15 is 15.0
        scenario = parse_scenario_text(GOOD.replace("depth = 15.0", "depth = 15"))
        assert type(scenario.eit.depth) is float and scenario.eit.depth == 15.0
        assert type(scenario.sweep.points) is int
        # past int()'s 4,300 digits a literal is read as a float
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(GOOD.replace("depth = 15.0", "depth = 1" + "0" * 5000))
        assert err.value.errors == ["line 7: eit.depth = inf: must be finite"]

    def test_key_outside_section(self):
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text("gamma_ge = 300.0\n" + GOOD)
        assert any("outside any section" in e for e in err.value.errors)

    def test_malformed_line(self):
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(GOOD + "\nthis is not a key value pair\n")
        assert any("expected 'key = value'" in e for e in err.value.errors)

    def test_collects_all_errors(self):
        text = (
            "[eit]\n"
            "gamma_ge = -300.0\n"
            "gamma_gs = 0.064\n"
            "delta_control = 0.0\n"
            "omega_c = fifty\n"
            "depth = 15.0\n"
            "mystery = 1\n"
        )
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        joined = "\n".join(err.value.errors)
        assert "mystery" in joined
        assert 'omega_c = fifty: not true, false, a number or a "string"' in joined

    def test_semantic_violations_carry_line_numbers(self):
        text = GOOD.replace("gamma_ge = 300.0", "gamma_ge = -300.0")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        assert any(e.startswith("line 3:") and "gamma_ge" in e for e in err.value.errors)

    def test_sweep_points_capped_without_building_the_grid(self, monkeypatch):
        from lambda_mixer.model import MAX_SWEEP_POINTS, SweepSpec, validate

        def no_grid(self):
            raise AssertionError("validation must not build the grid")

        monkeypatch.setattr(SweepSpec, "grid", no_grid)
        text = GOOD.replace("points = 401", f"points = {10**12}")
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        assert any(
            e.startswith("line 20:") and f"at most {MAX_SWEEP_POINTS}" in e for e in err.value.errors
        )
        largest = parse_scenario_text(GOOD.replace("points = 401", "points = 20001"))
        assert validate(largest).sweep.points == 20001

    def test_inline_comment_with_hash_in_string(self):
        text = GOOD.replace('axis = "two-photon-detuning"', 'axis = "two-photon-detuning"  # axis')
        assert parse_scenario_text(text).sweep.axis == "two-photon-detuning"
        # a '#' starts a comment even between quotes: no allowed string value holds one
        text = GOOD.replace('axis = "two-photon-detuning"', 'axis = "two-photon#detuning"')
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        assert err.value.errors[0] == 'line 17: axis = "two-photon: not true, false, a number or a "string"'

    @pytest.mark.parametrize(
        "old, new, error",
        [
            (
                "start = -50.0\nstop = 50.0",
                "start = 5.0\nstop = 1.0",
                "line 18: sweep.start = 5.0: must be less than stop",
            ),
            (
                "start = -50.0\nstop = 50.0",
                "start = -1.7e308\nstop = 1.7e308",
                "line 19: sweep.stop = 1.7e+308: must lie a finite distance above -1.7e+308",
            ),
            (
                "apply_light_shift = false",
                "apply_light_shift = 1",
                "line 24: options.apply_light_shift = 1: must be true or false",
            ),
            ("delta_a = 14677.0", "delta_a = 14677.0\n[eit]", "line 27: duplicate section [eit]"),
        ],
        ids=["start-after-stop", "span-overflows", "bool", "duplicate-section"],
    )
    def test_error_carries_line_number(self, old, new, error):
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(GOOD.replace(old, new))
        assert err.value.errors == [error]

    def test_choice_field_lists_allowed_values(self):
        text = GOOD.replace("points = 401", 'points = 401\nscale = "log"')
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_text(text)
        assert err.value.errors == [
            "line 21: sweep.scale = 'log': must be one of ('linear', 'logarithmic')"
        ]


# One valid value for every key of every section.
COMPLETE = {
    "eit": {
        "gamma_ge": 300.0,
        "gamma_gs": 0.064,
        "delta_control": 3036.0,
        "omega_c": 50.0,
        "depth": 15.0,
    },
    "absorber": {
        "omega_a": 100.0,
        "delta_2": 14700.0,
        "gamma_ab": 300.0,
        "gamma_ac": 300.0,
        "gamma_cb": 0.064,
        "depth_2l": 85.0,
        "center_offset": 0.0,
    },
    "sweep": {"axis": '"two-photon-detuning"', "start": -50.0, "stop": 50.0, "points": 401},
    "options": {
        "stokes_seed": 1.0,
        "delta_a": 14677.0,
        "eit_fraction": 0.15,
        "absorber_fraction": 0.85,
        "target_depth_ratio": 1.1,
    },
}


def _numeric_keys():
    """(section, key) of every float field of every section, read off the dataclasses."""
    for section in fields(Scenario):
        hint = get_type_hints(Scenario)[section.name]
        cls = next(arg for arg in get_args(hint) or (hint,) if arg is not type(None))
        for key, kind in get_type_hints(cls).items():
            if kind in (float, Optional[float]):
                yield section.name, key


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", list(_numeric_keys()))
def test_nonfinite_value_rejected_with_line_number(section, key, value):
    lines = []
    for name, keys in COMPLETE.items():
        lines.append(f"[{name}]")
        # a key COMPLETE lacks, such as a newly added field, is appended to its section
        overrides = {key: value} if name == section else {}
        lines += [f"{k} = {v}" for k, v in {**keys, **overrides}.items()]
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario_text("\n".join(lines) + "\n")
    lineno = lines.index(f"{key} = {value}") + 1
    expected = f"line {lineno}: {section}.{key} = {float(value)!r}: must be finite"
    assert err.value.errors == [expected]


# The parser's table before it was derived from the dataclasses, written out.
PINNED_KEYS = {
    "eit": {
        "gamma_ge": (float, True),
        "gamma_gs": (float, True),
        "delta_control": (float, True),
        "omega_c": (float, True),
        "depth": (float, True),
    },
    "absorber": {
        "omega_a": (float, True),
        "delta_2": (float, True),
        "gamma_ab": (float, True),
        "gamma_ac": (float, False),
        "gamma_cb": (float, True),
        "depth_2l": (float, True),
        "center_offset": (float, False),
    },
    "sweep": {
        "axis": (str, True),
        "start": (float, True),
        "stop": (float, True),
        "points": (int, True),
        "scale": (str, False),
    },
    "options": {
        "stokes_seed": (float, False),
        "apply_light_shift": (bool, False),
        "exact_absorber": (bool, False),
        "delta_a": (float, False),
        "eit_fraction": (float, False),
        "absorber_fraction": (float, False),
        "target_depth_ratio": (float, False),
    },
}


def test_derived_schema_is_pinned():
    # a field added to, removed from or retyped on a dataclass changes the file format; the
    # parser's table holds whether a key is required, the field's declaration its type
    def ordered(table):
        return [(name, list(keys.items())) for name, keys in table.items()]

    types = {s.name: {f.name: f.type for f in field_specs(s.type)} for s in field_specs(Scenario)}
    derived = {
        name: {key: (types[name][key], required) for key, required in keys.items()}
        for name, keys in _SECTION_KEYS.items()
    }
    assert ordered(derived) == ordered(PINNED_KEYS)


class TestResolution:
    def test_shipped_scenarios_resolve_and_parse(self):
        for name in (
            "fig2_default",
            "fig4_dabs_0.83",
            "fig4_dabs_4.16",
            "fig4_dabs_41.6",
            "sec5_proposed_mix",
            "sec5_as_performed",
        ):
            scenario, path = load_scenario(name)
            assert isinstance(scenario, Scenario)
            assert path.name == f"{name}.toml"

    def test_missing_scenario_raises_with_name(self):
        with pytest.raises(FileNotFoundError, match="no_such_scenario"):
            resolve_scenario_path("no_such_scenario")

    def test_explicit_path(self, tmp_path):
        target = tmp_path / "custom.toml"
        target.write_text(GOOD)
        assert resolve_scenario_path(str(target)) == target

    def test_env_dir_override(self, tmp_path, monkeypatch):
        (tmp_path / "mine.toml").write_text(GOOD)
        monkeypatch.setenv(SCENARIO_DIR_ENV, str(tmp_path))
        scenario, path = load_scenario("mine")
        assert path.parent == tmp_path
        assert scenario.eit.depth == 15.0

    def test_env_dir_shadows_shipped(self, tmp_path, monkeypatch):
        shadowed = GOOD.replace("depth = 15.0", "depth = 7.0")
        (tmp_path / "fig2_default.toml").write_text(shadowed)
        monkeypatch.setenv(SCENARIO_DIR_ENV, str(tmp_path))
        scenario, _ = load_scenario("fig2_default")
        assert scenario.eit.depth == 7.0


class TestSnapshot:
    def test_round_trips_through_json(self):
        scenario = parse_scenario_text(GOOD)
        snapshot = scenario_to_dict(scenario)
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["eit"]["gamma_ge"] == 300.0
        assert "absorber" not in scenario_to_dict(replace(scenario, absorber=None))
