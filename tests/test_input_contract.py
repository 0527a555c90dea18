"""The input contract as a property of the command line and of the library.

Every scenario a file can hold, once past validation, either gives finite,
meaningful output or fails early with a clear exit code, whichever command
reads it.  An example is a shipped scenario with some of its fields and
sections redrawn from their declarations, ``model.field_specs``, which the
parser and the validator read too: each field across the whole double range
its rule admits, subnormals and both signs included, or among the values the
shipped scenarios hold.  Most examples thus get past validation and into the
sweeps, renderers and design formulas.

Runtime bound: MAX_EXAMPLES examples, each running the five command forms on
at most MAX_POINTS sweep points, take about 3 s on a 2-vCPU x86-64 VM.

A scenario built in code holds what no file can: None, bools, numpy scalars,
ints past the double range and strings in any field.  The sections store
every real number as a Python float (an int in sweep.points), so no numpy
arithmetic and no warning reaches the formulas.  The sweeps and full_report
validate what they are given, so each call either raises ValidationError,
DomainError or OverflowError naming a field, or returns finite output, with
warnings as errors.  CODE_EXAMPLES examples take about 1 s.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
import xml.etree.ElementTree as ET
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lambda_mixer.cli import DEFAULT_DABS_SPEC, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from lambda_mixer.design import full_report
from lambda_mixer.errors import DomainError, ValidationError
from lambda_mixer.model import (
    EitMedium,
    RamanAbsorber,
    ScanOptions,
    Scenario,
    SweepSpec,
    field_specs,
)
from lambda_mixer.propagation import n_fwm
from lambda_mixer.scan import sweep_absorber_depth, sweep_detuning
from lambda_mixer.scenario import load_scenario, resolve_scenario_path

MAX_EXAMPLES = 100
MAX_POINTS = 2001  # sweep.points; validation admits up to 100,000, which has tests of its own
FORMS = [["scan-detuning"], ["scan-dabs"], ["design"], ["design", "--json"], ["noise"]]
SCAN_FILES = ["o.csv", "o.json", "o.svg"]

SHIPPED = [
    load_scenario(str(path))[0]
    for path in sorted(resolve_scenario_path("fig2_default").parent.glob("*.toml"))
]
SHIPPED_VALUES = {
    (section.name, spec.name): {
        getattr(getattr(scenario, section.name), spec.name)
        for scenario in SHIPPED
        if getattr(scenario, section.name) is not None
    }
    for section in field_specs(Scenario)
    for spec in field_specs(section.type)
}

# the fig2 medium and absorber, without a sweep
FIG2 = """\
[eit]
gamma_ge = 300.0
gamma_gs = 0.033189889272
delta_control = 3036.0
omega_c = 50.0
depth = 6.465019137871

[absorber]
omega_a = 5000.0
delta_2 = 10000.0
gamma_ab = 300.0
gamma_ac = 300.0
gamma_cb = 0.064
depth_2l = 85.0
"""

# a number as the CLI prints it (repr, or %g in the design table), not part of a word
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:inf|nan|\d+(?:\.\d*)?(?:e[-+]?\d+)?)(?![\w.])")


def field_values(section: str, spec):
    """Every value the field's declaration admits, and the values the shipped scenarios hold."""
    if spec.choices:
        return st.sampled_from(spec.choices)
    if spec.type is bool:
        return st.booleans()
    if spec.type is int:
        drawn = st.integers(max_value=MAX_POINTS)
    else:
        drawn = st.floats(allow_nan=False, allow_infinity=False)
    if spec.rule is not None:
        drawn = drawn.filter(spec.rule[0])
    shipped = SHIPPED_VALUES[section, spec.name] - {None}
    return st.one_of(st.sampled_from(sorted(shipped)), drawn) if shipped else drawn


def value_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f'"{value}"' if isinstance(value, str) else repr(value)


def one_in(draw, n: int) -> bool:
    """True with chance 1/n; shrinks to False."""
    return draw(st.integers(0, n - 1)) == n - 1


@st.composite
def scenario_texts(draw) -> str:
    """A scenario file: a shipped scenario with some of its fields and sections redrawn.

    Each field of the base is redrawn with chance 1/8; a redrawn optional field
    may be left out.  Each optional section of the base is left out with chance
    1/8, and each section it lacks is drawn in full with chance 1/2.
    """
    base = draw(st.sampled_from(SHIPPED))
    lines = []
    for section in field_specs(Scenario):
        obj = getattr(base, section.name)
        if obj is None:
            if not draw(st.booleans()):
                continue
        elif not section.required and one_in(draw, 8):
            continue
        lines.append(f"[{section.name}]")
        for spec in field_specs(section.type):
            value = None if obj is None else getattr(obj, spec.name)
            if value is None or one_in(draw, 8):
                if not spec.required and draw(st.booleans()):
                    continue
                value = draw(field_values(section.name, spec))
            lines.append(f"{spec.name} = {value_text(value)}")
    return "\n".join(lines) + "\n"


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_finite_numbers(text: str) -> None:
    for number in NUMBER.findall(text):
        assert math.isfinite(float(number)), (number, text)


def run(form: list[str], scenario: Path) -> tuple[int, str]:
    argv = [form[0], "--scenario", str(scenario), *form[1:]]
    if form[0].startswith("scan-"):
        argv += ["--out", str(scenario.with_name("o.csv")), "--json", "--svg"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


def check_form(form: list[str], scenario: Path) -> None:
    for path in scenario.parent.iterdir():
        if path != scenario:
            path.unlink()
    code, stdout = run(form, scenario)
    written = sorted(p.name for p in scenario.parent.iterdir() if p != scenario)
    assert 0 <= code <= 4
    if code in (EXIT_VALIDATION, EXIT_IO):
        assert written == []
    if code == EXIT_OK:
        assert_finite_numbers(stdout)
        if form[0].startswith("scan-"):
            assert written == SCAN_FILES
            assert_finite_numbers(scenario.with_name("o.csv").read_text())
    if form == ["design", "--json"] and stdout:
        json.loads(stdout, parse_constant=reject_constant)
    if "o.json" in written:
        json.loads(scenario.with_name("o.json").read_text(), parse_constant=reject_constant)
    if "o.svg" in written:
        assert ET.parse(scenario.with_name("o.svg")).getroot().tag.endswith("svg")
    if form[0] == "scan-detuning" and "o.csv" in written:
        rows = scenario.with_name("o.csv").read_text().splitlines()[1:]
        axis = [float(row.split(",", 1)[0]) for row in rows]
        assert all(a < b for a, b in zip(axis, axis[1:]))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(scenario_texts())
# a detuning sweep narrower than its points: 0.0, 0.0, 5e-324 rendered an axis with log10(0)
@example(FIG2 + '[sweep]\naxis = "two-photon-detuning"\nstart = 0.0\nstop = 5e-324\npoints = 3\n')
# a subnormal depth axis: no tick step of 1, 2, 2.5, 5 or 10 times 1e-322 covers its span
@example(
    FIG2 + '[sweep]\naxis = "absorber-depth"\nstart = 5e-321\nstop = 1e-320\npoints = 3\n'
    'scale = "logarithmic"\n'
)
# gamma_ab * r underflows to 0, and with gamma_cb = 0 the effective depth was 0 / 0
@example(
    FIG2.replace("gamma_ab = 300.0", "gamma_ab = 5e-324").replace("gamma_cb = 0.064", "gamma_cb = 0.0")
)
# gamma_ab * r overflows: the absorber line width was inf, and design passed with it
@example(
    FIG2.replace("omega_a = 5000.0", "omega_a = 272.0")
    .replace("delta_2 = 10000.0", "delta_2 = 6e-08")
    .replace("gamma_ab = 300.0", "gamma_ab = 1e289")
    + "[options]\ndelta_a = 14677.0\n"
)
# gamma_ge * sqrt(depth) underflows to 0: the EIT and Stokes widths divided by it
@example(
    FIG2.replace("gamma_ge = 300.0", "gamma_ge = 5e-324")
    .replace("gamma_gs = 0.033189889272", "gamma_gs = 0.0")
    .replace("depth = 6.465019137871", "depth = 0.25")
    + "[options]\ndelta_a = 14677.0\n"
)
# a logarithmic grid up to the float maximum: numpy warned of an overflow in geomspace
@example(
    FIG2 + '[sweep]\naxis = "two-photon-detuning"\nstart = 0.01\nstop = 1.7976931348622103e+308\n'
    'points = 60\nscale = "logarithmic"\n'
)
# omega_c**2 overflows a double: both scans exited 2 with an OverflowError naming no field
@example(FIG2.replace("omega_c = 50.0", "omega_c = 1e155"))
def test_every_command_gives_finite_output_or_a_clean_exit(text):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.toml"
        scenario.write_text(text)
        for form in FORMS:
            check_form(form, scenario)


# ---- the same contract for scenarios built in code ----

CODE_EXAMPLES = 150
SMALL_DEPTHS = SweepSpec(axis="absorber-depth", start=0.0, stop=10.0, points=3)
SECTIONS = {section.name: section for section in field_specs(Scenario)}
FIELDS = set(SECTIONS) | {
    f"{name}.{spec.name}" for name, section in SECTIONS.items() for spec in field_specs(section.type)
}
# a field or section as a DomainError names it: sweep.points, omega_c, absorber
NAMED = re.compile(r"\b(?:{})\b".format("|".join(sorted({f.split(".")[-1] for f in FIELDS}))))


# where a step leaves a type's range: float32's maximum, about the square root of the
# double maximum, the double maximum and inf, int64's maximum, and ints past the doubles
EDGES = [
    np.float32(3.4e38),
    np.finfo(np.float32).max,
    np.float64(1.3e154),
    np.float64(1e200),
    np.finfo(np.float64).max,
    np.float64(1.8e308),
    np.int64(2**63 - 1),
    10**200,
    10**309,
    2**1100,
]


def code_values(section: str, spec):
    """A value for one field: any the file property draws, or one no file can hold."""
    return st.one_of(
        field_values(section, spec),
        st.sampled_from([None, True, False, np.True_, "1", "linear", "absorber-depth"]),
        st.floats(),  # nan and the infinities too
        st.floats().map(np.float64),
        st.floats(width=32).map(np.float32),
        st.integers(-(2**1100), 2**1100),
        st.integers(-5, 50).map(np.int64),
        st.sampled_from(EDGES).flatmap(lambda x: st.sampled_from([x, -x])),
    )


@st.composite
def code_scenarios(draw) -> Scenario:
    """A shipped scenario with some fields, or whole sections, replaced in code.

    Each field is replaced with chance 1/8.  A section is replaced by None, or
    by an object of another type, with chance 1/32 each.
    """
    base = draw(st.sampled_from(SHIPPED))
    sections = {}
    for name, section in SECTIONS.items():
        obj = getattr(base, name)
        if obj is None and draw(st.booleans()):
            obj = {"absorber": SHIPPED[0].absorber, "sweep": SMALL_DEPTHS}[name]
        if obj is not None:
            changes = {
                spec.name: draw(code_values(name, spec))
                for spec in field_specs(section.type)
                if one_in(draw, 8)
            }
            obj = replace(obj, **changes)
        if one_in(draw, 32):
            obj = None
        elif one_in(draw, 32):
            obj = draw(st.sampled_from([base.eit, ScanOptions(), SMALL_DEPTHS, "eit"]))
        sections[name] = obj
    return Scenario(**sections)


def check_call(call, scenario: Scenario):
    """The call's output, or None where it raised a clear error naming a field."""
    try:
        return call(scenario)
    except ValidationError as err:
        assert err.violations and {v.field for v in err.violations} <= FIELDS, err.violations
    except (DomainError, OverflowError) as err:  # an OverflowError is the CLI's exit 2
        assert NAMED.search(str(err)), str(err)
    return None


@settings(max_examples=CODE_EXAMPLES, deadline=None)
@given(code_scenarios())
# the defects of sweeps that did not validate: a misleading DomainError, a
# bare ValueError, a TypeError, and a clean sweep of a medium with gamma_gs > gamma_ge
@example(Scenario(eit=EitMedium(-50.0, 0.064, 3036.0, 50.0, 15.0)))
@example(Scenario(eit=EitMedium(300.0, 0.064, 3036.0, 50.0, -3.0)))
@example(Scenario(eit=EitMedium(300.0, 0.064, 3036.0, None, 15.0)))
@example(Scenario(eit=EitMedium(300.0, 1e9, 3036.0, 50.0, 15.0)))
# a wrongly typed option: "no" applied the light shift without a word
@example(
    Scenario(
        eit=EitMedium(300.0, 0.064, 3036.0, 50.0, 15.0),
        absorber=RamanAbsorber(5000.0, 10000.0, 300.0, 300.0, 0.064, 85.0),
        options=ScanOptions(stokes_seed="1", apply_light_shift="no"),
    )
)
# full_report computed in float32: numpy warned of an overflow in scalar multiply
@example(
    Scenario(
        eit=EitMedium(300.0, 0.064, 3036.0, 50.0, 15.0),
        absorber=RamanAbsorber(103.9, 14700.0, 300.0, 300.0, np.float32(3.4e38), 85.0),
        options=ScanOptions(delta_a=14677.0),
    )
)
# gamma_ge / delta_a overflows to -inf: a passing report's OverflowError named no field
@example(
    Scenario(
        eit=EitMedium(300.0, 0.033189889272, 3036.0, 50.0, 6.465019137871),
        absorber=RamanAbsorber(5000.0, 10000.0, 300.0, 300.0, 0.064, 85.0),
        options=ScanOptions(delta_a=-2.225073858507e-311),
    )
)
# an int past the double range: int too large to convert to float, from inside the sweep
@example(Scenario(eit=EitMedium(300.0, 0.064, 10**200, 50.0, 15.0)))
def test_library_calls_validate_what_they_are_given(scenario):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning, say, fails the example
        sweeps = [check_call(sweep_detuning, scenario), check_call(depth_scan, scenario)]
        report = check_call(full_report, scenario)
    for sweep in (s for s in sweeps if s is not None):
        assert all(np.isfinite(column).all() for column in sweep.columns[:-1])
        assert sweep.flagged.dtype == bool
    if report is not None:
        values = [v for v in report.__dict__.values() if not isinstance(v, bool)]
        assert not any(math.isnan(v) for v in values)
        assert not report.overall or all(map(math.isfinite, values))


def depth_scan(scenario: Scenario):
    return sweep_absorber_depth(scenario, SMALL_DEPTHS)


SEC5 = load_scenario("sec5_proposed_mix")[0]
FIG2_MEDIUM = asdict(load_scenario("fig2_default")[0].eit)


def default_depth_scan(scenario: Scenario):
    return sweep_absorber_depth(scenario, DEFAULT_DABS_SPEC)


def noise_photons(scenario: Scenario):
    return n_fwm(scenario.eit)


@pytest.mark.parametrize(
    "section, changes, call, message",
    [
        ("absorber", dict(omega_a=1e200), sweep_detuning, "(omega_a / delta_2)**2 overflows"),
        ("absorber", dict(omega_a=1e200), full_report, "(omega_a / delta_2)**2 overflows"),
        ("absorber", dict(omega_a=1e200, delta_2=1e200), sweep_detuning, "omega_a**2 / delta_2 overflows"),
        ("eit", dict(gamma_ge=1e200), full_report, "noise ratio is inf"),
        # the peak refinement squares a peak difference past the double range
        (
            "eit",
            dict(FIG2_MEDIUM, delta_control=6.0),
            default_depth_scan,
            "peak refinement overflows at d_abs = ",
        ),
        (
            "eit",
            dict(delta_control=3.0),
            noise_photons,
            "n_fwm = sinh(depth * gamma_ge / delta_control)**2 is inf",
        ),
    ],
)
def test_overflow_names_its_fields(section, changes, call, message):
    # finite values that pass validation, where a power leaves the double range
    scenario = replace(SEC5, **{section: replace(getattr(SEC5, section), **changes)})
    with pytest.raises(OverflowError) as err:
        call(scenario)
    text = str(err.value)
    assert text.startswith(message)
    assert all(f"{name}=" in text and repr(value) in text for name, value in changes.items())
