"""The input contract as a property of the command line.

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
"""

import contextlib
import io
import json
import math
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from lambda_mixer.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from lambda_mixer.model import Scenario, field_specs
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
