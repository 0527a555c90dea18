import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import find_peaks

import lambda_mixer
from lambda_mixer.cli import (
    DABS_CSV_HEADER,
    DETUNING_CSV_HEADER,
    EXIT_DESIGN_FAIL,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from lambda_mixer.design import full_report
from lambda_mixer.model import validate
from lambda_mixer.scan import default_detuning_spec, sweep_absorber_depth, sweep_detuning
from lambda_mixer.scenario import load_scenario, resolve_scenario_path, scenario_search_dirs


def shipped_with(tmp_path, name, old, new):
    """Write shipped scenario ``name`` with line ``old`` replaced by ``new``; return its path."""
    text = resolve_scenario_path(name).read_text()
    assert old in text.splitlines()
    path = tmp_path / f"{name}_edited.toml"
    path.write_text(text.replace(old, new))
    return path


def run_python(*args, **kwargs):
    """Run ``python *args`` in a fresh interpreter that imports the lambda_mixer under test."""
    paths = [str(Path(lambda_mixer.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **kwargs
    )


def limit_address_space():
    """Cap the child at 2 GiB, so that a loop that keeps allocating ends in MemoryError."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")

BROKEN_SCENARIO = """\
[eit]
gamma_ge = -1.0
gamma_gs = 0.064
delta_control = 3036.0
omega_c = -50.0
depth = 15.0
"""

SMALL_SWEEP = """\
[eit]
gamma_ge = 300.0
gamma_gs = 0.03
delta_control = 3036.0
omega_c = 50.0
depth = 6.0

[absorber]
omega_a = 5000.0
delta_2 = 10000.0
gamma_ab = 300.0
gamma_cb = 0.064
depth_2l = 85.0

[sweep]
axis = "absorber-depth"
start = 0.5
stop = 2.0
points = 2

[options]
stokes_seed = 1.0
apply_light_shift = false
"""


NO_ABSORBER = SMALL_SWEEP.split("[absorber]")[0] + "[options]\ndelta_a = 14677.0\n"


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


class TestScanDetuning:
    def test_fig4_csv(self, tmp_path):
        out = tmp_path / "fig4.csv"
        code = main(["scan-detuning", "--scenario", "fig4_dabs_0.83", "--out", str(out)])
        assert code == EXIT_OK
        header, data = read_csv(out)
        assert header == DETUNING_CSV_HEADER
        assert data.shape == (401, 5)
        probe = data[:, 1]
        peaks, _ = find_peaks(probe, prominence=1e-3 * probe.max())
        assert len(peaks) >= 2

    def test_exact_absorber_needs_no_line_data(self, tmp_path):
        # depth_2l alone sets the absorber's strength; no [line] section is needed
        scenario = shipped_with(
            tmp_path,
            "fig4_dabs_4.16",
            "apply_light_shift = false",
            "apply_light_shift = false\nexact_absorber = true",
        )
        out = tmp_path / "exact.csv"
        code = main(["scan-detuning", "--scenario", str(scenario), "--out", str(out)])
        assert code == EXIT_OK
        header, data = read_csv(out)
        assert header == DETUNING_CSV_HEADER
        assert data.shape == (401, 5)

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code = main(["scan-detuning", "--scenario", "does_not_exist", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "does_not_exist" in err
        assert "PosixPath(" not in err
        for base in scenario_search_dirs():
            for name in ("does_not_exist", "does_not_exist.toml"):
                assert str(base / name) in err

    def test_invalid_scenario_lists_all_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text(BROKEN_SCENARIO)
        code = main(["scan-detuning", "--scenario", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "gamma_ge" in err and "omega_c" in err

    def test_infinite_stokes_seed_rejected(self, tmp_path, capsys):
        scenario = shipped_with(tmp_path, "fig4_dabs_0.83", "stokes_seed = 1.0", "stokes_seed = inf")
        code = main(["scan-detuning", "--scenario", str(scenario), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        assert "options.stokes_seed = inf: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_svg_written(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan-detuning", "--scenario", "fig4_dabs_0.83", "--out", str(out), "--svg"]) == EXIT_OK
        svg = (tmp_path / "scan.svg").read_text()
        assert svg.startswith("<svg")
        assert 'width="800"' in svg
        assert "polyline" in svg
        assert "MHz" in svg
        assert "stroke-dasharray" in svg  # absorber profile dashed

    def test_svg_axis_span_of_a_few_ulps(self, tmp_path):
        # stop is the float after start, so start + step == start for every tick step
        sweep = textwrap.dedent(
            """
            [sweep]
            axis = "two-photon-detuning"
            start = 1e20
            stop = 1.0000000000000002e20
            points = 2
            """
        )
        scenario = tmp_path / "ulps.toml"
        scenario.write_text(resolve_scenario_path("fig4_dabs_0.83").read_text() + sweep)
        out = tmp_path / "ulps.csv"
        command = ["scan-detuning", "--scenario", str(scenario), "--out", str(out), "--svg"]
        result = run_python("-m", "lambda_mixer", *command, preexec_fn=limit_address_space, timeout=120)
        assert result.returncode == EXIT_OK, result.stderr
        root = ET.parse(out.with_suffix(".svg")).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"

    def test_json_requires_out(self, capsys):
        assert main(["scan-detuning", "--scenario", "fig4_dabs_0.83", "--json"]) == EXIT_VALIDATION
        # the flags are checked before the scenario is looked up, so exit 1 wins over exit 3
        assert main(["scan-detuning", "--scenario", "does_not_exist", "--svg"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == ["--json/--svg require --out"] * 2

    @pytest.mark.parametrize("flag, name", [("--json", "r.json"), ("--svg", "r.svg")])
    def test_out_colliding_with_sidecar_rejected(self, tmp_path, capsys, flag, name):
        out = tmp_path / name
        code = main(["scan-detuning", "--scenario", "fig4_dabs_0.83", "--out", str(out), flag])
        assert code == EXIT_VALIDATION
        assert "sidecar" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_when_no_out(self, capsys):
        assert main(["scan-detuning", "--scenario", "fig4_dabs_0.83"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == DETUNING_CSV_HEADER
        assert len(lines) == 402


class TestScanDabs:
    def test_fig2_first_and_last_rows(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(["scan-dabs", "--scenario", "fig2_default", "--out", str(out)])
        assert code == EXIT_OK
        header, data = read_csv(out)
        assert header == DABS_CSV_HEADER
        assert data.shape == (60, 4)
        assert data[0, 1] == pytest.approx(2.0, rel=0.02)
        assert data[-1, 1] == pytest.approx(0.95, rel=0.02)
        stokes = data[:, 2]
        assert all(b <= a + 1e-12 for a, b in zip(stokes, stokes[1:]))

    def test_two_point_sweep(self, tmp_path):
        scenario = tmp_path / "small.toml"
        scenario.write_text(SMALL_SWEEP)
        out = tmp_path / "small.csv"
        assert main(["scan-dabs", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        _, data = read_csv(out)
        assert data.shape == (2, 4)

    def test_infinite_sweep_stop_rejected(self, tmp_path, capsys):
        scenario = shipped_with(tmp_path, "fig2_default", "stop = 100.0", "stop = inf")
        code = main(["scan-dabs", "--scenario", str(scenario), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        assert "sweep.stop = inf: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_repeated_runs_give_identical_bytes(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.csv"
            assert main(["scan-dabs", "--scenario", "fig2_default", "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_negative_depth_start_rejected(self, tmp_path, capsys):
        # a linear scale, so the logarithmic-scale rule does not report first
        scenario = shipped_with(tmp_path, "fig2_default", "start = 0.01", "start = -5.0")
        text = scenario.read_text().replace('scale = "logarithmic"', 'scale = "linear"')
        scenario.write_text(text)
        lineno = text.splitlines().index("start = -5.0") + 1
        code = main(["scan-dabs", "--scenario", str(scenario), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"line {lineno}: sweep.start = -5.0: must be nonnegative on the absorber-depth axis" in err
        assert not (tmp_path / "x.csv").exists()

    def test_svg_written(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["scan-dabs", "--scenario", "fig2_default", "--out", str(out), "--svg"]) == EXIT_OK
        svg = (tmp_path / "fig2.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


RECORD_FIELDS = (
    "axis_value",
    "probe_transmission",
    "stokes_output",
    "absorber_profile",
    "eit_reference",
    "flagged",
)


class TestScanCommands:
    @pytest.mark.parametrize(
        "command, name, rows",
        [("scan-detuning", "fig4_dabs_41.6", 401), ("scan-dabs", "fig2_default", 60)],
        ids=["scan-detuning", "scan-dabs"],
    )
    def test_json_sidecar_round_trips(self, tmp_path, command, name, rows):
        out = tmp_path / "scan.csv"
        assert main([command, "--scenario", name, "--out", str(out), "--json"]) == EXIT_OK
        record = json.loads((tmp_path / "scan.json").read_text())
        assert json.loads(json.dumps(record)) == record
        assert record["command"] == command
        assert record["flagged_points"] == []
        assert record["scenario"]["eit"]["omega_c"] == 50.0
        scenario = validate(load_scenario(name)[0])
        if command == "scan-detuning":
            records = sweep_detuning(scenario)
        else:
            inner = default_detuning_spec(scenario.eit)
            records = sweep_absorber_depth(scenario, scenario.sweep, inner_spec=inner)
        assert len(records) == rows
        assert [list(entry.items()) for entry in record["results"]] == [
            [(field, getattr(r, field)) for field in RECORD_FIELDS] for r in records
        ]

    @pytest.mark.parametrize(
        "command, scenario_name, out_name, flags",
        [
            ("scan-detuning", "s.toml", "s.toml", []),
            ("scan-dabs", "s.json", "s.csv", ["--json"]),
            ("scan-dabs", "s.svg", "s.csv", ["--json", "--svg"]),
        ],
        ids=["csv", "json-sidecar", "svg-sidecar"],
    )
    def test_output_overwriting_scenario_rejected(
        self, tmp_path, capsys, command, scenario_name, out_name, flags
    ):
        scenario = tmp_path / scenario_name
        scenario.write_bytes(resolve_scenario_path("fig2_default").read_bytes())
        before = scenario.read_bytes()
        argv = [command, "--scenario", str(scenario), "--out", str(tmp_path / out_name), *flags]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "scenario file" in err[0]
        assert scenario.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [scenario_name]

    @pytest.mark.parametrize("omega_c", ["1e-200", "1e-160"])
    @pytest.mark.parametrize(
        "command, name", [("scan-detuning", "fig4_dabs_4.16"), ("scan-dabs", "fig2_default")]
    )
    def test_default_detuning_window_too_narrow(self, tmp_path, capsys, command, name, omega_c):
        # omega_c**2 underflows to 0 or to a few subnormals: the window holds fewer than 401 values
        scenario = shipped_with(tmp_path, name, "omega_c = 50.0", f"omega_c = {omega_c}")
        out = tmp_path / "o.csv"
        argv = [command, "--scenario", str(scenario), "--out", str(out), "--json", "--svg"]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].endswith("is too narrow for 401 distinct detunings")
        assert [p.name for p in tmp_path.iterdir()] == [scenario.name]


# SHA-256 of the CSV and of the SVG that `COMMAND --scenario NAME --out o.csv --svg`
# writes, recorded with numpy 2.4 on x86-64 when the sweeps still returned lists of
# records.  numpy builds that round their transcendental kernels differently would
# change the last digits, and with them these digests.
GOLDEN = {
    ("scan-detuning", "fig2_default"): (
        "9fddb87f1bd4523af1f2fdc1e278898755d17761510848a4a83ed0c2582b9b19",
        "ed4dc8e9dbbe312f358230bbf994189097a98114bba35557ac7aebcb52821d99",
    ),
    ("scan-detuning", "fig4_dabs_0.83"): (
        "dece38045f751473eac2583b3fd05b4fcdd2eb512bf79aee0b725cdb26b00a0a",
        "cf4a4c114c882529a44fad2ec53b3881af78d02859c4382dc7a17eaa174cfd74",
    ),
    ("scan-detuning", "fig4_dabs_4.16"): (
        "1368ba38f85fc9d72540397e27f87dcb9d60be70bde97128176aa7bae7ee24cd",
        "027b4379e982757957caae27a0c14645d5a8518e2af94d09c0837e1ad043c0e3",
    ),
    ("scan-detuning", "fig4_dabs_41.6"): (
        "30534be5e4d29c11ec4f4302a9a37e13304b93d11ca8b560a316c22661392a75",
        "dc839149ee9ec33e0b0ffc6db8d6bd0cb3c1dc6415738319a53df9db488ebdc4",
    ),
    ("scan-detuning", "sec5_as_performed"): (
        "1379843d08bc8e709cd7a99690136f94158eadfaf7e977a9b3f6eb1e2360f5f2",
        "f5c0f3acc68e8d49ab2feb01ad269a9b58e4e7f0eb4b9fc32f7c6e2ada90da8f",
    ),
    ("scan-detuning", "sec5_proposed_mix"): (
        "c3d2e3b7bc486b819c20c833bef24c3fd8ec2cd05f3e656f0d43518a033eec4a",
        "4569400fbd7102cb4e980f2ef6982067ea2c05f28c1ea12bdd937ef0c3b0e529",
    ),
    ("scan-dabs", "fig2_default"): (
        "412df8d32835ab5ef33839ec81d32fc7ffdcc1d45e389b397b8bbdfbe507bb22",
        "aadf5e822859360b42161d553127352085f8cf3b18d0b64f8e6884d529f07d4d",
    ),
    ("scan-dabs", "fig4_dabs_0.83"): (
        "e6f22195ce39534e2e6dd468cc69406859872e4be5ede37cd7e6feaecc4b0fa2",
        "050b5ea61d1c3aaa07dca3631dede713c2ff5e84e9576e7f723046186931fce7",
    ),
    ("scan-dabs", "fig4_dabs_4.16"): (
        "3c663bd449c4d742431b0883b1fa6be53ec080b891128d4253a2358a70a1aaaf",
        "e59b84091072b75f34c7082990e836a31d8bfc3e7175d77ef9c4f161e63f009b",
    ),
    ("scan-dabs", "fig4_dabs_41.6"): (
        "8dea73df5dad7bad3aae7b2046384cbb42bedafc7b351f5618e5e601cd9a18c6",
        "c471389093e74c76872e3d7704121f4e28a620e96eea287223664ea8975b2383",
    ),
    ("scan-dabs", "sec5_as_performed"): (
        "94c2e6a769e07396d1bf9ce5993645bb7d427d6ac4d2f1ed6af655b530b75653",
        "7d234edab9d31ef4ca51ab0c4f2b89360893624dcc67588dda8e31a836555ab3",
    ),
    ("scan-dabs", "sec5_proposed_mix"): (
        "ec29283cbe0c8ce467f155741b27b0275314d4d9c14f27790e586265854e1e0e",
        "b7240b2e39d4e2cb24eb8ca0ab6bc7ab227d76d9e9ab0863294c4a42c01b13cc",
    ),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("command, name", sorted(GOLDEN), ids="-".join)
    def test_csv_svg_and_stdout_bytes(self, tmp_path, capsys, command, name):
        out = tmp_path / "o.csv"
        assert main([command, "--scenario", name, "--out", str(out), "--svg"]) == EXIT_OK
        assert main([command, "--scenario", name]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.encode() == out.read_bytes()
        files = (out, out.with_suffix(".svg"))
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in files) == GOLDEN[command, name]


class TestAtomicWrites:
    def test_failed_render_leaves_old_svg(self, tmp_path, monkeypatch):
        # a lone surrogate cannot be encoded, so the write fails after the file is opened
        from lambda_mixer import svgplot

        out = tmp_path / "scan.csv"
        out.with_suffix(".svg").write_text("old svg")
        monkeypatch.setattr(svgplot, "render_depth_scan", lambda sweep: "<svg>\ud800</svg>")
        with pytest.raises(UnicodeEncodeError):
            main(["scan-dabs", "--scenario", "fig2_default", "--out", str(out), "--svg"])
        assert out.with_suffix(".svg").read_text() == "old svg"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv", "scan.svg"]

    def test_failed_replace_leaves_old_csv(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError(f"cannot replace {dst}")

        out = tmp_path / "scan.csv"
        out.write_text("old csv")
        monkeypatch.setattr(os, "replace", refuse)
        code = main(["scan-detuning", "--scenario", "fig4_dabs_0.83", "--out", str(out)])
        assert code == EXIT_IO
        assert "cannot replace" in capsys.readouterr().err
        assert out.read_text() == "old csv"
        assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]


class TestDesign:
    def test_proposed_mix_table(self, capsys):
        code = main(["design", "--scenario", "sec5_proposed_mix"])
        assert code == EXIT_DESIGN_FAIL  # bandwidth criterion fails at this point
        out = capsys.readouterr().out
        assert "1.48" in out
        assert "0.000543" in out or "0.00054" in out
        assert "0.637" in out
        assert "[FAIL]" in out and "[PASS]" in out

    def test_as_performed_rabi_failure(self, capsys):
        code = main(["design", "--scenario", "sec5_as_performed"])
        assert code == EXIT_DESIGN_FAIL
        out = capsys.readouterr().out
        rabi_line = next(line for line in out.splitlines() if "Rabi window" in line)
        assert "FAIL" in rabi_line

    def test_json_equals_in_memory_report(self, capsys):
        code = main(["design", "--scenario", "sec5_proposed_mix", "--json"])
        assert code == EXIT_DESIGN_FAIL
        parsed = json.loads(capsys.readouterr().out)
        scenario, _ = load_scenario("sec5_proposed_mix")
        assert parsed == asdict(full_report(scenario))

    def test_unreachable_absorber_target_exits_design_fail(self, tmp_path, capsys):
        # target 10 x 15 = 150 exceeds the depth_2l = 85 saturation ceiling
        scenario = shipped_with(
            tmp_path, "sec5_proposed_mix", "target_depth_ratio = 1.1", "target_depth_ratio = 10.0"
        )
        assert main(["design", "--scenario", str(scenario)]) == EXIT_DESIGN_FAIL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("target depth 150 is not reachable")

    def test_nothing_to_invert_stays_validation_failure(self, tmp_path, capsys):
        scenario = shipped_with(tmp_path, "sec5_proposed_mix", "gamma_cb = 0.064", "gamma_cb = 0.0")
        assert main(["design", "--scenario", str(scenario)]) == EXIT_VALIDATION
        assert "nothing to invert" in capsys.readouterr().err

    def test_missing_inputs_are_listed(self, tmp_path, capsys):
        assert main(["design", "--scenario", "fig2_default"]) == EXIT_VALIDATION
        scenario = tmp_path / "no_absorber.toml"
        scenario.write_text(NO_ABSORBER)
        assert main(["design", "--scenario", str(scenario)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "options.delta_a = None: design report requires the Raman control detuning",
            "absorber = None: design report requires an absorber section",
        ]

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("omega_c = 50.0", "omega_c = 0.0", "raman_x"),
            ("depth = 15.0", "depth = 0.0", "bandwidth_rhs"),
        ],
    )
    def test_json_is_strict_when_a_figure_is_infinite(self, tmp_path, capsys, old, new, key):
        scenario = shipped_with(tmp_path, "sec5_proposed_mix", old, new)
        code = main(["design", "--scenario", str(scenario), "--json"])
        assert code == EXIT_DESIGN_FAIL
        parsed = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert parsed[key] == "inf"


class TestNoise:
    def test_sec5_values(self, capsys):
        assert main(["noise", "--scenario", "sec5_proposed_mix"]) == EXIT_OK
        out = capsys.readouterr().out
        values = {
            line.split(" = ")[0]: float(line.split(" = ")[1]) for line in out.splitlines()
        }
        theta = 15.0 * 300.0 / 3036.0
        assert values["n_fwm"] == pytest.approx(math.sinh(theta) ** 2, rel=1e-12)
        assert values["noise_ratio"] == pytest.approx(5e-4, rel=0.20)
        assert values["n_abs"] == pytest.approx(values["n_fwm"] * values["noise_ratio"], rel=1e-12)

    def test_zero_depth_medium_reports_exact_zero(self, tmp_path, capsys):
        text = SMALL_SWEEP.replace("depth = 6.0", "depth = 0.0")
        scenario = tmp_path / "zero.toml"
        scenario.write_text(text)
        assert main(["noise", "--scenario", str(scenario)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n_fwm = 0.0" in out
        assert "noise_ratio = 0.0" in out

    def test_zero_absorber_is_domain_error(self, tmp_path, capsys):
        text = SMALL_SWEEP.replace("omega_a = 5000.0", "omega_a = 0.0")
        scenario = tmp_path / "noabs.toml"
        scenario.write_text(text)
        assert main(["noise", "--scenario", str(scenario)]) == EXIT_VALIDATION
        assert "absorber depth" in capsys.readouterr().err
        scenario.write_text(NO_ABSORBER)
        assert main(["noise", "--scenario", str(scenario)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "noise command requires an absorber section\n"

    def test_overflowing_n_abs_exits_numerical(self, tmp_path, capsys):
        # theta = 300: n_fwm ~ 9e259 and the noise ratio ~ 4e130 are finite, their product is not
        scenario = shipped_with(tmp_path, "sec5_proposed_mix", "depth = 15.0", "depth = 3036.0")
        scenario.write_text(scenario.read_text().replace("depth_2l = 85.0", "depth_2l = 1053.3"))
        assert main(["noise", "--scenario", str(scenario)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical overflow: n_abs = noise_ratio * n_fwm = inf\n"


class TestInvocation:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_VALIDATION

    def test_flagged_points_exit_numerical(self, tmp_path, capsys, monkeypatch):
        import lambda_mixer.cli as cli
        from lambda_mixer import scan
        from lambda_mixer.scan import Sweep

        flagged = Sweep(*(np.zeros(1) for _ in range(5)), np.ones(1, dtype=bool))
        monkeypatch.setattr(scan, "sweep_detuning", lambda *a, **k: flagged)
        out = tmp_path / "flagged.csv"
        code = main(["scan-detuning", "--scenario", "fig4_dabs_0.83", "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.splitlines() == ["warning: 1 of 1 grid point(s) failed numerically (axis 0 .. 0)"]
        assert out.exists()  # CSV still written for the good points

    def test_overflowing_sweep_warns_in_one_line(self, tmp_path, capsys):
        scenario = shipped_with(
            tmp_path, "sec5_proposed_mix", "delta_control = 3036.0", "delta_control = 3.0"
        )
        out = tmp_path / "overflow.csv"
        code = main(["scan-detuning", "--scenario", str(scenario), "--out", str(out), "--json"])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: 401 of 401 grid point(s) failed numerically (axis ")
        assert len(json.loads(out.with_suffix(".json").read_text())["flagged_points"]) == 401

    @pytest.mark.parametrize("command", ["noise", "design"])
    def test_overflow_exits_numerical_without_traceback(self, tmp_path, command):
        scenario = shipped_with(
            tmp_path, "sec5_proposed_mix", "delta_control = 3036.0", "delta_control = 3.0"
        )
        result = run_python("-m", "lambda_mixer", command, "--scenario", str(scenario))
        assert result.returncode == EXIT_NUMERICAL
        assert len(result.stderr.splitlines()) == 1
        assert "overflow" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "command, old, new",
        [
            (["noise"], "depth_2l = 85.0", "depth_2l = 1e-320"),
            (["design"], "target_depth_ratio = 1.1", "target_depth_ratio = 1e-323"),
            (["design", "--json"], "target_depth_ratio = 1.1", "target_depth_ratio = 1e-323"),
        ],
        ids=["noise", "design", "design-json"],
    )
    def test_infinite_noise_ratio_exits_numerical(self, tmp_path, capsys, command, old, new):
        # the absorber depth is subnormal, so depth / d_abs is inf and so would be the ratio
        scenario = shipped_with(tmp_path, "sec5_proposed_mix", old, new)
        assert main([*command, "--scenario", str(scenario)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical overflow: noise ratio is inf at d_abs = ")

    def test_module_entry_point(self, tmp_path):
        result = run_python("-m", "lambda_mixer", "noise", "--scenario", "sec5_proposed_mix")
        assert result.returncode == 0
        assert "n_fwm" in result.stdout

    def test_import_leaves_scipy_integrate_and_signal_unloaded(self):
        # only method="adaptive-rk" imports scipy.integrate, lazily; no library code uses scipy.signal
        code = (
            "import sys, lambda_mixer; "
            "print([m for m in ('scipy.integrate', 'scipy.signal') if m in sys.modules])"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_cold_path_leaves_numpy_unloaded(self):
        # import, validation, design and noise are closed-form; only the scans need numpy
        code = textwrap.dedent(
            """
            import contextlib, io, sys

            import lambda_mixer
            loaded = ["import lambda_mixer"] if "numpy" in sys.modules else []
            import lambda_mixer.cli as cli
            loaded += ["import lambda_mixer.cli"] if "numpy" in sys.modules else []
            codes = []
            for command in (["design"], ["design", "--json"], ["noise"]):
                for name in ("sec5_proposed_mix", "sec5_as_performed"):
                    with contextlib.redirect_stdout(io.StringIO()):
                        codes.append(cli.main([*command, "--scenario", name]))
                    loaded += [f"{command} {name}"] if "numpy" in sys.modules else []
            print(codes, loaded)
            namespace = {}
            exec("from lambda_mixer import *", namespace)
            print(sorted(set(lambda_mixer.__all__) - set(namespace)))
            """
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [f"{[EXIT_DESIGN_FAIL] * 4 + [EXIT_OK] * 2} []", "[]"]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
