import json
import math
import os
import subprocess
import sys
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
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from lambda_mixer.design import full_report
from lambda_mixer.scenario import load_scenario, resolve_scenario_path


def shipped_with(tmp_path, name, old, new):
    """Write shipped scenario ``name`` with line ``old`` replaced by ``new``; return its path."""
    text = resolve_scenario_path(name).read_text()
    assert old in text.splitlines()
    path = tmp_path / f"{name}_edited.toml"
    path.write_text(text.replace(old, new))
    return path


def run_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports the lambda_mixer under test."""
    paths = [str(Path(lambda_mixer.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


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


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


class TestScanDetuning:
    def test_fig4_csv(self, tmp_path):
        out = tmp_path / "fig4.csv"
        code = main(["scan-detuning", "--scenario", "fig4_dabs_0.83", "--out", str(out), "--workers", "2"])
        assert code == EXIT_OK
        header, data = read_csv(out)
        assert header == DETUNING_CSV_HEADER
        assert data.shape == (401, 5)
        probe = data[:, 1]
        peaks, _ = find_peaks(probe, prominence=1e-3 * probe.max())
        assert len(peaks) >= 2

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code = main(["scan-detuning", "--scenario", "does_not_exist", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_IO
        assert "does_not_exist" in capsys.readouterr().err

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

    def test_json_sidecar_round_trips(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan-detuning", "--scenario", "fig4_dabs_41.6", "--out", str(out), "--json"]) == EXIT_OK
        record = json.loads((tmp_path / "scan.json").read_text())
        assert json.loads(json.dumps(record)) == record
        assert record["command"] == "scan-detuning"
        assert record["flagged_points"] == []
        assert len(record["results"]) == 401
        assert record["scenario"]["eit"]["omega_c"] == 50.0

    def test_svg_written(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan-detuning", "--scenario", "fig4_dabs_0.83", "--out", str(out), "--svg"]) == EXIT_OK
        svg = (tmp_path / "scan.svg").read_text()
        assert svg.startswith("<svg")
        assert 'width="800"' in svg
        assert "polyline" in svg
        assert "MHz" in svg
        assert "stroke-dasharray" in svg  # absorber profile dashed

    def test_json_requires_out(self, capsys):
        assert main(["scan-detuning", "--scenario", "fig4_dabs_0.83", "--json"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("flag, name", [("--json", "r.json"), ("--svg", "r.svg")])
    def test_out_colliding_with_sidecar_rejected(self, tmp_path, capsys, flag, name):
        out = tmp_path / name
        code = main(["scan-detuning", "--scenario", "fig4_dabs_0.83", "--out", str(out), flag])
        assert code == EXIT_VALIDATION
        assert "sidecar" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_when_no_out(self, capsys):
        assert main(["scan-detuning", "--scenario", "fig4_dabs_0.83", "--workers", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == DETUNING_CSV_HEADER
        assert len(lines) == 402


class TestScanDabs:
    def test_fig2_first_and_last_rows(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(["scan-dabs", "--scenario", "fig2_default", "--out", str(out), "--workers", "4"])
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

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        outputs = []
        for workers in ("1", "8"):
            out = tmp_path / f"w{workers}.csv"
            assert main(
                ["scan-dabs", "--scenario", "fig2_default", "--out", str(out), "--workers", workers]
            ) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_svg_written(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["scan-dabs", "--scenario", "fig2_default", "--out", str(out), "--svg"]) == EXIT_OK
        svg = (tmp_path / "fig2.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


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


class TestInvocation:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_VALIDATION

    def test_flagged_points_exit_numerical(self, tmp_path, capsys, monkeypatch):
        import lambda_mixer.cli as cli
        from lambda_mixer.scan import SpectrumRecord

        flagged = [
            SpectrumRecord(
                axis_value=0.0,
                probe_transmission=0.0,
                stokes_output=0.0,
                absorber_profile=0.0,
                eit_reference=0.0,
                flagged=True,
            )
        ]
        monkeypatch.setattr(cli, "sweep_detuning", lambda *a, **k: flagged)
        out = tmp_path / "flagged.csv"
        code = main(["scan-detuning", "--scenario", "fig4_dabs_0.83", "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        assert "failed numerically" in capsys.readouterr().err
        assert out.exists()  # CSV still written for the good points

    def test_module_entry_point(self, tmp_path):
        result = run_python("-m", "lambda_mixer", "noise", "--scenario", "sec5_proposed_mix")
        assert result.returncode == 0
        assert "n_fwm" in result.stdout

    def test_import_leaves_scipy_integrate_and_signal_unloaded(self):
        # each is needed by one function only and imports lazily there
        code = (
            "import sys, lambda_mixer; "
            "print([m for m in ('scipy.integrate', 'scipy.signal') if m in sys.modules])"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
