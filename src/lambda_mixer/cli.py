"""Command-line front end.

Subcommands::

    lambda-mixer scan-detuning --scenario PATH [--out PATH] [--json] [--svg] [--workers N]
    lambda-mixer scan-dabs     --scenario PATH [--out PATH] [--json] [--svg] [--workers N]
    lambda-mixer design        --scenario PATH [--json]
    lambda-mixer noise         --scenario PATH

--workers is accepted and ignored: sweeps run as numpy blocks on one thread.

Exit codes: 0 success, 1 validation failure, 2 numerical failure, 3 I/O
failure, 4 design infeasible.  Scenario arguments may be file paths or names
of shipped scenarios; the LAMBDA_MIXER_SCENARIO_DIR environment variable
prepends a search directory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .design import full_report
from .errors import (
    DomainError,
    IntegrationError,
    SingularityError,
    ValidationError,
)
from .model import Scenario, SweepSpec, validate
from .propagation import n_fwm, noise_suppression_ratio
from .scan import (
    DEPTH_AXIS,
    DETUNING_AXIS,
    SpectrumRecord,
    default_detuning_spec,
    sweep_absorber_depth,
    sweep_detuning,
)
from .scenario import ScenarioFileError, load_scenario, scenario_to_dict
from .susceptibility import effective_depth
from .svgplot import render_depth_scan, render_detuning_scan

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3
EXIT_DESIGN_FAIL = 4

DETUNING_CSV_HEADER = "delta_mhz,probe_transmission,stokes_output,absorber_profile,eit_reference"
DABS_CSV_HEADER = "d_abs,probe_peak,stokes_peak,eit_reference"

DEFAULT_DABS_SPEC = SweepSpec(axis=DEPTH_AXIS, start=0.01, stop=100.0, points=60, scale="logarithmic")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep codes to ourselves
        raise _UsageError(f"{self.prog}: {message}")


def _fmt(x: float) -> str:
    # repr() of a Python float: shortest round-trip form, '.' decimal point,
    # lowercase 'e', locale-independent.
    return repr(float(x))


def _json_safe(x):
    """``x`` with each non-finite float spelled "inf", "-inf" or "nan", which JSON cannot hold."""
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(float(x))
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_json_safe(v) for v in x]
    return x


def _json_text(obj) -> str:
    return json.dumps(_json_safe(obj), indent=2, allow_nan=False)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lambda-mixer", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"lambda-mixer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scan(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario file or shipped name")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--json", action="store_true", help="also write a run-record JSON sidecar")
        p.add_argument("--svg", action="store_true", help="also render an SVG plot")
        p.add_argument("--workers", type=int, help="ignored; kept so existing scripts still run")
        return p

    add_scan("scan-detuning", "transmission spectra versus two-photon detuning").set_defaults(
        func=_cmd_scan_detuning
    )
    add_scan("scan-dabs", "peak outputs versus absorber depth").set_defaults(func=_cmd_scan_dabs)

    p_design = sub.add_parser("design", help="feasibility report for a scenario")
    p_design.add_argument("--scenario", required=True)
    p_design.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_design.set_defaults(func=_cmd_design)

    p_noise = sub.add_parser("noise", help="noise-photon numbers for a scenario")
    p_noise.add_argument("--scenario", required=True)
    p_noise.set_defaults(func=_cmd_noise)
    return parser


def _load(args) -> tuple[Scenario, Path]:
    scenario, path = load_scenario(args.scenario)
    return validate(scenario), path


def _run_record(command: str, scenario: Scenario, records: Sequence[SpectrumRecord]) -> dict:
    return {
        "tool": "lambda-mixer",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "scenario": scenario_to_dict(scenario),
        "results": [asdict(r) for r in records],
        "flagged_points": [r.axis_value for r in records if r.flagged],
    }


def _write_scan_outputs(
    args,
    command: str,
    scenario: Scenario,
    records: Sequence[SpectrumRecord],
    header: str,
    to_row,
    render,
) -> int:
    lines = [header] + [to_row(r) for r in records]
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    if args.json:
        sidecar = Path(args.out).with_suffix(".json")
        sidecar.write_text(_json_text(_run_record(command, scenario, records)) + "\n")
    if args.svg:
        Path(args.out).with_suffix(".svg").write_text(render(records), encoding="utf-8")
    flagged = [r.axis_value for r in records if r.flagged]
    if flagged:
        print(
            f"warning: {len(flagged)} grid point(s) failed numerically: {flagged}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def _check_out(args) -> None:
    if (args.json or args.svg) and not args.out:
        raise _UsageError("--json/--svg require --out")
    suffix = Path(args.out or "").suffix
    if (suffix == ".json" and args.json) or (suffix == ".svg" and args.svg):
        raise _UsageError(f"--out {args.out} is also the {suffix} sidecar path; pick another")


def _cmd_scan_detuning(args) -> int:
    _check_out(args)
    scenario, _ = _load(args)
    spec = scenario.sweep if scenario.sweep and scenario.sweep.axis == DETUNING_AXIS else None
    records = sweep_detuning(scenario, spec)
    return _write_scan_outputs(
        args,
        "scan-detuning",
        scenario,
        records,
        DETUNING_CSV_HEADER,
        lambda r: ",".join(
            (
                _fmt(r.axis_value),
                _fmt(r.probe_transmission),
                _fmt(r.stokes_output),
                _fmt(r.absorber_profile),
                _fmt(r.eit_reference),
            )
        ),
        render_detuning_scan,
    )


def _cmd_scan_dabs(args) -> int:
    _check_out(args)
    scenario, _ = _load(args)
    spec = (
        scenario.sweep
        if scenario.sweep and scenario.sweep.axis == DEPTH_AXIS
        else DEFAULT_DABS_SPEC
    )
    inner = default_detuning_spec(scenario.eit)
    records = sweep_absorber_depth(scenario, spec, inner_spec=inner)
    return _write_scan_outputs(
        args,
        "scan-dabs",
        scenario,
        records,
        DABS_CSV_HEADER,
        lambda r: ",".join(
            (
                _fmt(r.axis_value),
                _fmt(r.probe_transmission),
                _fmt(r.stokes_output),
                _fmt(r.eit_reference),
            )
        ),
        render_depth_scan,
    )


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _cmd_design(args) -> int:
    scenario, path = _load(args)
    report = full_report(scenario)
    if args.json:
        print(_json_text(asdict(report)))
    else:
        from .design import MUCH_GREATER_FACTOR

        print(f"design report for {path.name}")
        print(
            f"  control Rabi window : {report.rabi_lower:.6g} .. {report.rabi_upper:.6g} MHz, "
            f"admitted [{MUCH_GREATER_FACTOR:g} x lower, upper) "
            f"(omega_c = {scenario.eit.omega_c:.6g} MHz)  [{_verdict(report.rabi_ok)}]"
        )
        print(f"  FWM strength        : {report.fwm_strength:.6g}")
        print(
            f"  absorber design     : target depth {report.d_abs_target:.6g} needs "
            f"omega_a = {report.omega_a_required:.6g} MHz"
        )
        print(
            f"  bandwidth           : absorber {report.bandwidth_lhs:.6g} MHz vs "
            f"Stokes {report.bandwidth_rhs:.6g} MHz  [{_verdict(report.bandwidth_ok)}]"
        )
        print(f"  noise ratio         : {report.noise_ratio:.6g}")
        print(
            f"  Raman scattering x  : {report.raman_x:.6g}  [{_verdict(report.raman_ok)}]"
        )
        print(f"  overall             : {_verdict(report.overall)}")
    return EXIT_OK if report.overall else EXIT_DESIGN_FAIL


def _cmd_noise(args) -> int:
    scenario, _ = _load(args)
    if scenario.absorber is None:
        raise DomainError("noise command requires an absorber section")
    d_abs = effective_depth(scenario.absorber)
    if d_abs <= 0:
        raise DomainError("effective absorber depth is zero; the noise ratio is undefined")
    fwm = n_fwm(scenario.eit)
    ratio = noise_suppression_ratio(scenario.eit, d_abs)
    print(f"n_fwm = {_fmt(fwm)}")
    print(f"noise_ratio = {_fmt(ratio)}")
    print(f"n_abs = {_fmt(ratio * fwm)}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except ScenarioFileError as exc:
        print(f"invalid scenario {exc.path}:", file=sys.stderr)
        for err in exc.errors:
            print(f"  {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        for violation in exc.violations:
            print(str(violation), file=sys.stderr)
        return EXIT_VALIDATION
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except (SingularityError, IntegrationError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
