"""Command-line front end.

Subcommands::

    lambda-mixer scan-detuning --scenario PATH [--out PATH] [--json] [--svg]
    lambda-mixer scan-dabs     --scenario PATH [--out PATH] [--json] [--svg]
    lambda-mixer design        --scenario PATH [--json]
    lambda-mixer noise         --scenario PATH

Exit codes: 0 success, 1 validation failure, 2 numerical failure (flagged
grid points or an overflow), 3 I/O failure, 4 design infeasible.  Scenario
arguments may be file paths or names of shipped scenarios; the
LAMBDA_MIXER_SCENARIO_DIR environment variable prepends a search directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from . import __version__
from .design import full_report
from .errors import DomainError, InfeasibleTargetError, ValidationError
from .model import DEPTH_AXIS, DETUNING_AXIS, Scenario, SweepSpec
from .propagation import n_fwm, noise_expansion_parameter, noise_suppression_ratio
from .scenario import ScenarioFileError, load_scenario, scenario_to_dict
from .susceptibility import effective_depth

if TYPE_CHECKING:
    from .scan import Sweep

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
        p.set_defaults(func=_cmd_scan)

    add_scan("scan-detuning", "transmission spectra versus two-photon detuning")
    add_scan("scan-dabs", "peak outputs versus absorber depth")

    p_design = sub.add_parser("design", help="feasibility report for a scenario")
    p_design.add_argument("--scenario", required=True)
    p_design.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_design.set_defaults(func=_cmd_design)

    p_noise = sub.add_parser("noise", help="noise-photon numbers for a scenario")
    p_noise.add_argument("--scenario", required=True)
    p_noise.set_defaults(func=_cmd_noise)
    return parser


def _run_record(command: str, scenario: Scenario, sweep: Sweep) -> dict:
    return {
        "tool": "lambda-mixer",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "scenario": scenario_to_dict(scenario),
        "results": [r._asdict() for r in sweep],
        "flagged_points": sweep.axis_value[sweep.flagged].tolist(),
    }


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` through a temporary file beside it.

    A write that fails, or a chunk that raises, leaves ``path`` as it was and
    removes the temporary file.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as f:  # created with the mode write_text gives
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _output_paths(args) -> list[Path]:
    """The CSV path, then each sidecar path the call writes; empty for CSV to stdout."""
    if not args.out:
        if args.json or args.svg:
            raise _UsageError("--json/--svg require --out")
        return []
    out = Path(args.out)
    if not out.name:
        raise _UsageError(f"--out {args.out} names no file")
    sidecars = [out.with_suffix(s) for s, on in ((".json", args.json), (".svg", args.svg)) if on]
    if out in sidecars:
        raise _UsageError(f"--out {args.out} is also the {out.suffix} sidecar path; pick another")
    for path in (out, *sidecars):  # os.replace onto it would fail after the CSV is written
        if path.is_dir():
            raise _UsageError(f"{path} is a directory; pick another --out")
    return [out, *sidecars]


# command -> (CSV header, Sweep columns per CSV row, scan sweep function, the
# scenario sweep axis it takes, its grid when the scenario has none, svgplot renderer)
_SCANS = {
    "scan-detuning": (
        DETUNING_CSV_HEADER,
        ("axis_value", "probe_transmission", "stokes_output", "absorber_profile", "eit_reference"),
        "sweep_detuning",
        DETUNING_AXIS,
        None,
        "render_detuning_scan",
    ),
    "scan-dabs": (
        DABS_CSV_HEADER,
        ("axis_value", "probe_transmission", "stokes_output", "eit_reference"),
        "sweep_absorber_depth",
        DEPTH_AXIS,
        DEFAULT_DABS_SPEC,
        "render_depth_scan",
    ),
}


def _csv_chunks(header: str, blocks: Iterable[Iterable[tuple]]) -> Iterator[str]:
    """The CSV text: the header line, then one chunk per nonempty block of rows."""
    yield header + "\n"
    for rows in blocks:
        # repr() of a Python float: shortest round-trip form, '.' decimal point,
        # lowercase 'e', locale-independent.
        yield "\n".join([",".join(map(repr, row)) for row in rows]) + "\n"


def _cmd_scan(args) -> int:
    # imported here: the sweep engine loads numpy, which design and noise never need
    from . import scan, svgplot

    paths = _output_paths(args)
    scenario, scenario_path = load_scenario(args.scenario)
    for path in paths:
        if path.resolve() == scenario_path.resolve():
            raise _UsageError(f"{path} is the scenario file being read; pick another --out")
    header, names, sweeper, axis, default_spec, renderer = _SCANS[args.command]
    sweep = scenario.sweep
    spec = sweep if sweep and sweep.axis == axis else default_spec
    # looked up per call, so a rebinding of the scan or svgplot function is honoured
    result = getattr(scan, sweeper)(scenario, spec)
    csv_chunks = _csv_chunks(header, scan.row_blocks(attrgetter(*names)(result)))
    if paths:
        _write_atomic(paths[0], csv_chunks)
    else:
        sys.stdout.writelines(csv_chunks)
    for path in paths[1:]:
        if path.suffix == ".json":
            text = _json_text(_run_record(args.command, scenario, result)) + "\n"
        else:
            text = getattr(svgplot, renderer)(result)
        _write_atomic(path, (text,))
    flagged = result.axis_value[result.flagged].tolist()
    if flagged:
        print(
            f"warning: {len(flagged)} of {len(result)} grid point(s) failed numerically "
            f"(axis {min(flagged):.6g} .. {max(flagged):.6g})",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def _warn_noise_regime(scenario: Scenario, d_abs: float) -> None:
    """One stderr line where the leading-order noise ratio at d_abs is outside its regime.

    Its expansion parameter epsilon should be small: |epsilon| >= 0.1 warns,
    and epsilon >= 1 says that the formula's exponent has changed sign.
    """
    eps = noise_expansion_parameter(scenario.eit, d_abs)
    if abs(eps) >= 0.1:
        what = "at least 1: the formula's exponent has changed sign" if eps >= 1 else "not small"
        print(
            f"warning: noise_ratio is leading order in epsilon = gamma_ge/delta_control * depth/d_abs, "
            f"which is {what} (epsilon = {eps:.3g} at d_abs = {d_abs:.6g})",
            file=sys.stderr,
        )


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _cmd_design(args) -> int:
    scenario, path = load_scenario(args.scenario)
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
    if report.d_abs_target > 0:  # the report's noise ratio is evaluated there
        _warn_noise_regime(scenario, report.d_abs_target)
    return EXIT_OK if report.overall else EXIT_DESIGN_FAIL


def _cmd_noise(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    if scenario.absorber is None:
        raise DomainError("noise command requires an absorber section")
    d_abs = effective_depth(scenario.absorber)
    if d_abs <= 0:
        raise DomainError("effective absorber depth is zero; the noise ratio is undefined")
    fwm = n_fwm(scenario.eit)
    ratio = noise_suppression_ratio(scenario.eit, d_abs)
    n_abs = ratio * fwm
    if not math.isfinite(n_abs):
        raise OverflowError(f"n_abs = noise_ratio * n_fwm = {n_abs!r}")
    print(f"n_fwm = {fwm!r}")
    print(f"noise_ratio = {ratio!r}")
    print(f"n_abs = {n_abs!r}")
    _warn_noise_regime(scenario, d_abs)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
    except InfeasibleTargetError as exc:  # a DomainError, but a design verdict
        print(str(exc), file=sys.stderr)
        return EXIT_DESIGN_FAIL
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:
        print(f"numerical overflow: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
