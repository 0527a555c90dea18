"""Output checks, run outside the timed region.

Reference values come from ``build_coupling_matrix`` and
``scipy.linalg.expm``, which shares no code with the closed-form ``expm2``
the sweeps use.  For the in-process workloads they are computed in a separate
reference process (the ``*_reference`` functions), so the workload process
only compares numbers and loads nothing the program would not.  CLI outputs
are compared with in-process library calls on the same scenario file.  The
paper anchors mirror the acceptance suite.  Each check returns a list of
problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, replace

SWEEP_REL = 1e-9  # expm2 against scipy's Pade expm
CLI_REL = 1e-12  # CLI text against the in-process library call
RK_REL = 1e-8  # adaptive-rk against expm, the library's documented agreement

DETUNING_FIELDS = ("probe", "stokes", "profile", "reference")
DEPTH_FIELDS = ("probe", "stokes", "reference")


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _compare(label: str, got, want, tol: float, fields=DETUNING_FIELDS) -> list[str]:
    problems = []
    for key, g, w in zip(fields, got, want):
        if not (math.isfinite(g) and rel_err(g, w) <= tol):
            problems.append(f"{label}: {key} {g!r} != {w!r} (rel {rel_err(g, w):.2e} > {tol:g})")
    return problems


def _point(eit, lam: complex, depth: float, seed: float, delta: float):
    """Independent evaluation of one grid point through scipy's expm."""
    from scipy.linalg import expm

    from lambda_mixer.propagation import build_coupling_matrix

    m = build_coupling_matrix(eit, depth * lam, delta).m
    t = expm(m)
    probe = abs(t[0, 0] + t[0, 1] * seed) ** 2
    stokes = abs(t[1, 0] + t[1, 1] * seed) ** 2
    return probe, stokes, abs(lam) ** 2, math.exp(2.0 * m[0, 0].real)


def record_tuple(r) -> tuple:
    return (r.probe_transmission, r.stokes_output, r.absorber_profile, r.eit_reference)


def digest(records) -> str:
    """Exact fingerprint of a sweep's values: equal digests mean bit-identical output."""
    import hashlib
    import struct

    h = hashlib.sha256()
    for r in records:
        h.update(struct.pack("<5d", r.axis_value, *record_tuple(r)))
    return h.hexdigest()


def unclean(records) -> list[str]:
    """Flagged or non-finite records, where the workloads expect none."""
    bad = [
        r.axis_value
        for r in records
        if r.flagged or not all(map(math.isfinite, record_tuple(r)))
    ]
    return [f"{len(bad)} flagged or non-finite record(s), first at {bad[0]!r}"] if bad else []


def detuning_reference(scenario, spec, indices) -> dict:
    """Sampled points of a detuning sweep: index -> [detuning, probe, stokes, profile, reference]."""
    from lambda_mixer.scan import absorber_loss_profile

    profile, depth = absorber_loss_profile(scenario)
    grid = spec.grid()
    seed = scenario.options.stokes_seed
    points = {}
    for i in indices:
        delta = float(grid[i])
        points[str(i)] = [delta, *_point(scenario.eit, profile(delta), depth, seed, delta)]
    return {"n": len(grid), "points": points}


def _refined_peak(values: list[float]) -> float:
    i = max(range(len(values)), key=values.__getitem__)
    if i in (0, len(values) - 1):
        return values[i]
    y0, y1, y2 = values[i - 1], values[i], values[i + 1]
    curv = y0 - 2.0 * y1 + y2
    return y1 if curv >= 0.0 else y1 - 0.125 * (y2 - y0) ** 2 / curv


def depth_reference(scenario, spec, inner_spec, indices) -> dict:
    """Sampled depths of a depth scan: the whole inner grid recomputed, its peaks refined.

    index -> [depth, peak probe, peak stokes, peak reference].
    """
    from lambda_mixer.scan import absorber_loss_profile

    profile, _ = absorber_loss_profile(scenario)
    grid = spec.grid()
    inner = inner_spec.grid()
    seed = scenario.options.stokes_seed
    points = {}
    for i in indices:
        depth = float(grid[i])
        values = [_point(scenario.eit, profile(float(d)), depth, seed, float(d)) for d in inner]
        points[str(i)] = [depth] + [_refined_peak([p[k] for p in values]) for k in (0, 1, 3)]
    return {"n": len(grid), "points": points}


def compare_points(label: str, records, reference: dict) -> list[str]:
    """A sweep's sampled records against ``detuning_reference`` or ``depth_reference``."""
    if len(records) != reference["n"]:
        return [f"{label}: {len(records)} records, grid has {reference['n']}"]
    problems = []
    for i, (axis, *want) in reference["points"].items():
        r = records[int(i)]
        if r.axis_value != axis:
            problems.append(f"{label} point {i}: axis {r.axis_value!r} != grid {axis!r}")
            continue
        if len(want) == len(DETUNING_FIELDS):
            got, fields = record_tuple(r), DETUNING_FIELDS
        else:
            got, fields = (r.probe_transmission, r.stokes_output, r.eit_reference), DEPTH_FIELDS
        problems += _compare(f"{label} point {i} (axis {axis:g})", got, want, SWEEP_REL, fields)
    return problems


def transfer_reference(eit, loss: complex, delta: float) -> list[list[float]]:
    """scipy's expm of the coupling matrix, as [[re, im], ...] row by row."""
    from scipy.linalg import expm

    from lambda_mixer.propagation import build_coupling_matrix

    t = expm(build_coupling_matrix(eit, loss, delta).m)
    return [[z.real, z.imag] for z in t.ravel()]


def propagate_output(reference, fields, out, transfer, rk: bool) -> list[str]:
    """A propagate result against ``transfer_reference``; expm2 to 1e-9, adaptive-rk to 1e-8."""
    import numpy as np

    t = np.array([complex(*z) for z in reference]).reshape(2, 2)
    tol = RK_REL if rk else SWEEP_REL
    scale = max(float(np.abs(t).max()), 1.0)
    err = float(np.abs(np.asarray(transfer.t) - t).max())
    inputs = np.array([fields.a_s, fields.a_i_dag])
    want = t @ inputs
    # outputs can cancel to far below |T| |fields|, so measure against that product
    norm = scale * max(float(np.abs(inputs).max()), 1e-300)
    out_err = max(abs(out.a_s - want[0]), abs(out.a_i_dag - want[1])) / norm
    if err > tol * scale or out_err > tol:
        return [f"propagate: transfer error {err:.2e}, output error {out_err:.2e}"]
    return []


def noise_ratio_value(eit, d_abs: float) -> float:
    """The closed-form residual noise ratio, written out independently."""
    ratio = eit.gamma_ge / eit.delta_control
    frac = eit.depth / d_abs
    return (frac * ratio) ** 2 * math.exp(-2.0 * eit.depth * ratio * (1.0 - ratio * frac))


def design_report(scenario, report) -> list[str]:
    """Internal consistency of a design report on a sec5-regime scenario."""
    from lambda_mixer.design import mix_depth_2l
    from lambda_mixer.susceptibility import effective_depth

    problems = []
    values = asdict(report)
    bad = [k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        problems.append(f"design report has non-finite {bad}")
    absorber = replace(scenario.absorber, depth_2l=mix_depth_2l(scenario))
    reached = effective_depth(replace(absorber, omega_a=report.omega_a_required))
    if rel_err(reached, report.d_abs_target) > SWEEP_REL:
        problems.append(f"omega_a {report.omega_a_required!r} reaches {reached!r}, not {report.d_abs_target!r}")
    if rel_err(report.noise_ratio, noise_ratio_value(scenario.eit, report.d_abs_target)) > CLI_REL:
        problems.append(f"noise ratio {report.noise_ratio!r} disagrees with the closed form")
    if report.overall:
        problems.append("a sec5-regime design passed; both sec5 points are expected to FAIL")
    return problems


def report_reference(scenario) -> dict:
    """A design report computed in the reference process, with its consistency problems."""
    from lambda_mixer.design import full_report

    report = full_report(scenario)
    return {"report": asdict(report), "problems": design_report(scenario, report)}


def report_diff(got: dict, want: dict) -> list[str]:
    """Two design reports as dicts: same keys, same flags, numbers within 1e-12."""
    if set(got) != set(want):
        return [f"design report keys {sorted(got)} != {sorted(want)}"]
    bad = [
        k
        for k, w in want.items()
        if (got[k] != w if isinstance(w, bool) else rel_err(float(got[k]), float(w)) > CLI_REL)
    ]
    return [f"design report differs in {bad}"] if bad else []


# --- CLI outputs -------------------------------------------------------------------


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def cli_scan(text: str, header: str, records, with_profile: bool) -> list[str]:
    """A CLI CSV against the in-process sweep of the same scenario."""
    head, rows = parse_csv(text)
    if ",".join(head) != header:
        return [f"CSV header {head!r} != {header!r}"]
    if len(rows) != len(records):
        return [f"CSV has {len(rows)} rows, the in-process sweep {len(records)}"]
    problems = []
    for row, r in zip(rows, records):
        want = (r.axis_value, r.probe_transmission, r.stokes_output)
        want += ((r.absorber_profile,) if with_profile else ()) + (r.eit_reference,)
        for got, w in zip(row, want):
            if rel_err(got, w) > CLI_REL:
                problems.append(f"CSV row at {row[0]!r}: {got!r} != {w!r}")
                break
        if len(problems) > 3:
            break
    return problems


def cli_sidecar(text: str, command: str, rows: int) -> list[str]:
    record = json.loads(text)
    problems = []
    if record.get("command") != command:
        problems.append(f"sidecar command {record.get('command')!r} != {command!r}")
    if len(record.get("results", ())) != rows:
        problems.append(f"sidecar has {len(record.get('results', ()))} results, CSV {rows}")
    if record.get("flagged_points"):
        problems.append(f"sidecar flags {len(record['flagged_points'])} point(s)")
    return problems


def cli_svg(text: str) -> list[str]:
    import xml.etree.ElementTree as ET

    root = ET.fromstring(text)
    if not root.tag.endswith("svg") or not any(e.tag.endswith("polyline") for e in root.iter()):
        return ["SVG has no <svg> root with a polyline"]
    return []


def cli_design(stdout: str, as_json: bool, report) -> list[str]:
    if as_json:
        return report_diff(json.loads(stdout), asdict(report))
    overall = [line for line in stdout.splitlines() if line.strip().startswith("overall")]
    want = "PASS" if report.overall else "FAIL"
    if len(overall) != 1 or want not in overall[0]:
        return [f"design overall line {overall!r}, expected {want}"]
    return []


def cli_noise(stdout: str, n_fwm: float, ratio: float) -> list[str]:
    values = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    want = {"n_fwm": n_fwm, "noise_ratio": ratio, "n_abs": ratio * n_fwm}
    bad = [k for k, w in want.items() if k not in values or rel_err(float(values[k]), w) > CLI_REL]
    return [f"noise output differs in {bad}: {values}"] if bad else []


# --- paper anchors -----------------------------------------------------------------


def paper_anchors() -> list[str]:
    """fig2 gain 2.0 / EIT 0.95, fig4 asymmetry ordering and single peak, sec5 numbers."""
    import numpy as np
    from scipy.signal import find_peaks

    from lambda_mixer.design import full_report, fwm_strength, raman_scatter_strength, solve_omega_a
    from lambda_mixer.model import EitMedium, RamanAbsorber
    from lambda_mixer.propagation import noise_suppression_ratio
    from lambda_mixer.scan import asymmetry_metric, peak_outputs, sweep_detuning
    from lambda_mixer.scenario import load_scenario
    from lambda_mixer.susceptibility import two_photon_width

    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"paper anchor failed: {what}")

    fig2, _ = load_scenario("fig2_default")
    gain = peak_outputs(fig2, 0.0).probe_transmission
    expect(rel_err(gain, 2.0) <= 0.01, f"fig2 gain {gain!r} != 2.0 within 1%")
    for depth in (50.0, 75.0, 100.0):
        eit_peak = peak_outputs(fig2, depth).probe_transmission
        expect(rel_err(eit_peak, 0.95) <= 0.02, f"fig2 EIT {eit_peak!r} at d_abs {depth} != 0.95")

    asym = []
    for name in ("0.83", "4.16", "41.6"):
        records = sweep_detuning(load_scenario(f"fig4_dabs_{name}")[0])
        asym.append(asymmetry_metric(records))
    probe = np.array([r.probe_transmission for r in records])
    peaks, _ = find_peaks(probe, prominence=1e-3 * float(probe.max()))
    expect(asym[0] > asym[1] > asym[2], f"fig4 asymmetry not decreasing {asym}")
    expect(asym[2] < 0.05 and peaks.size == 1, f"fig4 41.6 not a single symmetric peak ({peaks.size})")

    eit = EitMedium(gamma_ge=300.0, gamma_gs=0.064, delta_control=3036.0, omega_c=50.0, depth=15.0)
    absorber = RamanAbsorber(
        omega_a=100.0, delta_2=14700.0, gamma_ab=300.0, gamma_ac=300.0, gamma_cb=0.064, depth_2l=85.0
    )
    expect(rel_err(fwm_strength(eit), 1.48) <= 0.01, "sec5 FWM parameter 1.48")
    expect(rel_err(noise_suppression_ratio(eit, 16.5), 5.4e-4) <= 0.02, "sec5 noise ratio 5.4e-4")
    expect(rel_err(two_photon_width(absorber), 0.080) <= 0.10, "sec5 Raman width 80 kHz")
    expect(98.0 <= solve_omega_a(absorber, 16.5) <= 108.0, "sec5 omega_a for depth 16.5 in [98, 108]")
    expect(rel_err(raman_scatter_strength(eit, absorber, 14677.0), 0.61) <= 0.01, "sec5 Raman x 0.61")
    performed = full_report(load_scenario("sec5_as_performed")[0])
    expect(not performed.rabi_ok and abs(performed.rabi_lower - 4.4) <= 0.05, "as-performed Rabi FAIL")
    proposed = full_report(load_scenario("sec5_proposed_mix")[0])
    expect(proposed.rabi_ok and not proposed.bandwidth_ok, "proposed mix: Rabi PASS, bandwidth FAIL")
    return problems
