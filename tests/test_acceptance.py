"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from lambda_mixer.design import full_report, fwm_strength, solve_omega_a
from lambda_mixer.model import CouplingMatrix, EitMedium, FieldPair, SweepSpec
from lambda_mixer.propagation import (
    analytic_resonant_output,
    approx_output_with_absorber,
    build_coupling_matrix,
    noise_suppression_ratio,
    propagate,
)
from lambda_mixer.scan import (
    asymmetry_metric,
    peak_outputs,
    sweep_absorber_depth,
    sweep_detuning,
)
from lambda_mixer.scenario import load_scenario
from lambda_mixer.susceptibility import two_photon_width


def _verdict(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


@pytest.fixture(scope="module")
def lossless_suite():
    """1000 randomized lossless resonant cases: generator with idler self-gain zeroed."""
    rng = np.random.default_rng(987654321)
    cases = []
    for _ in range(1000):
        depth = rng.uniform(0.0, 5.0)
        ratio = rng.uniform(0.001, 0.1)
        eit = EitMedium(300.0, 0.0, 300.0 / ratio, 50.0, depth)
        m = np.array(build_coupling_matrix(eit, 0j, 0.0).m)
        m[1, 1] = 0.0
        fields = FieldPair(
            complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
        )
        cases.append((eit, CouplingMatrix(m=m, delta=0.0), fields))
    return cases


def test_criterion_01_fwm_parameter(sec5_eit):
    start = time.perf_counter()
    value = fwm_strength(sec5_eit)
    elapsed = time.perf_counter() - start
    assert value == pytest.approx(1.48, rel=0.01)
    assert elapsed < 1e-3
    _verdict(1, "FWM parameter 1.48 within 1%, under 1 ms")


def test_criterion_02_noise_suppression(sec5_eit):
    value = noise_suppression_ratio(sec5_eit, 16.5)
    assert value == pytest.approx(5e-4, rel=0.20)
    assert value == pytest.approx(5.4e-4, rel=0.02)  # independent evaluation
    _verdict(2, "noise suppression ratio ~5e-4 within 20%")


def test_criterion_03_raman_width(sec5_absorber):
    width_mhz = two_photon_width(replace(sec5_absorber, omega_a=100.0))
    assert width_mhz == pytest.approx(0.080, rel=0.10)
    _verdict(3, "Raman absorption width 80 kHz within 10%")


def test_criterion_04_absorber_design_inversion(sec5_absorber):
    omega = solve_omega_a(sec5_absorber, 16.5)
    assert 98.0 <= omega <= 108.0
    _verdict(4, "omega_a for target depth 16.5 inside [98, 108] MHz")


def test_criterion_05_spurious_scattering(sec5_eit, sec5_absorber):
    from lambda_mixer.design import raman_scatter_strength

    x = raman_scatter_strength(sec5_eit, replace(sec5_absorber, omega_a=100.0), 14677.0)
    assert x == pytest.approx(0.64, rel=0.10)
    assert x == pytest.approx(0.61, rel=0.01)  # independent evaluation
    _verdict(5, "spurious Raman scattering x = 0.64 within 10%")


def test_criterion_06_fig2_reproduction():
    scenario, _ = load_scenario("fig2_default")
    no_absorber = peak_outputs(scenario, 0.0)
    assert no_absorber.probe_transmission == pytest.approx(2.0, rel=0.01)
    for depth in (50.0, 75.0, 100.0):
        strong = peak_outputs(scenario, depth)
        assert strong.probe_transmission == pytest.approx(0.95, rel=0.02)
    start = time.perf_counter()
    records = sweep_absorber_depth(
        scenario,
        SweepSpec(axis="absorber-depth", start=0.01, stop=100.0, points=60, scale="logarithmic"),
    )
    elapsed = time.perf_counter() - start
    stokes = [r.stokes_output for r in records]
    assert all(b <= a + 1e-12 for a, b in zip(stokes, stokes[1:]))
    assert elapsed < 10.0
    _verdict(6, f"fig2 anchors (gain 2.0, EIT 0.95), monotone Stokes, sweep in {elapsed:.2f}s")


def test_criterion_07_fig4_qualitative(count_peaks):
    metrics = []
    for name in ("0.83", "4.16", "41.6"):
        scenario, _ = load_scenario(f"fig4_dabs_{name}")
        records = sweep_detuning(scenario)
        metrics.append(asymmetry_metric(records))
        if name == "41.6":
            assert count_peaks(records) == 1
            assert metrics[-1] < 0.05
    assert metrics[0] > metrics[1] > metrics[2]
    _verdict(7, f"fig4 asymmetry strictly decreasing {[f'{m:.3f}' for m in metrics]}")


def test_criterion_08_oracle_equivalence(lossless_suite):
    start = time.perf_counter()
    for eit, matrix, fields in lossless_suite:
        out, _ = propagate(matrix, fields)
        expected = analytic_resonant_output(eit, fields)
        norm = max(abs(expected.a_s), abs(expected.a_i_dag))
        assert abs(out.a_s - expected.a_s) <= 1e-6 * norm
        assert abs(out.a_i_dag - expected.a_i_dag) <= 1e-6 * norm
    # the adaptive integrator agrees with the exponential on general
    # matrices: detuned, spin-decaying, and absorbing
    rng = np.random.default_rng(13)
    for _ in range(40):
        eit = EitMedium(300.0, rng.uniform(0.0, 0.1), 3036.0, 50.0, rng.uniform(0.0, 15.0))
        loss = complex(rng.uniform(0.0, 20.0), rng.uniform(-3.0, 3.0))
        matrix = build_coupling_matrix(eit, loss, rng.uniform(-30.0, 30.0))
        _, t_exp = propagate(matrix, FieldPair(1.0, 1.0))
        _, t_rk = propagate(matrix, FieldPair(1.0, 1.0), method="adaptive-rk")
        assert np.abs(t_exp.t - t_rk.t).max() <= 1e-8 * max(np.abs(t_exp.t).max(), 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _verdict(8, f"oracle equivalence (1000 analytic + 40 adaptive cases) in {elapsed:.2f}s")


def test_criterion_09_symplectic_invariant(lossless_suite):
    for _, matrix, _ in lossless_suite:
        t = propagate(matrix, FieldPair(1.0, 0.0))[1].t
        assert abs(abs(t[0, 0]) ** 2 - abs(t[0, 1]) ** 2 - 1.0) <= 1e-9
        assert abs(abs(t[1, 1]) ** 2 - abs(t[1, 0]) ** 2 - 1.0) <= 1e-9
    _verdict(9, "two-mode symplectic invariant holds to 1e-9")


def test_criterion_10_approximation_containment():
    import warnings

    for ratio in np.linspace(0.005, 0.05, 10):
        for depth in np.linspace(1.0, 10.0, 10):
            eit = EitMedium(300.0, 0.0, 300.0 / ratio, 50.0, depth)
            d_abs = 10.000001 * depth * ratio
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reduced = approx_output_with_absorber(eit, d_abs, FieldPair(1.0, 1.0))
            full, _ = propagate(build_coupling_matrix(eit, d_abs, 0.0), FieldPair(1.0, 1.0))
            assert abs(reduced.a_s) == pytest.approx(abs(full.a_s), rel=0.05)
    _verdict(10, "reduced strong-absorber output within 5% of full propagation")


def test_criterion_11_as_performed_diagnosis():
    # measured hardware artifacts (light shifts, EIT contrasts, analyzer
    # roll-off) are intentionally not modeled; the shipped as-performed
    # scenario must instead reproduce the design diagnosis: the control
    # Rabi frequency 0.43 MHz fails the admissible window
    scenario, _ = load_scenario("sec5_as_performed")
    assert scenario.eit.omega_c == pytest.approx(0.43)
    report = full_report(scenario)
    assert not report.rabi_ok
    assert not report.overall
    assert report.rabi_lower == pytest.approx(4.4, abs=0.05)
    _verdict(11, "as-performed scenario fails the control Rabi window")
