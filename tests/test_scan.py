import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lambda_mixer.errors import DomainError, SingularityError
from lambda_mixer.model import EitMedium, ScanOptions, Scenario, SweepSpec
from lambda_mixer.propagation import coupling_entries, expm2
from lambda_mixer.scan import (
    SpectrumRecord,
    Sweep,
    _refined_peak,
    _row_peaks,
    absorber_loss_profile,
    asymmetry_metric,
    default_detuning_spec,
    eit_linewidth,
    peak_outputs,
    sweep_absorber_depth,
    sweep_detuning,
)
from lambda_mixer.scenario import load_scenario


@pytest.fixture(scope="module")
def fig2_scenario():
    return load_scenario("fig2_default")[0]


@pytest.fixture(scope="module")
def fig4_scenarios():
    return {
        name: load_scenario(f"fig4_dabs_{name}")[0] for name in ("0.83", "4.16", "41.6")
    }


class TestDetuningSweep:
    def test_zero_coupling_reduces_to_two_level_absorption(self):
        eit = EitMedium(gamma_ge=300.0, gamma_gs=0.064, delta_control=1e12, omega_c=0.0, depth=4.0)
        scenario = Scenario(eit=eit, options=ScanOptions(stokes_seed=1.0))
        spec = SweepSpec(axis="two-photon-detuning", start=-600.0, stop=600.0, points=101)
        for record in sweep_detuning(scenario, spec):
            expected = abs(cmath.exp(-1j * 4.0 * 300.0 / complex(record.axis_value, 300.0))) ** 2
            assert record.probe_transmission == pytest.approx(expected, rel=1e-12)
            assert record.stokes_output == pytest.approx(1.0, rel=1e-12)

    def test_multi_peaked_fwm_regime(self, fig4_scenarios, count_peaks):
        scenario = replace(fig4_scenarios["41.6"], absorber=None)
        records = sweep_detuning(scenario)
        assert count_peaks(records) >= 2

    def test_largest_depth_single_peaked_and_symmetric(self, fig4_scenarios, count_peaks):
        records = sweep_detuning(fig4_scenarios["41.6"])
        assert count_peaks(records) == 1
        assert asymmetry_metric(records) < 0.05

    def test_asymmetry_strictly_decreasing_across_trio(self, fig4_scenarios):
        metrics = [
            asymmetry_metric(sweep_detuning(fig4_scenarios[name]))
            for name in ("0.83", "4.16", "41.6")
        ]
        assert metrics[0] > metrics[1] > metrics[2]

    def test_repeated_runs_identical_for_any_workers(self, fig4_scenarios):
        # workers is accepted and ignored; every run gives the same records
        scenario = fig4_scenarios["0.83"]
        first = sweep_detuning(scenario, workers=1)
        assert sweep_detuning(scenario, workers=1) == first
        assert sweep_detuning(scenario, workers=7) == first
        assert sweep_detuning(scenario) == first

    def test_axis_checked(self, fig2_scenario):
        spec = SweepSpec(axis="absorber-depth", start=0.1, stop=1.0, points=3)
        with pytest.raises(DomainError):
            sweep_detuning(fig2_scenario, spec)

    def test_records_are_finite_and_nonnegative(self, fig4_scenarios):
        for record in sweep_detuning(fig4_scenarios["4.16"]):
            assert not record.flagged
            for value in (
                record.probe_transmission,
                record.stokes_output,
                record.absorber_profile,
                record.eit_reference,
            ):
                assert math.isfinite(value) and value >= 0.0

    def test_stokes_max_normalization(self, fig4_scenarios):
        scenario = fig4_scenarios["0.83"]
        normalized = replace(scenario, options=replace(scenario.options, normalize_stokes="max"))
        records = sweep_detuning(normalized)
        peak = max(r.stokes_output for r in records)
        assert peak == pytest.approx(1.0, rel=1e-12)

    def test_exact_absorber_profile_close_to_lorentzian(self, fig4_scenarios):
        # the escape hatch substitutes the full susceptibility profile; for a
        # narrow line it must track the Lorentzian reduction closely, in both
        # centering conventions
        base = fig4_scenarios["4.16"]
        for apply_shift in (False, True):
            options = replace(base.options, apply_light_shift=apply_shift)
            approx = sweep_detuning(replace(base, options=options))
            exact = sweep_detuning(
                replace(base, options=replace(options, exact_absorber=True))
            )
            probe_a = np.array([r.probe_transmission for r in approx])
            probe_e = np.array([r.probe_transmission for r in exact])
            assert np.abs(probe_a - probe_e).max() < 0.01

    def test_light_shift_moves_absorption_dip(self, fig4_scenarios):
        from lambda_mixer.susceptibility import light_shift

        scenario = fig4_scenarios["4.16"]
        shifted = replace(scenario, options=replace(scenario.options, apply_light_shift=True))
        records = sweep_detuning(shifted)
        profile = np.array([r.absorber_profile for r in records])
        deltas = np.array([r.axis_value for r in records])
        grid_step = deltas[1] - deltas[0]
        assert abs(deltas[profile.argmax()] - light_shift(scenario.absorber)) <= grid_step

    def test_singular_points_flagged_but_sweep_continues(self):
        # gamma_ge = 0 puts poles at delta = +-omega_c; unreachable through
        # validation, but the engine must degrade gracefully
        eit = EitMedium(gamma_ge=0.0, gamma_gs=0.0, delta_control=3036.0, omega_c=50.0, depth=5.0)
        scenario = Scenario(eit=eit)
        spec = SweepSpec(axis="two-photon-detuning", start=-50.0, stop=50.0, points=3)
        records = sweep_detuning(scenario, spec)
        assert [r.flagged for r in records] == [True, False, True]

    def test_overflow_points_flagged(self):
        eit = EitMedium(gamma_ge=300.0, gamma_gs=0.0, delta_control=320.0, omega_c=50.0, depth=900.0)
        spec = SweepSpec(axis="two-photon-detuning", start=-1.0, stop=1.0, points=3)
        records = sweep_detuning(Scenario(eit=eit), spec)
        assert all(r.flagged for r in records)


def scalar_point(eit, lam, depth, seed, delta):
    """One grid point through the scalar kernels, as sweeps evaluated it point by point.

    Returns (probe, stokes, |lam|^2, reference), or None where the point fails.
    """
    try:
        m00, m01, m10, m11 = coupling_entries(eit, depth * lam, delta)
        t00, t01, t10, t11 = expm2(m00, m01, m10, m11)
        values = (
            abs(t00 + t01 * seed) ** 2,
            abs(t10 + t11 * seed) ** 2,
            abs(lam) ** 2,
            math.exp(2.0 * m00.real),
        )
    except (SingularityError, OverflowError):
        return None
    return values if all(map(math.isfinite, values)) else None


class TestScalarReference:
    """Blocked sweeps flag the points the scalar path fails on, and agree elsewhere."""

    CASES = {
        "singular": (EitMedium(0.0, 0.0, 3036.0, 50.0, 5.0), -50.0, 50.0, 3),
        "singular-fine": (EitMedium(0.0, 0.0, 3036.0, 50.0, 5.0), -50.0, 50.0, 201),
        "overflow": (EitMedium(300.0, 0.0, 320.0, 50.0, 900.0), -1.0, 1.0, 3),
        "overflow-edge": (EitMedium(300.0, 0.0, 320.0, 50.0, 500.0), -3000.0, 3000.0, 2001),
        "blocks": (EitMedium(300.0, 0.064, 3036.0, 50.0, 15.0), -400.0, 400.0, 9001),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flags_and_values_match(self, case):
        eit, start, stop, points = self.CASES[case]
        scenario = Scenario(eit=eit, options=ScanOptions(stokes_seed=0.5))
        spec = SweepSpec(axis="two-photon-detuning", start=start, stop=stop, points=points)
        records = sweep_detuning(scenario, spec)
        profile, depth = absorber_loss_profile(scenario)
        for r in records:
            want = scalar_point(eit, profile(r.axis_value), depth, 0.5, r.axis_value)
            assert r.flagged == (want is None)
            got = (r.probe_transmission, r.stokes_output, r.absorber_profile, r.eit_reference)
            for g, w in zip(got, want or (0.0,) * 4):
                assert g == pytest.approx(w, rel=1e-12, abs=0.0)

    def test_exact_absorber_depth_scan_with_split_rows(self, fig2_scenario):
        # an inner grid longer than one block: every depth row is split
        from lambda_mixer.scan import BLOCK, _refined_peak

        scenario = replace(fig2_scenario, options=replace(fig2_scenario.options, exact_absorber=True))
        inner = default_detuning_spec(scenario.eit, BLOCK + 905)
        spec = SweepSpec(axis="absorber-depth", start=0.5, stop=50.0, points=3, scale="logarithmic")
        profile, _ = absorber_loss_profile(scenario)
        seed, grid = scenario.options.stokes_seed, inner.grid().tolist()
        for got in sweep_absorber_depth(scenario, spec, inner_spec=inner):
            depth = got.axis_value
            rows = np.array([scalar_point(scenario.eit, profile(d), depth, seed, d) for d in grid])
            assert not got.flagged
            assert got.probe_transmission == pytest.approx(_refined_peak(rows[:, 0]), rel=1e-12)
            assert got.stokes_output == pytest.approx(_refined_peak(rows[:, 1]), rel=1e-12)
            assert got.absorber_profile == pytest.approx(rows[rows[:, 0].argmax(), 2], rel=1e-12)
            assert got.eit_reference == pytest.approx(_refined_peak(rows[:, 3]), rel=1e-12)


class TestDepthSweep:
    def test_fig2_anchors(self, fig2_scenario):
        no_absorber = peak_outputs(fig2_scenario, 0.0)
        assert no_absorber.probe_transmission == pytest.approx(2.0, rel=0.01)
        strong = peak_outputs(fig2_scenario, 50.0)
        assert strong.probe_transmission == pytest.approx(0.95, rel=0.02)
        assert strong.eit_reference == pytest.approx(0.95, rel=1e-6)

    def test_stokes_monotone_non_increasing(self, fig2_scenario):
        records = sweep_absorber_depth(fig2_scenario, fig2_scenario.sweep)
        stokes = [r.stokes_output for r in records]
        assert all(b <= a + 1e-12 for a, b in zip(stokes, stokes[1:]))

    def test_two_point_sweep(self, fig2_scenario):
        spec = SweepSpec(axis="absorber-depth", start=1.0, stop=2.0, points=2)
        records = sweep_absorber_depth(fig2_scenario, spec)
        assert len(records) == 2
        assert [r.axis_value for r in records] == [1.0, 2.0]

    def test_grid_refinement_stable(self, fig2_scenario):
        # doubling the inner grid moves refined peaks by less than 0.1%
        for depth in (0.0, 1.0, 50.0):
            coarse = peak_outputs(fig2_scenario, depth, default_detuning_spec(fig2_scenario.eit, 401))
            fine = peak_outputs(fig2_scenario, depth, default_detuning_spec(fig2_scenario.eit, 802))
            assert coarse.probe_transmission == pytest.approx(fine.probe_transmission, rel=1e-3)
            assert coarse.stokes_output == pytest.approx(fine.stokes_output, rel=1e-3)

    def test_repeated_runs_identical_for_any_workers(self, fig2_scenario):
        spec = SweepSpec(axis="absorber-depth", start=0.1, stop=10.0, points=8, scale="logarithmic")
        first = sweep_absorber_depth(fig2_scenario, spec, workers=1)
        assert sweep_absorber_depth(fig2_scenario, spec, workers=1) == first
        assert sweep_absorber_depth(fig2_scenario, spec, workers=5) == first

    def test_axis_checked(self, fig2_scenario):
        with pytest.raises(DomainError):
            sweep_absorber_depth(fig2_scenario, default_detuning_spec(fig2_scenario.eit))

    def test_negative_or_nan_depth_rejected(self, fig2_scenario):
        # a negative depth is a gain no absorber can produce; NaN is no depth at all
        with pytest.raises(DomainError, match="nonnegative"):
            peak_outputs(fig2_scenario, -5.0)
        with pytest.raises(DomainError, match="nonnegative"):
            peak_outputs(fig2_scenario, math.nan)
        spec = SweepSpec(axis="absorber-depth", start=-1.0, stop=1.0, points=3)
        with pytest.raises(DomainError, match="nonnegative"):
            sweep_absorber_depth(fig2_scenario, spec)

    def test_shapeless_scenario_rejected(self, fig2_scenario):
        # a depth override is meaningless without an absorber line shape
        bare = replace(fig2_scenario, absorber=None)
        spec = SweepSpec(axis="absorber-depth", start=0.1, stop=1.0, points=2)
        with pytest.raises(DomainError, match="line shape"):
            sweep_absorber_depth(bare, spec)
        assert peak_outputs(bare, 0.0).probe_transmission > 0  # lossless scan still fine

    def test_depth_override_works_from_zero_native_depth(self, fig2_scenario):
        # the shape comes from the absorber section even when its own
        # effective depth vanishes (omega_a = 0 with finite gamma_cb)
        dark = replace(
            fig2_scenario, absorber=replace(fig2_scenario.absorber, omega_a=0.0, gamma_cb=75.0)
        )
        strong = peak_outputs(dark, 50.0)
        assert strong.probe_transmission == pytest.approx(0.95, rel=0.02)


class TestSweepContract:
    """A Sweep is a sequence of SpectrumRecord over read-only columns."""

    @pytest.fixture(scope="class")
    def sweep(self, fig4_scenarios):
        return sweep_detuning(fig4_scenarios["4.16"])

    def test_length_and_indexing(self, sweep):
        assert len(sweep) == 401
        assert sweep[0].axis_value == sweep.axis_value[0]
        assert sweep[-1] == sweep[400]
        assert sweep[-401] == sweep[0]
        with pytest.raises(IndexError):
            sweep[401]
        with pytest.raises(IndexError):
            sweep[-402]

    def test_records_are_plain_python(self, sweep):
        record = sweep[7]
        assert type(record) is SpectrumRecord
        assert [type(v) for v in record] == [float] * 5 + [bool]

    def test_iteration_matches_indexing(self, sweep):
        records = list(sweep)
        assert records == [sweep[i] for i in range(len(sweep))]
        assert all(type(r) is SpectrumRecord for r in records)

    def test_equal_to_its_list_of_records(self, sweep):
        records = list(sweep)
        assert sweep == records and records == sweep
        assert sweep == Sweep(*sweep.columns)
        assert sweep != records[:-1]
        assert sweep != [r._replace(flagged=True) for r in records]
        assert sweep != tuple(records)

    def test_columns_are_read_only(self, sweep):
        assert len(sweep.columns) == len(SpectrumRecord._fields)
        for name, column in zip(SpectrumRecord._fields, sweep.columns):
            assert column is getattr(sweep, name)
            assert not column.flags.writeable
            assert len(column) == len(sweep)
        with pytest.raises(ValueError):
            sweep.probe_transmission[0] = 1.0
        assert sweep.flagged.dtype == bool

    def test_depth_scan_and_peak_outputs(self, fig2_scenario):
        spec = SweepSpec(axis="absorber-depth", start=1.0, stop=2.0, points=2)
        scan = sweep_absorber_depth(fig2_scenario, spec)
        assert isinstance(scan, Sweep)
        assert not any(column.flags.writeable for column in scan.columns)
        one = peak_outputs(fig2_scenario, 2.0)
        assert type(one) is SpectrumRecord
        assert one == scan[1]

    def test_asymmetry_metric_takes_sweep_or_list(self, sweep):
        assert asymmetry_metric(sweep) == asymmetry_metric(list(sweep))


def reference_row_peaks(values, flagged):
    """Row peaks one row at a time, as depth scans refined them before the array pass."""
    peaks = []
    for row, flags in zip(values.swapaxes(0, 1), flagged):
        probe, stokes, shape, reference = row if flags.all() else row[:, ~flags]
        peaks.append(
            (
                _refined_peak(probe),
                _refined_peak(stokes),
                float(shape[np.argmax(probe)]),
                _refined_peak(reference),
            )
        )
    return np.array(peaks).T


@st.composite
def peak_blocks(draw):
    """(values, flagged) blocks of shape (4, rows, n) and (rows, n).

    Values come from a few levels, so ties, flat rows and edge maxima are
    common, and from a continuous range.  Rows are flagged nowhere, at
    random points or everywhere.
    """
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 9))
    level = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    element = st.one_of(level, st.floats(0.0, 10.0))
    values = draw(hnp.arrays(np.float64, (4, rows, n), elements=element))
    flag = draw(st.sampled_from([st.just(False), st.booleans(), st.just(True)]))
    flagged = draw(hnp.arrays(bool, (rows, n), elements=flag))
    if draw(st.booleans()):  # some rows flagged everywhere, some nowhere
        flagged[: rows // 2] = True
        flagged[rows // 2 :] = False
    return values, flagged


class TestRowPeaks:
    @settings(deadline=None, max_examples=300)
    @given(peak_blocks())
    def test_array_pass_matches_per_row_refinement(self, block):
        values, flagged = block
        got = _row_peaks(values.copy(), flagged)
        want = reference_row_peaks(values, flagged)
        assert got.shape == want.shape == (4, values.shape[1])
        assert got.tobytes() == want.tobytes()

    def test_edges_ties_and_flat_rows(self):
        values = np.array(
            [
                [0.0, 1.0, 2.0, 3.0],  # maximum at the last point
                [3.0, 2.0, 1.0, 0.0],  # maximum at the first point
                [1.0, 3.0, 3.0, 0.0],  # tie: the first maximum wins, 3.375 from the second
                [2.0, 2.0, 2.0, 2.0],  # flat
                [1.0, 2.0, 4.0, 9.0],  # convex
                [0.0, 3.0, 2.5, 0.0],  # a refined interior peak
                [1.0 - 2.0**-53, 1.0, 1.0, 0.0],  # the curvature rounds to zero
                [0.0, 1.6706906974740514, 1.6706906974740514, 0.0],  # d**2 != d * d
            ]
        )
        block = np.stack([values, values[::-1], values, values])
        flagged = np.zeros(values.shape, dtype=bool)
        got = _row_peaks(block.copy(), flagged)
        assert got.tobytes() == reference_row_peaks(block, flagged).tobytes()
        assert got[0, :5].tolist() == [3.0, 3.0, 3.25, 2.0, 9.0]
        assert got[0, 5] > 3.0
        assert got[0, 6:].tolist() == [1.0, 1.879527034658308]

    def test_overflowing_square_raises_as_per_row(self):
        # Python's float pow raises where the squared difference overflows
        values = np.zeros((4, 1, 3))
        values[0, 0] = [0.0, 1e200, 9e199]
        with pytest.raises(OverflowError):
            reference_row_peaks(values, np.zeros((1, 3), dtype=bool))
        with pytest.raises(OverflowError):
            _row_peaks(values, np.zeros((1, 3), dtype=bool))
        # a row with a flagged point is refined over its clean points alone
        values[0, 0] = [1e199, 1e200, 0.0]
        flagged = np.array([[False, False, True]])
        assert _row_peaks(values, flagged)[0].tolist() == [1e200]


class TestNonFiniteGrid:
    @pytest.mark.filterwarnings("error")
    def test_non_finite_grid_rejected_without_warnings(self, fig2_scenario, fig4_scenarios):
        scenario = fig4_scenarios["0.83"]
        endpoints = ((-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (-1.7e308, 1.7e308))
        for start, stop in endpoints:
            spec = SweepSpec(axis="two-photon-detuning", start=start, stop=stop, points=3)
            with pytest.raises(DomainError, match="finite"):
                spec.grid()
            with pytest.raises(DomainError, match="finite"):
                sweep_detuning(scenario, spec)
        spec = SweepSpec(axis="absorber-depth", start=1.0, stop=math.inf, points=3)
        with pytest.raises(DomainError, match="finite"):
            sweep_absorber_depth(fig2_scenario, spec)
        logarithmic = replace(spec, scale="logarithmic")
        with pytest.raises(DomainError, match="finite"):
            sweep_absorber_depth(fig2_scenario, logarithmic)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_profile_evaluated_without_warnings(self, fig4_scenarios):
        # the exact profile's denominator overflows at finite detunings this far out
        base = fig4_scenarios["0.83"]
        scenario = replace(base, options=replace(base.options, exact_absorber=True))
        inner = SweepSpec(axis="two-photon-detuning", start=-1e300, stop=1e300, points=3)
        records = sweep_detuning(scenario, inner)
        assert [r.absorber_profile for r in records][::2] == [0.0, 0.0]
        spec = SweepSpec(axis="absorber-depth", start=0.0, stop=1.0, points=3)
        assert len(sweep_absorber_depth(scenario, spec, inner_spec=inner)) == 3


class TestAsymmetryMetric:
    @staticmethod
    def _records(deltas, probe):
        return [
            SpectrumRecord(
                axis_value=d,
                probe_transmission=p,
                stokes_output=0.0,
                absorber_profile=0.0,
                eit_reference=1.0,
            )
            for d, p in zip(deltas, probe)
        ]

    def test_symmetric_curve_gives_zero(self):
        deltas = np.linspace(-5, 5, 41)
        records = self._records(deltas, np.exp(-deltas**2))
        assert asymmetry_metric(records) == 0.0

    def test_one_sided_curve_gives_one(self):
        deltas = np.linspace(-5, 5, 41)
        probe = np.where(deltas > 0, 1.0, 0.0)
        assert asymmetry_metric(self._records(deltas, probe)) == pytest.approx(1.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DomainError, match="at least one grid point"):
            asymmetry_metric([])

    def test_asymmetric_grid_rejected(self):
        deltas = np.linspace(-4, 5, 40)
        with pytest.raises(DomainError):
            asymmetry_metric(self._records(deltas, np.ones_like(deltas)))

    def test_bounded(self):
        rng = np.random.default_rng(3)
        deltas = np.linspace(-3, 3, 31)
        for _ in range(20):
            value = asymmetry_metric(self._records(deltas, rng.uniform(0.0, 2.0, size=31)))
            assert 0.0 <= value <= 1.0


class TestDefaults:
    def test_default_window_scales_with_eit_linewidth(self, fig2_scenario):
        spec = default_detuning_spec(fig2_scenario.eit)
        width = eit_linewidth(fig2_scenario.eit)
        assert spec.points == 401
        assert spec.stop == pytest.approx(20.0 * width)
        assert spec.start == pytest.approx(-20.0 * width)

    def test_degenerate_medium_falls_back(self):
        eit = EitMedium(gamma_ge=300.0, gamma_gs=0.0, delta_control=3036.0, omega_c=0.0, depth=4.0)
        spec = default_detuning_spec(eit)
        assert spec.stop > 0
