import cmath
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lambda_mixer import scan
from lambda_mixer.errors import DomainError, SingularityError, ValidationError
from lambda_mixer.model import EitMedium, RamanAbsorber, ScanOptions, Scenario, SweepSpec
from lambda_mixer.propagation import _closed_form, _series, _workspace, coupling_entries, expm2
from lambda_mixer.scan import (
    BLOCK,
    SpectrumRecord,
    Sweep,
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


def kernel_sweep(scenario, spec):
    """sweep_detuning below its validation, for media that reach singular kernel points.

    gamma_ge = 0 puts poles at delta = +-omega_c: validation rejects such a medium,
    and the kernel must still flag those points and carry on.
    """
    profile, depth = absorber_loss_profile(scenario)
    grid, seed = spec.grid(), scenario.options.stokes_seed
    values, flagged = next(scan._row_groups(scenario.eit, profile, grid, np.array([depth]), seed))
    return Sweep(grid, *values[:, 0], flagged[0])


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
        with pytest.raises(ValidationError, match="eit.gamma_ge = 0.0: must be positive"):
            sweep_detuning(scenario, spec)
        records = kernel_sweep(scenario, spec)
        assert [r.flagged for r in records] == [True, False, True]

    def test_overflow_points_flagged(self):
        eit = EitMedium(gamma_ge=300.0, gamma_gs=0.0, delta_control=320.0, omega_c=50.0, depth=900.0)
        spec = SweepSpec(axis="two-photon-detuning", start=-1.0, stop=1.0, points=3)
        records = sweep_detuning(Scenario(eit=eit), spec)
        assert all(r.flagged for r in records)


def _refined_peak(values: np.ndarray) -> float:
    """Grid maximum with three-point parabolic refinement of the peak value."""
    i = int(np.argmax(values))
    if i == 0 or i == len(values) - 1:
        return float(values[i])
    y0, y1, y2 = float(values[i - 1]), float(values[i]), float(values[i + 1])
    curv = y0 - 2.0 * y1 + y2
    if curv >= 0.0:  # flat or degenerate; keep the grid maximum
        return y1
    return y1 - 0.125 * (y2 - y0) ** 2 / curv


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
        records = (kernel_sweep if case.startswith("singular") else sweep_detuning)(scenario, spec)
        profile, depth = absorber_loss_profile(scenario)
        for r in records:
            want = scalar_point(eit, profile(r.axis_value), depth, 0.5, r.axis_value)
            assert r.flagged == (want is None)
            got = (r.probe_transmission, r.stokes_output, r.absorber_profile, r.eit_reference)
            for g, w in zip(got, want or (0.0,) * 4):
                assert g == pytest.approx(w, rel=1e-12, abs=0.0)

    def test_exact_absorber_depth_scan_with_split_rows(self, fig2_scenario):
        # an inner grid longer than one block: every depth row is split
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
        for depth in (-5.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="nonnegative and finite"):
                peak_outputs(fig2_scenario, depth)
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

    def test_total_work_is_bounded_before_any_point_is_evaluated(self, fig2_scenario):
        # 402 x 100,000 points is just over the CLI's largest scan, 100,000 x 401
        depths = SweepSpec(axis="absorber-depth", start=0.0, stop=10.0, points=402)
        inner = SweepSpec(axis="two-photon-detuning", start=-100.0, stop=100.0, points=100_000)
        with mock.patch.object(scan, "_row_groups", side_effect=AssertionError("evaluated")):
            with pytest.raises(DomainError, match="^a depth scan of 402 depths x 100000 detunings "):
                sweep_absorber_depth(fig2_scenario, depths, inner_spec=inner)

    def test_depth_override_works_from_zero_native_depth(self, fig2_scenario):
        # the shape comes from the absorber section even when its own
        # effective depth vanishes (omega_a = 0 with finite gamma_cb)
        dark = replace(
            fig2_scenario, absorber=replace(fig2_scenario.absorber, omega_a=0.0, gamma_cb=75.0)
        )
        strong = peak_outputs(dark, 50.0)
        assert strong.probe_transmission == pytest.approx(0.95, rel=0.02)


class TestNumberTypes:
    """Whatever real number a field is given, the sweep computes in Python floats."""

    @pytest.mark.parametrize(
        "convert", [int, np.float64, np.float32, np.int64], ids=["int", "float64", "float32", "int64"]
    )
    def test_integral_values_sweep_as_their_floats(self, convert):
        # every eit field of the shipped sec5 medium but gamma_gs = 0.064 is an integer
        base = load_scenario("sec5_proposed_mix")[0]
        changes = {k: convert(v) for k, v in base.eit.__dict__.items() if k != "gamma_gs"}
        converted = replace(base, eit=replace(base.eit, **changes))
        assert converted.eit == base.eit
        spec = SweepSpec(axis="absorber-depth", start=0.0, stop=10.0, points=3)
        assert sweep_detuning(converted) == sweep_detuning(base)
        assert sweep_absorber_depth(converted, spec) == sweep_absorber_depth(base, spec)

    def test_a_201_digit_int_sweeps_as_its_float(self, fig4_scenarios):
        # as an int, delta_control**2 = 10**400 would fit no float inside the kernel
        base = fig4_scenarios["4.16"]
        big = sweep_detuning(replace(base, eit=replace(base.eit, delta_control=10**200)))
        assert big == sweep_detuning(replace(base, eit=replace(base.eit, delta_control=1e200)))


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

    def test_slices_and_non_integer_indices(self, sweep):
        # as on a list, not numpy's errors for a slice of .item() or a float index
        for part in (slice(1, 3), slice(None, None, -50), slice(398, 1000), slice(5, 2)):
            sliced = sweep[part]
            assert type(sliced) is Sweep
            assert list(sliced) == list(sweep)[part]
            assert not any(column.flags.writeable for column in sliced.columns)
        for index in (1.0, np.float64(1.0), "1", None):
            with pytest.raises(TypeError):
                sweep[index]
        assert sweep[np.int64(3)] == sweep[3]

    def test_records_are_plain_python(self, sweep):
        record = sweep[7]
        assert type(record) is SpectrumRecord
        assert [type(v) for v in record] == [float] * 5 + [bool]

    def test_iteration_matches_indexing(self, sweep):
        records = list(sweep)
        assert records == [sweep[i] for i in range(len(sweep))]
        assert all(type(r) is SpectrumRecord for r in records)

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_iteration_matches_indexing_across_blocks(self, n):
        # iteration reads BLOCK rows at a time; every row is read once, in order
        sweep = Sweep(*(np.arange(n) + 0.5 * k for k in range(1, 6)), np.arange(n) % 3 == 0)
        parts = (sweep, sweep[::-1], sweep[n - 2 :: -3], sweep[5:5], sweep[0:5:-1])
        assert [len(part) for part in parts] == [n, n, (n + 1) // 3, 0, 0]
        for part in parts:
            records = list(part)
            assert records == [part[i] for i in range(len(part))]
            assert all(list(map(type, r)) == [float] * 5 + [bool] for r in records)
            assert all(type(r) is SpectrumRecord for r in records)

    def test_iteration_holds_one_block_of_rows(self):
        n = 100_000  # 4.8 MB of columns; read out at once as Python values, ~17 MB
        sweep = Sweep(*(np.linspace(0.0, 1.0, n) + k for k in range(5)), np.zeros(n, bool))
        tracemalloc.start()
        try:
            count = sum(1 for _ in sweep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == n
        assert peak < 2e6

    def test_equal_only_to_a_sweep_with_equal_columns(self, sweep):
        assert sweep == Sweep(*sweep.columns)
        assert sweep == Sweep(*(column.copy() for column in sweep.columns))
        assert sweep != sweep[:-1]
        probe = sweep.probe_transmission.copy()
        probe[7] = np.nextafter(probe[7], math.inf)
        assert sweep != Sweep(sweep.axis_value, probe, *sweep.columns[2:])
        flagged = sweep.flagged.copy()
        flagged[7] = True
        assert sweep != Sweep(*sweep.columns[:-1], flagged)
        records = list(sweep)
        assert sweep != records and records != sweep
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

    def test_asymmetry_metric_reads_sweep_columns(self, sweep, monkeypatch):
        p = sweep.probe_transmission
        want = float(np.sum(np.abs(p - p[::-1])) / np.sum(p + p[::-1]))

        def no_records(*args):
            raise AssertionError("the sweep was read record by record")

        monkeypatch.setattr(Sweep, "__iter__", no_records)
        monkeypatch.setattr(Sweep, "__getitem__", no_records)
        assert asymmetry_metric(sweep) == want


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

    def test_overflowing_refinement_names_the_first_such_depth(self, fig2_scenario):
        # delta_control = 10: the peaks overflow below d_abs ~ 5000; in falling order the
        # first such depth lies in the third group of 10 rows
        scenario = replace(fig2_scenario, eit=replace(fig2_scenario.eit, delta_control=10.0))
        depths = np.linspace(20000.0, 1000.0, 39)
        overflowing = []
        for d_abs in depths.tolist():
            try:
                peak_outputs(scenario, d_abs)
            except OverflowError:
                overflowing.append(d_abs)
        assert 20 <= len(depths) - len(overflowing) < 30
        with pytest.raises(OverflowError) as err:
            scan._depth_scan(scenario, depths, None)
        assert str(err.value) == (
            f"peak refinement overflows at d_abs = {overflowing[0]!r} in {scenario.eit}"
        )


def reference_expm2(m00, m01, m10, m11):
    """The array form of expm2 before the workspace: every step makes a fresh array."""
    mu = 0.5 * (m00 + m11)
    a = 0.5 * (m00 - m11)
    q2 = a * a + m01 * m10
    mu, q2 = np.broadcast_arrays(mu, q2)
    q = np.sqrt(q2)
    small = np.abs(q) <= 1e-3
    safe = np.where(small, 1.0, q)
    ep, em = np.exp(mu + safe), np.exp(mu - safe)
    c, s = 0.5 * (ep + em), 0.5 * (ep - em) / safe
    if small.any():
        qs = q[small]
        c[small], s[small] = _series(np.exp(mu[small]), qs * qs)
    return c + s * a, s * m01, s * m10, c - s * a


def reference_row_groups(eit, profile, deltas, depths, seed):
    """scan._row_groups before the workspace: every block out of place and from scratch."""
    n = len(deltas)
    step = max(1, BLOCK // n)
    for r in range(0, len(depths), step):
        rows = depths[r : r + step]
        values = np.empty((4, len(rows), n))
        for c in range(0, n, BLOCK):
            delta = deltas[c : c + BLOCK]
            with np.errstate(all="ignore"):
                lam = profile(delta)
                m00, m01, m10, m11 = coupling_entries(eit, rows[:, None] * lam, delta)
                t00, t01, t10, t11 = reference_expm2(m00, m01, m10, m11)
                outputs = (
                    np.abs(t00 + t01 * seed) ** 2,
                    np.abs(t10 + t11 * seed) ** 2,
                    np.abs(lam) ** 2,
                    np.exp(2.0 * m00.real),
                )
            for out, value in zip(values[:, :, c : c + BLOCK], outputs):
                out[...] = value
        flagged = ~np.isfinite(values).all(axis=0)
        values[:, flagged] = 0.0
        yield values, flagged


MEDIA = {
    "fig2": EitMedium(300.0, 0.033189889272, 3036.0, 50.0, 6.465019137871),
    "dark": EitMedium(300.0, 0.064, 3036.0, 0.0, 4.0),  # omega_c = 0: no FWM coupling
    "singular": EitMedium(0.0, 0.0, 3036.0, 50.0, 5.0),  # poles at delta = +-50
    "overflow": EitMedium(300.0, 0.0, 320.0, 50.0, 900.0),  # exp overflows near resonance
}
ABSORBERS = {
    "none": None,
    "broad": RamanAbsorber(5000.0, 10000.0, 300.0, 300.0, 0.064, 85.0),
    "narrow": RamanAbsorber(272.2734021931099, 14700.0, 300.0, 300.0, 2.0, 85.0),
}


def sweep_case(medium, absorber, exact, seed, kind, points, start, stop, depths):
    """The Sweep of one drawn case: a detuning sweep, or a depth scan over points inner detunings."""
    options = ScanOptions(stokes_seed=seed, exact_absorber=exact)
    scenario = Scenario(eit=MEDIA[medium], absorber=ABSORBERS[absorber], options=options)
    detunings = SweepSpec(axis="two-photon-detuning", start=start, stop=stop, points=points)
    singular = medium == "singular"  # below validation, which rejects gamma_ge = 0
    if kind == "detuning":
        return (kernel_sweep if singular else sweep_detuning)(scenario, detunings)
    spec = SweepSpec(axis="absorber-depth", start=0.0, stop=float(depths), points=depths)
    if singular:
        return scan._depth_scan(scenario, spec.grid(), detunings)
    return sweep_absorber_depth(scenario, spec, inner_spec=detunings)


@st.composite
def sweep_cases(draw):
    kind = draw(st.sampled_from(["detuning", "depth"]))
    absorbers = ["broad", "narrow"] if kind == "depth" else sorted(ABSORBERS)
    sizes = [3, 401, BLOCK, BLOCK + 905, 2 * BLOCK + 1] if kind == "detuning" else [11, 401, 1000, BLOCK + 905]
    return dict(
        medium=draw(st.sampled_from(sorted(MEDIA))),
        absorber=draw(st.sampled_from(absorbers)),
        exact=draw(st.booleans()),
        seed=draw(st.sampled_from([0.0, 0.5, 1.0])),
        kind=kind,
        points=draw(st.sampled_from(sizes)),
        start=-draw(st.sampled_from([50.0, 400.0, 3e3, 1e9])),
        stop=draw(st.sampled_from([50.0, 400.0, 1e5, 1e9])),
        depths=draw(st.integers(2, 23)),  # with 401 or 1000 inner points, groups of 10 or 4 rows
    )


class TestWorkspaceKernel:
    """Sweeps evaluate every block into one reused workspace, with the bytes of fresh arrays."""

    @settings(deadline=None, max_examples=40)
    @given(sweep_cases())
    # a singular first block, then clean ones: the flagged block leaves nothing behind
    @example(dict(medium="singular", absorber="narrow", exact=False, seed=0.5, kind="detuning",
                  points=2 * BLOCK + 1, start=-50.0, stop=1e5, depths=2))
    # an overflowing first block, then clean ones
    @example(dict(medium="overflow", absorber="none", exact=False, seed=1.0, kind="detuning",
                  points=2 * BLOCK + 1, start=-50.0, stop=1e5, depths=2))
    # far detunings on the |q| <= 1e-3 series, near ones on cosh/sinh
    @example(dict(medium="fig2", absorber="none", exact=False, seed=1.0, kind="detuning",
                  points=BLOCK + 905, start=-1e9, stop=400.0, depths=2))
    @example(dict(medium="dark", absorber="narrow", exact=True, seed=0.5, kind="detuning",
                  points=401, start=-3e3, stop=1e5, depths=2))
    # 23 depths in groups of 10 rows, and rows split into a block and a partial block
    @example(dict(medium="fig2", absorber="broad", exact=False, seed=1.0, kind="depth",
                  points=401, start=-400.0, stop=400.0, depths=23))
    @example(dict(medium="dark", absorber="narrow", exact=True, seed=1.0, kind="depth",
                  points=BLOCK + 905, start=-1e9, stop=1e5, depths=3))
    def test_columns_match_out_of_place_blocks(self, case):
        with mock.patch.object(scan, "_row_groups", reference_row_groups):
            try:
                want = sweep_case(**case)
            except OverflowError:  # a depth-scan peak refinement squares past the double range
                want = None
        if want is None:
            with pytest.raises(OverflowError):
                sweep_case(**case)
            return
        got = sweep_case(**case)
        for g, w in zip(got.columns, want.columns, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_examples_reach_the_series_and_the_flags(self):
        # the @examples above hold points on both expm2 branches, and flagged and clean blocks
        fig2 = MEDIA["fig2"]
        deltas = np.linspace(-1e9, 400.0, BLOCK + 905)
        m00, m01, m10, m11 = coupling_entries(fig2, 0j, deltas)
        q = np.sqrt((0.5 * (m00 - m11)) ** 2 + m01 * m10)
        assert (np.abs(q) <= 1e-3).any() and (np.abs(q) > 1e-3).any()
        for medium in ("singular", "overflow"):
            case = dict(medium=medium, absorber="none", exact=False, seed=0.5, kind="detuning",
                        points=2 * BLOCK + 1, start=-50.0, stop=1e5, depths=2)
            flagged = sweep_case(**case).flagged
            assert flagged[:BLOCK].any() and not flagged[BLOCK:].any()

    def test_columns_share_no_memory(self, fig2_scenario, fig4_scenarios):
        workspaces = []

        def recorded(*args):
            workspaces.append(scan_workspace(*args))
            return workspaces[-1]

        scan_workspace = scan._workspace
        fig4 = fig4_scenarios["4.16"]
        wide = default_detuning_spec(fig4.eit, 2 * BLOCK + 1)
        with mock.patch.object(scan, "_workspace", recorded):
            sweeps = [
                sweep_detuning(fig4, wide),
                sweep_detuning(fig4, wide),
                sweep_absorber_depth(fig2_scenario, fig2_scenario.sweep),
                sweep_absorber_depth(fig2_scenario, fig2_scenario.sweep),
            ]
        assert len(workspaces) == len(sweeps)
        columns = [column for sweep in sweeps for column in sweep.columns]
        for i, column in enumerate(columns):
            assert not any(np.shares_memory(column, other) for other in columns[i + 1 :])
            assert not any(np.shares_memory(column, b) for ws in workspaces for b in ws)

    @pytest.mark.parametrize(
        "shapes", [((5,), (5,), (5,), (5,)), ((3, 1), (), (4,), (1, 4)), ((2, 1, 3), (3,), (), ())]
    )
    def test_expm2_broadcasts_into_separate_arrays(self, shapes):
        rng = np.random.default_rng(len(shapes[0]))
        entries = [
            complex(*rng.normal(size=2)) if shape == () else rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for shape in shapes
        ]
        got = _closed_form(*entries, _workspace(np.broadcast_shapes(*shapes)))
        want = reference_expm2(*entries)
        for g, w in zip(got, want, strict=True):
            assert g.shape == w.shape == np.broadcast_shapes(*shapes)
            assert g.tobytes() == w.tobytes()
        assert not any(np.shares_memory(a, b) for i, a in enumerate(got) for b in got[i + 1 :])


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
    def _sweep(deltas, probe):
        n = len(deltas)
        return Sweep(
            np.array(deltas, float),
            np.array(probe, float),
            np.zeros(n),
            np.zeros(n),
            np.ones(n),
            np.zeros(n, bool),
        )

    def test_symmetric_curve_gives_zero(self):
        deltas = np.linspace(-5, 5, 41)
        assert asymmetry_metric(self._sweep(deltas, np.exp(-deltas**2))) == 0.0

    def test_one_sided_curve_gives_one(self):
        deltas = np.linspace(-5, 5, 41)
        probe = np.where(deltas > 0, 1.0, 0.0)
        assert asymmetry_metric(self._sweep(deltas, probe)) == pytest.approx(1.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DomainError, match="at least one grid point"):
            asymmetry_metric(self._sweep([], []))

    def test_asymmetric_grid_rejected(self):
        deltas = np.linspace(-4, 5, 40)
        with pytest.raises(DomainError):
            asymmetry_metric(self._sweep(deltas, np.ones_like(deltas)))

    def test_bounded(self):
        rng = np.random.default_rng(3)
        deltas = np.linspace(-3, 3, 31)
        for _ in range(20):
            value = asymmetry_metric(self._sweep(deltas, rng.uniform(0.0, 2.0, size=31)))
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
