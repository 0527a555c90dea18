import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from lambda_mixer.errors import DomainError, IntegrationError, SingularityError
from lambda_mixer.model import CouplingMatrix, EitMedium, FieldPair, RamanAbsorber
from lambda_mixer.propagation import (
    analytic_resonant_output,
    approx_output_with_absorber,
    build_coupling_matrix,
    coupling_entries,
    eit_reference_transmission,
    expm2,
    n_fwm,
    noise_suppression_ratio,
    propagate,
)
from lambda_mixer.scan import absorber_loss_profile, default_detuning_spec
from lambda_mixer.scenario import load_scenario
from lambda_mixer.susceptibility import chi_abs, normalized_lineshape

RNG_SEED = 20240811


def lossless_matrix(eit: EitMedium) -> CouplingMatrix:
    """Resonant generator with the idler self-gain diagonal zeroed."""
    m = np.array(build_coupling_matrix(eit, 0j, 0.0).m)
    m[1, 1] = 0.0
    return CouplingMatrix(m=m, delta=0.0)


def fig2_calibration_eit() -> EitMedium:
    # hyperbolic mixing parameter arccosh(sqrt(2)): doubled output intensity
    theta = math.acosh(math.sqrt(2.0))
    return EitMedium(gamma_ge=300.0, gamma_gs=0.0, delta_control=300.0 / (theta / 10.0), omega_c=50.0, depth=10.0)


class TestCouplingMatrix:
    def test_required_resonant_limit(self, sec5_eit):
        eit = replace(sec5_eit, gamma_gs=0.0)
        m = build_coupling_matrix(eit, 0j, 0.0).m
        theta = 15.0 * 300.0 / 3036.0
        expected = np.array([[0.0, -1j * theta], [1j * theta, 15.0 * (300.0 / 3036.0) ** 2]])
        assert np.abs(m - expected).max() < 1e-12

    def test_absorber_loss_subtracted_from_idler_diagonal(self, sec5_eit):
        eit = replace(sec5_eit, gamma_gs=0.0)
        base = build_coupling_matrix(eit, 0j, 0.0).m
        loss = 2.5 + 0.7j
        with_loss = build_coupling_matrix(eit, loss, 0.0).m
        assert with_loss[1, 1] == pytest.approx(base[1, 1] - loss)
        assert np.abs(with_loss[:1] - base[:1]).max() == 0.0

    def test_non_normal_off_resonance(self, sec5_eit):
        m = build_coupling_matrix(sec5_eit, 0j, 2.0).m
        commutator = m @ m.conj().T - m.conj().T @ m
        assert np.abs(commutator).max() > 1e-6

    def test_eigenvalue_gain_matches_hyperbolic_oracle(self):
        eit = fig2_calibration_eit()
        theta = eit.depth * eit.gamma_ge / eit.delta_control
        eigenvalues = np.linalg.eigvals(np.array(lossless_matrix(eit).m))
        net_gain = math.exp(max(eigenvalues.real))
        assert net_gain == pytest.approx(math.cosh(theta) + math.sinh(theta), rel=1e-6)

    def test_zero_control_reduces_to_two_level_line(self):
        eit = EitMedium(gamma_ge=300.0, gamma_gs=0.0, delta_control=1e12, omega_c=0.0, depth=4.0)
        for delta in (0.0, 17.0, -230.0):
            m00, m01, m10, m11 = coupling_entries(eit, 0j, delta)
            assert m01 == m10 == 0j
            assert m00 == pytest.approx(-1j * 4.0 * 300.0 / complex(delta, 300.0))

    def test_singularity_raised_for_degenerate_inputs(self):
        # only reachable with unphysical gamma_ge = 0 and no control
        eit = EitMedium(gamma_ge=0.0, gamma_gs=0.0, delta_control=3036.0, omega_c=1.0, depth=1.0)
        with pytest.raises(SingularityError):
            coupling_entries(eit, 0j, delta=1.0)


class TestExpm2:
    def test_matches_scipy_on_random_matrices(self):
        rng = np.random.default_rng(RNG_SEED)
        worst = 0.0
        for _ in range(300):
            scale = rng.uniform(0.01, 30.0)
            m = scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            ours = np.array(expm2(*map(complex, m.ravel()))).reshape(2, 2)
            reference = expm(m)
            worst = max(worst, np.abs(ours - reference).max() / np.abs(reference).max())
        assert worst < 1e-11

    def test_small_generator_series_branch(self):
        m = np.array([[1e-6 + 1e-7j, -1e-5j], [1e-5j, -1e-6]])
        ours = np.array(expm2(*map(complex, m.ravel()))).reshape(2, 2)
        assert np.abs(ours - expm(m)).max() < 1e-15

    def test_strongly_dissipative_stays_finite(self):
        # naive cosh(400) would overflow; the slaved idler keeps only the
        # virtual component ~ |m01*m10| / m11^2
        m = np.array([[0.0, -0.1j], [0.1j, -800.0]])
        ours = np.array(expm2(*map(complex, m.ravel()))).reshape(2, 2)
        assert np.all(np.isfinite(ours.view(float)))
        reference = expm(m)
        assert np.abs(ours - reference).max() < 1e-12
        assert abs(ours[1, 1]) == pytest.approx(0.01 / 800.0**2, rel=1e-3)
        assert abs(ours[0, 0]) == pytest.approx(1.0, abs=1e-4)


# zero decay on every coherence makes each kernel's denominator vanish at detuning 1.0
SINGULAR_EIT = EitMedium(gamma_ge=0.0, gamma_gs=0.0, delta_control=3036.0, omega_c=1.0, depth=1.0)
SINGULAR_ABSORBER = RamanAbsorber(
    omega_a=math.sqrt(101.0), delta_2=100.0, gamma_ab=0.0, gamma_ac=1.0, gamma_cb=0.0, depth_2l=1.0
)


class TestBranchDispatch:
    """Scalars of every numeric type take the cmath branch; numpy arrays broadcast."""

    @pytest.mark.parametrize(
        "kind",
        [float, int, complex, np.float32, np.float64, np.complex128],
        ids=lambda kind: kind.__name__,
    )
    def test_scalars_take_the_cmath_branch(self, kind):
        values = (
            *expm2(kind(1), kind(0), kind(0), kind(1)),
            *coupling_entries(SINGULAR_EIT, 0j, kind(2)),
            chi_abs(SINGULAR_ABSORBER, kind(2)),
        )
        assert all(isinstance(v, (complex, np.complexfloating)) for v in values)
        with pytest.raises(OverflowError):
            expm2(kind(1000), kind(0), kind(0), kind(1))
        with pytest.raises(SingularityError):
            coupling_entries(SINGULAR_EIT, 0j, kind(1))
        with pytest.raises(SingularityError):
            chi_abs(SINGULAR_ABSORBER, kind(1))

    def test_one_element_array_takes_the_array_branch(self):
        one = np.array([1.0])
        with np.errstate(all="ignore"):
            results = (
                expm2(1000.0 * one, 0j, 0j, 1.0),
                coupling_entries(SINGULAR_EIT, 0j, one),
                (chi_abs(SINGULAR_ABSORBER, one),),
            )
        for values in results:
            assert all(isinstance(v, np.ndarray) and v.shape == (1,) for v in values)
            assert not np.isfinite(np.array(values)).all()


def assert_columns_match_scalar(got, scalar_fn, args):
    """Each column of the array-branch result against the scalar branch, to 1e-12 of its scale."""
    got = np.array(np.broadcast_arrays(*got))
    for j, point in enumerate(args):
        try:
            want = np.array(scalar_fn(*point))
        except (SingularityError, OverflowError):
            assert not np.all(np.isfinite(got[:, j]))
            continue
        scale = np.abs(want).max()
        assert np.abs(got[:, j] - want).max() <= 1e-12 * scale


_entry = st.complex_numbers(max_magnitude=30.0, allow_nan=False, allow_infinity=False)
_real = st.floats(-30.0, 30.0)


class TestArrayKernels:
    """The broadcasting branch of the kernels against their scalar (cmath) branch."""

    @settings(deadline=None)
    @given(st.lists(st.tuples(_entry, _entry, _entry, _entry), min_size=1, max_size=40))
    def test_expm2_lossy(self, matrices):
        assert_columns_match_scalar(expm2(*np.array(matrices).T), expm2, matrices)

    @settings(deadline=None)
    @given(st.lists(st.tuples(_real, _real), min_size=1, max_size=40))
    def test_expm2_lossless(self, params):
        # traceless Bogoliubov generators: q is real or imaginary, through zero
        matrices = [(1j * a, 1j * th, -1j * th, -1j * a) for a, th in params]
        assert_columns_match_scalar(expm2(*np.array(matrices).T), expm2, matrices)

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(5e-4, 2e-3),
                st.floats(0.0, 2.0 * math.pi),
                st.floats(0.0, 1.0),
                st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
                st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_expm2_straddles_series_threshold(self, params):
        # |q| on both sides of the 1e-3 switch between series and cosh/sinh
        matrices = []
        for r, phase, t, mu, b in params:
            q = cmath.rect(r, phase)
            a = q * t
            matrices.append((mu + a, b, q * q * (1.0 - t * t) / b, mu - a))
        assert_columns_match_scalar(expm2(*np.array(matrices).T), expm2, matrices)

    @settings(deadline=None)
    @given(
        st.floats(1.0, 1000.0),
        st.floats(0.0, 1.0),
        st.floats(100.0, 1e4),
        st.sampled_from([-1.0, 1.0]),
        st.one_of(st.just(0.0), st.floats(1.0, 200.0)),
        st.floats(0.0, 50.0),
        st.lists(
            st.tuples(
                st.floats(-1000.0, 1000.0),
                st.complex_numbers(max_magnitude=100.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_coupling_entries(self, g, gs, dl, sign, w, depth, points):
        eit = EitMedium(gamma_ge=g, gamma_gs=gs, delta_control=sign * dl, omega_c=w, depth=depth)
        deltas = np.array([d for d, _ in points])
        losses = np.array([loss for _, loss in points])
        with np.errstate(all="ignore"):
            got = coupling_entries(eit, losses, deltas)
        args = [(eit, loss, d) for d, loss in points]
        assert_columns_match_scalar(got, coupling_entries, args)


def assert_matches_mpmath(matrices):
    """Both expm2 branches against a 40-digit mpmath.expm of each (m00, m01, m10, m11).

    Error at most 1e-12 of the largest exact entry, and at most 1e-12 relative
    on every entry that is at least 1e-3 of it; smaller entries, down to the
    exp(-2 D) underflow scale, are held to the absolute bound only.  Where an
    exact entry lies beyond the double range, the scalar branch must raise
    OverflowError and the array branch must give a non-finite entry.
    """
    import mpmath

    with np.errstate(all="ignore"):  # entries beyond the double range are checked below
        array = np.array(np.broadcast_arrays(*expm2(*np.array(matrices).T)))
    with mpmath.workdps(40):
        for j, m in enumerate(matrices):
            exact = mpmath.expm(mpmath.matrix([[m[0], m[1]], [m[2], m[3]]]))
            want = np.array([complex(exact[i, k]) for i in (0, 1) for k in (0, 1)])
            if not np.isfinite(want).all():
                with pytest.raises(OverflowError):
                    expm2(*m)
                assert not np.isfinite(array[:, j]).all()
                continue
            scale = np.abs(want).max()
            relevant = np.abs(want) >= 1e-3 * scale
            for got in (np.array(expm2(*m)), array[:, j]):
                err = np.abs(got - want)
                assert err.max() <= 1e-12 * scale
                assert np.all(err[relevant] <= 1e-12 * np.abs(want[relevant]))


class TestExpm2Oracle:
    @settings(deadline=None, max_examples=50)
    @given(
        st.floats(100.0, 1000.0),
        st.floats(0.0, 1.0),
        st.floats(1.0, 200.0),
        st.floats(0.0, 50.0),
        st.floats(0.05, 20.0),
        st.sampled_from([-1.0, 1.0]),
        st.lists(
            st.tuples(st.floats(-1000.0, 1000.0), st.floats(0.0, 1000.0), st.floats(0.01, 100.0)),
            min_size=1,
            max_size=10,
        ),
    )
    def test_generators(self, g, gs, w, depth, strength, sign, points):
        # FWM strength depth * gamma_ge / |delta_control| up to 20; idler
        # losses D_abs * lineshape with D_abs up to 1e3
        dl = sign * max(depth * g / strength, 1.0)
        eit = EitMedium(gamma_ge=g, gamma_gs=gs, delta_control=dl, omega_c=w, depth=depth)
        assert_matches_mpmath(
            [
                coupling_entries(eit, d_abs * normalized_lineshape(delta, 0.0, hwhm), delta)
                for delta, d_abs, hwhm in points
            ]
        )

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.floats(5e-4, 2e-3),
                st.floats(0.0, 2.0 * math.pi),
                st.floats(0.0, 1.0),
                st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
                st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_straddles_series_threshold(self, params):
        matrices = []
        for r, phase, t, mu, b in params:
            q = cmath.rect(r, phase)
            a = q * t
            matrices.append((mu + a, b, q * q * (1.0 - t * t) / b, mu - a))
        assert_matches_mpmath(matrices)

    @pytest.mark.parametrize(
        "name, samples", [("fig2_default", 240), ("fig4_dabs_0.83", 40), ("fig4_dabs_41.6", 40)]
    )
    def test_shipped_grids(self, name, samples):
        # generators of the shipped scans, built as scan._row_groups builds them:
        # fig2's depth rows x inner detunings, fig4's one row at the effective depth
        scenario = load_scenario(name)[0]
        profile, depth = absorber_loss_profile(scenario)
        depths = scenario.sweep.grid() if scenario.sweep else np.array([depth])
        deltas = default_detuning_spec(scenario.eit).grid()
        entries = coupling_entries(scenario.eit, depths[:, None] * profile(deltas), deltas)
        entries = np.array(np.broadcast_arrays(*entries)).reshape(4, -1)
        picked = np.random.default_rng(RNG_SEED).choice(entries.shape[1], samples, replace=False)
        assert_matches_mpmath(entries[:, picked].T.tolist())


class TestPropagate:
    def test_zero_generator_is_identity(self):
        cm = CouplingMatrix(m=np.zeros((2, 2), complex), delta=0.0)
        out, transfer = propagate(cm, FieldPair(0.3 + 0.1j, -2j))
        assert out == FieldPair(0.3 + 0.1j, -2j)
        assert np.array_equal(transfer.t, np.eye(2))

    def test_bogoliubov_generator_closed_form(self):
        theta = 0.77
        cm = CouplingMatrix(m=np.array([[0, 1j * theta], [-1j * theta, 0]]), delta=0.0)
        t = propagate(cm, FieldPair(1.0, 0.0))[1].t
        expected = np.array(
            [
                [math.cosh(theta), 1j * math.sinh(theta)],
                [-1j * math.sinh(theta), math.cosh(theta)],
            ]
        )
        assert np.abs(t - expected).max() < 1e-12

    def test_calibration_matrix_matches_analytic_output(self):
        eit = fig2_calibration_eit()
        cm = lossless_matrix(eit)
        out, _ = propagate(cm, FieldPair(1.0, 0.0))
        expected = analytic_resonant_output(eit, FieldPair(1.0, 0.0))
        assert abs(out.a_s - expected.a_s) < 1e-6
        assert abs(out.a_i_dag - expected.a_i_dag) < 1e-6
        assert abs(out.a_s) ** 2 == pytest.approx(2.0, rel=1e-9)

    def test_methods_agree(self, sec5_eit):
        cm = build_coupling_matrix(sec5_eit, 1.5 + 0.4j, delta=2.3)
        out_exp, t_exp = propagate(cm, FieldPair(1.0, 0.5j))
        out_rk, t_rk = propagate(cm, FieldPair(1.0, 0.5j), method="adaptive-rk")
        scale = np.abs(t_exp.t).max()
        assert np.abs(t_exp.t - t_rk.t).max() / scale < 1e-8
        assert abs(out_exp.a_s - out_rk.a_s) / scale < 1e-8

    def test_unknown_method_rejected(self, sec5_eit):
        cm = build_coupling_matrix(sec5_eit)
        with pytest.raises(ValueError, match="unknown propagation method"):
            propagate(cm, FieldPair(1.0, 0.0), method="euler")

    @pytest.mark.parametrize("method", [None, 3, b"adaptive-rk"])
    def test_non_string_method_rejected(self, sec5_eit, method):
        cm = build_coupling_matrix(sec5_eit)
        with pytest.raises(ValueError, match="unknown propagation method"):
            propagate(cm, FieldPair(1.0, 0.0), method=method)

    @pytest.mark.parametrize("method", ["Matrix-Exponential", "ADAPTIVE-RK"])
    def test_method_name_case_insensitive(self, sec5_eit, method):
        cm = build_coupling_matrix(sec5_eit, 1.5 + 0.4j, delta=2.3)
        out, transfer = propagate(cm, FieldPair(1.0, 0.5j), method=method)
        want_out, want_transfer = propagate(cm, FieldPair(1.0, 0.5j), method=method.lower())
        assert out == want_out
        assert np.array_equal(transfer.t, want_transfer.t)

    def test_adaptive_rk_integrates_once(self, sec5_eit, monkeypatch):
        # the whole transfer matrix in one solve_ivp pass, not one per column
        import scipy.integrate

        calls = []
        solve_ivp = scipy.integrate.solve_ivp
        monkeypatch.setattr(
            scipy.integrate, "solve_ivp", lambda *a, **k: calls.append(a) or solve_ivp(*a, **k)
        )
        cm = build_coupling_matrix(sec5_eit, 1.5 + 0.4j, delta=2.3)
        propagate(cm, FieldPair(1.0, 0.0), method="adaptive-rk")
        assert len(calls) == 1

    @settings(deadline=None, max_examples=40)
    @given(
        st.floats(100.0, 1000.0),
        st.floats(0.0, 1.0),
        st.floats(1.0, 200.0),
        st.floats(0.0, 50.0),
        st.floats(0.05, 10.0),
        st.sampled_from([-1.0, 1.0]),
        st.floats(-1000.0, 1000.0),
        st.builds(complex, st.floats(0.0, 50.0), st.floats(-25.0, 25.0)),
        st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
    )
    def test_adaptive_rk_agrees_with_expm2(self, g, gs, w, depth, strength, sign, delta, loss, a_s, a_i):
        # lossy generators; inputs with |a_s| + |a_i| <= 1 bound the output error by that of T
        dl = sign * max(depth * g / strength, 1.0)
        eit = EitMedium(gamma_ge=g, gamma_gs=gs, delta_control=dl, omega_c=w, depth=depth)
        cm = build_coupling_matrix(eit, loss, delta)
        out_exp, t_exp = propagate(cm, FieldPair(a_s, a_i))
        out_rk, t_rk = propagate(cm, FieldPair(a_s, a_i), method="adaptive-rk")
        tol = 1e-8 * max(np.abs(t_exp.t).max(), 1.0)
        assert np.abs(t_rk.t - t_exp.t).max() <= tol
        assert abs(out_rk.a_s - out_exp.a_s) <= tol
        assert abs(out_rk.a_i_dag - out_exp.a_i_dag) <= tol

    def test_integration_failure_carries_last_zeta(self, sec5_eit, monkeypatch):
        import scipy.integrate

        class FailedSolution:
            success = False
            message = "step size underflow"
            t = np.array([0.0, 0.37])

        monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *a, **k: FailedSolution())
        cm = build_coupling_matrix(sec5_eit)
        with pytest.raises(IntegrationError) as err:
            propagate(cm, FieldPair(1.0, 0.0), method="adaptive-rk")
        assert err.value.last_zeta == pytest.approx(0.37)

    def test_integration_failure_raises_without_warnings(self):
        # strongly amplifying generator: DOP853 overflows before it gives up
        cm = build_coupling_matrix(EitMedium(300.0, 0.0, 8.0, 50.0, 20.0), 0j, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError):
                propagate(cm, FieldPair(1.0, 0.0), method="adaptive-rk")

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(200):
            depth = rng.uniform(0.0, 5.0)
            ratio = rng.uniform(0.001, 0.1)
            eit = EitMedium(300.0, 0.0, 300.0 / ratio, 50.0, depth)
            fields = FieldPair(
                complex(rng.standard_normal(), rng.standard_normal()),
                complex(rng.standard_normal(), rng.standard_normal()),
            )
            out, _ = propagate(lossless_matrix(eit), fields)
            expected = analytic_resonant_output(eit, fields)
            norm = max(abs(expected.a_s), abs(expected.a_i_dag))
            assert abs(out.a_s - expected.a_s) / norm < 1e-6
            assert abs(out.a_i_dag - expected.a_i_dag) / norm < 1e-6

    def test_symplectic_invariant(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(200):
            eit = EitMedium(300.0, 0.0, 300.0 / rng.uniform(0.001, 0.1), 50.0, rng.uniform(0.0, 5.0))
            t = propagate(lossless_matrix(eit), FieldPair(1.0, 0.0))[1].t
            assert abs(abs(t[0, 0]) ** 2 - abs(t[0, 1]) ** 2 - 1.0) < 1e-9
            assert abs(abs(t[1, 1]) ** 2 - abs(t[1, 0]) ** 2 - 1.0) < 1e-9

    def test_dissipative_with_absorber(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        eit = EitMedium(300.0, 0.01, 1e12, 50.0, 5.0)  # FWM coupling switched off
        for _ in range(100):
            loss = complex(rng.uniform(0.0, 30.0), rng.uniform(-5.0, 5.0))
            delta = rng.uniform(-10.0, 10.0)
            out, _ = propagate(build_coupling_matrix(eit, loss, delta), FieldPair(0.0, 1.0))
            assert abs(out.a_i_dag) <= 1.0 + 1e-12

    def test_reciprocal_scan_symmetry(self):
        # centered absorber, gamma_gs = 0: probe transmission even in detuning
        eit = EitMedium(300.0, 0.0, 3036.0, 50.0, 6.0)
        for delta in (0.4, 1.3, 7.9, 41.0):
            t_plus = propagate(
                build_coupling_matrix(eit, 3.0 * normalized_lineshape(delta, 0.0, 2.0), delta),
                FieldPair(1.0, 0.0),
            )[1].t
            t_minus = propagate(
                build_coupling_matrix(eit, 3.0 * normalized_lineshape(-delta, 0.0, 2.0), -delta),
                FieldPair(1.0, 0.0),
            )[1].t
            assert abs(t_plus[0, 0]) ** 2 == pytest.approx(abs(t_minus[0, 0]) ** 2, rel=1e-12)


class TestAnalyticResonantOutput:
    def test_zero_depth_is_identity(self):
        eit = EitMedium(300.0, 0.0, 3036.0, 50.0, 0.0)
        fields = FieldPair(0.2 - 1j, 0.5)
        assert analytic_resonant_output(eit, fields) == fields

    def test_intensity_doubling_point(self):
        eit = fig2_calibration_eit()
        out = analytic_resonant_output(eit, FieldPair(1.0, 0.0))
        assert abs(out.a_s) ** 2 == pytest.approx(2.0, rel=1e-12)

    def test_sec5_gain(self, sec5_eit):
        theta = 15.0 * 300.0 / 3036.0
        assert theta == pytest.approx(1.48, abs=0.005)
        out = analytic_resonant_output(sec5_eit, FieldPair(1.0, 0.0))
        assert abs(out.a_s) ** 2 == pytest.approx(math.cosh(theta) ** 2, rel=1e-12)
        assert abs(out.a_s) ** 2 == pytest.approx(5.3, rel=0.02)


class TestApproxOutputWithAbsorber:
    def test_unity_transmission_limit(self):
        eit = EitMedium(300.0, 0.0, 15000.0, 50.0, 1e-6)
        out = approx_output_with_absorber(eit, 1e6, FieldPair(1.0, 0.0))
        assert abs(out.a_s) == pytest.approx(1.0, abs=1e-9)

    def test_signal_amplitude_example(self):
        # gamma/Delta = 0.02, depth 10, absorber depth 100
        eit = EitMedium(300.0, 0.0, 15000.0, 50.0, 10.0)
        out = approx_output_with_absorber(eit, 100.0, FieldPair(1.0, 0.0))
        assert abs(out.a_s) == pytest.approx(math.exp(10.0 * 0.02**2 * 0.1), rel=1e-12)
        assert abs(out.a_s) == pytest.approx(1.0004, abs=1e-4)

    def test_seeded_idler_conversion_example(self):
        eit = EitMedium(300.0, 0.0, 15000.0, 50.0, 10.0)
        out = approx_output_with_absorber(eit, 100.0, FieldPair(0.0, 1.0))
        assert abs(out.a_s) == pytest.approx(0.5 * 0.1 * 0.02 * 1.0004, rel=1e-4)

    def test_zero_absorber_depth_rejected(self, sec5_eit):
        with pytest.raises(DomainError):
            approx_output_with_absorber(sec5_eit, 0.0, FieldPair(1.0, 0.0))

    def test_out_of_regime_warns(self, sec5_eit):
        with pytest.warns(UserWarning, match="validity regime"):
            approx_output_with_absorber(sec5_eit, 1.0, FieldPair(1.0, 0.0))

    def test_containment_against_full_propagation(self):
        # inside the validity regime the reduced formula tracks the full
        # solve within 5 percent on the output signal magnitude; the absorber
        # depth sits just inside the regime boundary (the hardest case)
        import warnings

        for ratio in np.linspace(0.005, 0.05, 10):
            for depth in np.linspace(1.0, 10.0, 10):
                eit = EitMedium(300.0, 0.0, 300.0 / ratio, 50.0, depth)
                d_abs = 10.000001 * depth * ratio
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    approx = approx_output_with_absorber(eit, d_abs, FieldPair(1.0, 1.0))
                full, _ = propagate(build_coupling_matrix(eit, d_abs, 0.0), FieldPair(1.0, 1.0))
                assert abs(approx.a_s) == pytest.approx(abs(full.a_s), rel=0.05)


class TestNoiseQuantities:
    def test_n_fwm_zero_depth(self):
        assert n_fwm(EitMedium(300.0, 0.0, 3036.0, 50.0, 0.0)) == 0.0

    def test_n_fwm_sec5(self, sec5_eit):
        theta = 15.0 * 300.0 / 3036.0
        assert n_fwm(sec5_eit) == pytest.approx(math.sinh(theta) ** 2, rel=1e-12)
        assert n_fwm(sec5_eit) == pytest.approx(4.3, rel=0.02)

    def test_n_fwm_small_argument(self):
        eit = EitMedium(300.0, 0.0, 300.0 / 1e-3, 50.0, 1.0)
        assert n_fwm(eit) == pytest.approx(1e-6, rel=1e-5)

    def test_suppression_ratio_sec5(self, sec5_eit):
        ratio = 300.0 / 3036.0
        frac = 15.0 / 16.5
        expected = (frac * ratio) ** 2 * math.exp(-2.0 * 15.0 * ratio * (1.0 - ratio * frac))
        value = noise_suppression_ratio(sec5_eit, 16.5)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(5e-4, rel=0.20)

    def test_suppression_vanishes_for_infinite_absorber(self, sec5_eit):
        assert noise_suppression_ratio(sec5_eit, 1e12) < 1e-20

    def test_suppression_quadratic_in_coupling(self):
        values = []
        for ratio in (1e-6, 5e-7):
            eit = EitMedium(300.0, 0.0, 300.0 / ratio, 50.0, 15.0)
            values.append(noise_suppression_ratio(eit, 16.5))
        assert values[0] / values[1] == pytest.approx(4.0, rel=1e-4)

    def test_zero_absorber_depth_rejected(self, sec5_eit):
        with pytest.raises(DomainError):
            noise_suppression_ratio(sec5_eit, 0.0)


class TestEitReference:
    def test_matches_diagonal_exponential(self, sec5_eit):
        for delta in (0.0, 1.0, -3.7):
            m00, _, _, _ = coupling_entries(sec5_eit, 0j, delta)
            assert eit_reference_transmission(sec5_eit, delta) == pytest.approx(
                abs(cmath.exp(m00)) ** 2, rel=1e-12
            )

    def test_lossless_spin_gives_unit_transmission(self):
        eit = EitMedium(300.0, 0.0, 3036.0, 50.0, 15.0)
        assert eit_reference_transmission(eit, 0.0) == pytest.approx(1.0, rel=1e-12)
