"""Truncated modal models, exact evolution, and integrator cross-checks."""

import numpy as np
import pytest

from eigensieve.chebyshev import cheb_points, clenshaw_curtis
from eigensieve.constrained import compress
from eigensieve.errors import DivergenceError, ImaginaryResidueError, ZeroReferenceError
from eigensieve.problems import acoustic_wave, bump_ic, heat_dirichlet, orr_sommerfeld, sine_ic
from eigensieve.quality import ModeRecord, QualityReport, quality_report
from eigensieve.reduction import (
    ReducedModel,
    reduction_sweep,
    relative_l2_error,
    simulate_modal,
    simulate_rk4,
    truncate,
)


@pytest.fixture(scope="module")
def canuto_report():
    from eigensieve.problems import canuto_hyperbolic

    return quality_report(canuto_hyperbolic(16))


@pytest.fixture(scope="module")
def acoustic64():
    sys = acoustic_wave(64)
    return sys, quality_report(sys)


class TestTruncate:
    def test_validation(self, canuto_report):
        with pytest.raises(ValueError, match="retained count"):
            truncate(canuto_report, 0)
        with pytest.raises(ValueError, match="retained count"):
            truncate(canuto_report, 31)

    def test_conjugate_partner_is_pulled_in(self, canuto_report):
        model = truncate(canuto_report, 1)
        assert model.requested == 1
        assert model.size == 2
        assert model.indices == (0, 1)
        assert model.lambdas[1] == pytest.approx(np.conj(model.lambdas[0]), abs=1e-12)

    def test_closure_is_a_fixpoint(self, canuto_report):
        model = truncate(canuto_report, 3)
        assert model.size == 4
        lams = model.lambdas
        for lam in lams:
            assert np.abs(lams - np.conj(lam)).min() < 1e-12

    def test_partner_of_an_added_partner_is_pulled_in(self):
        # the conjugate of 1 - 1.1i is nearer 1 + 1.05i than 1 + 1i, so
        # closing {0} adds mode 1, and closing {0, 1} then adds mode 2
        lams = [1 + 1j, 1 - 1.1j, 1 + 1.05j, 5 - 5j]
        basis = np.eye(4, dtype=complex)
        modes = [
            ModeRecord(lam=lam, v=basis[i], w=basis[i], s_norm=0.0, theta=float(i),
                       zero_mode=False)
            for i, lam in enumerate(lams)
        ]
        report = QualityReport(modes=modes, meta={"real_system": True},
                               multiplicity_flags=np.zeros(4, dtype=bool))
        model = truncate(report, 1)
        assert model.indices == (0, 1, 2)
        assert all(type(i) is int for i in model.indices)

    def test_real_modes_are_their_own_partners(self):
        report = quality_report(heat_dirichlet(16))
        model = truncate(report, 3)
        assert model.size == 3

    def test_complex_systems_truncate_positionally(self):
        report = quality_report(orr_sommerfeld(50))
        model = truncate(report, 1)
        assert model.size == 1

    def test_shapes_are_lifted_report_vectors(self, canuto_report):
        model = truncate(canuto_report, 2)
        for col, idx in enumerate(model.indices):
            np.testing.assert_array_equal(model.shapes[:, col], canuto_report.modes[idx].w)
            assert model.thetas[col] == canuto_report.modes[idx].theta

    def test_restrict_lift_roundtrip(self, canuto_report):
        model = truncate(canuto_report, 4)
        rng = np.random.default_rng(40)
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        coeffs = np.array([a, np.conj(a), b, np.conj(b)])
        x0 = model.lift(coeffs)
        assert np.abs(x0.imag).max() < 1e-12 * np.abs(x0.real).max()
        got, residual = model.restrict(x0.real)
        assert residual < 1e-10
        np.testing.assert_allclose(model.lift(got), x0, atol=1e-10)

    def test_restrict_zero_state(self, canuto_report):
        model = truncate(canuto_report, 2)
        coeffs, residual = model.restrict(np.zeros(32))
        assert residual == 0.0
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-12)


class TestSimulateModal:
    def test_two_mode_rotation_closed_form(self):
        rng = np.random.default_rng(41)
        q = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        omega = 2.4
        model = ReducedModel(
            lambdas=np.array([1j * omega, -1j * omega]),
            v_basis=np.column_stack([q, np.conj(q)]),
            shapes=np.column_stack([q, np.conj(q)]),
            thetas=np.zeros(2),
            indices=(0, 1),
            requested=2,
        )
        x0 = (q + np.conj(q)).real
        t = np.array([0.0, 0.4, 1.3])
        result = simulate_modal(model, x0, t)
        assert result.method == "modal-exact"
        assert result.warnings == ()
        for row, ti in zip(result.states, t):
            expected = 2.0 * (q * np.exp(1j * omega * ti)).real
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_scalar_time_is_accepted(self):
        model = ReducedModel(
            lambdas=np.array([-1.0 + 0j]),
            v_basis=np.ones((1, 1), dtype=complex),
            shapes=np.ones((1, 1), dtype=complex),
            thetas=np.zeros(1),
            indices=(0,),
            requested=1,
        )
        result = simulate_modal(model, np.array([2.0]), 1.0)
        assert result.states.shape == (1, 1)
        assert result.states[0, 0] == pytest.approx(2.0 * np.exp(-1.0), abs=1e-12)

    def test_unrepresentable_initial_condition_warns(self, acoustic64):
        _, report = acoustic64
        model = truncate(report, 2)
        grid = cheb_points(64)
        x0 = np.concatenate([bump_ic(grid), np.zeros(64)])
        result = simulate_modal(model, x0, 0.5)
        assert len(result.warnings) == 1
        assert "poorly represented" in result.warnings[0]

    def test_unbalanced_mode_set_raises(self):
        q = np.array([1.0 + 0j, 1j, 0.0, 0.0]) / np.sqrt(2.0)
        model = ReducedModel(
            lambdas=np.array([2j]),
            v_basis=q[:, None],
            shapes=q[:, None],
            thetas=np.zeros(1),
            indices=(0,),
            requested=1,
        )
        with pytest.raises(ImaginaryResidueError):
            simulate_modal(model, np.array([1.0, 0.0, 0.0, 0.0]), 0.3)


class TestSimulateRk4:
    def test_scalar_decay_accuracy(self):
        result = simulate_rk4(np.array([[-1.0]]), np.array([1.0]), 1.0, 1e-3)
        assert abs(result.states[-1][0] - np.exp(-1.0)) < 1e-12
        assert result.method == "rk4"

    def test_step_rounded_to_land_on_t_end(self):
        result = simulate_rk4(np.array([[-1.0]]), np.array([1.0]), 1.0, 0.3)
        np.testing.assert_allclose(result.times, [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-15)
        assert result.times[-1] == 1.0
        assert result.states.shape == (4, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_rk4(np.eye(2), np.ones(2), 0.0, 0.1)
        with pytest.raises(ValueError):
            simulate_rk4(np.eye(2), np.ones(2), 1.0, -0.1)

    def test_unstable_step_aborts(self):
        with pytest.raises(DivergenceError):
            simulate_rk4(np.array([[5.0]]), np.array([1.0]), 10.0, 1.0)

    def test_agrees_with_exact_modal_evolution(self):
        sys = acoustic_wave(32)
        report = quality_report(sys)
        comp = compress(sys, 1)
        x0 = np.concatenate([sine_ic(sys.labels["grid"]), np.zeros(32)])
        modal = simulate_modal(truncate(report, len(report.modes)), x0, 0.5)
        rk = simulate_rk4(comp.a_k, comp.m_left @ x0, 0.5, 1e-3)
        lifted = comp.m @ rk.states[-1]
        assert np.abs(lifted - modal.states[-1]).max() < 1e-9


class TestRelativeL2Error:
    def test_hand_values(self):
        w = clenshaw_curtis(2)
        assert relative_l2_error(np.array([1.0, 1.0]), np.array([1.0, 1.0]), w) == 0.0
        assert relative_l2_error(
            np.array([2.0, 0.0]), np.array([1.0, 1.0]), w
        ) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        w = clenshaw_curtis(4)
        with pytest.raises(ZeroReferenceError):
            relative_l2_error(np.ones(4), np.zeros(4), w)

    def test_complex_fields(self):
        w = clenshaw_curtis(2)
        err = relative_l2_error(np.array([1j, 0.0]), np.array([0.0, 0j]) + 1.0, w)
        assert err == pytest.approx(np.sqrt(3.0) / np.sqrt(2.0))


class TestReductionSweep:
    def test_single_wave_initial_condition_is_captured_tiny(self, acoustic64):
        # the sine profile excites only the +-i pi pair, so every model
        # that keeps that pair reproduces it; where the pair ranks among
        # the modes resolved to rounding level is set by rounding, so
        # the retained counts are taken from its position in the report
        _, report = acoustic64
        lams = np.array([m.lam for m in report.modes])
        p = max(int(np.abs(lams - 1j * np.pi).argmin()),
                int(np.abs(lams + 1j * np.pi).argmin()))
        r_values = [p + 1, p + 5, p + 9]
        result = reduction_sweep("acoustic", 64, "sine", r_values, t_end=1.0)
        assert result.full_error < 1e-9
        assert [row.r for row in result.rows] == r_values
        for row in result.rows:
            assert row.size >= row.r
            assert row.rel_error < 1e-9
        thetas = result.thetas
        assert np.all(np.diff(thetas) >= 0.0)

    def test_discontinuous_initial_condition_keeps_series_floor(self):
        result = reduction_sweep("acoustic", 64, "bump", (40,), t_end=1.0)
        assert 1e-2 < result.full_error < 1.0
        row = result.rows[0]
        assert row.size >= 40
        assert 1e-2 < row.rel_error < 1.0

    def test_only_the_wave_problem_is_supported(self):
        with pytest.raises(ValueError, match="acoustic"):
            reduction_sweep("heat", 32, "sine", (2,))

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="initial condition"):
            reduction_sweep("acoustic", 32, "boxcar", (2,))
