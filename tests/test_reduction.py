"""Truncated modal models, exact evolution, and integrator cross-checks."""

import contextlib
import dataclasses
import gc
import io
import weakref

import numpy as np
import pytest

from eigensieve import cli, reduction
from eigensieve.chebyshev import cheb_points, clenshaw_curtis
from eigensieve.constrained import compress
from eigensieve.errors import (
    DivergenceError,
    ImaginaryResidueError,
    RankDeficientBasisError,
    ZeroReferenceError,
)
from eigensieve.problems import (
    acoustic_reference,
    acoustic_wave,
    bump_ic,
    canuto_hyperbolic,
    heat_dirichlet,
    orr_sommerfeld,
    sine_ic,
)
from eigensieve.quality import ModeRecord, QualityReport, quality_report
from eigensieve.reduction import (
    reduction_sweep,
    relative_l2_error,
    simulate_modal,
    simulate_rk4,
    truncate,
)


@pytest.fixture(scope="module")
def canuto_report():
    return quality_report(canuto_hyperbolic(16))


def _hand_report(lams, lifted, real_system=True):
    basis = np.asarray(lifted, dtype=complex)
    modes = [
        ModeRecord(lam=lam, w=basis[:, i], s_norm=0.0, theta=float(i), zero_mode=False)
        for i, lam in enumerate(lams)
    ]
    return QualityReport(modes=modes, meta={"real_system": real_system})


def _multi_pass_closure(report, r):
    # reference selection: close the first r modes under the partner
    # map pass by pass, then list them in report order
    nmodes = len(report.modes)
    selected = np.arange(nmodes) < r
    if report.meta.get("real_system", True):
        lams = np.array([m.lam for m in report.modes])
        added = np.arange(r)
        while added.size:
            partners = np.abs(lams[None, :] - np.conj(lams[added])[:, None]).argmin(axis=1)
            added = np.unique(partners[~selected[partners]])
            selected[added] = True
    return tuple(np.flatnonzero(selected).tolist())


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
        report = _hand_report([1 + 1j, 1 - 1.1j, 1 + 1.05j, 5 - 5j], np.eye(4))
        model = truncate(report, 1)
        assert model.indices == (0, 1, 2)
        assert all(type(i) is int for i in model.indices)
        for r in range(1, 5):
            assert truncate(report, r).indices == _multi_pass_closure(report, r)

    @pytest.mark.parametrize(
        "build, n",
        [(acoustic_wave, 64), (acoustic_wave, 128), (canuto_hyperbolic, 16),
         (canuto_hyperbolic, 64), (heat_dirichlet, 48), (orr_sommerfeld, 50)],
        ids=["acoustic-64", "acoustic-128", "canuto-16", "canuto-64", "heat-48",
             "orr-sommerfeld-50"],
    )
    def test_retention_prefixes_equal_the_multi_pass_closure(self, build, n):
        report = quality_report(build(n))
        for r in range(1, len(report.modes) + 1):
            model = truncate(report, r)
            assert model.indices == _multi_pass_closure(report, r)
            assert model.size == len(model.indices)

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

    def test_restrict_lift_roundtrip(self, canuto_report):
        model = truncate(canuto_report, 4)
        rng = np.random.default_rng(40)
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        coeffs = np.array([a, np.conj(a), b, np.conj(b)])
        x0 = model.shapes @ coeffs
        assert np.abs(x0.imag).max() < 1e-12 * np.abs(x0.real).max()
        got, residual = model.restrict(x0.real)
        assert residual < 1e-10
        np.testing.assert_allclose(model.shapes @ got, x0, atol=1e-10)

    def test_restrict_matches_least_squares(self, acoustic64):
        sys, report = acoustic64
        x0 = np.concatenate([bump_ic(sys.labels["grid"]), np.zeros(64)])
        for r in (2, 17, 40, 101, len(report.modes)):
            model = truncate(report, r)
            got, residual = model.restrict(x0)
            want, *_ = np.linalg.lstsq(model.shapes, x0.astype(complex), rcond=None)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            expected = np.linalg.norm(model.shapes @ want - x0) / np.linalg.norm(x0)
            assert residual == pytest.approx(expected, rel=1e-8, abs=1e-14)

    def test_restrict_zero_state(self, canuto_report):
        model = truncate(canuto_report, 2)
        coeffs, residual = model.restrict(np.zeros(32))
        assert residual == 0.0
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-12)


class TestRetentionCache:
    def test_one_qr_per_report_across_a_sweep(self, monkeypatch):
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, *args: calls.append(a.shape) or qr(a, *args))
        rows = reduction_sweep(32, "bump", (1, 5, 20, 62), t_end=0.5)
        assert len(rows) == 4
        assert calls == [(64, 62)]

    def test_analyze_and_sweep_k_never_factor(self, monkeypatch):
        calls = []
        monkeypatch.setattr(np.linalg, "qr", lambda *args: calls.append(1))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["analyze", "--problem", "acoustic", "--n", "32"]) == 0
            assert cli.main(["sweep-k", "--problem", "canuto", "--n", "8", "--k-max", "3"]) == 0
        assert calls == []

    def test_models_share_read_only_arrays(self):
        report = quality_report(canuto_hyperbolic(16))
        small, large = truncate(report, 3), truncate(report, 9)
        for name in ("lambdas", "shapes", "q", "r_inv"):
            array = getattr(small, name)
            assert np.shares_memory(array, getattr(large, name))
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0

    def test_cache_entry_dies_with_the_report(self):
        report = quality_report(canuto_hyperbolic(16))
        truncate(report, 4)
        alive = weakref.ref(report)
        assert report in reduction._RETENTION
        entries = len(reduction._RETENTION)
        del report
        gc.collect()
        assert alive() is None
        assert len(reduction._RETENTION) == entries - 1


class TestRankGuard:
    def test_dependent_last_column_fails_only_the_full_model(self):
        rng = np.random.default_rng(42)
        lifted = rng.standard_normal((8, 5))
        lifted[:, 4] = lifted[:, 3]
        report = _hand_report([-1.0, -2.0, -3.0, -4.0, -5.0], lifted)
        for r in range(1, 5):
            model = truncate(report, r)
            assert model.size == r
            assert np.all(np.isfinite(model.r_inv))
            coeffs, residual = model.restrict(lifted[:, :r].sum(axis=1))
            np.testing.assert_allclose(coeffs, np.ones(r), atol=1e-12)
            assert residual < 1e-12
        with pytest.raises(RankDeficientBasisError, match="rank deficient"):
            truncate(report, 5)

    def test_exactly_singular_triangle_fails_only_the_full_model(self):
        # equal unit columns leave an exactly zero pivot in R
        lifted = np.eye(4)[:, [0, 1, 2, 2]]
        report = _hand_report([-1.0, -2.0, -3.0, -4.0], lifted, real_system=False)
        assert truncate(report, 3).size == 3
        with pytest.raises(RankDeficientBasisError):
            truncate(report, 4)

    @pytest.mark.parametrize("shapes, rank", [
        (np.column_stack([[1.0 + 1j, 2.0, -1j]] * 2), 1),
        (np.random.default_rng(43).standard_normal((3, 5)), 3),
    ], ids=["equal-columns", "more-modes-than-rows"])
    def test_hand_built_model_is_guarded(self, shapes, rank):
        # models succeed up to the rank of the leading columns; with more
        # modes than state entries, every model past the N-th is dependent
        size = shapes.shape[1]
        report = _hand_report(-1.0 - np.arange(size), shapes, real_system=False)
        for r in range(1, rank + 1):
            model = truncate(report, r)
            assert model.size == r
            coeffs, residual = model.restrict(shapes[:, :r].sum(axis=1))
            np.testing.assert_allclose(coeffs, np.ones(r), atol=1e-12)
            assert residual < 1e-12
        for r in range(rank + 1, size + 1):
            with pytest.raises(RankDeficientBasisError):
                truncate(report, r)

    def test_prefix_bound_is_the_blockwise_norm_product(self, acoustic64):
        _, report = acoustic64
        truncate(report, 1)
        *_, shapes, _, r_inv, bound = reduction._retention(report)
        assert bound.size == len(report.modes)
        for s in (1, 2, 17, 64, bound.size):
            block = np.linalg.norm(shapes[:, :s]) * np.linalg.norm(r_inv[:s, :s])
            assert bound[s - 1] == pytest.approx(block, rel=1e-12)


class TestSimulateModal:
    def test_two_mode_rotation_closed_form(self):
        rng = np.random.default_rng(41)
        q = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        omega = 2.4
        report = _hand_report([1j * omega, -1j * omega], np.column_stack([q, np.conj(q)]))
        model = truncate(report, 1)
        assert model.size == 2
        x0 = (q + np.conj(q)).real
        t = np.array([0.0, 0.4, 1.3])
        result = simulate_modal(model, x0, t)
        assert result.warnings == ()
        for row, ti in zip(result.states, t):
            expected = 2.0 * (q * np.exp(1j * omega * ti)).real
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_scalar_time_is_accepted(self):
        model = truncate(_hand_report([-1.0 + 0j], np.ones((1, 1))), 1)
        result = simulate_modal(model, np.array([2.0]), 1.0)
        assert result.states.shape == (1, 1)
        assert result.states[0, 0] == pytest.approx(2.0 * np.exp(-1.0), abs=1e-12)

    # exp(700) is finite, exp(710) is not
    @pytest.mark.parametrize("lam, t", [(1.0 + 0j, 710.0), (1e-14 + 3j, 1e300)])
    def test_overflowing_coefficient_raises(self, lam, t):
        model = truncate(_hand_report([lam], np.ones((1, 1))), 1)
        if lam.imag == 0:
            assert np.isfinite(simulate_modal(model, np.array([2.0]), 700.0).states).all()
        with pytest.raises(DivergenceError, match="exp"):
            simulate_modal(model, np.array([2.0]), np.array([0.0, t]))

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
        # a complex mode without its conjugate partner
        model = truncate(_hand_report([2j], q[:, None], real_system=False), 1)
        with pytest.raises(ImaginaryResidueError):
            simulate_modal(model, np.array([1.0, 0.0, 0.0, 0.0]), 0.3)

    def test_a_mode_outside_a_size_adds_nothing_to_it(self):
        # exp(710) overflows; the decaying size-1 model of the same
        # arrays does not see the growing second mode
        model = truncate(_hand_report([-1.0 + 0j, 1.0 + 0j], np.eye(2)), 2)
        states, _ = reduction._evolve(model, np.ones(2), [1], np.array([710.0]))
        np.testing.assert_array_equal(states, [[[np.exp(-710.0), 0.0]]])
        with pytest.raises(DivergenceError, match="exp"):
            reduction._evolve(model, np.ones(2), [1, 2], np.array([710.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_state_raises(self, canuto_report, bad):
        model = truncate(canuto_report, 4)
        x0 = np.ones(model.shapes.shape[0])
        x0[3] = bad
        with pytest.raises(ValueError, match="finite"):
            simulate_modal(model, x0, 0.5)


def _four_stage_rk4(a, x0, t_end, dt):
    """Reference: the classical four-stage RK4 loop, one step at a time."""
    x = np.asarray(x0, dtype=float).copy()
    steps = max(1, int(round(t_end / dt)))
    h = t_end / steps
    limit = 1e6 * max(float(np.linalg.norm(x)), np.finfo(float).tiny)
    times = np.linspace(0.0, t_end, steps + 1)
    states = [x]
    for i in range(steps):
        k1 = a @ x
        k2 = a @ (x + 0.5 * h * k1)
        k3 = a @ (x + 0.5 * h * k2)
        k4 = a @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.linalg.norm(x) > limit:
            raise DivergenceError(f"norm grew past 1e6x the initial state at t={times[i + 1]:.6g}")
        states.append(x)
    return np.array(states)


class TestSimulateRk4:
    def test_propagator_matches_the_four_stage_loop(self):
        sys = acoustic_wave(32)
        comp = compress(sys, 1)
        x0 = comp.m_left @ np.concatenate([bump_ic(sys.labels["grid"]), np.zeros(32)])
        dt = 2.5 / np.abs(np.linalg.eigvals(comp.a_k)).max()
        result = simulate_rk4(comp.a_k, x0, 1.0, dt)
        expected = _four_stage_rk4(comp.a_k, x0, 1.0, dt)
        assert result.states.shape == expected.shape
        rel = np.linalg.norm(result.states - expected, axis=1) / np.linalg.norm(expected, axis=1)
        assert rel.max() <= 1e-13

    def test_blocks_match_the_four_stage_loop(self):
        # 346 steps: the first block one step at a time, then ten blocks
        # of 32 steps and a last one of 26, each one product
        sys = acoustic_wave(64)
        comp = compress(sys, 1)
        x0 = comp.m_left @ np.concatenate([bump_ic(sys.labels["grid"]), np.zeros(64)])
        dt = 2.5 / np.abs(np.linalg.eigvals(comp.a_k)).max()
        result = simulate_rk4(comp.a_k, x0, 1.0, dt)
        expected = _four_stage_rk4(comp.a_k, x0, 1.0, dt)
        assert result.states.shape == expected.shape == (347, comp.r)
        rel = np.linalg.norm(result.states - expected, axis=1) / np.linalg.norm(expected, axis=1)
        assert rel.max() <= 1e-13

    def test_divergence_inside_a_later_block_fires_at_the_four_stage_loop_time(self):
        # T(0.3)^n passes 1e6 at step 47, inside the second block of 32
        a, x0 = np.array([[0.3]]), np.array([1.0])
        with pytest.raises(DivergenceError) as expected:
            _four_stage_rk4(a, x0, 100.0, 1.0)
        with pytest.raises(DivergenceError, match="unstable") as got:
            simulate_rk4(a, x0, 100.0, 1.0)
        assert str(got.value).startswith(str(expected.value))
        assert "at t=47;" in str(got.value)

    @pytest.mark.parametrize("a, x0", [
        (np.array([[np.nan]]), np.array([1.0])),
        (np.array([[-1.0]]), np.array([np.inf])),
    ], ids=["nan-drift", "inf-state"])
    def test_non_finite_inputs_raise(self, a, x0):
        with pytest.raises(ValueError, match="finite"):
            simulate_rk4(a, x0, 1.0, 0.1)

    def test_nan_state_counts_as_divergence(self):
        # T(hA) overflows to inf on the diagonal and inf * 0 = nan off
        # it, so the first state is nan: a nan norm is never <= the limit
        a = np.diag([1e300, -1e300])
        with pytest.raises(DivergenceError, match="at t=1;"):
            simulate_rk4(a, np.array([1.0, 0.0]), 1.0, 1.0)

    def test_divergence_fires_at_the_four_stage_loop_time(self):
        a, x0 = np.array([[5.0]]), np.array([1.0])
        with pytest.raises(DivergenceError) as expected:
            _four_stage_rk4(a, x0, 10.0, 1.0)
        with pytest.raises(DivergenceError, match="unstable") as got:
            simulate_rk4(a, x0, 10.0, 1.0)
        assert str(got.value).startswith(str(expected.value))
        assert "at t=4;" in str(got.value)

    def test_scalar_decay_accuracy(self):
        result = simulate_rk4(np.array([[-1.0]]), np.array([1.0]), 1.0, 1e-3)
        assert abs(result.states[-1][0] - np.exp(-1.0)) < 1e-12

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

    @pytest.mark.parametrize("dt", [0.1, 0.01], ids=["one-step-each", "blocks"])
    def test_complex_drift_gives_complex_states(self, dt):
        # 10 steps go one mat-vec each, 100 steps also take 32-step
        # blocks; the global error of x' = i x is about t h^4 / 120
        result = simulate_rk4(np.array([[1j]]), np.array([1.0]), 1.0, dt)
        assert result.states.dtype == complex
        assert abs(result.states[-1, 0] - np.exp(1j)) < dt**4 / 100

    def test_real_inputs_keep_float64_states(self):
        # integer inputs count as real; the states are the float64
        # products of the Horner propagator, one step at a time for 32
        # steps, then of its 32nd power on blocks of 32 states
        a, x0 = np.array([[-1, 2], [-2, -1]]), [1, 0]
        result = simulate_rk4(a, x0, 1.0, 0.01)
        assert result.states.dtype == np.float64
        ha = 0.01 * a
        prop = ha / 4.0
        for divisor in (3.0, 2.0, 1.0):
            prop = ha @ (prop + np.eye(2)) / divisor
        prop += np.eye(2)
        expected = [np.array(x0, dtype=float)]
        for _ in range(32):
            expected.append(prop @ expected[-1])
        for _ in range(5):
            prop = prop @ prop
        for start in range(33, 101, 32):
            expected.extend(np.array(expected[start - 32 : min(start, 101 - 32)]) @ prop.T)
        assert np.array_equal(result.states, np.array(expected))

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
        # the last count keeps every mode: the full model
        r_values = [p + 1, p + 5, p + 9, len(report.modes)]
        rows = reduction_sweep(64, "sine", r_values, t_end=1.0)
        assert [row.r for row in rows] == r_values
        for row in rows:
            assert row.size >= row.r
            assert row.rel_error < 1e-9
            assert row.theta_r == report.modes[row.r - 1].theta
        thetas = [row.theta_r for row in rows]
        assert thetas == sorted(thetas)

    def test_discontinuous_initial_condition_keeps_series_floor(self, acoustic64):
        # 40 modes, then every mode: the full model
        _, report = acoustic64
        row, full = reduction_sweep(64, "bump", (40, len(report.modes)), t_end=1.0)
        assert 1e-2 < full.rel_error < 1.0
        assert row.size >= 40
        assert 1e-2 < row.rel_error < 1.0

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("ic", ["bump", "sine"])
    def test_one_pass_matches_the_per_model_loop(self, n, ic):
        # unsorted, repeated counts, the full model among them; the
        # errors of models that keep the sine's +-i pi pair are rounding
        # level (about 2e-13), so they are held to 4 eps absolute
        nmodes = 2 * n - 2
        r_values = [n // 2, 2, nmodes, n // 2, 1, n + 3, 2]
        rows = reduction_sweep(n, ic, r_values, t_end=1.0)
        sys = acoustic_wave(n)
        grid = sys.labels["grid"]
        p_ref, _ = acoustic_reference(grid, ic, 1.0)
        x0 = np.concatenate([reduction._IC_PROFILES[ic](grid), np.zeros(n)])
        report = quality_report(sys)
        assert [row.r for row in rows] == r_values
        for r, row in zip(r_values, rows):
            model = truncate(report, r)
            p_r = simulate_modal(model, x0, 1.0).states[-1][:n]
            err = relative_l2_error(p_r, p_ref, clenshaw_curtis(n))
            assert row.size == model.size
            assert row.theta_r == report.modes[r - 1].theta
            assert abs(row.rel_error - err) <= 1e-12 * err + 4 * np.finfo(float).eps

    def test_rank_guard_raises_at_the_first_failing_count_in_list_order(self, monkeypatch):
        # mode 20 takes the lifted vector of mode 3, so every model that
        # keeps it is rank deficient: 40 fails before 30 and before the
        # models are evolved
        report = quality_report(acoustic_wave(32))
        modes = list(report.modes)
        modes[20] = dataclasses.replace(modes[20], w=modes[3].w)
        broken = QualityReport(modes=modes, meta=report.meta)
        monkeypatch.setattr(reduction, "quality_report", lambda *args, **kwargs: broken)
        with pytest.raises(RankDeficientBasisError) as info:
            truncate(broken, 40)
        expected = str(info.value)
        assert truncate(broken, 20).size >= 20
        monkeypatch.setattr(reduction, "_evolve", None)
        with pytest.raises(RankDeficientBasisError) as got:
            reduction_sweep(32, "bump", [12, 40, 2, 30])
        assert str(got.value) == expected

    def test_unknown_profile_rejected(self, monkeypatch):
        # rejected before the report is built and scored
        monkeypatch.setattr(reduction, "quality_report", None)
        with pytest.raises(ValueError, match="initial condition"):
            reduction_sweep(32, "boxcar", (2,))
