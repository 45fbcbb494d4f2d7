"""Truncated modal models, exact evolution, and integrator cross-checks."""

import contextlib
import dataclasses
import gc
import io
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import whole_e_k
from eigensieve import cli, reduction
from eigensieve.chebyshev import cheb_points, clenshaw_curtis
from eigensieve.constrained import ConstrainedSystem, compress
from eigensieve.errors import (
    DivergenceError,
    EigensieveError,
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
from eigensieve.quality import QualityReport, quality_report
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


def _hand_report(lams, lifted, real_system=True, rows=None):
    # mode i has eigenvalue lams[i] and theta i, and rows[i] is its owner
    # row, arange by default: no mode is a twin.  Owner row j is
    # lifted[:, i] of the first mode i with rows[i] == j; a twin, which
    # repeats the row before it, reads that row conjugated
    lams = np.asarray(lams, dtype=complex)
    rows = np.arange(lams.size) if rows is None else np.asarray(rows)
    first = np.unique(rows, return_index=True)[1]
    return QualityReport(
        lambdas=lams,
        owners=np.asarray(lifted, dtype=complex).T[first].copy(),
        rows=rows,
        s_norm=np.zeros(lams.size),
        theta=np.arange(lams.size, dtype=float),
        zero_mode=np.zeros(lams.size, dtype=bool),
        meta={"real_system": real_system},
    )


def _reference_basis(report):
    # the basis of every mode of a report by the formula that built it
    # from the complex lifted vectors modes.T while models kept them: for
    # a real system, the pair (w, conj(w)) at columns j, j + 1 becomes
    # sqrt(2) Re w and sqrt(2) Im w (minus Im of the conjugate), and a
    # real mode keeps Re w; a complex system's basis is modes.T itself
    shapes = np.ascontiguousarray(report.modes.T)
    mates = reduction._retention(report)[1].mates
    if mates is None:
        return shapes
    own = np.arange(mates.size)
    basis = np.where(mates < own, -shapes.imag, shapes.real)
    basis *= np.where(mates == own, 1.0, np.sqrt(2.0))
    return basis


def _multi_pass_closure(report, r):
    # reference selection: close the first r modes pass by pass under
    # the nearest-conjugate map, argmin_j |lam_j - conj(lam_i)|, then
    # list them in report order
    nmodes = len(report.modes)
    selected = np.arange(nmodes) < r
    if report.meta.get("real_system", True):
        lams = report.lambdas
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
        assert truncate(canuto_report, np.int64(3)).size == 4

    @pytest.mark.parametrize("r", [2.5, 2.0, "2", None])
    def test_non_integer_count_raises(self, canuto_report, r):
        with pytest.raises(TypeError, match="retained count must be an integer"):
            truncate(canuto_report, r)

    def test_conjugate_partner_is_pulled_in(self, canuto_report):
        model = truncate(canuto_report, 1)
        assert model.size == 2
        np.testing.assert_array_equal(model.lambdas, canuto_report.lambdas[:2])
        assert model.lambdas[1] == np.conj(model.lambdas[0])

    def test_closure_is_a_fixpoint(self, canuto_report):
        model = truncate(canuto_report, 3)
        assert model.size == 4
        lams = model.lambdas
        for lam in lams:
            assert np.abs(lams - np.conj(lam)).min() < 1e-12

    def test_partner_of_an_added_partner_is_pulled_in(self):
        # a real system pairs by rows and exact bits, not by nearest
        # conjugate: modes whose eigenvalues are only near conjugates of
        # each other are no pair, and the report is rejected at the
        # first of them, whatever the retained count
        report = _hand_report([1 + 1j, 1 - 1.1j, 1 + 1.05j, 5 - 5j], np.eye(4))
        for r in range(1, 5):
            with pytest.raises(ValueError, match="mode 0 of a real system"):
                truncate(report, r)

    @pytest.mark.parametrize(
        "lams, rows",
        [
            ([-1.0, 2j, -2j], [0, 1, 2]),
            ([-1.0, 2j, -2j * (1 + 2.0**-52)], [0, 1, 1]),
            ([-1.0, -2j, 2j], [0, 1, 1]),
        ],
        ids=["unmarked-exact-pair", "twin-not-the-exact-conjugate", "twin-above-the-axis"],
    )
    def test_real_report_pairs_only_what_rows_marks(self, lams, rows):
        # rows is the one record of a real report's pairs: an exact
        # conjugate pair that it does not mark is no pair, and a mode
        # that repeats its owner's row must have Im lam < 0 and the
        # exact conjugate of its owner's eigenvalue, or the report is
        # rejected at the first mode left unpaired
        q = np.array([1.0 + 0j, 1j, 0.0, 0.0]) / np.sqrt(2.0)
        lifted = np.column_stack([np.eye(4)[3], q, np.conj(q)])
        report = _hand_report(lams, lifted, rows=rows)
        for r in range(1, 4):
            with pytest.raises(ValueError, match="mode 1 of a real system"):
                truncate(report, r)
        # the same vectors with the pair marked make a well-formed report
        marked = _hand_report([-1.0, 2j, -2j], lifted, rows=[0, 1, 1])
        model = truncate(marked, 2)
        assert model.size == 3
        np.testing.assert_array_equal(model.mates, [0, 2, 1])
        np.testing.assert_array_equal(marked.modes.T, lifted)
        assert model.basis.tobytes() == _reference_basis(marked).tobytes()

    @pytest.mark.parametrize(
        "build, n",
        [(acoustic_wave, 64), (acoustic_wave, 128), (canuto_hyperbolic, 16),
         (canuto_hyperbolic, 64), (heat_dirichlet, 48), (orr_sommerfeld, 50)],
        ids=["acoustic-64", "acoustic-128", "canuto-16", "canuto-64", "heat-48",
             "orr-sommerfeld-50"],
    )
    def test_retention_prefixes_equal_the_multi_pass_closure(self, build, n):
        # every report the library builds holds each pair side by side,
        # so the nearest-conjugate closure of the first r modes is the
        # leading block that truncate keeps
        report = quality_report(build(n))
        for r in range(1, len(report.modes) + 1):
            model = truncate(report, r)
            assert tuple(range(model.size)) == _multi_pass_closure(report, r)

    def test_real_modes_are_their_own_partners(self):
        report = quality_report(heat_dirichlet(16))
        model = truncate(report, 3)
        assert model.size == 3

    def test_complex_systems_truncate_positionally(self):
        report = quality_report(orr_sommerfeld(50))
        model = truncate(report, 1)
        assert model.size == 1

    def test_restrict_lift_roundtrip(self, canuto_report):
        model = truncate(canuto_report, 4)
        rng = np.random.default_rng(40)
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        coeffs = np.array([a, np.conj(a), b, np.conj(b)])
        lifted = canuto_report.modes[: model.size].T
        x0 = lifted @ coeffs
        assert np.abs(x0.imag).max() < 1e-12 * np.abs(x0.real).max()
        got, residual = model.restrict(x0.real)
        assert residual < 1e-10
        np.testing.assert_allclose(lifted @ got, x0, atol=1e-10)

    def test_restrict_matches_least_squares(self, acoustic64):
        sys, report = acoustic64
        x0 = np.concatenate([bump_ic(sys.labels["grid"]), np.zeros(64)])
        for r in (2, 17, 40, 101, len(report.modes)):
            model = truncate(report, r)
            got, residual = model.restrict(x0)
            lifted = report.modes[: model.size].T
            want, *_ = np.linalg.lstsq(lifted, x0.astype(complex), rcond=None)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            expected = np.linalg.norm(lifted @ want - x0) / np.linalg.norm(x0)
            assert residual == pytest.approx(expected, rel=1e-8, abs=1e-14)

    def test_restrict_zero_state(self, canuto_report):
        model = truncate(canuto_report, 2)
        coeffs, residual = model.restrict(np.zeros(32))
        assert residual == 0.0
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-12)


class TestBasis:
    @pytest.mark.parametrize("build, n", [
        (acoustic_wave, 32), (canuto_hyperbolic, 32), (orr_sommerfeld, 40),
    ], ids=["acoustic-mirrored", "canuto-unmirrored", "orr-sommerfeld-complex"])
    def test_basis_has_the_bytes_of_the_lifted_vectors_formula(self, build, n):
        report = quality_report(build(n))
        basis = reduction._retention(report)[1].basis
        want = _reference_basis(report)
        assert basis.dtype == want.dtype == (complex if build is orr_sommerfeld else float)
        assert basis.flags.c_contiguous and want.flags.c_contiguous
        assert basis.tobytes() == want.tobytes()
        for r in (1, 5, len(report.lambdas)):
            model = truncate(report, r)
            assert model.basis.tobytes() == want[:, : model.size].tobytes()

    def test_signed_zero_imaginary_parts_keep_their_bits(self):
        # a real mode whose w holds +0.0 and -0.0 imaginary parts, and a
        # pair whose w does too: Re w, Im w and their sqrt(2) multiples
        # keep the sign of every zero
        # (x + 1j * y would turn each -0.0 of y into +0.0)
        real_w, pair_w = np.empty((2, 4), dtype=complex)
        real_w.real, real_w.imag = [1.0, -2.0, 0.5, 3.0], [0.0, -0.0, -0.0, 0.0]
        pair_w.real, pair_w.imag = [1.0, 0.5, -0.0, 0.0], [0.0, -0.0, 1.0, -2.0]
        lifted = np.column_stack([real_w, pair_w, np.conj(pair_w)])
        report = _hand_report([-1.0, 2j, -2j], lifted, rows=[0, 1, 1])
        for row in report.owners.imag:
            assert np.signbit(row).any() and not np.signbit(row).all()
        basis = reduction._retention(report)[1].basis
        want = _reference_basis(report)
        assert basis.flags.c_contiguous
        assert basis.tobytes() == want.tobytes()
        for col, part in ((0, real_w.real), (1, pair_w.real), (2, pair_w.imag)):
            np.testing.assert_array_equal(np.signbit(basis[:, col]), np.signbit(part))

    def test_complex_twin_reads_its_owner_conjugated(self):
        # a hand-built complex report may repeat a row: the second mode is
        # its owner's w conjugated, as in report.modes, and pairs nothing
        w = np.array([1.0 + 2j, -0.5 + 0.0j, 3.0 - 1j])
        w.imag[1] = -0.0
        report = _hand_report([-1.0 + 1j, -2.0 - 1j], w[:, None], real_system=False, rows=[0, 0])
        basis = reduction._retention(report)[1].basis
        assert basis.tobytes() == _reference_basis(report).tobytes()
        np.testing.assert_array_equal(basis, np.column_stack([w, np.conj(w)]))


class TestRetentionCache:
    def test_one_qr_per_report_across_a_sweep(self, monkeypatch):
        # scoring takes QRs of its own, so the retention factorisation is
        # counted at reduction._factor rather than at np.linalg.qr
        calls = []
        factor = reduction._factor
        monkeypatch.setattr(reduction, "_factor", lambda a: calls.append(a.shape) or factor(a))
        table = reduction_sweep(32, "bump", (1, 5, 20, 62), t_end=0.5)
        assert table["r"].size == 4
        assert calls == [(64, 62)]

    def test_analyze_and_sweep_k_never_factor(self, monkeypatch):
        calls = []
        monkeypatch.setattr(reduction, "_factor", lambda *args: calls.append(1))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["analyze", "--problem", "acoustic", "--n", "32"]) == 0
            assert cli.main(["sweep-k", "--problem", "canuto", "--n", "8", "--k-max", "3"]) == 0
        assert calls == []

    def test_truncation_and_the_cli_never_build_modes(self, monkeypatch):
        # the lifted mode vectors are gathered from the report's owners:
        # QualityReport.modes is built only for a caller that reads it
        def unread(report):
            raise AssertionError("QualityReport.modes was read")

        monkeypatch.setattr(QualityReport, "modes", property(unread))
        report = quality_report(acoustic_wave(32))
        for r in (1, 7, 20, 62):
            truncate(report, r)
        assert reduction_sweep(32, "bump", (12, 2, 62, 5), t_end=0.5)["r"].size == 4
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["analyze", "--problem", "acoustic", "--n", "32"]) == 0
            grid = ["sweep-k", "--problem", "canuto", "--n", "8", "--k-max", "3", "--grid"]
            assert cli.main(grid) == 0
            assert cli.main(["reduce", "--n", "16", "--ic", "bump", "--r-list", "3,30"]) == 0
        with pytest.raises(AssertionError, match="modes was read"):
            report.modes

    def test_models_share_read_only_arrays(self):
        report = quality_report(canuto_hyperbolic(16))
        small, large = truncate(report, 3), truncate(report, 9)
        for name in ("lambdas", "q", "r_inv", "basis", "mates"):
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

    @pytest.mark.parametrize("lifted, rank", [
        (np.column_stack([[1.0 + 1j, 2.0, -1j]] * 2), 1),
        (np.random.default_rng(43).standard_normal((3, 5)), 3),
    ], ids=["equal-columns", "more-modes-than-rows"])
    def test_hand_built_model_is_guarded(self, lifted, rank):
        # models succeed up to the rank of the leading columns; with more
        # modes than state entries, every model past the N-th is dependent
        size = lifted.shape[1]
        report = _hand_report(-1.0 - np.arange(size), lifted, real_system=False)
        for r in range(1, rank + 1):
            model = truncate(report, r)
            assert model.size == r
            coeffs, residual = model.restrict(lifted[:, :r].sum(axis=1))
            np.testing.assert_allclose(coeffs, np.ones(r), atol=1e-12)
            assert residual < 1e-12
        for r in range(rank + 1, size + 1):
            with pytest.raises(RankDeficientBasisError):
                truncate(report, r)

    def test_prefix_bound_is_the_blockwise_norm_product(self, acoustic64):
        # the bound is taken on the real basis; at every size that keeps
        # pairs whole it equals the complex basis' bound up to rounding
        _, report = acoustic64
        truncate(report, 1)
        sizes, full, bound = reduction._retention(report)
        assert full.basis.dtype == np.float64
        assert bound.size == len(report.modes)
        for s in (1, 2, 17, 64, bound.size):
            block = np.linalg.norm(full.basis[:, :s]) * np.linalg.norm(full.r_inv[:s, :s])
            assert bound[s - 1] == pytest.approx(block, rel=1e-12)
        for s in sorted(set(sizes))[::10]:
            r = np.linalg.qr(report.modes[:s].T, mode="r")
            complex_bound = np.linalg.norm(r) * np.linalg.norm(np.linalg.inv(r))
            assert bound[s - 1] == pytest.approx(complex_bound, rel=1e-10)


class TestFactor:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 33, 64])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_inverts_the_triangle_of_any_order(self, n, dtype):
        rng = np.random.default_rng(n)
        basis = rng.standard_normal((n + 3, n)).astype(dtype)
        if dtype is complex:
            basis += 1j * rng.standard_normal((n + 3, n))
        q, r_inv = reduction._factor(basis)
        assert q.dtype == r_inv.dtype == dtype
        r = q.conj().T @ basis
        assert np.array_equal(r_inv, np.triu(r_inv))
        np.testing.assert_allclose(r_inv @ r, np.eye(n), rtol=0, atol=1e-12)

    def test_a_zero_pivot_spoils_only_its_column_and_those_right_of_it(self):
        # column 5 repeats column 2, so R has a zero pivot at 5
        rng = np.random.default_rng(44)
        basis = rng.standard_normal((12, 9))
        basis[:, 5] = basis[:, 2]
        q, r_inv = reduction._factor(basis)
        finite = np.all(np.isfinite(r_inv), axis=0)
        assert finite[:5].all()
        np.testing.assert_allclose(r_inv[:5, :5] @ (q.T @ basis)[:5, :5], np.eye(5), atol=1e-12)


class TestSimulateModal:
    def test_two_mode_rotation_closed_form(self):
        rng = np.random.default_rng(41)
        q = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        omega = 2.4
        # the report marks the pair: the second mode repeats its owner's row
        report = _hand_report([1j * omega, -1j * omega], q[:, None], rows=[0, 0])
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

    # exp(700) is finite, exp(710) is not; a lone complex mode makes a
    # complex system
    @pytest.mark.parametrize("lam, t", [(1.0 + 0j, 710.0), (1e-14 + 3j, 1e300)])
    def test_overflowing_coefficient_raises(self, lam, t):
        report = _hand_report([lam], np.ones((1, 1)), real_system=lam.imag == 0)
        model = truncate(report, 1)
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
        # a real system's complex mode without its exact conjugate next
        # to it cannot take a real basis: the report is malformed
        with pytest.raises(ValueError, match="mode 0 of a real system"):
            truncate(_hand_report([2j], q[:, None]), 1)
        # nor is a pair with a conjugate eigenvalue that rows does not
        # mark, whatever its vectors
        lifted = np.column_stack([q, np.conj(q) * (1 + 1e-15)])
        with pytest.raises(ValueError, match="mode 0 of a real system"):
            truncate(_hand_report([2j, -2j], lifted), 2)
        # the same lone mode of a complex system evolves to complex states
        model = truncate(_hand_report([2j], q[:, None], real_system=False), 1)
        result = simulate_modal(model, np.array([1.0, 0.0, 0.0, 0.0]), 0.3)
        assert result.states.dtype == np.complex128
        np.testing.assert_allclose(result.states[0], q * (np.conj(q[0]) * np.exp(0.6j)), atol=1e-15)

    def test_repeated_conjugate_pair_keeps_every_model_real(self):
        # A = diag(R, R, -1) has the pair +-i twice; the constraint cuts
        # the real mode, so the report is two copies of the pair and each
        # model keeps whole pairs: float64 states equal M expm(t A_k) M^H x0
        from scipy.linalg import block_diag, expm

        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = ConstrainedSystem(a=block_diag(rot, rot, [[-1.0]]), c=np.eye(5)[4:])
        report = quality_report(sys)
        comp = compress(sys, 1)
        x0 = np.array([1.0, -0.5, 2.0, 0.25, 0.0])
        t = np.array([0.0, 0.6, 1.0])
        for r, size in zip(range(1, 5), (2, 2, 4, 4)):
            model = truncate(report, r)
            assert model.size == size
            lams = model.lambdas
            assert np.array_equal(lams[1::2], np.conj(lams[::2]))
            result = simulate_modal(model, x0, t)
            assert result.states.dtype == np.float64
            # the model's span is M's span projected onto its retained modes
            coeffs, _ = model.restrict(x0)
            for row, ti in zip(result.states, t):
                full = comp.m @ (expm(ti * comp.a_k) @ (comp.m.conj().T @ x0))
                kept = report.modes[:size].T @ (np.exp(lams * ti) * coeffs)
                np.testing.assert_allclose(row, kept.real, rtol=0, atol=1e-12)
                assert np.abs(kept.imag).max() <= 1e-12
                if size == 4:
                    np.testing.assert_allclose(row, full.real, rtol=0, atol=1e-12)

    def test_complex_system_evolves_to_complex_states(self):
        # x0 in the retained span evolves as M expm(t E_k^-1 A_k) M^H x0
        from scipy.linalg import expm

        sys = orr_sommerfeld(40)
        report = quality_report(sys)
        model = truncate(report, 5)
        assert model.mates is None
        rng = np.random.default_rng(45)
        x0 = report.modes[:5].T @ (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        t = np.array([0.0, 0.5, 2.0])
        result = simulate_modal(model, x0, t)
        assert result.states.dtype == np.complex128
        assert result.warnings == ()
        comp = compress(sys, 1)
        drift = np.linalg.solve(whole_e_k(comp), comp.a_k)
        for row, ti in zip(result.states, t):
            expected = comp.m @ (expm(ti * drift) @ (comp.m.conj().T @ x0))
            assert np.linalg.norm(row - expected) <= 1e-12 * np.linalg.norm(expected)
        # a real initial state of a complex system still gives complex states
        assert simulate_modal(model, x0.real, 1.0).states.dtype == np.complex128

    def test_real_pairs_evolve_by_rotation_blocks(self, canuto_report):
        model = truncate(canuto_report, 6)
        assert model.basis.dtype == np.float64
        first = np.flatnonzero(model.mates > np.arange(model.size))
        np.testing.assert_array_equal(model.mates[first], first + 1)
        lifted = canuto_report.modes[: model.size].T
        for j in first:
            w = lifted[:, j]
            np.testing.assert_array_equal(lifted[:, j + 1], np.conj(w))
            np.testing.assert_allclose(model.basis[:, j], np.sqrt(2.0) * w.real, rtol=0, atol=0)
            np.testing.assert_allclose(model.basis[:, j + 1], np.sqrt(2.0) * w.imag, rtol=0, atol=0)
        rng = np.random.default_rng(46)
        x0 = rng.standard_normal(lifted.shape[0])
        t = np.array([0.0, 0.7, 3.0])
        result = simulate_modal(model, x0, t)
        assert result.states.dtype == np.float64
        coeffs, _ = model.restrict(x0)
        for row, ti in zip(result.states, t):
            expected = lifted @ (np.exp(model.lambdas * ti) * coeffs)
            np.testing.assert_allclose(row, expected.real, rtol=0, atol=1e-12 * np.abs(x0).max())
            assert np.abs(expected.imag).max() <= 1e-12 * np.abs(x0).max()

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
        x0 = np.ones(model.basis.shape[0])
        x0[3] = bad
        with pytest.raises(ValueError, match="finite"):
            simulate_modal(model, x0, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_raises(self, canuto_report, bad):
        model = truncate(canuto_report, 4)
        x0 = np.ones(model.basis.shape[0])
        for t in (bad, [0.0, 0.5, bad]):
            with pytest.raises(ValueError, match="times must be finite"):
                simulate_modal(model, x0, t)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    q=st.integers(1, 3),
    complex_drift=st.booleans(),
    complex_constraint=st.booleans(),
    mass=st.booleans(),
    integers=st.booleans(),
    repeated=st.booleans(),
    t=st.floats(0.0, 1.0),
)
def test_reduce_kernel_matches_least_squares_and_exponentials(
    seed, n, q, complex_drift, complex_constraint, mass, integers, repeated, t
):
    # random small systems, entries Gaussian or in {-2, ..., 2} (which
    # makes repeated eigenvalues and rank-deficient constraints), through
    # quality_report, truncate, simulate_modal and restrict: each call
    # returns finite output of its documented dtype or raises a typed
    # error, and the states are least squares on the complex lifted
    # vectors followed by exp(lam t); a complex drift or constraint makes
    # a complex system, whose truncation pairs no modes.  A repeated
    # drift blockdiag(b, b) repeats each eigenvalue of b.  Once the
    # library has built a report, truncating and evolving it may raise
    # only the documented numerical errors
    rng = np.random.default_rng(seed)

    def draw(*shape):
        if integers:
            return rng.integers(-2, 3, size=shape).astype(float)
        return rng.standard_normal(shape)

    a = draw(n, n) + (1j * draw(n, n) if complex_drift else 0.0)
    if repeated:
        a = np.block([[a, np.zeros_like(a)], [np.zeros_like(a), a]])
        n = 2 * n
    e = np.eye(n) + 0.3 * draw(n, n) if mass else None
    x0 = rng.standard_normal(n)
    q = min(q, n - 1)
    c = draw(q, n) + (1j * draw(q, n) if complex_constraint else 0.0)
    try:
        sys = ConstrainedSystem(a=a, c=c, e=e)
        report = quality_report(sys)
    except (EigensieveError, ValueError):
        return
    try:
        r = int(rng.integers(1, len(report.modes) + 1))
        model = truncate(report, r)
        result = simulate_modal(model, x0, [0.0, t])
        coeffs, residual = model.restrict(x0)
    except (RankDeficientBasisError, DivergenceError):
        return
    real = report.meta["real_system"]
    assert real == (not complex_drift and not complex_constraint)
    if not real:
        assert model.size == r
    assert result.states.dtype == (np.float64 if real else np.complex128)
    assert coeffs.dtype == np.complex128
    assert np.all(np.isfinite(result.states)) and np.all(np.isfinite(coeffs))
    assert 0.0 <= residual <= 1.0 + 1e-12
    # least squares loses about kappa^2 eps on a state outside the span
    *_, bound = reduction._retention(report)
    tol = 1e-10 * max(1.0, bound[model.size - 1] ** 2 / 1e4)
    lifted = report.modes[: model.size].T
    want, *_ = np.linalg.lstsq(lifted, x0.astype(complex), rcond=None)
    assert np.linalg.norm(coeffs - want) <= tol * np.linalg.norm(want)
    growth = np.exp(model.lambdas * t) * want
    expected = lifted @ growth
    scale = np.linalg.norm(lifted, axis=0) @ np.abs(growth)
    assert np.linalg.norm(result.states[-1] - expected) <= tol * scale


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
        x0 = comp.m.conj().T @ np.concatenate([bump_ic(sys.labels["grid"]), np.zeros(32)])
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
        x0 = comp.m.conj().T @ np.concatenate([bump_ic(sys.labels["grid"]), np.zeros(64)])
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
        # a non-square drift, a vector drift, an initial state of the
        # wrong length, a column and a scalar: named before anything is formed
        for a, x0 in [
            (np.ones((2, 3)), np.ones(3)),
            (np.ones(2), np.ones(2)),
            (np.eye(2), np.ones(3)),
            (np.eye(2), np.ones((2, 1))),
            (np.eye(2), np.float64(1.0)),
        ]:
            message = f"got a of shape {np.shape(a)} and x0 of shape {np.shape(x0)}"
            with pytest.raises(ValueError, match=re.escape(message)):
                simulate_rk4(a, x0, 1.0, 0.1)

    @pytest.mark.parametrize("t_end, dt", [
        (np.inf, 0.1), (np.nan, 0.1), (1.0, np.inf), (1.0, np.nan), (-np.inf, 0.1),
    ])
    def test_non_finite_times_raise(self, t_end, dt):
        with pytest.raises(ValueError, match="t_end and dt must be positive and finite"):
            simulate_rk4(np.eye(2), np.ones(2), t_end, dt)

    def test_overflowing_step_count_raises(self):
        # t_end / dt is inf: rejected before any state is allocated
        with pytest.raises(ValueError, match="t_end / dt must be finite"):
            simulate_rk4(-np.eye(1), np.ones(1), 1e300, 1e-300)

    @pytest.mark.parametrize("t_end", [1e11, 1e15], ids=["1.6e15-bytes", "1.6e19-bytes"])
    def test_unallocatable_state_array_raises(self, t_end):
        # 1e14 and 1e18 steps of two float64 states need 1.6 and 16000
        # petabytes, past any address space: refused before any stepping
        with pytest.raises(ValueError, match=r"takes \d+ steps, whose .* bytes cannot be allocated"):
            simulate_rk4(-np.eye(2), np.ones(2), t_end, 1e-3)

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

    def test_each_block_matches_the_block_alone(self):
        # the mirrored drift of acoustic n=64 is two uncoupled 63-state
        # halves; each runs the whole scheme on its own columns
        sys = acoustic_wave(64)
        comp = compress(sys, 1)
        x0 = comp.m.conj().T @ np.concatenate([bump_ic(sys.labels["grid"]), np.zeros(64)])
        dt = 2.5 / np.abs(np.linalg.eigvals(comp.a_k)).max()
        blocks = reduction._blocks(comp.a_k)
        assert blocks == [slice(0, 63), slice(63, 126)]
        states = simulate_rk4(comp.a_k, x0, 1.0, dt).states
        for cols in blocks:
            alone = simulate_rk4(comp.a_k[cols, cols], x0[cols], 1.0, dt).states
            # bit for bit with OpenBLAS, whose products pack their operands
            assert np.abs(states[:, cols] - alone).max() <= 1e-15 * np.abs(alone).max()

    def test_divergence_in_a_later_diagonal_block_fires_at_the_four_stage_loop_time(self):
        # a damped block and one that grows past 1e6 at step 48, inside
        # the second step block, where the whole state crosses the limit
        rng = np.random.default_rng(0)
        skew = rng.standard_normal((40, 40))
        skew = 0.05 * (skew - skew.T)
        a = np.zeros((80, 80))
        a[:40, :40] = skew - 0.5 * np.eye(40)
        a[40:, 40:] = skew + 0.3 * np.eye(40)
        assert reduction._blocks(a) == [slice(0, 40), slice(40, 80)]
        x0 = np.ones(80)
        with pytest.raises(DivergenceError) as expected:
            _four_stage_rk4(a, x0, 100.0, 1.0)
        with pytest.raises(DivergenceError, match="unstable") as got:
            simulate_rk4(a, x0, 100.0, 1.0)
        assert str(got.value).startswith(str(expected.value))
        assert "at t=48;" in str(got.value)

    @pytest.mark.parametrize("corner", [(0, -1), (-1, 0)], ids=["upper", "lower"])
    def test_one_coupling_entry_keeps_one_block(self, corner):
        # without the corner entry the diagonal would split in two blocks
        # of 32; with it the states are those of the dense propagator,
        # bit for bit
        a = np.diag(np.linspace(-2.0, -1.0, 64))
        a[corner] = 0.5
        assert reduction._blocks(a) == [slice(0, 64)]
        x0 = np.linspace(1.0, 2.0, 64)
        result = simulate_rk4(a, x0, 1.0, 0.01)
        ha = 0.01 * a
        prop = ha / 4.0
        for divisor in (3.0, 2.0, 1.0):
            prop = ha @ (prop + np.eye(64)) / divisor
        prop += np.eye(64)
        expected = [x0]
        for _ in range(32):
            expected.append(prop @ expected[-1])
        for _ in range(5):
            prop = prop @ prop
        for start in range(33, 101, 32):
            expected.extend(np.array(expected[start - 32 : min(start, 101 - 32)]) @ prop.T)
        assert np.array_equal(result.states, np.array(expected))

    @pytest.mark.parametrize("diagonal", [np.arange(1.0, 101.0), np.zeros(100)], ids=["distinct", "zero"])
    def test_diagonal_drift_splits_into_blocks_of_at_least_block_states(self, diagonal):
        blocks = reduction._blocks(np.diag(diagonal))
        assert len(blocks) > 1
        assert blocks[0].start == 0 and blocks[-1].stop == 100
        assert all(lo.stop == hi.start for lo, hi in zip(blocks, blocks[1:]))
        assert all(cols.stop - cols.start >= reduction._BLOCK for cols in blocks)

    def test_agrees_with_exact_modal_evolution(self):
        sys = acoustic_wave(32)
        report = quality_report(sys)
        comp = compress(sys, 1)
        x0 = np.concatenate([sine_ic(sys.labels["grid"]), np.zeros(32)])
        modal = simulate_modal(truncate(report, len(report.modes)), x0, 0.5)
        rk = simulate_rk4(comp.a_k, comp.m.conj().T @ x0, 0.5, 1e-3)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("side", ["approx", "reference"])
    def test_non_finite_field_raises(self, bad, side):
        w = clenshaw_curtis(4)
        fields = {"approx": np.ones(4, dtype=complex), "reference": np.ones(4, dtype=complex)}
        fields[side][2] = bad
        with pytest.raises(ValueError, match="fields must be finite"):
            relative_l2_error(fields["approx"], fields["reference"], w)


    @pytest.mark.parametrize("approx, reference, weights", [
        (np.ones(4), 2 * np.ones(4), np.ones(1)),
        (np.ones(4), 2 * np.ones(1), np.ones(4)),
        (np.ones(4), 2 * np.ones((3, 4)), np.ones(4)),
        (np.ones((4, 3)), 2 * np.ones(4), np.ones(4)),
    ], ids=["short-weights", "short-reference", "stacked-reference", "wrong-last-axis"])
    def test_mismatched_shapes_raise_instead_of_broadcasting(self, approx, reference, weights):
        with pytest.raises(ValueError, match="last axis of approx"):
            relative_l2_error(approx, reference, weights)

    def test_stacked_fields_give_one_error_each(self):
        # the rows differ from the reference by 0, 1/2 and 2 of it
        reference, w = 2 * np.ones(4), clenshaw_curtis(4)
        errors = relative_l2_error(np.array([[2.0] * 4, [1.0] * 4, [6.0] * 4]), reference, w)
        assert errors.shape == (3,)
        np.testing.assert_allclose(errors, [0.0, 0.5, 2.0], rtol=1e-15)
        assert isinstance(relative_l2_error(np.ones(4), reference, w), float)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacked_call_equals_the_per_row_calls_bit_for_bit(self, dtype):
        rng = np.random.default_rng(5)
        n = 129
        fields = rng.standard_normal((64, 2 * n)).astype(dtype)
        if dtype is complex:
            fields.imag = rng.standard_normal((64, 2 * n))
        reference, w = rng.standard_normal(n), clenshaw_curtis(n)
        # a strided view, as reduction_sweep passes its pressures
        stacked = relative_l2_error(fields[:, :n], reference, w)
        rows = [relative_l2_error(row, reference, w) for row in fields[:, :n]]
        assert stacked.tolist() == rows


class TestReductionSweep:
    def test_single_wave_initial_condition_is_captured_tiny(self, acoustic64):
        # the sine profile excites only the +-i pi pair, so every model
        # that keeps that pair reproduces it; where the pair ranks among
        # the modes resolved to rounding level is set by rounding, so
        # the retained counts are taken from its position in the report
        _, report = acoustic64
        lams = report.lambdas
        p = max(int(np.abs(lams - 1j * np.pi).argmin()),
                int(np.abs(lams + 1j * np.pi).argmin()))
        # the last count keeps every mode: the full model
        r_values = [p + 1, p + 5, p + 9, len(report.modes)]
        table = reduction_sweep(64, "sine", r_values, t_end=1.0)
        assert table["r"].tolist() == r_values
        assert np.all(table["size"] >= table["r"])
        assert np.all(table["rel_error"] < 1e-9)
        assert np.array_equal(table["theta_r"], report.theta[table["r"] - 1])
        thetas = table["theta_r"].tolist()
        assert thetas == sorted(thetas)

    def test_discontinuous_initial_condition_keeps_series_floor(self, acoustic64):
        # 40 modes, then every mode: the full model
        _, report = acoustic64
        table = reduction_sweep(64, "bump", (40, len(report.modes)), t_end=1.0)
        (row_error, full_error), (row_size, _) = table["rel_error"], table["size"]
        assert 1e-2 < full_error < 1.0
        assert row_size >= 40
        assert 1e-2 < row_error < 1.0

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("ic", ["bump", "sine"])
    def test_one_pass_matches_the_per_model_loop(self, n, ic):
        # unsorted, repeated counts, the full model among them; the
        # errors of models that keep the sine's +-i pi pair are rounding
        # level (about 2e-13), so they are held to 4 eps absolute
        nmodes = 2 * n - 2
        r_values = [n // 2, 2, nmodes, n // 2, 1, n + 3, 2]
        table = reduction_sweep(n, ic, r_values, t_end=1.0)
        sys = acoustic_wave(n)
        grid = sys.labels["grid"]
        p_ref, _ = acoustic_reference(grid, ic, 1.0)
        x0 = np.concatenate([reduction._IC_PROFILES[ic](grid), np.zeros(n)])
        report = quality_report(sys)
        assert table["r"].tolist() == r_values
        for r, size, theta_r, rel_error in zip(
            r_values, table["size"], table["theta_r"], table["rel_error"]
        ):
            model = truncate(report, r)
            p_r = simulate_modal(model, x0, 1.0).states[-1][:n]
            err = relative_l2_error(p_r, p_ref, clenshaw_curtis(n))
            assert size == model.size
            assert theta_r == report.theta[r - 1]
            assert abs(rel_error - err) <= 1e-12 * err + 4 * np.finfo(float).eps

    def test_rank_guard_raises_at_the_first_failing_count_in_list_order(self, monkeypatch):
        # the pair that starts at mode 20 or 21 takes the owner row of
        # the first pair, and its twin, which repeats that row, the
        # first twin's vector, so every model that keeps it is rank
        # deficient: 40 fails before 30 and before the models are evolved
        report = quality_report(acoustic_wave(32))
        upper = np.flatnonzero(report.lambdas.imag > 0)
        first, late = upper[0], upper[(upper == 20) | (upper == 21)][0]
        pairs = np.array([first, late])
        assert np.array_equal(report.lambdas[pairs + 1], np.conj(report.lambdas[pairs]))
        assert np.array_equal(report.rows[pairs + 1], report.rows[pairs])
        owners = report.owners.copy()
        owners[report.rows[late]] = owners[report.rows[first]]
        broken = dataclasses.replace(report, owners=owners)
        monkeypatch.setattr(reduction, "quality_report", lambda *args, **kwargs: broken)
        with pytest.raises(RankDeficientBasisError) as info:
            truncate(broken, 40)
        expected = str(info.value)
        assert truncate(broken, 20).size >= 20
        monkeypatch.setattr(reduction, "_evolve", None)
        with pytest.raises(RankDeficientBasisError) as got:
            reduction_sweep(32, "bump", [12, 40, 2, 30])
        assert str(got.value) == expected

    def test_no_counts_give_the_empty_table_without_scoring(self, monkeypatch):
        def unscored(*args, **kwargs):
            raise AssertionError("the report was scored")

        monkeypatch.setattr(reduction, "quality_report", unscored)
        table = reduction_sweep(32, "bump", [])
        assert list(table) == ["r", "size", "rel_error", "theta_r"]
        assert all(column.shape == (0,) for column in table.values())
        # the reference checks still run first
        with pytest.raises(ValueError, match="initial condition"):
            reduction_sweep(32, "boxcar", [])
        with pytest.raises(ZeroReferenceError, match="t=0.5"):
            reduction_sweep(64, "sine", [], t_end=0.5)

    def test_table_columns_in_header_order(self):
        table = reduction_sweep(16, "bump", (6, 2, 30, 2), t_end=0.5)
        assert list(table) == ["r", "size", "rel_error", "theta_r"]
        assert [column.dtype.kind for column in table.values()] == ["i", "i", "f", "f"]
        assert all(column.shape == (4,) for column in table.values())

    def test_unknown_profile_rejected(self, monkeypatch):
        # rejected before the report is built and scored
        monkeypatch.setattr(reduction, "quality_report", None)
        with pytest.raises(ValueError, match="initial condition"):
            reduction_sweep(32, "boxcar", (2,))

    def test_vanishing_reference_rejected_before_the_report(self, monkeypatch, capsys):
        # the sine profile is one mode, whose cos(pi t) vanishes at t = 0.5;
        # against the series' rounding the errors read 1.9e11 and 3.1e11
        monkeypatch.setattr(reduction, "quality_report", None)
        with pytest.raises(ZeroReferenceError, match="t=0.5"):
            reduction_sweep(64, "sine", [4, 8, 126], t_end=0.5)
        argv = ["reduce", "--n", "64", "--ic", "sine", "--t-end", "0.5", "--r-list", "4,8,126"]
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().out == ""

    def test_small_reference_is_still_compared(self):
        # cos(pi t) = 3.1e-2 at t = 0.49, far above the series' accuracy
        (rel_error,) = reduction_sweep(16, "sine", [14], t_end=0.49)["rel_error"]
        assert rel_error < 1e-6

    @pytest.mark.parametrize("t_end", [np.nan, np.inf])
    def test_non_finite_time_rejected_before_the_reference(self, monkeypatch, t_end):
        # the reference tables were built as all-nan fields, with
        # RuntimeWarnings, before the evolution rejected the time
        monkeypatch.setattr(reduction, "quality_report", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="time must be finite"):
                reduction_sweep(16, "bump", [4], t_end=t_end)
