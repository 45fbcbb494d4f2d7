"""Depth sweeps and nearest-reference spectrum matching."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensieve import experiments, problems
from eigensieve.chebyshev import cheb_diff, diff_power
from eigensieve.constrained import ConstrainedSystem, compress
from eigensieve.experiments import (
    k_quality_sweep,
    k_sweep,
    match_to_reference,
)
from eigensieve.problems import canuto_hyperbolic, get_problem
from eigensieve.quality import quality_report


def _whole_matrix_match(computed, reference):
    """Nearest reference from the whole m x R distance matrix at once."""
    computed = np.asarray(computed, dtype=complex).ravel()
    reference = np.asarray(reference, dtype=complex).ravel()
    dist = np.abs(computed[:, None] - reference[None, :])
    idx = dist.argmin(axis=1)
    abs_err = dist[np.arange(computed.size), idx]
    denom = np.abs(reference[idx])
    rel_err = abs_err.copy()
    nz = denom > 0.0
    rel_err[nz] /= denom[nz]
    return idx, abs_err, rel_err


def _random_complex(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _axis_covers(rng, size):
    """An unsorted real-axis and imaginary-axis cover of ``size`` points, with duplicates."""
    values = rng.standard_normal(size)
    values[::3] = rng.choice(values, values[::3].size)
    return [values + 0j, 1j * values]


class TestMatchToReference:
    def test_hand_case(self):
        match = match_to_reference(np.array([1.0 + 0j, 5.1]), np.array([1.0, 5.0]))
        np.testing.assert_array_equal(match.indices, [0, 1])
        np.testing.assert_allclose(match.abs_errors, [0.0, 0.1], atol=1e-14)
        np.testing.assert_allclose(match.rel_errors, [0.0, 0.02], atol=1e-14)

    def test_zero_reference_falls_back_to_absolute(self):
        match = match_to_reference(np.array([0.3 + 0.4j, 9.0]), np.array([0.0, 10.0]))
        np.testing.assert_array_equal(match.indices, [0, 1])
        assert match.abs_errors[0] == pytest.approx(0.5)
        assert match.rel_errors[0] == match.abs_errors[0]
        assert match.rel_errors[1] == pytest.approx(0.1)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            match_to_reference(np.array([1.0 + 0j]), np.array([]))

    @pytest.mark.parametrize("reference", [[1.0, 1j], [1.0 + 1e-300j], [1.0 + 1j, 2.0 + 2j]])
    def test_off_axis_reference_rejected(self, reference):
        with pytest.raises(ValueError, match="real or the imaginary axis"):
            match_to_reference(np.array([1.0 + 0j]), np.array(reference))

    def test_matches_are_nearest(self):
        rng = np.random.default_rng(30)
        computed = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        for reference in _axis_covers(rng, 7):
            match = match_to_reference(computed, reference)
            for i, c in enumerate(computed):
                dists = np.abs(c - reference)
                assert dists[match.indices[i]] == dists.min()
                assert match.abs_errors[i] == pytest.approx(dists.min())

    @pytest.mark.parametrize("m, r", [
        (37, 1000),
        (1, 7),
        (5, 2**14 + 3),
        (3, 2**14),
    ])
    def test_blocks_keep_the_whole_matrix_bits(self, m, r):
        rng = np.random.default_rng(m + r)
        computed = _random_complex(rng, m)
        # computed points on top of cover points, and past both ends
        computed[0] = 100.0 + 1j
        if m > 2:
            computed[1] = -100.0 - 1j
        for reference in _axis_covers(rng, r):
            if m > 2:
                computed[2] = reference[r // 2] + 1e-3
            match = match_to_reference(computed, reference)
            idx, abs_err, rel_err = _whole_matrix_match(computed, reference)
            assert np.array_equal(match.indices, idx)
            assert np.array_equal(match.abs_errors, abs_err)
            assert np.array_equal(match.rel_errors, rel_err)

    @pytest.mark.parametrize("r", [3, 2**14 + 1])
    def test_ties_go_to_the_lowest_reference_index(self, r):
        # a run of duplicate reference points, on either axis
        for axis in (1.0, 1j):
            reference = np.full(r, 5.0 * axis)
            reference[0] = 100.0 * axis
            computed = np.full(40, (4.0 + 1j) * axis)
            match = match_to_reference(computed, reference)
            np.testing.assert_array_equal(match.indices, np.ones(40))
            # past the top of the cover, the first of its run of largest points
            reference[0] = -100.0 * axis
            match = match_to_reference(np.array([200.0 * axis]), reference)
            assert match.indices[0] == 1
        # halfway between two points, the lower index above or below
        for reference, index in (([0.0, 1.0], 0), ([1.0, 0.0], 0), ([2.0, 1.0, 0.0], 1)):
            match = match_to_reference(np.array([0.5 + 0j]), np.array(reference))
            assert match.indices[0] == index
            assert match.abs_errors[0] == 0.5

    def test_empty_computed_gives_empty_arrays(self):
        match = match_to_reference(np.array([], dtype=complex), np.array([1.0, 2.0]))
        for values in (match.indices, match.abs_errors, match.rel_errors):
            assert values.shape == (0,)
        assert match.indices.dtype == np.intp

    def test_memory_is_bounded_by_blocks(self):
        # the whole 100 x 1e4 matrix is 16 MB of differences and 8 MB of moduli
        rng = np.random.default_rng(4)
        computed = _random_complex(rng, 100)
        for reference in _axis_covers(rng, 10_000):
            tracemalloc.start()
            try:
                match_to_reference(computed, reference)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2e6


def clamped_fourth_order(n):
    """u'''' = lam u'' on [-1, 1] with u = u' = 0 at both walls.

    A = D^4 and E = D^2 with Orr-Sommerfeld's four clamped rows; the
    operators commute with x -> -x, so the system declares mirror (1,).
    """
    d = cheb_diff(n)
    c = np.zeros((4, n))
    c[0, 0] = 1.0
    c[1, n - 1] = 1.0
    c[2] = d[0]
    c[3] = d[n - 1]
    return ConstrainedSystem(a=diff_power(d, 4), c=c, e=diff_power(d, 2), mirror=(1,))


def clamped_cover(radius):
    """Exact eigenvalues -mu^2 of ``clamped_fourth_order`` out past modulus ``radius``.

    The even modes cos(mu x) - (-1)^j have mu = j pi; the odd modes
    sin(mu x) - x sin(mu) have mu at the positive roots of tan mu = mu,
    found by Newton from (j + 1/2) pi - 1 / ((j + 1/2) pi).
    """
    j = np.arange(1, int(np.ceil(np.sqrt(max(radius, 0.0)) / np.pi)) + 3)
    odd = (j + 0.5) * np.pi - 1.0 / ((j + 0.5) * np.pi)
    for _ in range(8):
        odd -= (np.tan(odd) - odd) / np.tan(odd) ** 2
    return -np.concatenate([j * np.pi, odd]) ** 2


class TestClampedFourthOrder:
    def test_cover_holds_the_first_roots(self):
        mu = np.sort(np.sqrt(-clamped_cover(100.0)))[:4]
        np.testing.assert_allclose(
            mu, [np.pi, 4.493409457909064, 2 * np.pi, 7.725251836937707], rtol=1e-15
        )

    @pytest.mark.parametrize("n", [24, 32, 48, 64])
    @pytest.mark.parametrize("k", [1, 2])
    def test_spectrum_is_real_negative_and_theta_flags_accurate_modes(self, n, k):
        report = quality_report(clamped_fourth_order(n), k)
        lams = report.lambdas
        assert np.all(lams.imag == 0.0)
        assert np.all(lams.real < 0.0)
        assert lams.real.max() == pytest.approx(-np.pi**2, rel=1e-9)
        rel = match_to_reference(lams, clamped_cover(float(np.abs(lams).max()))).rel_errors
        sharp = report.theta < 1e-6
        assert sharp.sum() >= 4
        assert np.all(rel[sharp] < 1e-8)


class TestKSweep:
    def test_small_case_runs_to_exhaustion(self):
        table = k_sweep("heat", n=8, k_max=25)
        assert table["k"].tolist() == [1, 2, 3]
        assert table["r"].tolist() == [6, 4, 2]
        assert np.all(0.0 <= table["min_abs_error"])
        assert np.all(table["min_abs_error"] <= table["max_abs_error"])
        assert np.all(table["proxy_real_error"] >= 0.0)

    def test_rows_match_each_depth_compressed_alone(self):
        sys = canuto_hyperbolic(16)
        table = k_sweep("canuto", n=16, k_max=6)
        assert table["k"].tolist() == list(range(1, 7))
        for k, r, max_abs_real in zip(table["k"], table["r"], table["max_abs_real"]):
            comp = compress(sys, int(k))
            lams = np.linalg.eigvals(comp.a_k)
            assert r == comp.r
            assert max_abs_real == np.abs(lams.real).max()

    def test_k_max_truncates(self):
        table = k_sweep("canuto", n=8, k_max=3)
        assert table["k"].tolist() == [1, 2, 3]

    def test_deeper_stacks_clear_the_spurious_branch(self):
        sys = canuto_hyperbolic(32)
        table = k_sweep("canuto", n=32, k_max=12)
        gate = 1e-8 * sys.drift_norm
        assert table["max_abs_real"][0] > gate  # depth 1 keeps off-axis artifacts
        assert np.any(table["max_abs_real"] < gate)

    def test_problem_without_reference_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            k_sweep("orr-sommerfeld", n=32)

    def test_mass_operator_solves_the_pencil(self, monkeypatch):
        # eigvals(A_k) alone, without E_k, read max |Re lam| = 1.47e8 at depth
        # 1 here, against 3.32 for the pencil
        prob = problems.REGISTRY["orr-sommerfeld"]
        cover = dataclasses.replace(prob, reference_cover=lambda radius: np.zeros(1))
        monkeypatch.setitem(problems.REGISTRY, "orr-sommerfeld", cover)
        summary = k_sweep("orr-sommerfeld", n=30, k_max=3)
        grid = k_quality_sweep("orr-sommerfeld", n=30, k_max=3)
        assert summary["k"].tolist() == [1, 2, 3]
        for k, max_abs_real in zip(summary["k"], summary["max_abs_real"]):
            assert max_abs_real == np.abs(grid["re_lambda"][grid["k"] == k]).max()
        assert summary["max_abs_real"][0] < 10.0


class TestKQualitySweep:
    def test_grid_shape_and_ordering(self):
        table = k_quality_sweep("canuto", n=16, k_max=2)
        assert np.unique(table["k"]).tolist() == [1, 2]
        depth_one = table["k"] == 1
        assert table["rank"][depth_one].tolist() == list(range(30))
        thetas = table["theta"][depth_one].tolist()
        assert thetas == sorted(thetas)
        assert np.count_nonzero(table["k"] == 2) == compress(canuto_hyperbolic(16), 2).r

    def test_rows_match_each_depth_reported_alone(self):
        sys = canuto_hyperbolic(16)
        table = k_quality_sweep("canuto", n=16, k_max=4)
        for k in range(1, 5):
            report = quality_report(sys, k)
            got = table["k"] == k
            assert [
                table[name][got].tolist()
                for name in ("re_lambda", "im_lambda", "s_norm", "theta", "zero_mode")
            ] == [
                report.lambdas.real.tolist(), report.lambdas.imag.tolist(),
                report.s_norm.tolist(), report.theta.tolist(), report.zero_mode.tolist(),
            ]

    def test_best_mode_is_spectrally_accurate(self):
        table = k_quality_sweep("canuto", n=16, k_max=1)
        assert table["rank"][0] == 0
        assert table["rel_error"][0] < 1e-10
        assert table["s_norm"][0] is not None
        assert not table["zero_mode"][0]

    def test_problem_without_reference_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            k_quality_sweep("orr-sommerfeld", n=32)


@pytest.mark.parametrize(
    "sweep, names, kinds",
    [
        (k_sweep, ["k", "r", "proxy_real_error", "max_abs_error", "min_abs_error",
                   "max_abs_real"], "iiffff"),
        (k_quality_sweep, ["k", "rank", "re_lambda", "im_lambda", "abs_error", "rel_error",
                           "s_norm", "theta", "zero_mode"], "iiffffffb"),
    ],
    ids=["k_sweep", "k_quality_sweep"],
)
def test_sweeps_return_columns_in_header_order(monkeypatch, sweep, names, kinds):
    table = sweep("canuto", 8, 3)
    assert list(table) == names
    assert "".join(column.dtype.kind for column in table.values()) == kinds
    (shape,) = {column.shape for column in table.values()}
    assert len(shape) == 1 and shape[0] > 0
    # a walk that yields no depth gives the same columns, empty
    monkeypatch.setattr(experiments, "compress_depths", lambda sys, k_max: iter(()))
    empty = sweep("canuto", 8, 3)
    assert list(empty) == names
    assert all(column.shape == (0,) for column in empty.values())


@settings(max_examples=40, deadline=None)
@given(
    problem=st.sampled_from(["heat", "canuto", "acoustic"]),
    n=st.integers(4, 16),
    k_max=st.integers(1, 4),
)
def test_sweeps_agree_with_each_depth_alone(problem, n, k_max):
    # both sweeps walk one chain of depths; each depth matches the
    # system compressed and reported at that depth alone
    summary = k_sweep(problem, n, k_max)
    grid = k_quality_sweep(problem, n, k_max)
    sys = get_problem(problem).build(n=n)
    assert summary["k"].tolist() == list(range(1, summary["k"].size + 1))
    assert grid["k"].size == summary["r"].sum()
    for k, r in zip(summary["k"].tolist(), summary["r"].tolist()):
        depth = grid["k"] == k
        assert r == compress(sys, k).r == np.count_nonzero(depth)
        assert grid["rank"][depth].tolist() == list(range(r))
        thetas = grid["theta"][depth].tolist()
        assert thetas == sorted(thetas)
        lams = grid["re_lambda"][depth].astype(complex)
        lams.imag = grid["im_lambda"][depth]
        assert lams.tobytes() == quality_report(sys, k).lambdas.tobytes()
