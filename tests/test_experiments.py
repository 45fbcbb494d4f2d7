"""Depth sweeps and nearest-reference spectrum matching."""

import numpy as np
import pytest

from eigensieve.constrained import compress
from eigensieve.experiments import k_quality_sweep, k_sweep, match_to_reference
from eigensieve.problems import canuto_hyperbolic
from eigensieve.quality import quality_report


class TestMatchToReference:
    def test_hand_case(self):
        match = match_to_reference(np.array([1.0 + 0j, 5.1]), np.array([1.0, 5.0]))
        np.testing.assert_array_equal(match.indices, [0, 1])
        np.testing.assert_allclose(match.abs_errors, [0.0, 0.1], atol=1e-14)
        np.testing.assert_allclose(match.rel_errors, [0.0, 0.02], atol=1e-14)

    def test_zero_reference_falls_back_to_absolute(self):
        match = match_to_reference(np.array([0.3 + 0.4j]), np.array([0.0, 10.0]))
        assert match.indices[0] == 0
        assert match.abs_errors[0] == pytest.approx(0.5)
        assert match.rel_errors[0] == pytest.approx(0.5)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            match_to_reference(np.array([1.0 + 0j]), np.array([]))

    def test_matches_are_nearest(self):
        rng = np.random.default_rng(30)
        computed = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        reference = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        match = match_to_reference(computed, reference)
        for i, c in enumerate(computed):
            dists = np.abs(c - reference)
            assert dists[match.indices[i]] == dists.min()
            assert match.abs_errors[i] == pytest.approx(dists.min())


class TestKSweep:
    def test_small_case_runs_to_exhaustion(self):
        rows = k_sweep("heat", n=8, k_max=25)
        assert [row.k for row in rows] == [1, 2, 3]
        assert [row.r for row in rows] == [6, 4, 2]
        for row in rows:
            assert 0.0 <= row.min_abs_error <= row.max_abs_error
            assert row.proxy_real_error >= 0.0

    def test_rows_match_each_depth_compressed_alone(self):
        sys = canuto_hyperbolic(16)
        rows = k_sweep("canuto", n=16, k_max=6)
        assert [row.k for row in rows] == list(range(1, 7))
        for row in rows:
            comp = compress(sys, row.k)
            lams = np.linalg.eigvals(comp.a_k)
            assert row.r == comp.r
            assert row.max_abs_real == np.abs(lams.real).max()

    def test_k_max_truncates(self):
        rows = k_sweep("canuto", n=8, k_max=3)
        assert [row.k for row in rows] == [1, 2, 3]

    def test_deeper_stacks_clear_the_spurious_branch(self):
        sys = canuto_hyperbolic(32)
        rows = k_sweep("canuto", n=32, k_max=12)
        gate = 1e-8 * sys.drift_norm
        assert rows[0].max_abs_real > gate  # depth 1 keeps off-axis artifacts
        assert any(row.max_abs_real < gate for row in rows)

    def test_problem_without_reference_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            k_sweep("orr-sommerfeld", n=32)


class TestKQualitySweep:
    def test_grid_shape_and_ordering(self):
        rows = k_quality_sweep("canuto", n=16, k_max=2)
        ks = sorted({row.k for row in rows})
        assert ks == [1, 2]
        depth_one = [row for row in rows if row.k == 1]
        assert [row.rank for row in depth_one] == list(range(30))
        thetas = [row.theta for row in depth_one]
        assert thetas == sorted(thetas)
        depth_two = [row for row in rows if row.k == 2]
        assert len(depth_two) == compress(canuto_hyperbolic(16), 2).r

    def test_rows_match_each_depth_reported_alone(self):
        sys = canuto_hyperbolic(16)
        rows = k_quality_sweep("canuto", n=16, k_max=4)
        for k in range(1, 5):
            modes = quality_report(sys, k).modes
            got = [row for row in rows if row.k == k]
            assert [(r.lam, r.s_norm, r.theta, r.zero_mode) for r in got] == [
                (m.lam, m.s_norm, m.theta, m.zero_mode) for m in modes
            ]

    def test_best_mode_is_spectrally_accurate(self):
        rows = k_quality_sweep("canuto", n=16, k_max=1)
        best = rows[0]
        assert best.rank == 0
        assert best.rel_error < 1e-10
        assert best.s_norm is not None
        assert not best.zero_mode

    def test_problem_without_reference_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            k_quality_sweep("orr-sommerfeld", n=32)
