"""Spectral quality scores: derivative violations and Grassmann angles."""

import numpy as np
import pytest

from eigensieve.constrained import ConstrainedSystem, compress
from eigensieve.errors import (
    GeneralizedUnsupportedError,
    IllConditionedMassError,
    UndefinedSubspaceError,
)
from eigensieve.problems import (
    acoustic_wave,
    canuto_hyperbolic,
    canuto_reference,
    heat_dirichlet,
    orr_sommerfeld,
)
from eigensieve.quality import (
    DEFAULT_THETA_THRESHOLD,
    DEFAULT_ZERO_FLOOR,
    derivative_violation,
    eigenpairs,
    grassmann_distance,
    mode_angle,
    quality_report,
)

MAX_DIST = np.sqrt(2.0) * np.pi / 2.0


def _random_complex(rng, n=9):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _diag_zero_system():
    a = np.diag([0.0, 2.0, 3.0, 4.0])
    c = np.array([[0.0, 0.0, 0.0, 1.0]])
    return ConstrainedSystem(a=a, c=c)


class TestGrassmannDistance:
    def test_symmetry(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            u1, u2 = _random_complex(rng), _random_complex(rng)
            assert abs(grassmann_distance(u1, u2) - grassmann_distance(u2, u1)) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            u1, u2 = _random_complex(rng), _random_complex(rng)
            alpha = 2.3 - 1.7j
            beta = -0.4 + 5.0j
            d0 = grassmann_distance(u1, u2)
            d1 = grassmann_distance(alpha * u1, beta * u2)
            assert abs(d0 - d1) < 1e-10

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            d = grassmann_distance(_random_complex(rng), _random_complex(rng))
            assert 0.0 <= d <= MAX_DIST + 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            u1, u2, u3 = (_random_complex(rng) for _ in range(3))
            d13 = grassmann_distance(u1, u3)
            d12 = grassmann_distance(u1, u2)
            d23 = grassmann_distance(u2, u3)
            assert d13 <= d12 + d23 + 1e-12

    def test_self_distance_sits_at_arccos_floor(self):
        # arccos of a clipped singular value loses half the working
        # precision, so identical spans score ~sqrt(eps), not 1e-15
        rng = np.random.default_rng(24)
        for _ in range(200):
            u = _random_complex(rng)
            assert grassmann_distance(u, u) < 1e-7

    def test_same_plane_under_complex_rotation(self):
        rng = np.random.default_rng(25)
        for phi in (0.3, 1.1, 2.9):
            u = _random_complex(rng)
            assert grassmann_distance(u, np.exp(1j * phi) * u) < 1e-7

    def test_orthogonal_planes(self):
        u1 = np.array([1.0 + 0j, 1j, 0, 0])
        u2 = np.array([0, 0, 1.0 + 0j, 1j])
        assert grassmann_distance(u1, u2) == pytest.approx(MAX_DIST, abs=1e-12)

    def test_planes_sharing_one_line(self):
        u1 = np.array([1.0 + 0j, 1j, 0])
        u2 = np.array([1.0 + 0j, 0, 1j])
        assert grassmann_distance(u1, u2) == pytest.approx(np.pi / 2, abs=1e-7)

    def test_real_vectors_reduce_to_plain_angles(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        assert grassmann_distance(e1, e2) == pytest.approx(np.pi / 2, abs=1e-12)
        assert grassmann_distance(e1, e1 + e2) == pytest.approx(np.pi / 4, abs=1e-9)

    def test_line_inside_plane_scores_zero(self):
        e1 = np.array([1.0, 0.0, 0.0])
        plane = np.array([1.0 + 0j, 1j, 0])
        assert grassmann_distance(e1, plane) < 1e-7

    def test_zero_vector_rejected(self):
        with pytest.raises(UndefinedSubspaceError):
            grassmann_distance(np.zeros(4), np.array([1.0, 0, 0, 0]))


class TestEigenpairs:
    def test_unit_vectors_and_conjugate_adjacency(self):
        comp = compress(canuto_hyperbolic(16), 1)
        pairs = eigenpairs(comp)
        assert len(pairs) == 30
        for lam, v in pairs:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)
        lams = [lam for lam, _ in pairs]
        for i in range(0, 30, 2):
            assert lams[i].imag > 0
            assert lams[i + 1] == pytest.approx(np.conj(lams[i]), abs=1e-12)

    def test_residuals_track_machine_precision(self):
        comp = compress(canuto_hyperbolic(32), 1)
        scale = np.linalg.norm(comp.a_k, 2)
        for lam, v in eigenpairs(comp):
            assert np.linalg.norm(comp.a_k @ v - lam * v) < 1e-8 * scale

    def test_singular_mass_operator_rejected(self):
        sys = ConstrainedSystem(
            a=np.eye(3), c=np.eye(1, 3), e=np.diag([1.0, 1.0, 0.0])
        )
        with pytest.raises(IllConditionedMassError):
            eigenpairs(compress(sys, 1))


class TestDerivativeScore:
    def test_resolved_heat_mode_scores_tiny(self):
        n = 48
        sys = heat_dirichlet(n)
        comp = compress(sys, 1)
        x = sys.labels["grid"].points
        z = np.sin(3.0 * np.pi * (x + 1.0) / 2.0)
        s_mode = derivative_violation(sys, comp, comp.m_left @ z)
        rng = np.random.default_rng(26)
        v = rng.standard_normal(comp.r)
        s_rand = derivative_violation(sys, comp, v / np.linalg.norm(v))
        assert s_mode < 1e-8
        assert s_rand > 1.0
        assert s_rand / s_mode > 1e4

    def test_rejected_for_generalized_systems(self):
        sys = orr_sommerfeld(12)
        comp = compress(sys, 1)
        with pytest.raises(GeneralizedUnsupportedError):
            derivative_violation(sys, comp, np.ones(comp.r))


class TestModeAngle:
    def test_exact_zero_mode_is_flagged(self):
        sys = _diag_zero_system()
        comp = compress(sys, 1)
        for lam, v in eigenpairs(comp):
            theta, zero = mode_angle(sys, comp, v)
            if abs(lam) < 1e-12:
                assert zero and theta == 0.0
            else:
                assert not zero
                assert theta < 1e-7

    def test_misaligned_direction_scores_large(self):
        rng = np.random.default_rng(27)
        a = np.zeros((4, 4))
        a[:2, 2:] = rng.standard_normal((2, 2))  # image orthogonal to input
        a[2:, :2] = rng.standard_normal((2, 2))
        sys = ConstrainedSystem(a=a, c=np.eye(1, 4))
        comp = compress(sys, 1)
        v = comp.m_left @ np.array([0.0, 1.0, 0.0, 0.0])
        theta, zero = mode_angle(sys, comp, v)
        assert not zero
        assert theta == pytest.approx(np.pi / 2, abs=1e-9)


class TestQualityReport:
    def test_hyperbolic_report_structure(self):
        report = quality_report(canuto_hyperbolic(16))
        assert len(report.modes) == 30
        thetas = [m.theta for m in report.modes]
        assert thetas == sorted(thetas)
        assert all(m.s_norm is not None for m in report.modes)
        meta = report.meta
        assert meta["problem"] == "canuto"
        assert meta["n"] == 16 and meta["k"] == 1 and meta["r"] == 30
        assert meta["real_system"] is True
        assert meta["theta_threshold"] == DEFAULT_THETA_THRESHOLD

    def test_best_modes_match_the_exact_ladder(self):
        report = quality_report(canuto_hyperbolic(16))
        good = [m for m in report.modes if m.theta < 1e-6]
        assert len(good) == 2
        ref = canuto_reference(8)
        for m in good:
            rel = np.abs(ref - m.lam).min() / np.abs(m.lam)
            assert rel < 1e-10

    def test_near_degenerate_pair_is_flagged(self):
        report = quality_report(canuto_hyperbolic(16))
        assert int(report.multiplicity_flags.sum()) == 2
        flagged = [m for m, f in zip(report.modes, report.multiplicity_flags) if f]
        assert all(abs(m.lam) < 1e-6 for m in flagged)

    def test_generalized_report_drops_derivative_score(self):
        report = quality_report(orr_sommerfeld(50))
        assert report.meta["real_system"] is False
        assert report.meta["r"] == 46
        assert all(m.s_norm is None for m in report.modes)

    def test_threshold_override_is_recorded(self):
        report = quality_report(canuto_hyperbolic(16), theta_threshold=5e-2)
        assert report.meta["theta_threshold"] == 5e-2
        assert "convention" in report.meta["theta_threshold_note"]


def _per_mode_scores(sys, comp):
    """Reference scores from one mixed-dtype product per use, mode by mode.

    This is the scoring loop that the quality kernel replaced: numpy
    casts a real operator anew for every product with a complex vector,
    and ``A M v`` is formed twice, so no work is shared with the kernel
    under test.
    """
    rows = []
    for lam, v in eigenpairs(comp):
        w = comp.m @ v
        s_norm = None if sys.e is not None else float(np.linalg.norm(sys.c @ (sys.a @ w)))
        aw = sys.a @ w
        if np.linalg.norm(aw) < DEFAULT_ZERO_FLOOR * sys.drift_norm * np.linalg.norm(w):
            theta, zero = 0.0, True
        else:
            lhs = w if sys.e is None else sys.e @ w
            theta, zero = grassmann_distance(lhs, aw), False
        rows.append((lam, v, w, s_norm, theta, zero))
    rows.sort(key=lambda row: (row[4], abs(row[0].imag), abs(row[0].real)))
    return rows


@pytest.mark.parametrize(
    "build, n, k",
    [
        (heat_dirichlet, 48, 1),
        (canuto_hyperbolic, 64, 1),
        (canuto_hyperbolic, 64, 3),
        (acoustic_wave, 64, 1),
        (orr_sommerfeld, 50, 1),
    ],
    ids=["heat", "canuto-k1", "canuto-k3", "acoustic", "orr-sommerfeld"],
)
def test_scores_are_bit_identical_to_per_mode_products(build, n, k):
    sys = build(n)
    comp = compress(sys, k)
    expected = _per_mode_scores(sys, comp)
    report = quality_report(sys, k)
    assert [m.lam for m in report.modes] == [row[0] for row in expected]
    for mode, (_, v, w, s_norm, theta, zero) in zip(report.modes, expected):
        assert np.array_equal(mode.w, w)
        assert mode.s_norm == s_norm
        assert mode.theta == theta
        assert mode.zero_mode == zero
        assert mode_angle(sys, comp, v) == (theta, zero)
        if sys.e is None:
            assert derivative_violation(sys, comp, v) == s_norm
