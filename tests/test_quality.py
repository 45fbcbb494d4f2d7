"""Spectral quality scores: derivative violations and Grassmann angles."""

import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stacked_vectors, whole_e_k, whole_p
from eigensieve import quality
from eigensieve.constrained import (
    CompressedSystem,
    ConstrainedSystem,
    _HalfSystem,
    _norms,
    compress,
)
from eigensieve.errors import EigensieveError, IllConditionedMassError, UndefinedSubspaceError
from eigensieve.problems import (
    acoustic_wave,
    canuto_hyperbolic,
    canuto_reference,
    heat_dirichlet,
    orr_sommerfeld,
)
from eigensieve.quality import (
    DEFAULT_ZERO_FLOOR,
    eigenpairs,
    grassmann_distance,
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
        # the sine branch resolves identical spans to rounding level;
        # the bound is loose enough for arccos alone, which loses half
        # the working precision and scores them ~sqrt(eps)
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

    def test_rank_rule_keeps_a_second_dimension_above_1e_13(self):
        # span{Re u, Im u} is a plane when its second singular value
        # exceeds 1e-13 times the first, and then it holds y; below
        # that it is the line of x, at a right angle to y
        x, y = np.random.default_rng(32).standard_normal((2, 9))
        y -= x * (x @ y) / (x @ x)
        y *= np.linalg.norm(x) / np.linalg.norm(y)
        assert grassmann_distance(x + 1e-12j * y, y) < 1e-3
        assert grassmann_distance(x + 1e-14j * y, y) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_different_lengths_name_both_shapes(self):
        # numpy's broadcast error named the stacked (1, 1, 1) shapes instead
        message = "vectors must have the same length, got shapes (4,) and (3,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            grassmann_distance(np.ones(4), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_entry_rejected_before_any_svd(self, monkeypatch, bad, side):
        # the SVD of a nan entry raised LinAlgError: SVD did not converge
        monkeypatch.setattr(quality, "_grassmann_distances", None)
        vectors = [np.ones(4, dtype=complex), np.arange(4.0) + 1j]
        vectors[side][2] = bad
        with pytest.raises(ValueError, match="finite"):
            grassmann_distance(*vectors)

    @pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-12])
    def test_small_angles_are_resolved(self, delta):
        # arccos alone returns 0 at 1e-8 and sqrt(eps)-sized noise below
        q, _ = np.linalg.qr(np.random.default_rng(28).standard_normal((9, 9)))
        tilted = np.cos(delta) * q[:, 0] + np.sin(delta) * q[:, 1]
        assert abs(grassmann_distance(q[:, 0], tilted) - delta) < 1e-15
        plane = q[:, 0] + 1j * q[:, 2]
        tilted_plane = tilted + 1j * q[:, 2]
        assert abs(grassmann_distance(plane, tilted_plane) - delta) < 1e-15


def _column_stack_distance(u1, u2):
    """The angle algorithm of an SVD per span, written out for one pair."""
    bases = []
    for u in (u1, u2):
        u = np.asarray(u, dtype=complex).ravel()
        q, s, _ = np.linalg.svd(np.column_stack([u.real, u.imag]), full_matrices=False)
        bases.append(q[:, : int(np.count_nonzero(s > 1e-13 * s[0]))])
    small, big = sorted(bases, key=lambda b: b.shape[1])
    proj = big.T @ small
    cos = np.linalg.svd(proj, compute_uv=False)
    sin = np.linalg.svd(small - big @ proj, compute_uv=False)[::-1]
    angles = np.where(
        cos * cos >= 0.5, np.arcsin(np.minimum(sin, 1.0)), np.arccos(np.minimum(cos, 1.0))
    )
    return float(np.sqrt(np.dot(angles, angles)))


def _top(p, q, r, s):
    """``quality._sv2`` of the one matrix [[p, q], [r, s]]: s1, s2 and the vector (x, y)."""
    s1, s2, _, u = quality._sv2(*(np.array([v], dtype=float) for v in (p, q, r, s)))
    return s1[0], s2[0], (u[0].real, u[0].imag)


def _r4_distance(u1, u2):
    """The angle kernel written out for one pair: one QR into R^4, then 2 x 2 arithmetic."""
    u1, u2 = (np.asarray(u, dtype=complex).ravel() for u in (u1, u2))
    x = np.zeros((max(u1.size, 4), 4))
    x[: u1.size] = np.column_stack([u1.real, u1.imag, u2.real, u2.imag])
    r = np.linalg.qr(x, mode="r")
    lhs, y = r[:2, :2] / np.abs(r[:2, :2]).max(), r[:, 2:] / np.abs(r[:, 2:]).max()
    s1, s2, (c, t) = _top(lhs[0, 0], lhs[0, 1], 0.0, lhs[1, 1])
    plane1 = s2 > 1e-13 * s1
    # turn e1, e2 so that a line span{Re u1, Im u1} is e1; span1 is then
    # the first one or two coordinates
    y[:2] = [c * y[0] + t * y[1], c * y[1] - t * y[0]]
    inside = 2 if plane1 else 1
    hyp = lambda v: np.hypot(np.hypot(np.hypot(v[0], v[1]), v[2]), v[3])  # noqa: E731
    # an orthonormal basis of span{Re u2, Im u2} from its Gram-Schmidt triangle
    t11 = hyp(y[:, 0])
    e = y[:, 0] / t11 if t11 else np.zeros(4)
    t12 = ((e[0] * y[0, 1] + e[1] * y[1, 1]) + e[2] * y[2, 1]) + e[3] * y[3, 1]
    g1, g2, (c, t) = _top(t11, 0.0, t12, hyp(y[:, 1] - e * t12))
    plane2 = g2 > 1e-13 * g1
    basis = [(c * y[:, 0] + t * y[:, 1]) / g1]
    basis.append((c * y[:, 1] - t * y[:, 0]) * (1.0 / g2 if plane2 else 0.0))
    # principal vectors: the right singular vectors of the basis rows inside span1
    k = np.array([b[:2] for b in basis]).T * [[1.0], [float(plane1)]]
    _, _, (c, t) = _top(k[0, 0], k[1, 0], k[0, 1], k[1, 1])
    angles = []
    for vec in (c * basis[0] + t * basis[1], c * basis[1] - t * basis[0]):
        out = np.concatenate([np.zeros(inside), vec[inside:]])
        angles.append(np.arctan2(hyp(out), np.hypot(vec[0], vec[1] * plane1)))
    return float(np.hypot(angles[0], angles[1] if plane1 and plane2 else 0.0))


def _rank(u):
    """Dimension of span{Re u, Im u} under the kernel's rank rule."""
    s = np.linalg.svd(np.column_stack([u.real, u.imag]), compute_uv=False)
    return int(np.count_nonzero(s > 1e-13 * s[0]))


def _mixed_rank_batch(rng, n=11, per_kind=6):
    """Shuffled pairs of every span-dimension combination, far apart and close."""
    u1, u2 = [], []
    for _ in range(per_kind):
        x, y, z, t = rng.standard_normal((4, n))
        line, plane = x * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)), x + 1j * y
        u1 += [line] * 4 + [plane] * 4
        u2 += [
            z, 1j * (x + 1e-9 * z),                            # line, line
            z + 1j * t, x + 1e-9j * z,                         # line, plane
            z, x + 1e-9 * z,                                   # plane, line
            z + 1j * t, x + 1e-9 * z + 1j * (y + 1e-9 * t),    # plane, plane
        ]
    order = rng.permutation(len(u1))
    return np.array(u1)[order], np.array(u2)[order]


class TestBatchedDistances:
    def _check(self, u1, u2):
        """Batched = one-pair calls exactly, 4 ulp from the written-out kernel, f from the SVDs."""
        got = quality._grassmann_distances(u1, u2)
        assert got.tolist() == [grassmann_distance(a, b) for a, b in zip(u1, u2)]
        expected = [_r4_distance(a, b) for a, b in zip(u1, u2)]
        np.testing.assert_array_max_ulp(got, expected, maxulp=4)
        # the SVD-per-span algorithm rounds differently: within the floor
        # f = eps (|u1| / sigma_min(u1) + |u2| / sigma_min(u2))
        svd = np.array([_column_stack_distance(a, b) for a, b in zip(u1, u2)])
        floor = [
            EPS * (np.linalg.norm(a) / _sigma_min(a) + np.linalg.norm(b) / _sigma_min(b))
            for a, b in zip(u1, u2)
        ]
        assert np.all(np.abs(got - svd) <= floor)
        return got

    def test_mixed_span_dimensions_match_one_pair_calls_exactly(self):
        u1, u2 = _mixed_rank_batch(np.random.default_rng(29))
        ranks = {(_rank(a), _rank(b)) for a, b in zip(u1, u2)}
        assert ranks == {(1, 1), (1, 2), (2, 1), (2, 2)}
        got = self._check(u1, u2)
        assert np.count_nonzero(got < 1e-6) == len(got) // 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fewer_rows_than_four_are_padded(self, n):
        # the QR into R^4 pads the rows with zeros; in R^1 every span is
        # the whole line, and in R^2 a plane is the whole plane, so those
        # distances are 0 within their floors
        u1, u2 = _mixed_rank_batch(np.random.default_rng(30 + n), n=n)
        got = self._check(u1, u2)
        planes = np.array([(_rank(a), _rank(b)) for a, b in zip(u1, u2)])
        if n == 1:
            assert np.all(got <= EPS)
        if n == 2:
            # two lines of the plane still lie apart
            assert np.any(got[(planes == 1).all(axis=1)] > 0.1)

    @pytest.mark.parametrize("row", [0, 3, 6])
    @pytest.mark.parametrize("side", [0, 1])
    def test_zero_vector_anywhere_in_a_batch_is_rejected(self, row, side):
        rng = np.random.default_rng(31)
        stacks = rng.standard_normal((2, 7, 5)) + 1j * rng.standard_normal((2, 7, 5))
        stacks[side, row] = 0.0
        with pytest.raises(UndefinedSubspaceError):
            quality._grassmann_distances(*stacks)

    def test_scoring_memory_stays_bounded(self):
        # the products after W = M V and the QR into R^4 take _CHUNK
        # columns at a time, and the angles one pass over 4 x 4
        # triangles; scoring each half in one pass, one QR of all its
        # pairs, reached 8.9 MB.  The drift's largest column norm is
        # taken once per system, 64 columns at a time, and the lift
        # writes its products straight into its output: 6.57 MB, where
        # two passes over the whole drift and a lift through
        # temporaries reached 7.34 MB
        sys = acoustic_wave(256)
        tracemalloc.start()
        try:
            quality_report(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.65e6


class TestEigenpairs:
    def test_unit_vectors_and_conjugate_adjacency(self):
        comp = compress(canuto_hyperbolic(16), 1)
        lams, [vecs] = eigenpairs(comp)
        assert lams.shape == (30,) and vecs.shape == (comp.r, 30)
        assert comp.slices == [slice(0, 30)]
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0, atol=1e-13)
        assert np.all(lams[0::2].imag > 0)
        np.testing.assert_allclose(lams[1::2], np.conj(lams[0::2]), rtol=0, atol=1e-12)

    def test_tied_pairs_stay_side_by_side(self):
        # A = diag(R, R, R, -1) repeats the pair +-i; the constraint cuts
        # the real mode, so all six modes tie on (Re, |Im|): each pair
        # stays one unit, its exact conjugates next to each other
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        a = np.diag([0.0] * 6 + [-1.0])
        a[:6, :6] = np.kron(np.eye(3), rot)
        sys = ConstrainedSystem(a=a, c=np.eye(7)[6:])
        lams, [vecs] = eigenpairs(compress(sys, 1))
        np.testing.assert_array_equal(lams, [1j, -1j] * 3)
        np.testing.assert_array_equal(vecs[:, 1::2], np.conj(vecs[:, 0::2]))
        report = quality_report(sys)
        np.testing.assert_array_equal(report.lambdas, [1j, -1j] * 3)
        np.testing.assert_array_equal(report.modes[1::2], np.conj(report.modes[0::2]))

    def test_real_spectrum_is_complex_with_unit_columns(self):
        comp = compress(heat_dirichlet(16), 1)
        lams, blocks = eigenpairs(comp)
        vecs = stacked_vectors(comp, blocks)
        assert lams.dtype == np.complex128
        assert all(block.dtype == np.complex128 for block in blocks)
        assert lams.shape == (14,) and np.all(lams.imag == 0.0)
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0, atol=1e-14)

    def test_residuals_track_machine_precision(self):
        comp = compress(canuto_hyperbolic(32), 1)
        scale = np.linalg.norm(comp.a_k, 2)
        lams, blocks = eigenpairs(comp)
        vecs = stacked_vectors(comp, blocks)
        residuals = np.linalg.norm(comp.a_k @ vecs - vecs * lams, axis=0)
        assert np.all(residuals < 1e-8 * scale)

    def test_singular_mass_operator_rejected(self):
        sys = ConstrainedSystem(
            a=np.eye(3), c=np.eye(1, 3), e=np.diag([1.0, 1.0, 0.0])
        )
        with pytest.raises(IllConditionedMassError):
            eigenpairs(compress(sys, 1))


class TestDerivativeScore:
    def test_resolved_heat_mode_scores_tiny(self):
        report = quality_report(heat_dirichlet(48))
        # the third Dirichlet mode, sin(3 pi (x + 1) / 2), is well resolved
        mode = np.abs(report.lambdas + (3.0 * np.pi / 2.0) ** 2).argmin()
        worst = report.s_norm.max()
        assert report.s_norm[mode] < 1e-8
        assert worst > 1.0
        assert worst / report.s_norm[mode] > 1e4


class TestModeAngle:
    def test_exact_zero_mode_is_flagged(self):
        report = quality_report(_diag_zero_system())
        assert len(report.modes) == 3
        zero = np.abs(report.lambdas) < 1e-12
        assert np.all(report.zero_mode[zero]) and np.all(report.theta[zero] == 0.0)
        assert not np.any(report.zero_mode[~zero])
        assert np.all(report.theta[~zero] < 1e-7)

    def test_zero_drift_makes_every_mode_a_zero_mode(self):
        # |A|_2 = 0 makes the floor 0, under which no norm lies strictly;
        # an exactly zero A w still spans no subspace to take an angle to
        report = quality_report(ConstrainedSystem(a=np.zeros((3, 3)), c=[[1.0, 0, 0]]))
        assert len(report.modes) == 2
        np.testing.assert_array_equal(report.lambdas, 0.0)
        assert np.all(report.zero_mode)
        np.testing.assert_array_equal(report.theta, 0.0)
        np.testing.assert_array_equal(report.s_norm, 0.0)

    def test_exact_eigenvector_scores_zero_without_the_zero_flag(self):
        # The angle never rounds a nonzero angle to 0, but the unit
        # eigenvectors of 2 and of 2.3e-13 are exact, so their A w is
        # exactly parallel to w; 2.3e-13 lies just above the zero floor's
        # cut, 1e-13 |A|_2 with |A|_2 about 2.29.
        a = np.zeros((4, 4))
        a[:2, :2] = [[2.0, 1.0], [0.0, 1.0]]
        a[2, 2] = 2.3e-13
        report = quality_report(ConstrainedSystem(a=a, c=np.eye(4)[3:]))
        exact = np.isin(report.lambdas, (2.0, 2.3e-13))
        assert np.count_nonzero(exact) == 2
        np.testing.assert_array_equal(report.theta[exact], 0.0)
        assert not np.any(report.zero_mode[exact])

    def test_misaligned_direction_scores_large(self):
        rng = np.random.default_rng(27)
        a = np.zeros((4, 4))
        a[:2, 2:] = rng.standard_normal((2, 2))  # image orthogonal to input
        a[2:, :2] = rng.standard_normal((2, 2))
        sys = ConstrainedSystem(a=a, c=np.eye(1, 4))
        comp = compress(sys, 1)
        w = comp.m @ (comp.m.conj().T @ np.array([0.0, 1.0, 0.0, 0.0]))
        aw = a @ w
        assert np.linalg.norm(aw) > DEFAULT_ZERO_FLOOR * sys.drift_norm * np.linalg.norm(w)
        assert grassmann_distance(w, aw) == pytest.approx(np.pi / 2, abs=1e-9)


class TestQualityReport:
    def test_hyperbolic_report_structure(self):
        report = quality_report(canuto_hyperbolic(16))
        assert len(report.modes) == 30
        assert report.modes.shape == (30, 32)
        assert np.all(np.diff(report.theta) >= 0.0)
        assert report.s_norm is not None and report.s_norm.shape == (30,)
        meta = report.meta
        assert meta["problem"] == "canuto"
        assert meta["n"] == 16 and meta["k"] == 1 and meta["r"] == 30
        assert meta["real_system"] is True

    def test_modes_tied_across_halves_are_ordered_by_real_part(self):
        # J4, the 4 x 4 reversal, keeps +1 in its even half and -1 twice
        # in its odd half, each an exact eigenvector with theta 0: the
        # modes tie on theta, |Im| and |Re| (all three read 1 + 2^-52),
        # and Re puts the odd half's -1s first, although the even half
        # is solved and scored first
        sys = ConstrainedSystem(a=np.eye(4)[::-1], c=[[1.0, 0.0, 0.0, 1.0]], mirror=(1,))
        report = quality_report(sys)
        lams = report.lambdas
        np.testing.assert_allclose(lams, [-1, -1, 1], rtol=0, atol=1e-15)
        assert np.all(lams.imag == 0) and np.all(np.abs(lams) == np.abs(lams[0]))
        np.testing.assert_array_equal(report.theta, 0.0)

    def test_best_modes_match_the_exact_ladder(self):
        report = quality_report(canuto_hyperbolic(16))
        good = report.lambdas[report.theta < 1e-6]
        assert good.size == 2
        ref = canuto_reference(8)
        for lam in good:
            rel = np.abs(ref - lam).min() / np.abs(lam)
            assert rel < 1e-10

    def test_generalized_report_drops_derivative_score(self):
        # a mass operator no longer drops the derivative score: it is the
        # part of A w outside E V_1, finite on every mode
        report = quality_report(orr_sommerfeld(50))
        assert report.meta["real_system"] is False
        assert report.meta["r"] == 46
        assert report.s_norm.shape == (46,) and np.all(np.isfinite(report.s_norm))

    def test_no_nonzero_mode_scores_exactly_zero(self):
        report = quality_report(canuto_hyperbolic(64))
        assert np.all(report.theta[~report.zero_mode] > 0.0)

    def test_tollmien_schlichting_mode_scores_above_zero(self):
        target = 0.00373967 - 0.23752649j
        report = quality_report(orr_sommerfeld(110))
        mode = np.abs(report.lambdas - target).argmin()
        assert abs(report.lambdas[mode] - target) < 5e-6
        assert not report.zero_mode[mode]
        assert report.theta[mode] > 0.0


def _feasible_image(sys, comp):
    """An orthonormal basis Q of ``E M_k`` (``M_k`` without a mass operator), from its own QR.

    The derivative score is the part of ``A w`` outside span Q, here
    ``|(I - Q Q*) A w|``; ``CompressedSystem.p``, the recursion's own
    complement of span Q, takes no part in it.
    """
    return np.linalg.qr(comp.m if sys.e is None else sys.e @ comp.m)[0]


def _defect(q, aw):
    """``|(I - Q Q*) A w|`` of each column of ``aw``."""
    return np.linalg.norm(aw - q @ (q.conj().T @ aw), axis=0)


#: ``s_norm`` and the QR oracle agree within this many eps |A|_2 |w|.  The
#: largest gap measured is 1.23 on the problems below (Orr-Sommerfeld
#: n=50) and 4.4 over 20000 random systems of the property test.
S_NORM_FLOOR = 8


def _per_mode_scores(sys, comp):
    """Reference scores from one mixed-dtype product per use, mode by mode.

    This is the scoring loop that the quality kernel replaced: numpy
    casts a real operator anew for every product with a complex vector,
    and ``A M v`` is formed twice, so no work is shared with the kernel
    under test.  ``s_norm`` is the defect ``|(I - Q Q*) A w|`` of the QR
    oracle ``_feasible_image``.
    """
    rows = []
    lams, blocks = eigenpairs(comp)
    q = _feasible_image(sys, comp)
    floor = DEFAULT_ZERO_FLOOR * np.linalg.norm(sys.a, axis=0).max()
    for lam, v in zip(lams.tolist(), stacked_vectors(comp, blocks).T):
        w = comp.m @ v
        aw = sys.a @ w
        s_norm = float(_defect(q, aw[:, None])[0])
        if np.linalg.norm(aw) < floor * np.linalg.norm(w):
            theta, zero = 0.0, True
        else:
            lhs = w if sys.e is None else sys.e @ w
            theta, zero = grassmann_distance(lhs, aw), False
        rows.append((lam, w, s_norm, theta, zero))
    rows.sort(key=lambda row: (row[3], abs(row[0].imag), abs(row[0].real)))
    return rows


EPS = np.finfo(float).eps


def _sigma_min(u):
    """Smallest singular value of [Re u, Im u] that the kernel's rank rule keeps."""
    u = np.asarray(u, dtype=complex)
    s = np.linalg.svd(np.column_stack([u.real, u.imag]), compute_uv=False)
    return s[np.count_nonzero(s > 1e-13 * s[0]) - 1]


@pytest.mark.parametrize(
    "build, n, k",
    [
        (heat_dirichlet, 48, 1),
        (canuto_hyperbolic, 64, 1),
        (canuto_hyperbolic, 64, 3),
        (acoustic_wave, 64, 1),
        (orr_sommerfeld, 50, 1),
        (acoustic_wave, 128, 1),
        (canuto_hyperbolic, 64, 25),
        (orr_sommerfeld, 110, 1),
        (orr_sommerfeld, 150, 1),
        (canuto_hyperbolic, 64, 20),
        (orr_sommerfeld, 50, 2),
    ],
    ids=[
        "heat", "canuto-k1", "canuto-k3", "acoustic", "orr-sommerfeld",
        "acoustic-n128", "canuto-k25", "orr-sommerfeld-n110", "orr-sommerfeld-n150",
        "canuto-k20", "orr-sommerfeld-k2",
    ],
)
def test_scores_are_bit_identical_to_per_mode_products(build, n, k):
    """Eigenvalues and zero flags match the per-mode loop bit for bit; scores within their floors.

    Matrix products round differently from one mat-vec per mode, so
    each score is held to its rounding floor: theta to
    ``f = eps |w| (|A|_2 / sigma_min(A w) + |E|_2 / sigma_min(E w))``
    (``E w = w``, ``|E|_2 = 1`` without a mass operator), ``s_norm`` to
    ``S_NORM_FLOOR eps |A|_2 |w|`` and each entry of w to 8 eps.  Two modes
    that the report orders the other way round from the loop must lie
    within each other's floors.
    """
    sys = build(n)
    expected = _per_mode_scores(sys, compress(sys, k))
    report = quality_report(sys, k)
    rank = {row[0]: i for i, row in enumerate(expected)}
    lams = report.lambdas.tolist()
    assert len(rank) == len(lams)
    assert set(lams) == set(rank)
    norm_a = sys.drift_norm
    norm_e = 1.0 if sys.e is None else np.linalg.norm(sys.e, 2)
    floors = []
    for i, lam in enumerate(lams):
        _, w, s_norm, theta, zero = expected[rank[lam]]
        lhs = w if sys.e is None else sys.e @ w
        w_norm = np.linalg.norm(w)
        floor = EPS * w_norm * (norm_a / _sigma_min(sys.a @ w) + norm_e / _sigma_min(lhs))
        assert report.zero_mode[i] == zero
        assert abs(report.theta[i] - theta) <= floor
        assert abs(report.s_norm[i] - s_norm) <= S_NORM_FLOOR * EPS * norm_a * w_norm
        assert np.abs(report.modes[i] - w).max() <= 8 * EPS
        floors.append(floor)
    thetas, floors = report.theta, np.array(floors)
    assert np.all(np.diff(thetas) >= 0.0)
    order = np.array([rank[lam] for lam in lams])
    i, j = np.nonzero(np.triu(order[:, None] > order[None, :]))  # i ahead of j here only
    assert np.all(np.abs(thetas[i] - thetas[j]) <= floors[i] + floors[j])


@pytest.mark.parametrize(
    "build, n, k", [(acoustic_wave, 128, 1), (canuto_hyperbolic, 64, 3)], ids=["acoustic", "canuto-k3"]
)
def test_conjugate_partners_score_the_same_by_construction(build, n, k):
    # the eigen solve returns a real system's conjugate eigenvectors as
    # exact conjugates side by side; the second takes its partner's scores
    sys = build(n)
    comp = compress(sys, k)
    lams, blocks = eigenpairs(comp)
    vecs = stacked_vectors(comp, blocks)
    twins = [
        (lams[i - 1], lams[i])
        for i in range(1, len(lams))
        if np.array_equal(vecs[:, i], np.conj(vecs[:, i - 1]))
    ]
    assert len(twins) > len(lams) // 4
    report = quality_report(sys, k)
    at = {lam: i for i, lam in enumerate(report.lambdas.tolist())}
    for partner_lam, lam in twins:
        mode, partner = at[lam], at[partner_lam]
        assert np.array_equal(report.modes[mode], np.conj(report.modes[partner]))
        assert report.s_norm[mode] == report.s_norm[partner]
        assert report.theta[mode] == report.theta[partner]
        assert report.zero_mode[mode] == report.zero_mode[partner]


@pytest.mark.parametrize(
    "build, n, k",
    [
        (acoustic_wave, 17, 1),
        (acoustic_wave, 64, 1),
        (canuto_hyperbolic, 16, 1),
        (canuto_hyperbolic, 16, 2),
        (canuto_hyperbolic, 16, 3),
        (heat_dirichlet, 9, 1),
        (heat_dirichlet, 16, 1),
    ],
    ids=["acoustic-17", "acoustic-64", "canuto-16-k1", "canuto-16-k2", "canuto-16-k3",
         "heat-9", "heat-16"],
)
def test_rows_pair_exactly_the_modes_below_the_real_axis(build, n, k):
    # a real system's pairing is read off the eigen solve's layout: each
    # mode with Im lam < 0 sits in its block right after its owner, as
    # the exact conjugate of its eigenvalue and its eigenvector, and the
    # report's rows repeat exactly at those modes
    sys = build(n)
    comp = compress(sys, k)
    lams, blocks = eigenpairs(comp)
    below = np.flatnonzero(lams.imag < 0)
    placed = []
    for part, vecs in zip(comp.slices, blocks):
        at = np.arange(part.start, part.stop)
        twin = np.flatnonzero(lams[at].imag < 0)
        assert np.all(twin > 0) and np.all(at[twin] - at[twin - 1] == 1)
        assert np.array_equal(lams[at[twin]], np.conj(lams[at[twin - 1]]))
        assert np.array_equal(vecs[:, twin], np.conj(vecs[:, twin - 1]))
        placed.append(at[twin])
    assert np.array_equal(np.sort(np.concatenate(placed)), below)
    assert np.count_nonzero(lams.imag > 0) == below.size
    report = quality_report(sys, k)
    repeats = np.r_[False, report.rows[1:] == report.rows[:-1]]
    np.testing.assert_array_equal(repeats, report.lambdas.imag < 0)
    owner = np.flatnonzero(repeats) - 1
    assert np.array_equal(report.lambdas[repeats], np.conj(report.lambdas[owner]))
    if build is not heat_dirichlet:
        assert below.size > 0


@pytest.mark.parametrize(
    "build, n, k",
    [(acoustic_wave, 64, 1), (canuto_hyperbolic, 16, 3)],
    ids=["acoustic", "canuto-k3"],
)
def test_real_and_complex_products_agree_within_their_floors(build, n, k, monkeypatch):
    """A real system scores on float64 views; with A and C cast to complex, on plain ``@``.

    The cast system scores every conjugate twin itself.  Both runs
    share one compression, whose drift blocks ``A_h`` the cast run
    reads cast to complex, so they score the same eigenpairs; each
    theta lies within the floor f of the other run's, and each
    ``s_norm`` within ``S_NORM_FLOOR eps |A|_2 |w|``.
    """
    sys = build(n)
    comp = compress(sys, k)
    cast = ConstrainedSystem(a=sys.a.astype(complex), c=sys.c.astype(complex))
    halves = tuple(replace(half, a=half.a.astype(complex)) for half in comp.halves)
    cast_comp = CompressedSystem(halves=halves, k=k)
    monkeypatch.setattr(quality, "compress", lambda s, *args: cast_comp if s is cast else comp)
    real, plain = (quality_report(s, k) for s in (sys, cast))
    assert real.meta["real_system"] and not plain.meta["real_system"]
    at = {lam: i for i, lam in enumerate(real.lambdas.tolist())}
    assert len(at) == comp.r and at.keys() == set(plain.lambdas.tolist())
    norm_a = sys.drift_norm
    for j, (lam, w) in enumerate(zip(plain.lambdas.tolist(), plain.modes)):
        i = at[lam]
        w_norm = np.linalg.norm(w)
        floor = EPS * w_norm * (norm_a / _sigma_min(sys.a @ w) + 1.0 / _sigma_min(w))
        assert real.zero_mode[i] == plain.zero_mode[j]
        assert abs(real.theta[i] - plain.theta[j]) <= floor
        assert abs(real.s_norm[i] - plain.s_norm[j]) <= S_NORM_FLOOR * EPS * norm_a * w_norm


@pytest.mark.parametrize("k", [2, 3])
def test_derivative_score_at_depth_measures_the_next_constraint(k):
    # M spans the nullspace of [C; ...; C A^(k-1)], so |C A w| is
    # rounding noise at k >= 2 (median 9.8e-14 at k=2); the score is the
    # part of A w outside V_k, far above its rounding floor eps |A|_2 |w|
    # and never above |A|_2 |w|
    sys = canuto_hyperbolic(64)
    report = quality_report(sys, k)
    bounds = sys.drift_norm * np.linalg.norm(report.modes, axis=1)
    assert np.median(report.s_norm) > 1e10 * EPS * np.median(bounds)
    assert np.all(report.s_norm <= bounds)
    ws = report.modes.T
    assert np.median(np.linalg.norm(sys.c @ (sys.a @ ws), axis=0)) < 1e-11


def _mirror_matrix(n, signs):
    """Q = blockdiag(s_f J), J the reversal of one of the equal-length fields."""
    return np.kron(np.diag(signs), np.eye(n // len(signs))[::-1])


def _random_symmetric_system(seed, size, signs, q, complex_entries, mass):
    """``(a, c, e)`` of a random system that commutes with the mirror ``signs``.

    Each field has ``size`` points, two fields without a mirror
    (``signs`` None).  E, when ``mass`` is set, is I plus a symmetric
    perturbation of norm 0.1; with a mirror, C's rows are of one parity
    each, then mixed.
    """
    rng = np.random.default_rng(seed)
    n = size * (2 if signs is None else len(signs))

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_entries else x

    mirror = np.eye(n) if signs is None else _mirror_matrix(n, signs)

    def symmetric(b):
        return (b + mirror @ b @ mirror) / 2

    a = symmetric(draw(n, n))
    e = None
    if mass:
        g = symmetric(draw(n, n))
        e = np.eye(n) + 0.1 * g / np.linalg.norm(g, 2)
    c = draw(min(q, n - 1), n)
    if signs is not None:
        parity = np.where(rng.integers(0, 2, size=c.shape[0]), -1, 1)[:, None]
        c = draw(c.shape[0], c.shape[0]) @ (c + parity * (c @ mirror)) / 2
    return a, c, e


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 6),
    signs=st.sampled_from([None, (1,), (-1,), (1, 1), (1, -1)]),
    q=st.integers(1, 3),
    k=st.integers(1, 3),
    complex_entries=st.booleans(),
    mass=st.booleans(),
)
def test_derivative_score_is_the_defect_of_an_independent_basis(
    seed, size, signs, q, k, complex_entries, mass
):
    # random real and complex systems, with and without a mass operator
    # and a mirror: s_norm is |(I - Q Q*) A w| for Q an orthonormal basis
    # of E M_k from its own QR, within S_NORM_FLOOR eps |A|_2 |w|, and never
    # above |A|_2 |w|
    a, c, e = _random_symmetric_system(seed, size, signs, q, complex_entries, mass)
    try:
        sys = ConstrainedSystem(a=a, c=c, e=e, mirror=signs)
        comp = compress(sys, k)
        lams, blocks = eigenpairs(comp)
        report = quality_report(sys, k)
    except (EigensieveError, ValueError):
        return
    aw = a @ report.modes.T
    bounds = np.linalg.norm(a, 2) * np.linalg.norm(report.modes, axis=1)
    defect = _defect(_feasible_image(sys, comp), aw)
    assert np.all(np.abs(report.s_norm - defect) <= S_NORM_FLOOR * EPS * bounds)
    assert np.all(report.s_norm <= (1 + 1e-12) * bounds)

    # each w is stored once, as an owner row: the w of one eigenvector
    # of each conjugate pair (the one with Im lam > 0) and of each real
    # mode of a real system, of every mode of a complex one.  modes is
    # bit for bit those owners lifted by CompressedSystem._lift and
    # gathered by rows, with the second mode of each pair (its twin,
    # the only mode that shares its owner's row, right after it)
    # conjugated, and it is built once, read-only
    lams_of, ws = [], []
    for half, part, vecs in zip(comp.halves, comp.slices, blocks):
        pairs = np.zeros(part.stop - part.start, dtype=bool)
        if not complex_entries:
            pairs[1:] = np.all(vecs[:, 1:] == vecs[:, :-1].conj(), axis=0)
        lams_of.append(lams[part][~pairs])
        ws.append(quality._times(half.m, vecs[:, ~pairs]))
    lifted = comp._lift(ws).T
    lams_of = np.concatenate(lams_of)
    rows = report.rows
    twin = np.r_[False, rows[1:] == rows[:-1]]
    assert np.array_equal(np.unique(rows), np.arange(len(lifted)))
    assert np.count_nonzero(twin) == rows.size - len(lifted)
    assert report.owners.shape == lifted.shape and report.owners.flags.c_contiguous
    assert report.owners.tobytes() == lifted.tobytes()
    expected = lifted[rows]
    expected.imag[twin] *= -1
    assert report.modes is report.modes and not report.modes.flags.writeable
    assert report.modes.shape == expected.shape and report.modes.flags.c_contiguous
    assert report.modes.tobytes() == expected.tobytes()
    assert np.all(report.lambdas[~twin] == lams_of[rows[~twin]])
    assert np.all(report.lambdas[twin] == lams_of[rows[twin]].conj())
    assert np.all(report.lambdas.imag[twin] < 0)
    if complex_entries:
        assert not twin.any()
    else:
        assert np.count_nonzero(twin) == np.count_nonzero(report.lambdas.imag < 0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 6),
    signs=st.sampled_from([(1,), (-1,), (1, 1), (1, -1), (-1, -1)]),
    q=st.integers(1, 3),
    k=st.integers(1, 3),
    complex_entries=st.booleans(),
    mass=st.booleans(),
)
def test_mirrored_scores_match_the_unmirrored_operators(
    seed, size, signs, q, k, complex_entries, mass
):
    # a mirrored report scores each half in its own coordinates; the same
    # eigenvectors, lifted by W = M V and scored with the whole A, E and
    # P of the system declared without a mirror, give the same zero
    # flags, every s_norm within S_NORM_FLOOR eps |A|_2 |w| and each row
    # of modes within 8 eps.  Each run's theta rounds within about its
    # floor f, so the two are held to 3 f: where f is least (2 eps) a
    # one-dimensional half scores an exact 0 and the whole-space kernel
    # rounds by up to 2.0 eps.  Over 15000 random systems the largest
    # gaps were 1.35 f, 2.05 eps |A|_2 |w| and 1.03 eps |w|.
    a, c, e = _random_symmetric_system(seed, size, signs, q, complex_entries, mass)
    try:
        sys = ConstrainedSystem(a=a, c=c, e=e, mirror=signs)
        comp = compress(sys, k)
        lams, blocks = eigenpairs(comp)
    except (EigensieveError, ValueError):
        return
    if np.unique(lams).size < lams.size:
        return
    split = quality._report(sys, comp)
    plain = ConstrainedSystem(a=a, c=c, e=e)
    whole = CompressedSystem(
        halves=(_HalfSystem(None, a, e, comp.m, whole_p(comp), comp.a_k, whole_e_k(comp)),), k=k
    )
    one_block = lams, [stacked_vectors(comp, blocks)]
    with mock.patch.object(quality, "eigenpairs", lambda _: one_block):
        flat = quality._report(plain, whole)
    at = {lam: i for i, lam in enumerate(split.lambdas.tolist())}
    norm_a = np.linalg.norm(a, 2)
    norm_e = 1.0 if e is None else np.linalg.norm(e, 2)
    for j, (lam, w) in enumerate(zip(flat.lambdas.tolist(), flat.modes)):
        i = at[lam]
        lhs = w if e is None else e @ w
        w_norm = np.linalg.norm(w)
        assert split.zero_mode[i] == flat.zero_mode[j]
        if not flat.zero_mode[j]:
            floor = EPS * w_norm * (norm_a / _sigma_min(a @ w) + norm_e / _sigma_min(lhs))
            assert abs(split.theta[i] - flat.theta[j]) <= 3 * floor
        assert abs(split.s_norm[i] - flat.s_norm[j]) <= S_NORM_FLOOR * EPS * norm_a * w_norm
        assert np.abs(split.modes[i] - w).max() <= 8 * EPS * w_norm


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "build, n",
    [(acoustic_wave, 32), (acoustic_wave, 33), (heat_dirichlet, 17), (orr_sommerfeld, 24)],
    ids=["acoustic", "acoustic-odd", "heat-odd", "orr-sommerfeld"],
)
def test_mirrored_modes_have_their_parity_exactly(build, n, k):
    # each row of modes is lifted from one half by slicing,
    # so Q w is w or -w bit for bit, and both parities occur
    sys = build(n)
    q = _mirror_matrix(sys.n, sys.mirror)
    report = quality_report(sys, k)
    reflected = report.modes @ q.T
    even = np.all(reflected == report.modes, axis=1)
    odd = np.all(reflected == -report.modes, axis=1)
    assert np.all(even | odd) and even.any() and odd.any()


def test_canuto_depth_one_scores_are_the_constraint_rows_products():
    # canuto's constraint rows are coordinate rows, so at k = 1 P_1* A w
    # holds the entries of C A w, and s_norm keeps the bits of |C A w|
    sys = canuto_hyperbolic(64)
    report = quality_report(sys, 1)
    np.testing.assert_array_equal(
        report.s_norm, np.linalg.norm(sys.c @ (sys.a @ report.modes.T), axis=0)
    )


def _scaled_norm(v):
    """``|v|`` taken on v scaled by a power of two to a largest entry near 1, exactly."""
    exponent = np.frexp(np.abs(v).max())[1]
    scaled = np.ldexp(v.real, -exponent) + 1j * np.ldexp(v.imag, -exponent)
    return np.ldexp(np.linalg.norm(scaled), exponent)


class TestDerivativeBlockRange:
    """A derivative score whose squares leave the floating-point range is still resolved."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tiny_derivative_scores_are_resolved(self, k):
        # canuto's drift scaled by 2^-600 scales every A w, and so every
        # score, to about 1e-178, whose square a plain norm underflows to 0
        base = canuto_hyperbolic(8)
        sys = ConstrainedSystem(a=np.ldexp(base.a, -600), c=base.c)
        report = quality_report(sys, k)
        q = _feasible_image(sys, compress(sys, k))
        for w, s_norm in zip(report.modes, report.s_norm):
            aw = sys.a @ w
            assert 0.0 < s_norm < 1e-150
            assert abs(s_norm - _scaled_norm(aw - q @ (q.conj().T @ aw))) <= (
                S_NORM_FLOOR * EPS * sys.drift_norm * np.linalg.norm(w)
            )

    def test_norms_out_of_the_squares_range_are_rescaled(self):
        # in range, the plain norm's bits; below or above it, the norm of
        # the power-of-two scaled column; an inf column stays inf
        rng = np.random.default_rng(24)
        scales = [1.0, 1e-140, 1e150, 1e-150, 1e-300, 1e-320, 1e160, 1e307, 0.0]
        x = rng.standard_normal((5, len(scales))) * np.array(scales)
        x[0, -1] = np.inf
        norms = _norms(x)
        np.testing.assert_array_equal(norms[:3], np.linalg.norm(x[:, :3], axis=0))
        for j in range(3, 8):
            assert norms[j] == pytest.approx(_scaled_norm(x[:, j]), rel=1e-9)
        assert norms[-1] == np.inf

    def test_derivative_score_above_the_squares_range_stays_finite(self):
        # V_1 = span{e2, e3}; A e2 = (1e200, -2, 0) leaves it by 1e200,
        # whose square a plain norm would overflow to inf
        a = np.array([[-1.0, 1e200, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]])
        sys = ConstrainedSystem(a=a, c=np.array([[1.0, 0.0, 0.0]]))
        report = quality_report(sys, 1)
        q = _feasible_image(sys, compress(sys, 1))
        assert np.all(np.isfinite(report.s_norm)) and report.s_norm.max() == pytest.approx(1e200)
        for w, s_norm in zip(report.modes, report.s_norm):
            aw = sys.a @ w
            assert s_norm == pytest.approx(_scaled_norm(aw - q @ (q.conj().T @ aw)), rel=1e-14)


def test_spectral_norms_are_skipped_when_their_bounds_decide():
    sys = acoustic_wave(64)
    quality_report(sys)
    assert "drift_norm" not in sys.__dict__


@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
def test_zero_floor_is_the_largest_column_norm(side):
    # The floor is DEFAULT_ZERO_FLOOR times the largest column norm of A,
    # not times |A|_2, which is never computed.  The large modes sit in
    # a triangular block whose largest column norm 2 lies below
    # |B|_2 = sqrt(3 + sqrt(5)), so the two floors differ by 14 %.  The
    # third diagonal entry is the eigenvalue of an exact unit
    # eigenvector, placed at side times the floor.
    b = np.array([[2.0, 1.0], [0.0, 1.0]])
    assert np.linalg.norm(b, axis=0).max() == 2.0 < np.linalg.norm(b, 2) / 1.1
    floor = DEFAULT_ZERO_FLOOR * 2.0
    a = np.zeros((4, 4))
    a[:2, :2] = b
    a[2, 2] = side * floor

    sys = ConstrainedSystem(a=a, c=np.eye(4)[3:])
    report = quality_report(sys)
    (mode,) = np.flatnonzero(np.abs(report.lambdas) < 1.0)
    assert report.lambdas[mode] == side * floor
    np.testing.assert_array_equal(np.abs(report.modes[mode]), np.eye(4)[2])
    assert "drift_norm" not in sys.__dict__
    assert report.zero_mode[mode] == (side < 1.0)


def test_zero_floor_bracket_stays_finite_for_a_huge_drift():
    # the column norm 1e155 squares past the largest float; a bracket end
    # that overflowed to inf flagged both modes as zero modes with theta
    # 0, although |A w| = 1e150 lies above 1e-13 |A|_2 = 1e142
    a = [[1e155, 0.0, 0.0], [0.0, 0.0, 1e150], [0.0, -1e150, 0.0]]
    sys = ConstrainedSystem(a=a, c=[[1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = quality_report(sys)
    assert report.zero_mode.tolist() == [False, False]
    assert np.abs(report.lambdas) == pytest.approx([1e150, 1e150])
