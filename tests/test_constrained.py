"""Constraint stacking, nullspace extraction, and subspace compression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from eigensieve.constrained import (
    ConstrainedSystem,
    compress,
    compress_depths,
    nullspace_basis,
    observability,
    verify_decomposition,
)
from eigensieve.errors import EigensieveError, TrivialNullspaceError
from eigensieve.problems import (
    acoustic_wave,
    canuto_hyperbolic,
    heat_dirichlet,
    orr_sommerfeld,
)
from eigensieve.quality import eigenpairs


def _random_system(seed, n=8, q=2):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    c = rng.standard_normal((q, n))
    return ConstrainedSystem(a=a, c=c)


class TestSystemValidation:
    def test_rejects_nonsquare_drift(self):
        with pytest.raises(ValueError, match="square"):
            ConstrainedSystem(a=np.ones((3, 4)), c=np.ones((1, 4)))

    def test_rejects_mismatched_constraint_width(self):
        with pytest.raises(ValueError):
            ConstrainedSystem(a=np.eye(4), c=np.ones((1, 3)))

    def test_rejects_too_many_constraints(self):
        with pytest.raises(ValueError, match="fewer constraints"):
            ConstrainedSystem(a=np.eye(3), c=np.eye(3))

    def test_rejects_rank_deficient_constraints(self):
        c = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]])
        with pytest.raises(ValueError, match="rank deficient"):
            ConstrainedSystem(a=np.eye(4), c=c)

    def test_rejects_mismatched_mass_shape(self):
        with pytest.raises(ValueError, match="mass"):
            ConstrainedSystem(a=np.eye(4), c=np.eye(1, 4), e=np.eye(3))

    def test_shape_properties_and_drift_norm(self):
        sys = _random_system(0)
        assert sys.n == 8
        assert sys.q == 2
        assert sys.drift_norm == pytest.approx(np.linalg.norm(sys.a, 2))


class TestObservability:
    def test_two_block_stack_is_exact(self):
        sys = _random_system(1)
        obs = observability(sys, 2)
        assert isinstance(obs, np.ndarray) and obs.shape == (4, 8)
        assert np.array_equal(obs, np.vstack([sys.c, sys.c @ sys.a]))

    def test_deep_stack_blocks_are_repeated_products(self):
        sys = _random_system(2)
        obs = observability(sys, 4)
        assert obs.shape == (8, 8)
        expected = sys.c.copy()
        for i in range(4):
            assert np.array_equal(obs[2 * i : 2 * i + 2], expected)
            expected = expected @ sys.a

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError, match="depth"):
            observability(_random_system(3), 0)


class TestNullspaceBasis:
    def test_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((3, 7))
        basis = nullspace_basis(mat)
        assert basis.shape == (7, 4)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(4), atol=1e-13)
        assert np.linalg.norm(mat @ basis) < 1e-13 * np.linalg.norm(mat)

    def test_wide_matrix_gets_implicit_zero_directions(self):
        basis = nullspace_basis(np.array([[2.0, 0.0, 0.0]]))
        assert basis.shape == (3, 2)
        assert np.abs(basis[0]).max() < 1e-15

    def test_full_rank_square_matrix_has_empty_nullspace(self):
        assert nullspace_basis(np.eye(3)).shape == (3, 0)

    def test_zero_matrix_spans_everything(self):
        basis = nullspace_basis(np.zeros((2, 3)))
        assert basis.shape == (3, 3)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(3), atol=1e-14)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            nullspace_basis(np.empty((0, 3)))

    def test_sign_convention_pins_largest_entry_positive(self):
        rng = np.random.default_rng(6)
        for mat in (rng.standard_normal((2, 6)),
                    rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))):
            basis = nullspace_basis(mat)
            pivots = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])]
            np.testing.assert_allclose(pivots.imag, 0.0, atol=1e-14)
            assert np.all(pivots.real > 0)

    def test_deterministic_across_calls_and_negation(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((3, 8))
        b1 = nullspace_basis(mat)
        b2 = nullspace_basis(mat)
        b3 = nullspace_basis(-mat)
        assert np.array_equal(b1, b2)
        np.testing.assert_allclose(np.abs(b1), np.abs(b3), atol=1e-13)

    @pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, -1e-3, np.nan, np.inf])
    def test_tolerance_outside_unit_interval_rejected(self, tol):
        with pytest.raises(ValueError, match="between 0 and 1"):
            nullspace_basis(np.eye(2, 5), tol)

    def test_rank_threshold_is_relative(self):
        # singular values 1 and 1e-12: second falls below 1e-10 * first
        mat = np.diag([1.0, 1e-12]) @ np.eye(2, 5)
        assert nullspace_basis(mat).shape == (5, 4)
        mat_loose = np.diag([1.0, 1e-8]) @ np.eye(2, 5)
        assert nullspace_basis(mat_loose).shape == (5, 3)


class TestCompression:
    def test_depth_one_matches_boundary_row_deletion(self):
        n = 24
        sys = heat_dirichlet(n)
        comp = compress(sys, 1)
        assert comp.r == n - 2
        interior = sys.a[1:-1, 1:-1]
        got = np.sort(np.linalg.eigvals(comp.a_k).real)
        want = np.sort(np.linalg.eigvals(interior).real)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-8)

    def test_left_inverse_is_adjoint(self):
        comp = compress(_random_system(8), 2)
        assert np.array_equal(comp.m_left, comp.m.conj().T)
        np.testing.assert_allclose(comp.m_left @ comp.m, np.eye(comp.r), atol=1e-13)

    def test_rank_agrees_with_direct_stack_rank(self):
        for seed in range(4):
            sys = _random_system(seed, n=8, q=2)
            k = 3
            stack = []
            blk = sys.c
            for _ in range(k):
                nrm = np.linalg.norm(blk)
                stack.append(blk / nrm if nrm > 0 else blk)
                blk = blk @ sys.a
            s = np.linalg.svd(np.vstack(stack), compute_uv=False)
            brute = int(np.count_nonzero(s > 1e-10 * s[0]))
            if brute == sys.n:
                with pytest.raises(TrivialNullspaceError):
                    compress(sys, k)
            else:
                comp = compress(sys, k)
                assert comp.r == sys.n - brute

    def test_deeper_subspaces_nest_and_shrink(self):
        sys = canuto_hyperbolic(16)
        prev = None
        for k in range(1, 11):
            comp = compress(sys, k)
            if prev is not None:
                assert comp.r <= prev.r
                proj = prev.m @ (prev.m.conj().T @ comp.m)
                assert np.linalg.norm(proj - comp.m) < 1e-9
            prev = comp

    def test_rank_stabilizes_on_unobservable_part(self):
        rng = np.random.default_rng(9)
        a = np.zeros((6, 6))
        a[:4, :4] = rng.standard_normal((4, 4))
        a2 = rng.standard_normal((2, 2))
        a[4:, 4:] = a2
        c = np.zeros((1, 6))
        c[0, :4] = rng.standard_normal(4)
        sys = ConstrainedSystem(a=a, c=c)
        ranks = [compress(sys, k).r for k in range(4, 9)]
        assert ranks == [2, 2, 2, 2, 2]
        comp = compress(sys, 6)
        got = np.sort_complex(np.linalg.eigvals(comp.a_k))
        want = np.sort_complex(np.linalg.eigvals(a2))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_fully_constrained_system_raises(self):
        sys = heat_dirichlet(8)
        assert compress(sys, 3).r == 2
        with pytest.raises(TrivialNullspaceError):
            compress(sys, 4)

    def test_mass_matrix_is_compressed_alongside(self):
        rng = np.random.default_rng(10)
        n = 6
        a = rng.standard_normal((n, n))
        e = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        c = rng.standard_normal((1, n))
        comp = compress(ConstrainedSystem(a=a, c=c, e=e), 1)
        assert comp.e_k is not None and comp.e_k.shape == (comp.r, comp.r)
        np.testing.assert_allclose(
            comp.e_k, comp.m_left @ e @ comp.m, atol=1e-14
        )


def _mass_system(seed, n=9, q=2):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    return ConstrainedSystem(a=a, c=rng.standard_normal((q, n)), e=e)


class TestDepthRecursion:
    @pytest.mark.parametrize(
        "sys", [canuto_hyperbolic(16), _mass_system(0)], ids=["canuto", "random-mass"]
    )
    def test_depth_one_is_the_scaled_constraint_nullspace(self, sys):
        comp = compress(sys, 1)
        m = nullspace_basis(sys.c / np.linalg.norm(sys.c))
        assert comp.blocks == (comp.r,)
        assert np.array_equal(comp.m, m)
        assert np.array_equal(comp.a_k, (m.conj().T @ sys.a) @ m)
        if sys.e is not None:
            assert np.array_equal(comp.e_k, (m.conj().T @ sys.e) @ m)

    @pytest.mark.parametrize(
        "sys", [acoustic_wave(16), orr_sommerfeld(20)], ids=["acoustic", "orr-sommerfeld"]
    )
    def test_mirror_keeps_the_depth_one_space(self, sys):
        # a mirrored system's depth 1 is the same subspace in a basis of
        # even and odd columns, with block-diagonal operators
        comp = compress(sys, 1)
        m = nullspace_basis(sys.c / np.linalg.norm(sys.c))
        assert comp.m.shape == m.shape and len(comp.blocks) == 2 and sum(comp.blocks) == comp.r
        assert np.linalg.norm(comp.m @ comp.m_left - m @ m.conj().T, 2) <= 1e-12
        even, odd = comp.slices
        for op, op_k in ((sys.a, comp.a_k), (sys.e, comp.e_k)):
            if op is None:
                continue
            assert not op_k[even, odd].any() and not op_k[odd, even].any()
            restricted = comp.m_left @ op @ comp.m
            np.testing.assert_allclose(op_k, restricted, atol=1e-12 * np.abs(op).max())

    def test_each_depth_keeps_the_states_whose_derivative_stays_feasible(self):
        for seed in range(3):
            sys = _mass_system(seed)
            prev = None
            for comp in compress_depths(sys, 4):
                assert comp.r == sys.n - sys.q * comp.k
                np.testing.assert_allclose(comp.a_k, comp.m_left @ sys.a @ comp.m, atol=1e-12)
                np.testing.assert_allclose(comp.e_k, comp.m_left @ sys.e @ comp.m, atol=1e-12)
                if prev is not None:
                    # A M_k lies in E V_(k-1), and V_k in V_(k-1)
                    q, _ = np.linalg.qr(sys.e @ prev.m)
                    am = sys.a @ comp.m
                    assert np.linalg.norm(am - q @ (q.conj().T @ am)) < 1e-10 * sys.drift_norm
                    assert np.linalg.norm(comp.m - prev.m @ (prev.m_left @ comp.m)) < 1e-12
                prev = comp

    def test_identity_mass_operator_gives_the_same_subspaces(self):
        sys = _random_system(12, n=10)
        with_e = ConstrainedSystem(a=sys.a, c=sys.c, e=np.eye(10))
        for plain, mass in zip(compress_depths(sys, 4), compress_depths(with_e, 4)):
            assert plain.r == mass.r
            proj = plain.m @ plain.m_left - mass.m @ mass.m_left
            assert np.linalg.norm(proj, 2) < 1e-12

    def test_mass_operator_keeps_the_tollmien_schlichting_mode(self):
        # the stack [C; C A; ...] misses it by 1.4e-6 and 9.3e-6 here
        sys = orr_sommerfeld(80)
        ts = 0.00373967 - 0.23752649j
        for comp in compress_depths(sys, 3):
            assert comp.r == sys.n - 4 * comp.k
            lams = np.linalg.eigvals(np.linalg.solve(comp.e_k, comp.a_k))
            assert np.abs(lams - ts).min() < 1e-8

    def test_canuto_keeps_every_rank_and_the_zero_mode(self):
        # the stack's rank stalls at 90 for k = 19-21 and ends at 88
        n = 64
        sys = canuto_hyperbolic(n)
        zero_mode = np.concatenate([np.zeros(n), np.ones(n)]) / np.sqrt(n)
        comps = list(compress_depths(sys, 25))
        assert [comp.r for comp in comps] == [2 * n - 2 * k for k in range(1, 26)]
        for comp in comps:
            assert np.linalg.norm(zero_mode - comp.m @ (comp.m_left @ zero_mode)) < 1e-9

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError, match="depth"):
            compress(_random_system(13), 0)


class TestDecompositionReport:
    def test_boundary_deletion_subspace_is_not_invariant(self):
        sys = heat_dirichlet(16)
        report = verify_decomposition(sys, compress(sys, 1))
        assert report.constraint_residual < 1e-12
        assert not report.invariant
        assert report.invariance_residual > 1e-6 * report.drift_norm

    def test_true_invariant_subspace_is_certified(self):
        rng = np.random.default_rng(11)
        a = np.zeros((5, 5))
        a[:3, :3] = rng.standard_normal((3, 3))
        a[3:, 3:] = rng.standard_normal((2, 2))
        a[:3, 3:] = rng.standard_normal((3, 2))  # coupling out of the tail block
        c = np.array([[0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]])
        sys = ConstrainedSystem(a=a, c=c)
        report = verify_decomposition(sys, compress(sys, 1))
        assert report.invariant
        assert report.invariance_residual < 1e-12

    def test_identity_drift_is_always_invariant(self):
        sys = ConstrainedSystem(a=np.eye(4), c=np.eye(1, 4))
        report = verify_decomposition(sys, compress(sys, 1))
        assert report.invariant
        assert report.drift_norm == pytest.approx(1.0)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 10),
    q=st.integers(1, 3),
    k_max=st.integers(1, 4),
    complex_entries=st.booleans(),
    mass=st.booleans(),
    integers=st.booleans(),
)
def test_depths_nest_and_their_spectra_are_well_formed(
    seed, n, q, k_max, complex_entries, mass, integers
):
    # random small systems, entries Gaussian or in {-2, ..., 2} (which
    # makes repeated eigenvalues, invariant subspaces and rank-deficient
    # constraints), through compress_depths and eigenpairs: each depth
    # nests in the one before with operators restricted to its basis, and
    # each spectrum has unit eigenvectors, or a call raises a typed error
    rng = np.random.default_rng(seed)

    def draw_real(*shape):
        if integers:
            return rng.integers(-2, 3, size=shape).astype(float)
        return rng.standard_normal(shape)

    def draw(*shape):
        return draw_real(*shape) + (1j * draw_real(*shape) if complex_entries else 0.0)

    a = draw(n, n)
    e = np.eye(n) + 0.3 * draw(n, n) if mass else None
    try:
        sys = ConstrainedSystem(a=a, c=draw(min(q, n - 1), n), e=e)
        comps = list(compress_depths(sys, k_max))
        spectra = [eigenpairs(comp) for comp in comps]
    except (EigensieveError, ValueError):
        return
    scale = np.linalg.norm(a, 2)
    assert [comp.k for comp in comps] == list(range(1, len(comps) + 1))
    for prev, comp in zip(comps, comps[1:]):
        assert comp.r <= prev.r
        assert np.linalg.norm(comp.m - prev.m @ (prev.m_left @ comp.m)) < 1e-10
    for comp, (lams, vecs) in zip(comps, spectra):
        # every depth keeps C z = 0 to the depth-1 rank cut; without a
        # mass operator, a depth that A leaves invariant is the last to cut
        decomposition = verify_decomposition(sys, comp)
        assert decomposition.constraint_residual <= 1e-9 * np.linalg.norm(sys.c, 2)
        assert decomposition.invariant == (decomposition.invariance_residual < 1e-10 * scale)
        if e is None and decomposition.invariance_residual < 1e-12 * scale:
            assert all(later.r == comp.r for later in comps[comp.k :])
        m_h = comp.m.conj().T
        assert comp.m.shape == (n, comp.r) and np.array_equal(comp.m_left, m_h)
        assert np.linalg.norm(m_h @ comp.m - np.eye(comp.r)) < 1e-12
        assert np.linalg.norm(comp.a_k - m_h @ a @ comp.m) <= 1e-10 * scale
        if e is not None:
            assert np.linalg.norm(comp.e_k - m_h @ e @ comp.m) <= 1e-10 * np.linalg.norm(e, 2)
        # p is an orthonormal complement of E M (M without a mass operator)
        image = comp.m if e is None else e @ comp.m
        assert comp.p.shape == (n, n - comp.r)
        assert np.linalg.norm(comp.p.conj().T @ comp.p - np.eye(n - comp.r)) < 1e-12
        assert np.linalg.norm(comp.p.conj().T @ image) <= 1e-12 * np.linalg.norm(image, 2)
        assert lams.dtype == vecs.dtype == np.complex128 and vecs.shape == (comp.r, comp.r)
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, atol=1e-12)
        if not complex_entries:
            # a real problem's eigenpairs come as exact conjugates side by
            # side, Im > 0 first, also where pairs tie on (Re, |Im|)
            upper = np.flatnonzero(lams.imag > 0)
            lower = upper + 1
            assert np.array_equal(np.sort(np.r_[upper, lower]), np.flatnonzero(lams.imag != 0))
            assert np.array_equal(lams[lower], np.conj(lams[upper]))
            assert np.array_equal(vecs[:, lower], np.conj(vecs[:, upper]))


def _reflect(x, mirror):
    """Q x for Q = blockdiag(s_f J), the fields the equal blocks of x's rows."""
    fields = np.reshape(x, (len(mirror), x.shape[0] // len(mirror)) + x.shape[1:])[:, ::-1]
    return (fields * np.reshape(mirror, (-1,) + (1,) * (x.ndim))).reshape(x.shape)


class TestMirror:
    @pytest.mark.parametrize("mirror", [(1, 1), (1, -1)])
    def test_canuto_is_not_mirror_symmetric(self, mirror):
        # no reflection of its fields commutes with its drift
        sys = canuto_hyperbolic(8)
        with pytest.raises(ValueError, match="not symmetric"):
            ConstrainedSystem(a=sys.a, c=sys.c, mirror=mirror)

    @pytest.mark.parametrize("mirror", [(), (1, 1, 1), (1, 0), (2,)])
    def test_malformed_mirror_raises(self, mirror):
        sys = heat_dirichlet(8)
        with pytest.raises(ValueError, match="one sign"):
            ConstrainedSystem(a=sys.a, c=sys.c, mirror=mirror)

    def test_constraint_rows_must_map_onto_themselves(self):
        # e_0 + 2 e_(n-1) is neither even nor odd, and Q moves its span
        sys = heat_dirichlet(8)
        c = np.zeros((1, 8))
        c[0, 0], c[0, -1] = 1.0, 2.0
        with pytest.raises(ValueError, match="constraint rows"):
            ConstrainedSystem(a=sys.a, c=c, mirror=(1,))

    @pytest.mark.parametrize(
        "build, mirror",
        [(heat_dirichlet, (1,)), (orr_sommerfeld, (1,)), (acoustic_wave, (1, -1))],
        ids=["heat", "orr-sommerfeld", "acoustic"],
    )
    def test_problems_declare_their_mirror(self, build, mirror):
        for n in (10, 11):
            sys = build(n)
            assert sys.mirror == mirror
            comp = compress(sys, 2)
            assert len(comp.blocks) == 2 and min(comp.blocks) > 0


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 7),
    signs=st.sampled_from([(1,), (-1,), (1, 1), (1, -1), (-1, -1)]),
    q=st.integers(1, 3),
    k_max=st.integers(1, 4),
    complex_entries=st.booleans(),
    mass=st.booleans(),
)
def test_mirrored_depths_match_the_unsplit_system(
    seed, size, signs, q, k_max, complex_entries, mass
):
    # random systems that commute with Q, constraint rows of both
    # parities mixed by a random matrix: split and unsplit compression
    # keep the same rank at every depth and the same spectrum, and every
    # lifted basis column is exactly even or exactly odd
    rng = np.random.default_rng(seed)
    n = size * len(signs)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_entries else x

    def symmetric(b):
        return (b + _reflect(_reflect(b, signs).T, signs).T) / 2

    a = symmetric(draw(n, n))
    e = None
    if mass:
        g = symmetric(draw(n, n))
        e = np.eye(n) + 0.1 * g / np.linalg.norm(g, 2)
    parity = rng.integers(0, 2, size=min(q, n - 1))
    rows = draw(parity.size, n)
    rows = (rows + np.where(parity[:, None], -1, 1) * _reflect(rows.T, signs).T) / 2
    c = draw(parity.size, parity.size) @ rows
    try:
        plain = ConstrainedSystem(a=a, c=c, e=e)
    except ValueError:
        return
    sv = np.linalg.svd(c, compute_uv=False)
    try:
        split = ConstrainedSystem(a=a, c=c, e=e, mirror=signs)
    except ValueError:
        # only a constraint rank that the cut cannot tell may be refused
        assert sv[-1] <= 1e-9 * sv[0]
        return
    scale = np.linalg.norm(a, 2)
    plain_comps = list(compress_depths(plain, k_max))
    split_comps = list(compress_depths(split, k_max))
    assert [comp.r for comp in split_comps] == [comp.r for comp in plain_comps]
    for one, two in zip(plain_comps, split_comps):
        assert one.blocks == (one.r,) and len(two.blocks) == 2 and sum(two.blocks) == two.r
        for part in two.slices:
            block = two.m[:, part]
            image = _reflect(block, signs)
            assert np.array_equal(image, block) or np.array_equal(image, -block)
        assert np.linalg.norm(two.m @ two.m_left - one.m @ one.m_left, 2) <= 1e-8
        # the lifted complement is the unsplit one
        p_one, p_two = one.p @ one.p.conj().T, two.p @ two.p.conj().T
        assert np.linalg.norm(p_two - p_one, 2) <= 1e-8
        try:
            (lams_one, _), (lams_two, vecs) = eigenpairs(one), eigenpairs(two)
        except EigensieveError:
            continue
        rows_, cols_ = linear_sum_assignment(np.abs(lams_one[:, None] - lams_two[None, :]))
        assert np.abs(lams_one[rows_] - lams_two[cols_]).max() <= 1e-10 * scale
        # each eigenvector lives in one block, and a real system's pairs
        # still sit side by side as exact conjugates
        in_block = np.array([np.any(vecs[part], axis=0) for part in two.slices])
        assert np.all(in_block.sum(axis=0) == 1)
        assert np.array_equal(in_block.sum(axis=1), two.blocks)
        if not complex_entries:
            upper = np.flatnonzero(lams_two.imag > 0)
            assert np.array_equal(np.sort(np.r_[upper, upper + 1]), np.flatnonzero(lams_two.imag))
            assert np.array_equal(lams_two[upper + 1], np.conj(lams_two[upper]))
            assert np.array_equal(vecs[:, upper + 1], np.conj(vecs[:, upper]))
