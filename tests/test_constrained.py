"""Constraint stacking, nullspace extraction, and subspace compression."""

import numpy as np
import pytest

from eigensieve.constrained import (
    ConstrainedSystem,
    compress,
    nullspace_basis,
    observability,
    verify_decomposition,
)
from eigensieve.errors import TrivialNullspaceError
from eigensieve.problems import canuto_hyperbolic, heat_dirichlet


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
        assert obs.k == 2 and obs.block_rows == 2
        assert np.array_equal(obs.entries, np.vstack([sys.c, sys.c @ sys.a]))

    def test_deep_stack_blocks_are_repeated_products(self):
        sys = _random_system(2)
        obs = observability(sys, 4)
        expected = sys.c.copy()
        for i in range(4):
            assert np.array_equal(obs.entries[2 * i : 2 * i + 2], expected)
            expected = expected @ sys.a

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError, match="depth"):
            observability(_random_system(3), 0)

    def test_row_cap_refuses_excessive_depth(self):
        sys = _random_system(4)
        # the cap is 4 n = 32 rows: 15 blocks of 2 rows fit, 16 do not
        assert observability(sys, 15).entries.shape == (30, 8)
        with pytest.raises(ValueError, match="cap"):
            observability(sys, 16)


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
        sys = canuto_hyperbolic(8)
        with pytest.raises(TrivialNullspaceError):
            compress(sys, 9)

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
