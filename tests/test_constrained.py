"""Constraint stacking, nullspace extraction, and subspace compression."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.optimize import linear_sum_assignment

from conftest import stacked_vectors, whole_e_k, whole_p
from eigensieve import constrained
from eigensieve.constrained import (
    DEFAULT_NULL_TOL,
    ConstrainedSystem,
    _embed,
    _norms,
    _project,
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
from eigensieve.quality import _report, eigenpairs, quality_report


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

    @pytest.mark.parametrize("mirror", [None, (1,)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name, field", [("drift", "a"), ("constraint", "c"), ("mass", "e")])
    def test_rejects_non_finite_entries(self, name, field, value, mirror):
        # checked before the SVD of C and the mirror check, without a warning
        sys = heat_dirichlet(8)
        ops = {"a": sys.a.copy(), "c": sys.c.copy(), "e": np.eye(sys.n)}
        ops[field][1, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"the {name} matrix has a non-finite entry"):
                ConstrainedSystem(**ops, mirror=mirror)

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

    def test_rank_threshold_is_relative(self):
        # singular values 1 and 1e-12: second falls below 1e-10 * first
        mat = np.diag([1.0, 1e-12]) @ np.eye(2, 5)
        assert nullspace_basis(mat).shape == (5, 4)
        mat_loose = np.diag([1.0, 1e-8]) @ np.eye(2, 5)
        assert nullspace_basis(mat_loose).shape == (5, 3)

    @pytest.mark.parametrize("scale", [1.0, 3e5, 2e-7])
    def test_cut_is_the_fixed_relative_tolerance(self, scale):
        # singular values just above and just below DEFAULT_NULL_TOL times
        # the largest: the first counts as rank, the second does not
        near = DEFAULT_NULL_TOL * np.array([1 + 1e-6, 1 - 1e-6])
        mat = scale * np.diag([1.0, *near]) @ np.eye(3, 6)
        assert nullspace_basis(mat).shape == (6, 4)


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
        m = comp.m
        np.testing.assert_allclose(m.conj().T @ m, np.eye(comp.r), atol=1e-13)
        assert np.array_equal(comp.m_left, m.conj().T)

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
        e_k = whole_e_k(comp)
        assert e_k is not None and e_k.shape == (comp.r, comp.r)
        np.testing.assert_allclose(e_k, comp.m.conj().T @ e @ comp.m, atol=1e-14)


def _mass_system(seed, n=9, q=2):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    return ConstrainedSystem(a=a, c=rng.standard_normal((q, n)), e=e)


def _dense_basis(sigma, size):
    """The basis U of the half with field signs sigma, built column by column from its definition.

    Within field f, column j < size // 2 is (e_j + sigma_f e_(size-1-j)) / sqrt(2),
    field by field; after them comes e_c, the centre of each odd-length field
    with sigma_f = 1.  Without signs U is the identity on one field.
    """
    if sigma is None:
        return np.eye(size)
    n = len(sigma) * size
    cols = []
    for f, sign in enumerate(sigma):
        for j in range(size // 2):
            col = np.zeros(n)
            col[f * size + j] = np.sqrt(0.5)
            col[f * size + size - 1 - j] = sign * np.sqrt(0.5)
            cols.append(col)
    for f, sign in enumerate(sigma):
        if size % 2 and sign == 1:
            cols.append(np.eye(n)[f * size + size // 2])
    return np.reshape(cols, (-1, n)).T


@pytest.mark.parametrize("size", range(1, 8))
@pytest.mark.parametrize("fields", [1, 2, 3])
def test_half_basis_is_applied_by_slicing(fields, size):
    # for every sign pattern, _embed is U y bit for bit, also into a
    # column slice of a larger array, and _project is a C-contiguous U^T x
    # to rounding, and x U as U^T of x.T transposed back
    rng = np.random.default_rng(7 * fields + size)
    n = fields * size

    def draw(rows, cols, dtype):
        x = rng.standard_normal((rows, cols))
        return x + 1j * rng.standard_normal(x.shape) if dtype is complex else x

    for signs in itertools.product((1.0, -1.0), repeat=fields):
        sigma = np.array(signs)
        u = _dense_basis(sigma, size)
        for dtype in (float, complex):
            y = draw(u.shape[1], 3, dtype)
            out = np.full((n, 5), np.nan, dtype=dtype)
            _embed(sigma, y, out[:, 1:4])
            assert np.array_equal(out[:, 1:4], u @ y)
            assert np.isnan(out[:, [0, 4]]).all()
            x = draw(n, 4, dtype)
            atol = 4 * np.finfo(float).eps * np.abs(x).max()
            u_t_x = _project(sigma, x)
            np.testing.assert_allclose(u_t_x, u.T @ x, rtol=0, atol=atol)
            assert u_t_x.flags.c_contiguous
            x_t = np.ascontiguousarray(x.T)
            np.testing.assert_allclose(_project(sigma, x_t.T).T, x_t @ u, rtol=0, atol=atol)


@pytest.mark.parametrize(
    "build, n, k",
    [
        (acoustic_wave, 17, 2), (heat_dirichlet, 12, 2),
        (orr_sommerfeld, 20, 1), (canuto_hyperbolic, 16, 2),
    ],
    ids=["acoustic-odd", "heat", "orr-sommerfeld", "canuto"],
)
def test_state_space_arrays_are_assembled_on_demand(build, n, k):
    # compress_depths keeps each half's pieces in its own coordinates and
    # lifts nothing; m and a_k are assembled on each read and stored
    # nowhere, and m, the halves' p lifted by _lift and their e_k joined
    # by _diagonal equal each half's piece lifted by its basis U as a
    # dense product, [U_+ X_+, U_- X_-], or the block diagonal
    sys = build(n)
    comps = list(compress_depths(sys, k))
    assert [vars(comp).keys() for comp in comps] == [{"halves", "k"}] * k
    comp = comps[-1]
    halves = comp.halves
    size = sys.n // len(sys.mirror) if sys.mirror else sys.n
    dense = [_dense_basis(half.basis, size) for half in halves]
    np.testing.assert_array_equal(comp.m, np.hstack([u @ h.m for u, h in zip(dense, halves)]))
    p = np.hstack([u @ h.p for u, h in zip(dense, halves)])
    np.testing.assert_array_equal(whole_p(comp), p)
    np.testing.assert_array_equal(comp.a_k, block_diag(*[h.a_k for h in halves]))
    if sys.e is None:
        assert whole_e_k(comp) is None and all(h.e is None and h.e_k is None for h in halves)
    else:
        np.testing.assert_array_equal(whole_e_k(comp), block_diag(*[h.e_k for h in halves]))
    for u, half in zip(dense, halves):
        for op, op_h in ((sys.a, half.a), (sys.e, half.e)):
            if op is not None:
                np.testing.assert_allclose(op_h, u.T @ op @ u, rtol=0, atol=1e-13 * np.abs(op).max())
    assert comp.n == sys.n and comp.blocks == tuple(h.m.shape[1] for h in halves)
    assert vars(comp).keys() == {"halves", "k"}


def _embed_onto_zeros(sigma, y, out):
    """The reference for ``_embed``: the reversed half's products added to zeros."""
    fields = out.reshape(sigma.size, len(out) // sigma.size, y.shape[1])
    pairs = fields.shape[1] // 2
    lead = y[: sigma.size * pairs].reshape(sigma.size, pairs, y.shape[1])
    out[...] = 0
    fields[:, :pairs] = np.sqrt(0.5) * lead
    fields[:, ::-1][:, :pairs] += (sigma * np.sqrt(0.5))[:, None, None] * lead
    if fields.shape[1] % 2:
        fields[sigma > 0, pairs] = y[sigma.size * pairs :]


@pytest.mark.parametrize("size", [1, 2, 5, 6])
@pytest.mark.parametrize("fields", [1, 2])
def test_embed_writes_the_sums_onto_zeros_bit_for_bit(fields, size):
    # the products go straight into out, and 0.0 + -0.0 is +0.0: each
    # entry must keep the bits of the sum, the sign of a zero included
    rng = np.random.default_rng(11 * fields + size)
    values = np.array([0.0, -0.0, 1.5, -2.25])
    for signs in itertools.product((1.0, -1.0), repeat=fields):
        sigma = np.array(signs)
        rows = _dense_basis(sigma, size).shape[1]
        for dtype in (float, complex):
            y = rng.choice(values, (rows, 6)).astype(dtype)
            if dtype is complex:
                y.imag = rng.choice(values, y.shape)
            if rows:
                y[0, :2] = (0.0, -0.0) if dtype is float else (complex(0.0, -0.0), -0.0)
            got, want = (np.full((6, fields * size), np.nan, dtype=dtype).T for _ in range(2))
            _embed(sigma, y, got)
            _embed_onto_zeros(sigma, y, want)
            assert got.tobytes() == want.tobytes()


class TestDriftColumnNorm:
    @pytest.mark.parametrize("n", [2, 3, 64, 65, 66, 129, 130])
    @pytest.mark.parametrize(
        "kind", ["real", "complex", "F-ordered", "huge", "tiny", "zero column", "zero"]
    )
    def test_is_the_largest_column_norm_bit_for_bit(self, n, kind):
        # taken a slice of columns at a time, with no slice of one column,
        # and for huge and tiny columns from the rescaled norms; the last
        # column, the one a slice of its own would sum in another order,
        # is the largest
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) * np.exp(rng.uniform(-3, 0, n))
        a[:, -1] *= 100.0
        if kind == "complex":
            a = a + 1j * rng.standard_normal((n, n))
        elif kind == "F-ordered":
            a = np.asfortranarray(a)
        elif kind in ("huge", "tiny"):
            a *= 10.0 ** (rng.integers(195, 205, n) * (1 if kind == "huge" else -1))
        elif kind == "zero column":
            a[:, n // 2] = 0.0
        elif kind == "zero":
            a[...] = 0.0
        sys = ConstrainedSystem(a=a, c=np.eye(n)[:1])
        want = _norms(a).max()
        assert np.isfinite(want) and (want > 0) == (kind != "zero")
        assert sys.drift_column_norm == want

    def test_is_taken_once_per_system(self, monkeypatch):
        # compression, scoring and the invariance test share one pass
        # over the drift, and no slice of it is the whole matrix
        sys = acoustic_wave(64)
        widths = []

        def spy(x):
            if np.shares_memory(x, sys.a):
                widths.append(x.shape[1])
            return _norms(x)

        monkeypatch.setattr(constrained, "_norms", spy)
        comps = list(compress_depths(sys, 3))
        quality_report(sys, 2)
        verify_decomposition(sys, comps[-1])
        assert sum(widths) == sys.n and max(widths) < sys.n


class TestDepthRecursion:
    def test_rank_cuts_leave_the_spectral_norm_uncomputed(self):
        # each depth's defect is cut at the largest column norm of A, not |A|_2
        sys = acoustic_wave(32)
        assert len(list(compress_depths(sys, 3))) == 3
        assert "drift_norm" not in sys.__dict__

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
            assert np.array_equal(whole_e_k(comp), (m.conj().T @ sys.e) @ m)

    @pytest.mark.parametrize(
        "sys", [acoustic_wave(16), orr_sommerfeld(20)], ids=["acoustic", "orr-sommerfeld"]
    )
    def test_mirror_keeps_the_depth_one_space(self, sys):
        # a mirrored system's depth 1 is the same subspace in a basis of
        # even and odd columns, with block-diagonal operators
        comp = compress(sys, 1)
        m = nullspace_basis(sys.c / np.linalg.norm(sys.c))
        assert comp.m.shape == m.shape and len(comp.blocks) == 2 and sum(comp.blocks) == comp.r
        assert np.linalg.norm(comp.m @ comp.m.conj().T - m @ m.conj().T, 2) <= 1e-12
        even, odd = comp.slices
        for op, op_k in ((sys.a, comp.a_k), (sys.e, whole_e_k(comp))):
            if op is None:
                continue
            assert not op_k[even, odd].any() and not op_k[odd, even].any()
            restricted = comp.m.conj().T @ op @ comp.m
            np.testing.assert_allclose(op_k, restricted, atol=1e-12 * np.abs(op).max())

    def test_each_depth_keeps_the_states_whose_derivative_stays_feasible(self):
        for seed in range(3):
            sys = _mass_system(seed)
            prev = None
            for comp in compress_depths(sys, 4):
                assert comp.r == sys.n - sys.q * comp.k
                m_h = comp.m.conj().T
                np.testing.assert_allclose(comp.a_k, m_h @ sys.a @ comp.m, atol=1e-12)
                np.testing.assert_allclose(whole_e_k(comp), m_h @ sys.e @ comp.m, atol=1e-12)
                if prev is not None:
                    # A M_k lies in E V_(k-1), and V_k in V_(k-1)
                    q, _ = np.linalg.qr(sys.e @ prev.m)
                    am = sys.a @ comp.m
                    assert np.linalg.norm(am - q @ (q.conj().T @ am)) < 1e-10 * sys.drift_norm
                    assert np.linalg.norm(comp.m - prev.m @ (prev.m.conj().T @ comp.m)) < 1e-12
                prev = comp

    def test_identity_mass_operator_gives_the_same_subspaces(self):
        sys = _random_system(12, n=10)
        with_e = ConstrainedSystem(a=sys.a, c=sys.c, e=np.eye(10))
        for plain, mass in zip(compress_depths(sys, 4), compress_depths(with_e, 4)):
            assert plain.r == mass.r
            proj = plain.m @ plain.m.conj().T - mass.m @ mass.m.conj().T
            assert np.linalg.norm(proj, 2) < 1e-12

    def test_mass_operator_keeps_the_tollmien_schlichting_mode(self):
        # the stack [C; C A; ...] misses it by 1.4e-6 and 9.3e-6 here
        sys = orr_sommerfeld(80)
        ts = 0.00373967 - 0.23752649j
        for comp in compress_depths(sys, 3):
            assert comp.r == sys.n - 4 * comp.k
            lams = np.linalg.eigvals(np.linalg.solve(whole_e_k(comp), comp.a_k))
            assert np.abs(lams - ts).min() < 1e-8

    def test_canuto_keeps_every_rank_and_the_zero_mode(self):
        # the stack's rank stalls at 90 for k = 19-21 and ends at 88
        n = 64
        sys = canuto_hyperbolic(n)
        zero_mode = np.concatenate([np.zeros(n), np.ones(n)]) / np.sqrt(n)
        comps = list(compress_depths(sys, 25))
        assert [comp.r for comp in comps] == [2 * n - 2 * k for k in range(1, 26)]
        for comp in comps:
            assert np.linalg.norm(zero_mode - comp.m @ (comp.m.conj().T @ zero_mode)) < 1e-9

    @pytest.mark.parametrize(
        "build, n, k_max",
        [
            (canuto_hyperbolic, 32, 25),
            (canuto_hyperbolic, 64, 25),
            (heat_dirichlet, 48, 12),
            (acoustic_wave, 48, 12),
            (orr_sommerfeld, 110, 3),
        ],
        ids=["canuto-32", "canuto-64", "heat-48", "acoustic-48", "orr-sommerfeld-110"],
    )
    def test_rank_cuts_sit_in_a_wide_gap_around_the_constant(self, build, n, k_max):
        # one constant cut serves every problem because no singular value
        # the recursion decides on lies near it: the defects it keeps are
        # at most 6.8e-16 |A|_2 here and those it cuts at least 8.0e-7 |A|_2,
        # and with E the smallest of (E_h M_h)* is 1.46e-6 of its largest
        low, high = 1e-14, 1e-7
        sys = build(n)
        # the cut, DEFAULT_NULL_TOL times the largest column norm of A,
        # lies within a factor sqrt(n) below DEFAULT_NULL_TOL |A|_2
        cut = DEFAULT_NULL_TOL * np.linalg.norm(sys.a, axis=0).max() / sys.drift_norm
        assert low < DEFAULT_NULL_TOL / np.sqrt(sys.n) <= cut <= DEFAULT_NULL_TOL < high
        for comp in compress_depths(sys, k_max):
            for half in comp.halves:
                defect = (half.p.conj().T @ half.a) @ half.m
                ratios = np.linalg.svd(defect, compute_uv=False) / sys.drift_norm
                assert not np.any((ratios >= low) & (ratios <= high)), (comp.k, ratios)
                if half.e is not None:
                    s = np.linalg.svd((half.e @ half.m).conj().T, compute_uv=False)
                    assert s[-1] > high * s[0], (comp.k, s[-1] / s[0])

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
        assert np.linalg.norm(comp.m - prev.m @ (prev.m.conj().T @ comp.m)) < 1e-10
    for comp, (lams, blocks) in zip(comps, spectra):
        vecs = stacked_vectors(comp, blocks)
        # every depth keeps C z = 0 to the depth-1 rank cut; without a
        # mass operator, a depth that A leaves invariant is the last to cut
        decomposition = verify_decomposition(sys, comp)
        assert decomposition.constraint_residual <= 1e-9 * np.linalg.norm(sys.c, 2)
        assert decomposition.invariant == (decomposition.invariance_residual < 1e-10 * scale)
        if e is None and decomposition.invariance_residual < 1e-12 * scale:
            assert all(later.r == comp.r for later in comps[comp.k :])
        m_h = comp.m.conj().T
        assert comp.m.shape == (n, comp.r)
        assert np.linalg.norm(m_h @ comp.m - np.eye(comp.r)) < 1e-12
        assert np.linalg.norm(comp.a_k - m_h @ a @ comp.m) <= 1e-10 * scale
        if e is not None:
            e_k = whole_e_k(comp)
            assert np.linalg.norm(e_k - m_h @ e @ comp.m) <= 1e-10 * np.linalg.norm(e, 2)
        # p is an orthonormal complement of E M (M without a mass operator)
        image = comp.m if e is None else e @ comp.m
        p = whole_p(comp)
        assert p.shape == (n, n - comp.r)
        assert np.linalg.norm(p.conj().T @ p - np.eye(n - comp.r)) < 1e-12
        assert np.linalg.norm(p.conj().T @ image) <= 1e-12 * np.linalg.norm(image, 2)
        assert lams.dtype == np.complex128 and vecs.shape == (comp.r, comp.r)
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, atol=1e-12)
        if not complex_entries:
            # a real problem's eigenpairs come as exact conjugates side by
            # side, Im > 0 first, also where pairs tie on (Re, |Im|), so
            # the modes with Im < 0 are exactly the second halves, and the
            # report marks exactly those by repeating their owner's row
            upper = np.flatnonzero(lams.imag > 0)
            lower = upper + 1
            assert np.array_equal(np.sort(np.r_[upper, lower]), np.flatnonzero(lams.imag != 0))
            assert np.array_equal(lower, np.flatnonzero(lams.imag < 0))
            assert np.array_equal(lams[lower], np.conj(lams[upper]))
            assert np.array_equal(vecs[:, lower], np.conj(vecs[:, upper]))
            report = _report(sys, comp)
            repeats = np.r_[False, report.rows[1:] == report.rows[:-1]]
            assert np.array_equal(repeats, report.lambdas.imag < 0)


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

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("name", ["drift", "mass"])
    def test_symmetry_is_checked_at_the_cut(self, name, factor):
        # P = -QPQ leaves |QXQ - X|_F = 2 |P|_F for X = op + P, which is
        # factor times DEFAULT_NULL_TOL |X|_F since P is orthogonal to op
        sys = acoustic_wave(12) if name == "drift" else orr_sommerfeld(12)
        ops = {"a": sys.a, "c": sys.c, "e": sys.e}
        key = "a" if name == "drift" else "e"
        rng = np.random.default_rng(5)
        b = rng.standard_normal(ops[key].shape) * (1 + 1j * np.iscomplexobj(ops[key]))
        anti = b - _reflect(_reflect(b, sys.mirror).T, sys.mirror).T
        tol = factor * DEFAULT_NULL_TOL
        size = tol * np.linalg.norm(ops[key]) / np.sqrt(4 - tol**2)
        ops[key] = ops[key] + size * anti / np.linalg.norm(anti)
        # the verdict of one norm over the whole matrix
        gap = _reflect(_reflect(ops[key], sys.mirror).T, sys.mirror).T - ops[key]
        assert (np.linalg.norm(gap) <= DEFAULT_NULL_TOL * np.linalg.norm(ops[key])) == (factor < 1)
        if factor < 1:
            assert ConstrainedSystem(**ops, mirror=sys.mirror).mirror == sys.mirror
        else:
            with pytest.raises(ValueError, match=f"the {name} matrix is not symmetric"):
                ConstrainedSystem(**ops, mirror=sys.mirror)

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
        assert np.linalg.norm(two.m @ two.m.conj().T - one.m @ one.m.conj().T, 2) <= 1e-8
        # the lifted complement is the unsplit one
        p_one, p_two = (p @ p.conj().T for p in (whole_p(one), whole_p(two)))
        assert np.linalg.norm(p_two - p_one, 2) <= 1e-8
        try:
            (lams_one, _), (lams_two, blocks) = eigenpairs(one), eigenpairs(two)
        except EigensieveError:
            continue
        vecs = stacked_vectors(two, blocks)
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
