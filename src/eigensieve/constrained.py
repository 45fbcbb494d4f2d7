"""Constrained linear systems and their compression onto feasible subspaces.

``dz/dt = A z`` (or ``E dz/dt = A z``) together with the static
constraint ``0 = C z`` confines every trajectory to states whose
derivatives keep ``C z = 0`` as well.  Without a mass operator those
are the nullspace of ``[C; CA; ...; C A^(k-1)]``; with one, the
derivative of ``C z = 0`` is ``C z' = 0`` with ``E z' = A z``, not
``C A z = 0``.  Both cases are one nested recursion (Wong 1974):
V_1 = null(C) and V_{k+1} = {z in V_k : A z in E V_k}, with E = I
without a mass operator.  Each depth is one orthogonal step from the
one before, as in the staircase form (Van Dooren 1981), never a stack
of powers of A, whose late blocks lose rank to rounding.  The rank cut
is the one constant ``DEFAULT_NULL_TOL`` times the largest singular
value of C at depth 1, and below it ``DEFAULT_NULL_TOL`` times a, the
largest column norm of A, taken once per system
(``ConstrainedSystem.drift_column_norm``), the number the zero-mode
floor of ``quality`` reads.  a lies in [|A|_2 / sqrt(n), |A|_2], so
the cut sits at most sqrt(n) (22.6 at n = 512) below
``DEFAULT_NULL_TOL |A|_2``, and it costs O(n^2) where |A|_2 costs an
SVD.  That move stays inside the gap
the cut falls in: on the registered problems, at the grids and depths
``tests/test_constrained.py`` checks, every defect singular value the
recursion keeps is at most 6.73e-16 |A|_2 and every one it cuts at
least 8.05e-7 |A|_2.  The operators are restricted to an orthonormal
basis of V_k, which removes the constraints from the model.  Each depth also keeps the
orthonormal complement P_k of E V_k that its next step reads, so the
next depth's constraint violation of a state is one product with P_k*.

A system may declare a mirror symmetry: one sign s_f per field, for
Q = blockdiag(s_f J) with J the reversal of a field's grid.  When Q
commutes with A and E and maps the row space of C onto itself, every
V_k splits into its even part (Q z = z) and its odd part (Q z = -z),
and the recursion runs once on each, in half-size coordinates whose
basis columns are (e_j +- e_(n-1-j)) / sqrt(2) within a field (Boyd,
*Chebyshev and Fourier Spectral Methods*, 2001, ch. 8).  The split is
an orthogonal similarity, so each depth's spectrum is the union of the
two halves' spectra, and its operators are block diagonal.  Both
halves cut the rank of V_k at the unsplit system's values.  A system
without a mirror is the one-block case of the same recursion.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat

import numpy as np

from .errors import TrivialNullspaceError

__all__ = [
    "DEFAULT_NULL_TOL",
    "ConstrainedSystem",
    "CompressedSystem",
    "DecompositionReport",
    "observability",
    "nullspace_basis",
    "compress_depths",
    "compress",
    "verify_decomposition",
]


#: Relative singular-value cutoff that sets the rank of every depth.
DEFAULT_NULL_TOL = 1e-10

#: Columns of the drift per slice of ``ConstrainedSystem.drift_column_norm``.
_COLUMNS = 64


@dataclass(eq=False)
class ConstrainedSystem:
    """Drift ``a`` with constraints ``c`` (q x n, q < n) and optional mass ``e``.

    Entries may be real or complex; real inputs are simply the special
    case.  ``labels`` carries optional metadata (problem name, grid)
    that reporting code passes through untouched.

    ``mirror`` optionally holds one sign (1 or -1) per field, the state
    being the fields' equal-length blocks one after another.  It
    declares that Q = blockdiag(s_f J), J the reversal of a field,
    commutes with A and E and maps the row space of C onto itself;
    compression then splits every depth into its even and odd halves
    (see the module docstring).  The declaration is checked at the
    library's own cut and raises ``ValueError`` when it fails:
    ``|QAQ - A|_F <= DEFAULT_NULL_TOL |A|_F``, the same for E, and the
    ranks of C on the two halves, counted above ``DEFAULT_NULL_TOL``
    times the largest singular value of C, add up to q.  The field
    layout is not stored anywhere else, so nothing is inferred.

    ``a``, ``c`` and ``e`` must be finite: a nan or an infinite entry
    raises ``ValueError`` naming its matrix before any factorisation.
    C must have full row rank at the library's cut: a singular value of
    C at or below ``DEFAULT_NULL_TOL`` times the largest raises
    ``ValueError``, since depth 1 would count it as a free direction
    and keep more than ``n - q`` states.
    """

    a: np.ndarray
    c: np.ndarray
    e: np.ndarray | None = None
    labels: dict | None = None
    mirror: tuple[int, ...] | None = None

    def __post_init__(self):
        self.a = np.asarray(self.a)
        self.c = np.asarray(self.c)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError("drift matrix must be square")
        if self.c.ndim != 2 or self.c.shape[1] != self.a.shape[0]:
            raise ValueError(
                f"constraint matrix must have {self.a.shape[0]} columns, "
                f"got shape {self.c.shape}"
            )
        q, n = self.c.shape
        if q >= n:
            raise ValueError(f"need fewer constraints than states, got q={q}, n={n}")
        if self.e is not None:
            self.e = np.asarray(self.e)
            if self.e.shape != self.a.shape:
                raise ValueError("mass matrix must match the drift matrix shape")
        for name, op in (("drift", self.a), ("constraint", self.c), ("mass", self.e)):
            if op is not None and not np.isfinite(op).all():
                raise ValueError(f"the {name} matrix has a non-finite entry")
        sv = np.linalg.svd(self.c, compute_uv=False)
        # the rank cut of depth 1 and of the mirror check; a zero C fails it too
        if not sv[-1] > DEFAULT_NULL_TOL * sv[0]:
            raise ValueError(
                f"constraint matrix is row rank deficient: a singular value is at most "
                f"DEFAULT_NULL_TOL = {DEFAULT_NULL_TOL:g} times the largest"
            )
        if self.mirror is not None:
            self.mirror = tuple(self.mirror)
            self._check_mirror(sv[0])

    def _check_mirror(self, c_norm: float) -> None:
        """Raise ``ValueError`` unless ``mirror`` is a symmetry of A, E and C's row space."""
        fields = len(self.mirror)
        if not (fields and self.n % fields == 0 and set(self.mirror) <= {1, -1}):
            raise ValueError(
                f"mirror needs one sign, 1 or -1, per field of equal length; "
                f"got {self.mirror} for n={self.n}"
            )
        shape = (fields, self.n // fields) * 2
        for name, op in (("drift", self.a), ("mass", self.e)):
            if op is None:
                continue
            # block (f, g) of Q op Q - op is s_f s_g J op_fg J - op_fg, whose
            # norm is that of J op_fg J -+ op_fg; one block at a time
            op_fg = op.reshape(shape)
            gap = np.linalg.norm([
                np.linalg.norm(
                    (np.subtract if s_f == s_g else np.add)(op_fg[f, ::-1, g, ::-1], op_fg[f, :, g])
                )
                for f, s_f in enumerate(self.mirror)
                for g, s_g in enumerate(self.mirror)
            ])
            if not gap <= DEFAULT_NULL_TOL * np.linalg.norm(op):
                raise ValueError(f"the {name} matrix is not symmetric under mirror {self.mirror}")
        cut = DEFAULT_NULL_TOL * c_norm
        ranks = sum(
            np.count_nonzero(np.linalg.svd(_project(sigma, self.c.T).T, compute_uv=False) > cut)
            for sigma in _halves(self.n, self.mirror)
        )
        if ranks != self.q:
            raise ValueError(
                f"mirror {self.mirror} does not map the constraint rows onto themselves: "
                f"the two halves hold {ranks} of {self.q} constraints"
            )

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def q(self) -> int:
        return self.c.shape[0]

    @cached_property
    def drift_norm(self) -> float:
        """Spectral norm of the drift matrix, computed once on demand.

        Compression and scoring never read it; ``verify_decomposition``
        reports it.
        """
        return float(np.linalg.norm(self.a, 2))

    @cached_property
    def drift_column_norm(self) -> float:
        """Largest column norm of the drift matrix, overflow-safe, taken once per system.

        The rank cut of ``compress_depths``, the invariance test of
        ``verify_decomposition`` and the zero floor of ``quality`` read
        it.  It is ``_norms(a).max()`` bit for bit, taken ``_COLUMNS``
        columns at a time, so no n x n temporary is made.  numpy sums
        the squares of a slice of two or more columns in the same order
        as those of the whole matrix, but those of one column alone in
        another, so the last slice takes the remainder.
        """
        starts = range(0, self.n - 1, _COLUMNS)
        ends = [*starts[1:], self.n]
        return float(max(_norms(self.a[:, i:j]).max() for i, j in zip(starts, ends)))


def observability(sys: ConstrainedSystem, k: int) -> np.ndarray:
    """Stack the first k implicit-constraint blocks: ``[C; CA; ...; C A^(k-1)]``, ``(k q, n)``.

    Block i is block i-1 right-multiplied by A, so each block is the
    exact floating-point product of its predecessor.  Neither
    compression nor scoring uses the stack: only the benchmark tracer
    and tests call it.
    """
    if k < 1:
        raise ValueError(f"stack depth must be >= 1, got k={k}")
    return np.vstack(list(accumulate(repeat(sys.a, k - 1), np.matmul, initial=sys.c)))


def nullspace_basis(mat: np.ndarray) -> np.ndarray:
    """Orthonormal nullspace basis of ``mat`` via singular value decomposition.

    Column count is the number of singular values below
    ``DEFAULT_NULL_TOL`` times the largest one, including the trailing
    dimensions a wide matrix cannot constrain.  Each column is rotated
    so its largest-magnitude entry is real and positive, making the
    basis reproducible across runs.
    """
    return _split(mat)[1]


def _split(mat: np.ndarray, scale: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases ``(row, null)`` of the row space and nullspace of ``mat``.

    ``null`` is ``nullspace_basis(mat)``; ``row`` is its orthogonal
    complement, the leading right singular vectors, without sign fixing.
    The rank counts the singular values above ``DEFAULT_NULL_TOL`` times
    ``scale``, by default the largest singular value of ``mat``.
    """
    mat = np.asarray(mat)
    if mat.size == 0:
        raise ValueError("cannot take the nullspace of an empty matrix")
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    if scale is None:
        scale = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > DEFAULT_NULL_TOL * scale))
    # a copy, not a view: a view of the rows would keep all of vh alive
    return vh[:rank].conj().T.copy(), _fix_signs(vh[rank:].conj().T)


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """``basis`` with each column rotated so its largest-magnitude entry is real and positive."""
    if basis.size == 0:
        return basis
    pivots = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])]
    return basis * (np.conj(pivots) / np.abs(pivots))[None, :]


#: Column norms outside [_SQUARES_UNDERFLOW, _SQUARES_OVERFLOW) may have
#: lost digits, or all of them, to squares below the smallest normal
#: number or above the largest finite one.
_SQUARES_UNDERFLOW = np.sqrt(np.finfo(float).tiny / np.finfo(float).eps)
_SQUARES_OVERFLOW = np.sqrt(np.finfo(float).max)


def _norms(x: np.ndarray) -> np.ndarray:
    """Column norms of x, rescaled where their squares may have left the range.

    Columns whose plain norm lies in [``_SQUARES_UNDERFLOW``,
    ``_SQUARES_OVERFLOW``) keep its bits; the others are taken again as
    ``m |x / m|`` with m their largest magnitude, so a tiny nonzero
    column never reads 0 and a finite one reads infinite only when its
    norm is.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=0)
    redo = np.flatnonzero(~((norms >= _SQUARES_UNDERFLOW) & (norms < _SQUARES_OVERFLOW)))
    if redo.size:
        # a column of no entries (a half without constraint rows) has norm 0
        peak = np.abs(x[:, redo]).max(axis=0, initial=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            rescaled = peak * np.linalg.norm(x[:, redo] / np.where(peak > 0, peak, 1.0), axis=0)
        # a column holding inf or nan keeps its plain norm
        norms[redo] = np.where(np.isfinite(peak), rescaled, norms[redo])
    return norms


def _halves(n: int, mirror: tuple[int, ...] | None) -> list[np.ndarray | None]:
    """The field signs of each nonempty parity half under ``mirror``, even (Q z = z) first.

    Within field f the half holds the states with J z_f = sigma_f z_f,
    so its basis U is that of ``_project`` and ``_embed``.  Without a
    mirror the one half is the whole space, ``None``, and U is the
    identity.
    """
    if mirror is None:
        return [None]
    size = n // len(mirror)
    halves = [parity * np.array(mirror, dtype=float) for parity in (1, -1)]
    # a half is empty only when every field is one point that it negates
    return [sigma for sigma in halves if size > 1 or sigma.max() > 0]


def _project(sigma: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """``U^T x`` for the half of field signs ``sigma``, the rows of x being the state axis.

    The state axis is read as (field, position).  Column j < size // 2
    of U within field f is (e_j + sigma_f e_(size-1-j)) / sqrt(2), so
    its row of ``U^T x`` is the field's leading half plus sigma_f times
    its reversed view, over sqrt(2); the pairs come field by field,
    then the centre e_c of each odd-length field with sigma_f = 1, whose
    row is x_c.  ``x U`` is ``_project(sigma, x.T).T``.  For a half of a
    mirror the result is a new C-contiguous array.
    """
    if sigma is None:
        return x
    fields = x.reshape(sigma.size, len(x) // sigma.size, x.shape[1])
    pairs = fields.shape[1] // 2
    tail = fields[:, ::-1][:, :pairs]
    rows = np.sqrt(0.5) * (fields[:, :pairs] + sigma[:, None, None] * tail)
    centres = fields[sigma > 0, pairs] if fields.shape[1] % 2 else fields[:0, 0]
    return np.concatenate([rows.reshape(-1, x.shape[1]), centres])


def _embed(sigma: np.ndarray | None, y: np.ndarray, out: np.ndarray) -> None:
    """Write ``U y`` into ``out`` for the half of field signs ``sigma`` (see ``_project``).

    Each field's leading half takes the pair rows of y over sqrt(2)
    and its reversed view sigma_f times them, each product written
    straight into ``out``; the centre of a field with sigma_f = 1
    takes its row of y, that of the others 0.  U is applied by
    slicing, never as a dense product, so a lifted column has its
    parity exactly.  ``out`` may be any view of an n-row array:
    splitting its row axis into (field, position) is always a view.
    """
    if sigma is None:
        out[...] = y
        return
    fields = out.reshape(sigma.size, len(out) // sigma.size, y.shape[1])
    pairs = fields.shape[1] // 2
    lead = y[: sigma.size * pairs].reshape(sigma.size, pairs, y.shape[1])
    np.multiply(np.sqrt(0.5), lead, out=fields[:, :pairs])
    tail = fields[:, ::-1][:, :pairs]
    np.multiply((sigma * np.sqrt(0.5))[:, None, None], lead, out=tail)
    # the bits of a sum onto zeros: + 0.0 turns a product's -0.0 into +0.0
    tail += 0.0
    if fields.shape[1] % 2:
        fields[sigma < 0, pairs] = 0
        fields[sigma > 0, pairs] = y[sigma.size * pairs :]


@dataclass(frozen=True, eq=False)
class _HalfSystem:
    """One diagonal block of a compressed system, in the coordinates of its half.

    ``basis`` is the half's field signs sigma, which define its basis U
    (``_project``), or None for the identity; ``a = U^T A U`` and
    ``e = U^T E U`` the operators restricted to the half, and ``m``,
    ``p``, ``a_k`` and ``e_k`` the half's M_k, P_k, A_k and E_k.  Without
    a mirror U is the identity, so ``a`` and ``e`` are the system's own
    arrays and the rest are the depth's arrays themselves.
    """

    basis: np.ndarray | None
    a: np.ndarray
    e: np.ndarray | None
    m: np.ndarray
    p: np.ndarray
    a_k: np.ndarray
    e_k: np.ndarray | None


@dataclass(eq=False)
class CompressedSystem:
    """Restriction of a constrained system to a depth-k feasible subspace.

    ``halves`` holds one ``_HalfSystem`` per diagonal block of the
    compressed operators: one for a system without a mirror, the even
    and the odd half for a mirrored one.  Each keeps its pieces in its
    half's coordinates, where ``quality`` scores them.  The arrays of
    the whole state space are assembled from them on every read and
    not stored, so a depth holds no second copy of its pieces; a caller
    that reads one many times keeps it in a variable.  ``m`` is
    ``[U_+ M_+, U_- M_-]``, F-ordered, whose columns have their parity
    exactly, and ``m_left`` is ``m*``.  ``a_k = m* A m`` is block
    diagonal, with the diagonal blocks of sizes ``blocks``
    (``slices``).  Each half's ``p`` is the orthonormal complement of
    its ``E m`` (``E = I`` without a mass operator) that the recursion
    reads to cut the next depth: ``|p* A w|`` is the part of ``A w``
    outside ``E V_k``, how far a state w of the half violates the next
    depth's constraint.  Each half's ``e_k`` is its block of ``m* E m``;
    scoring and the eigen solve read only the halves' ``p`` and ``e_k``.
    """

    halves: tuple[_HalfSystem, ...]
    k: int

    @property
    def n(self) -> int:
        return sum(half.a.shape[0] for half in self.halves)

    @property
    def r(self) -> int:
        return sum(self.blocks)

    @property
    def blocks(self) -> tuple[int, ...]:
        return tuple(half.m.shape[1] for half in self.halves)

    @property
    def slices(self) -> list[slice]:
        """Index range of each diagonal block, in ``blocks`` order."""
        return _slices(self.blocks)

    @property
    def m(self) -> np.ndarray:
        return self._lift([half.m for half in self.halves])

    @property
    def m_left(self) -> np.ndarray:
        return self.m.conj().T

    @property
    def a_k(self) -> np.ndarray:
        return self._diagonal([half.a_k for half in self.halves])

    def _lift(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """``[U_+ X_+, U_- X_-]``: each half's ``X`` lifted to the n-dimensional state space.

        ``m`` and a quality report's owner rows are lifted here.
        The result is F-ordered, so its transpose, one lifted column per
        row, is C-ordered without a copy.
        """
        sizes = tuple(x.shape[1] for x in parts)
        out = np.empty((sum(sizes), self.n), dtype=np.result_type(*parts)).T
        for half, x, cols in zip(self.halves, parts, _slices(sizes)):
            _embed(half.basis, x, out[:, cols])
        return out

    def _diagonal(self, parts: list[np.ndarray]) -> np.ndarray:
        """The block diagonal matrix of each half's block."""
        out = np.zeros((self.r, self.r), dtype=np.result_type(*parts))
        for part, x in zip(self.slices, parts):
            out[part, part] = x
        return out


def _slices(blocks: tuple[int, ...]) -> list[slice]:
    return [slice(end - size, end) for size, end in zip(blocks, accumulate(blocks))]


def _walk(
    sys: ConstrainedSystem, sigma: np.ndarray | None, c: np.ndarray, c_norm: float, a_norm: float
) -> Iterator[_HalfSystem]:
    """Yield the ``_HalfSystem`` of each depth on one half, in the half's coordinates.

    Depth 1 is the nullspace of ``c U``, cut at ``DEFAULT_NULL_TOL``
    times ``c_norm``; each later depth is one step of the recursion on
    the operators restricted to the half, its defect cut at
    ``DEFAULT_NULL_TOL`` times ``a_norm`` (see ``compress_depths``).
    ``P_k`` is the orthonormal complement of ``E M_k`` that the step
    from depth k reads; a depth that leaves the half no state has the
    whole half.
    """
    p, m = _split(_project(sigma, c.T).T, c_norm)
    a, e = (
        None if op is None else _project(sigma, _project(sigma, op.T).T) for op in (sys.a, sys.e)
    )
    a_k = m.conj().T @ a @ m
    e_k = None if e is None else m.conj().T @ e @ m
    while True:
        if e is not None:
            p = nullspace_basis((e @ m).conj().T) if m.shape[1] else np.eye(len(a))
        yield _HalfSystem(sigma, a, e, m, p, a_k, e_k)
        _, s, vh = np.linalg.svd((p.conj().T @ a) @ m)
        cut = int(np.count_nonzero(s > DEFAULT_NULL_TOL * a_norm))
        if e is None:
            p = np.hstack([p, m @ vh[:cut].conj().T])
        n_k = _fix_signs(vh[cut:].conj().T)
        m = m @ n_k
        a_k = n_k.conj().T @ a_k @ n_k
        e_k = None if e_k is None else n_k.conj().T @ e_k @ n_k


def compress_depths(sys: ConstrainedSystem, k_max: int) -> Iterator[CompressedSystem]:
    """Yield the compressed system of each depth k = 1 .. k_max, each from the one before.

    Depth 1 is the nullspace of ``C / |C|_F`` at relative cutoff
    ``DEFAULT_NULL_TOL``.  Depth k+1 keeps the states z of depth k
    whose derivative stays feasible: ``A z`` in ``E V_k``, with
    ``E = I`` without a mass operator.  With P an orthonormal complement
    of ``E V_k``, that is the nullspace N_k of the defect
    ``(P* A) M_k``, cut at ``DEFAULT_NULL_TOL`` times the largest column
    norm of A (overflow-safe, taken once per system), which lies within a
    factor sqrt(n) below ``|A|_2`` (see the module docstring): a cut
    relative to the defect would count rounding as rank once V_k is
    invariant.  N_k's columns are sign-fixed as in ``nullspace_basis``;
    then ``M_{k+1} = M_k N_k`` and ``A_{k+1} = N_k* A_k N_k``.  Without
    E, P is the row space of C plus the directions each step removed,
    so the defect has only ``n - r_k`` rows; with E, P is the nullspace
    of ``(E M_k)*``.  Each depth carries each half's P
    (``_HalfSystem.p``), from which ``quality`` takes the derivative
    score.  Nothing past depth k is computed before depth k+1 is asked
    for, and the walk stops early once a depth leaves no state.

    A mirrored system walks its even and odd halves side by side, each
    on the operators restricted to it, with the rank cuts of the
    unsplit system: ``DEFAULT_NULL_TOL`` times the largest singular
    value of ``C / |C|_F`` at depth 1 and ``DEFAULT_NULL_TOL`` times the
    largest column norm of A for the defect.  With E, each half's P is
    the nullspace of its own block of ``(E M_k)*``.
    Each depth keeps both halves' pieces in their own coordinates; its
    M is ``[U_+ M_+, U_- M_-]`` and its operators are block diagonal,
    assembled only when read (``CompressedSystem``).
    """
    if k_max < 1:
        raise ValueError(f"depth must be >= 1, got k={k_max}")
    c = sys.c / np.linalg.norm(sys.c)
    c_norm, a_norm = np.linalg.norm(c, 2), sys.drift_column_norm
    walks = zip(*(_walk(sys, sigma, c, c_norm, a_norm) for sigma in _halves(sys.n, sys.mirror)))
    for k, parts in zip(range(1, k_max + 1), walks):
        if not any(part.m.shape[1] for part in parts):
            return
        yield CompressedSystem(halves=parts, k=k)


def compress(sys: ConstrainedSystem, k: int) -> CompressedSystem:
    """Restrict drift (and mass) to the depth-k feasible subspace (``compress_depths``).

    The basis M is orthonormal, so the left inverse is just the
    conjugate transpose.  With k = 1 this reproduces classical
    boundary bordering (deleting constrained rows and columns) up to an
    orthogonal change of basis.
    """
    for comp in compress_depths(sys, k):
        if comp.k == k:
            return comp
    raise TrivialNullspaceError(
        f"no nonzero state satisfies the depth-{k} implicit constraints; "
        "the constrained system is only solvable from zero"
    )


@dataclass(eq=False)
class DecompositionReport:
    """Residuals of the subspace split induced by a compression basis.

    ``invariant`` is True when the image of M fails to be mapped
    outside itself by the drift only below ``DEFAULT_NULL_TOL`` times
    the largest column norm of A, the cut the recursion applies to its
    defect; in that case the compressed spectrum is a subset of the
    drift spectrum.  ``drift_norm`` is the exact ``|A|_2``.
    """

    constraint_residual: float
    invariance_residual: float
    drift_norm: float
    invariant: bool


def verify_decomposition(sys: ConstrainedSystem, comp: CompressedSystem) -> DecompositionReport:
    """Measure ``|C M|`` and ``|N* A M|`` for an orthonormal complement N of M.

    ``invariant`` compares ``|N* A M|`` with the recursion's cut,
    ``DEFAULT_NULL_TOL`` times the largest column norm of A, taken once
    per system, which lies in [|A|_2 / sqrt(n), |A|_2]; ``drift_norm``
    reports ``|A|_2`` itself.
    """
    m = comp.m
    n_comp = np.linalg.svd(m, full_matrices=True)[0][:, comp.r :]
    inv_res = float(np.linalg.norm(n_comp.conj().T @ (sys.a @ m), 2))
    return DecompositionReport(
        constraint_residual=float(np.linalg.norm(sys.c @ m, 2)),
        invariance_residual=inv_res,
        drift_norm=sys.drift_norm,
        invariant=bool(inv_res < DEFAULT_NULL_TOL * sys.drift_column_norm),
    )
