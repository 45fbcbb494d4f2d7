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
is ``null_tol`` times the largest singular value of C at depth 1, and
``null_tol |A|_2`` below it.  The operators are restricted to an
orthonormal basis of V_k, which removes the constraints from the
model.  Each depth also keeps the orthonormal complement P_k of
E V_k that its next step reads, so the next depth's constraint
violation of a state is one product with P_k*.

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

from collections.abc import Iterator
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

_EPS = np.finfo(float).eps

#: Relative singular-value cutoff that sets the rank of every depth.
DEFAULT_NULL_TOL = 1e-10


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
        sv = np.linalg.svd(self.c, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= max(q, n) * _EPS * sv[0]:
            raise ValueError("constraint matrix is row rank deficient")
        if self.e is not None:
            self.e = np.asarray(self.e)
            if self.e.shape != self.a.shape:
                raise ValueError("mass matrix must match the drift matrix shape")
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
        # block (f, g) of Q op Q is s_f s_g J op_fg J
        signs = np.multiply.outer(self.mirror, self.mirror)[:, None, :, None]
        for name, op in (("drift", self.a), ("mass", self.e)):
            if op is not None and not (
                np.linalg.norm(signs * op.reshape(shape)[:, ::-1, :, ::-1] - op.reshape(shape))
                <= DEFAULT_NULL_TOL * np.linalg.norm(op)
            ):
                raise ValueError(f"the {name} matrix is not symmetric under mirror {self.mirror}")
        cut = DEFAULT_NULL_TOL * c_norm
        ranks = sum(
            np.count_nonzero(np.linalg.svd(half.cols(self.c), compute_uv=False) > cut)
            for half in _halves(self.n, self.mirror)
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
        """Spectral norm of the drift matrix, computed once on demand."""
        return float(np.linalg.norm(self.a, 2))


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


def nullspace_basis(mat: np.ndarray, tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Orthonormal nullspace basis of ``mat`` via singular value decomposition.

    Column count is the number of singular values below ``tol`` times
    the largest one, including the trailing dimensions a wide matrix
    cannot constrain.  Each column is rotated so its largest-magnitude
    entry is real and positive, making the basis reproducible across
    runs.  ``tol`` must lie strictly between 0 and 1; outside that
    range the cut keeps every direction or none, whatever ``mat`` is.
    """
    return _split(mat, tol)[1]


def _split(
    mat: np.ndarray, tol: float, scale: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases ``(row, null)`` of the row space and nullspace of ``mat``.

    ``null`` is ``nullspace_basis(mat, tol)``; ``row`` is its orthogonal
    complement, the leading right singular vectors, without sign fixing.
    The rank counts the singular values above ``tol`` times ``scale``,
    by default the largest singular value of ``mat``.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol}")
    mat = np.asarray(mat)
    if mat.size == 0:
        raise ValueError("cannot take the nullspace of an empty matrix")
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    if scale is None:
        scale = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > tol * scale))
    # a copy, not a view: a view of the rows would keep all of vh alive
    return vh[:rank].conj().T.copy(), _fix_signs(vh[rank:].conj().T)


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """``basis`` with each column rotated so its largest-magnitude entry is real and positive."""
    if basis.size == 0:
        return basis
    pivots = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])]
    return basis * (np.conj(pivots) / np.abs(pivots))[None, :]


@dataclass(frozen=True)
class _Half:
    """One parity half of a mirrored state space, as index maps.

    Column i of the half's basis U is ``w_i (e_idx_i + sgn_i e_mir_i)``:
    (e_j +- e_(n-1-j)) / sqrt(2) within a field, or the centre e_c of
    an odd-length field as (e_c + e_c) / 2.  U is applied by gathers and
    scatters, never as a dense product, so a lifted column has its
    parity exactly.  With ``idx`` None, U is the identity: the one
    half of a system without a mirror.
    """

    idx: np.ndarray | None = None
    mir: np.ndarray | None = None
    sgn: np.ndarray | None = None
    w: np.ndarray | None = None

    def rows(self, x: np.ndarray) -> np.ndarray:
        """``U^T x``."""
        if self.idx is None:
            return x
        return self.w[:, None] * (x[self.idx] + self.sgn[:, None] * x[self.mir])

    def cols(self, x: np.ndarray) -> np.ndarray:
        """``x U``."""
        if self.idx is None:
            return x
        return (x[:, self.idx] + x[:, self.mir] * self.sgn) * self.w

    def lift(self, y: np.ndarray, out: np.ndarray) -> None:
        """Write ``U y`` into ``out``."""
        if self.idx is None:
            out[...] = y
            return
        out[...] = 0
        out[self.idx] = self.w[:, None] * y
        out[self.mir] += (self.sgn * self.w)[:, None] * y


def _halves(n: int, mirror: tuple[int, ...] | None) -> list[_Half]:
    """The nonempty parity halves under ``mirror``, even (Q z = z) first.

    Without a mirror the one half is the whole space.
    """
    if mirror is None:
        return [_Half()]
    size = n // len(mirror)
    starts = np.arange(len(mirror))[:, None] * size
    pairs = np.arange(size // 2)
    halves = []
    for parity in (1, -1):
        # within field f the half has J z_f = sigma_f z_f
        sigma = parity * np.array(mirror)
        idx, mir = (starts + pairs).ravel(), (starts + size - 1 - pairs).ravel()
        sgn, w = np.repeat(sigma, pairs.size).astype(float), np.full(idx.size, np.sqrt(0.5))
        if size % 2:
            # the centre of a field with sigma = 1, as (e_c + e_c) / 2
            centres = starts[sigma == 1, 0] + size // 2
            idx, mir = np.r_[idx, centres], np.r_[mir, centres]
            sgn, w = np.r_[sgn, np.ones(centres.size)], np.r_[w, np.full(centres.size, 0.5)]
        if idx.size:
            halves.append(_Half(idx, mir, sgn, w))
    return halves


@dataclass(eq=False)
class CompressedSystem:
    """Restriction of a constrained system to a depth-k feasible subspace.

    ``a_k = m* A m`` and ``e_k = m* E m`` are block diagonal, with the
    diagonal blocks of sizes ``blocks`` (``slices``): one block of size
    r for a system without a mirror, the even and the odd half for a
    mirrored one, whose columns of ``m`` have their parity exactly.
    ``m_left`` is ``m*``.  ``p``, n x (n - r), is the orthonormal
    complement of ``E m`` (``E = I`` without a mass operator) that the
    recursion reads to cut the next depth, lifted like ``m``:
    ``|p* A w|`` is the part of ``A w`` outside ``E V_k``, how far a
    state w of this depth violates the next depth's constraint.
    """

    m: np.ndarray
    m_left: np.ndarray
    p: np.ndarray
    a_k: np.ndarray
    e_k: np.ndarray | None
    k: int
    r: int
    blocks: tuple[int, ...]

    @property
    def slices(self) -> list[slice]:
        """Index range of each diagonal block, in ``blocks`` order."""
        return _slices(self.blocks)


def _slices(blocks: tuple[int, ...]) -> list[slice]:
    return [slice(end - size, end) for size, end in zip(blocks, accumulate(blocks))]


def _walk(
    sys: ConstrainedSystem, half: _Half, c: np.ndarray, tol: float, scale: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
    """Yield ``(M_k, P_k, A_k, E_k)`` of each depth on one half, in the half's coordinates.

    Depth 1 is the nullspace of ``c U``, cut at ``tol`` times ``scale``;
    each later depth is one step of the recursion on the operators
    restricted to the half (see ``compress_depths``).  ``P_k`` is the
    orthonormal complement of ``E M_k`` that the step from depth k
    reads; a depth that leaves the half no state has the whole half.
    """
    p, m = _split(half.cols(c), tol, scale)
    a = half.rows(half.cols(sys.a))
    e = None if sys.e is None else half.rows(half.cols(sys.e))
    a_k = m.conj().T @ a @ m
    e_k = None if e is None else m.conj().T @ e @ m
    while True:
        if e is not None:
            p = nullspace_basis((e @ m).conj().T, tol) if m.shape[1] else np.eye(len(a))
        yield m, p, a_k, e_k
        _, s, vh = np.linalg.svd((p.conj().T @ a) @ m)
        cut = int(np.count_nonzero(s > tol * sys.drift_norm))
        if e is None:
            p = np.hstack([p, m @ vh[:cut].conj().T])
        n_k = _fix_signs(vh[cut:].conj().T)
        m = m @ n_k
        a_k = n_k.conj().T @ a_k @ n_k
        e_k = None if e_k is None else n_k.conj().T @ e_k @ n_k


def _lift(n: int, halves: list[_Half], parts: tuple) -> np.ndarray:
    """``[U_+ X_+, U_- X_-]``: each half's ``X`` lifted to the n-dimensional state space."""
    sizes = tuple(x.shape[1] for x in parts)
    out = np.empty((n, sum(sizes)), dtype=np.result_type(*parts))
    for half, x, cols in zip(halves, parts, _slices(sizes)):
        half.lift(x, out[:, cols])
    return out


def _assemble(n: int, halves: list[_Half], parts: tuple, k: int) -> CompressedSystem:
    """The depth-k system of each half's ``(M_k, P_k, A_k, E_k)``.

    M and P are lifted to the state space; A_k and E_k are block diagonal.
    """
    ms, ps, a_ks, e_ks = zip(*parts)
    blocks = tuple(m_h.shape[1] for m_h in ms)
    r = sum(blocks)
    m = _lift(n, halves, ms)
    a_k = np.zeros((r, r), dtype=np.result_type(*a_ks))
    e_k = None if e_ks[0] is None else np.zeros((r, r), dtype=np.result_type(*e_ks))
    for part, a_h, e_h in zip(_slices(blocks), a_ks, e_ks):
        a_k[part, part] = a_h
        if e_k is not None:
            e_k[part, part] = e_h
    return CompressedSystem(
        m=m, m_left=m.conj().T, p=_lift(n, halves, ps), a_k=a_k, e_k=e_k, k=k, r=r,
        blocks=blocks,
    )


def compress_depths(
    sys: ConstrainedSystem, k_max: int, tol: float = DEFAULT_NULL_TOL
) -> Iterator[CompressedSystem]:
    """Yield the compressed system of each depth k = 1 .. k_max, each from the one before.

    Depth 1 is the nullspace of ``C / |C|_F`` at relative cutoff
    ``tol``.  Depth k+1 keeps the states z of depth k whose derivative
    stays feasible: ``A z`` in ``E V_k``, with ``E = I`` without a mass
    operator.  With P an orthonormal complement of ``E V_k``, that is
    the nullspace N_k of the defect ``(P* A) M_k``, cut at
    ``tol |A|_2``: a relative cut would count rounding as rank once
    V_k is invariant.  N_k's columns are sign-fixed as in
    ``nullspace_basis``; then ``M_{k+1} = M_k N_k`` and
    ``A_{k+1} = N_k* A_k N_k``.  Without E, P is the row space of C plus
    the directions each step removed, so the defect has only
    ``n - r_k`` rows; with E, P is the nullspace of ``(E M_k)*``.  Each
    depth carries its P (``CompressedSystem.p``), from which
    ``quality`` takes the derivative score.  Nothing past depth k is
    computed before depth k+1 is asked for, and the walk stops early
    once a depth leaves no state.

    A mirrored system walks its even and odd halves side by side, each
    on the operators restricted to it, with the rank cuts of the
    unsplit system: ``tol`` times the largest singular value of
    ``C / |C|_F`` at depth 1 and ``tol |A|_2`` for the defect.  With E,
    each half's P is the nullspace of its own block of ``(E M_k)*``.
    Each depth's M is ``[U_+ M_+, U_- M_-]`` and its operators are block
    diagonal (``CompressedSystem``).
    """
    if k_max < 1:
        raise ValueError(f"depth must be >= 1, got k={k_max}")
    c = sys.c / np.linalg.norm(sys.c)
    scale = np.linalg.norm(c, 2)
    halves = _halves(sys.n, sys.mirror)
    walks = zip(*(_walk(sys, half, c, tol, scale) for half in halves))
    for k, parts in zip(range(1, k_max + 1), walks):
        if not any(m.shape[1] for m, *_ in parts):
            return
        yield _assemble(sys.n, halves, parts, k)


def compress(sys: ConstrainedSystem, k: int, tol: float = DEFAULT_NULL_TOL) -> CompressedSystem:
    """Restrict drift (and mass) to the depth-k feasible subspace (``compress_depths``).

    The basis M is orthonormal, so the left inverse is just the
    conjugate transpose.  With k = 1 this reproduces classical
    boundary bordering (deleting constrained rows and columns) up to an
    orthogonal change of basis.
    """
    for comp in compress_depths(sys, k, tol):
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
    outside itself by the drift only at the ``tol * |A|`` level; in
    that case the compressed spectrum is a subset of the drift
    spectrum.
    """

    constraint_residual: float
    invariance_residual: float
    drift_norm: float
    tol: float
    invariant: bool


def verify_decomposition(
    sys: ConstrainedSystem, comp: CompressedSystem, tol: float = 1e-10
) -> DecompositionReport:
    """Measure ``|C M|`` and ``|N* A M|`` for an orthonormal complement N of M."""
    u, _, _ = np.linalg.svd(comp.m, full_matrices=True)
    n_comp = u[:, comp.r :]
    c_res = float(np.linalg.norm(sys.c @ comp.m, 2))
    inv_res = float(np.linalg.norm(n_comp.conj().T @ (sys.a @ comp.m), 2))
    return DecompositionReport(
        constraint_residual=c_res,
        invariance_residual=inv_res,
        drift_norm=sys.drift_norm,
        tol=tol,
        invariant=bool(inv_res < tol * sys.drift_norm),
    )
