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
model.
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
    """

    a: np.ndarray
    c: np.ndarray
    e: np.ndarray | None = None
    labels: dict | None = None

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
    exact floating-point product of its predecessor, and the last one
    has the bits of ``functools.reduce(np.matmul, [A] * (k - 1), C)``.
    Compression does not use the stack.
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


def _split(mat: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases ``(row, null)`` of the row space and nullspace of ``mat``.

    ``null`` is ``nullspace_basis(mat, tol)``; ``row`` is its orthogonal
    complement, the leading right singular vectors, without sign fixing.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol}")
    mat = np.asarray(mat)
    if mat.size == 0:
        raise ValueError("cannot take the nullspace of an empty matrix")
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = 0 if s.size == 0 or s[0] == 0.0 else int(np.count_nonzero(s > tol * s[0]))
    # a copy, not a view: a view of the rows would keep all of vh alive
    return vh[:rank].conj().T.copy(), _fix_signs(vh[rank:].conj().T)


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """``basis`` with each column rotated so its largest-magnitude entry is real and positive."""
    pivots = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])]
    return basis * (np.conj(pivots) / np.abs(pivots))[None, :]


@dataclass(eq=False)
class CompressedSystem:
    """Restriction of a constrained system to a depth-k feasible subspace."""

    m: np.ndarray
    m_left: np.ndarray
    a_k: np.ndarray
    e_k: np.ndarray | None
    k: int
    r: int


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
    ``n - r_k`` rows; with E, P is the nullspace of ``(E M_k)*``.
    Nothing past depth k is computed before depth k+1 is asked for, and
    the walk stops early once a depth leaves no state.
    """
    if k_max < 1:
        raise ValueError(f"depth must be >= 1, got k={k_max}")
    p, m = _split(sys.c / np.linalg.norm(sys.c), tol)
    a_k = m.conj().T @ sys.a @ m
    e_k = None if sys.e is None else m.conj().T @ sys.e @ m
    for k in range(1, k_max + 1):
        if k > 1:
            if sys.e is not None:
                p = nullspace_basis((sys.e @ m).conj().T, tol)
            _, s, vh = np.linalg.svd((p.conj().T @ sys.a) @ m)
            cut = int(np.count_nonzero(s > tol * sys.drift_norm))
            if sys.e is None:
                p = np.hstack([p, m @ vh[:cut].conj().T])
            n_k = _fix_signs(vh[cut:].conj().T)
            m = m @ n_k
            a_k = n_k.conj().T @ a_k @ n_k
            e_k = None if e_k is None else n_k.conj().T @ e_k @ n_k
        if m.shape[1] == 0:
            return
        yield CompressedSystem(m=m, m_left=m.conj().T, a_k=a_k, e_k=e_k, k=k, r=m.shape[1])


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
