"""Constrained linear systems and nullspace compression.

``dz/dt = A z`` (or ``E dz/dt = A z``) together with the static
constraint ``0 = C z`` confines every trajectory to the nullspace of
the stacked matrix ``[C; CA; ...; C A^(k-1)]``.  This module builds
those stacks, extracts orthonormal nullspace bases, and restricts the
operators to the feasible subspace, which removes the constraints from
the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TrivialNullspaceError

__all__ = [
    "DEFAULT_NULL_TOL",
    "ConstrainedSystem",
    "ObservabilityMatrix",
    "CompressedSystem",
    "DecompositionReport",
    "observability",
    "nullspace_basis",
    "compress",
    "verify_decomposition",
]

_EPS = np.finfo(float).eps

#: Relative singular-value cutoff that sets the nullspace rank.
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


@dataclass(eq=False)
class ObservabilityMatrix:
    """Stack ``[C; CA; ...; C A^(k-1)]`` made of q-row blocks."""

    k: int
    entries: np.ndarray
    block_rows: int


def observability(sys: ConstrainedSystem, k: int) -> ObservabilityMatrix:
    """Stack the first k implicit-constraint blocks ``C A^i``.

    Block i is block i-1 right-multiplied by A, so each block is the
    exact floating-point product of its predecessor.  A safety cap of
    ``4 n`` rows refuses depths far past the point where new rows can
    add information.
    """
    if k < 1:
        raise ValueError(f"stack depth must be >= 1, got k={k}")
    cap = 4 * sys.n
    if k * sys.q >= cap:
        raise ValueError(
            f"depth k={k} stacks {k * sys.q} rows, at or above the safety cap {cap}"
        )
    blocks = [sys.c]
    for _ in range(k - 1):
        blocks.append(blocks[-1] @ sys.a)
    return ObservabilityMatrix(k=k, entries=np.vstack(blocks), block_rows=sys.q)


def _block_scaled(obs: ObservabilityMatrix) -> np.ndarray:
    """Copy of the stack with each q-row block normalised to unit norm.

    Powers of A stretch the late blocks by orders of magnitude; without
    this the rank decision sees only the largest block.  Zero blocks
    are left alone.  The nullspace itself is unchanged.
    """
    scaled = obs.entries.copy()
    q = obs.block_rows
    for i in range(obs.k):
        blk = scaled[i * q : (i + 1) * q]
        nrm = np.linalg.norm(blk)
        if nrm > 0.0:
            blk /= nrm
    return scaled


def nullspace_basis(mat: np.ndarray, tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Orthonormal nullspace basis of ``mat`` via singular value decomposition.

    Column count is the number of singular values below ``tol`` times
    the largest one, including the trailing dimensions a wide matrix
    cannot constrain.  Each column is rotated so its largest-magnitude
    entry is real and positive, making the basis reproducible across
    runs.  ``tol`` must lie strictly between 0 and 1; outside that
    range the cut keeps every direction or none, whatever ``mat`` is.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol}")
    mat = np.asarray(mat)
    if mat.size == 0:
        raise ValueError("cannot take the nullspace of an empty matrix")
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = 0 if s.size == 0 or s[0] == 0.0 else int(np.count_nonzero(s > tol * s[0]))
    return _fix_signs(vh[rank:].conj().T)


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    if basis.shape[1] == 0:
        return basis
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


def compress(sys: ConstrainedSystem, k: int, tol: float = DEFAULT_NULL_TOL) -> CompressedSystem:
    """Restrict drift (and mass) to the nullspace of the depth-k stack.

    The basis M is orthonormal, so the left inverse is just the
    conjugate transpose.  With k = 1 this reproduces classical
    boundary bordering (deleting constrained rows and columns) up to an
    orthogonal change of basis.
    """
    obs = observability(sys, k)
    basis = nullspace_basis(_block_scaled(obs), tol)
    if basis.shape[1] == 0:
        raise TrivialNullspaceError(
            f"no nonzero state satisfies the depth-{k} constraint stack; "
            "the constrained system is only solvable from zero"
        )
    m_left = basis.conj().T
    a_k = m_left @ sys.a @ basis
    e_k = None if sys.e is None else m_left @ sys.e @ basis
    return CompressedSystem(m=basis, m_left=m_left, a_k=a_k, e_k=e_k, k=k, r=basis.shape[1])


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
