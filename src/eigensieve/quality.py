"""Per-mode quality scores for compressed spectra.

Two scores are attached to every computed eigenpair, and both read
only the lifted eigenvector ``w = M v``.  The derivative score is the
norm ``|C A^k w|`` of the first implicit-constraint violation that the
depth-k basis leaves free; the angle score is the Grassmann distance
between the real spans of ``w`` and of its image ``A w`` under the
drift.  Well-resolved eigenmodes make both tiny; discretization
artifacts do not, which is what makes the scores usable as a screen.
``quality_report`` is the one entry point: it compresses, solves and
scores every mode of a system.

At depth k, M spans the states whose first k-1 derivatives keep
``C z = 0`` (``constrained.compress_depths``).  Without a mass operator
that is the nullspace of ``[C; C A; ...; C A^(k-1)]``, so every
``C A^i w`` with i < k vanishes up to the rank cut and the first
constraint a mode can still violate is ``C A^k w``.  It is formed as
``(C A^(k-1)) (A w)``: the row block ``C A^(k-1)``, the last block of
that stack, once per report, unscaled, so ``s_norm`` carries the
growth of ``A^k`` and compares modes of one depth, not across depths.
At k = 1 the block is C itself and the score is ``|C A w|``.  With a
mass operator the derivative is not ``A z`` and there is no ``s_norm``.

The angle is computed from sines as well as cosines of the principal
angles, so it resolves angles down to about machine precision: a
nonzero angle is not rounded to 0.  A mode whose ``A w`` is exactly
parallel to ``w`` still scores exactly 0 without being a zero mode, as
an eigenvector that is exact in floating point can.

Scores carry the rounding error of the products that form them, so a
score means something only down to its rounding floor.  For the angle
that floor is about ``eps (|A|_2 |w| / sigma_min(A w) + |E|_2 |w| /
sigma_min(E w))``, with ``E w = w`` and ``|E|_2 = 1`` without a mass
operator, where sigma_min(u) is the smallest singular value of
``[Re u, Im u]`` that the span's rank rule keeps: a nearly
one-dimensional span magnifies rounding.  The BLAS build and thread
count change how products round, so they move scores within their
floors and can reorder modes whose angles lie within each other's
floors; see the README.

Scoring does no work twice.  For a real system, an eigenvector that is
the exact conjugate of its neighbour spans the same real plane, so it
takes the neighbour's conjugated ``w`` and its scores without a
product or an SVD of its own.  The spectral norm ``|A|_2`` of the
zero-floor test is bracketed by the largest column norm and the
Frobenius norm; its SVD is computed only when some mode falls inside
the bracket, and then the comparison is the same floating-point
expression as without it.

Scoring is a few matrix products.  ``eigenpairs`` hands over the
eigenvectors as one matrix, and ``W = M V`` is one product over one
column per conjugate pair; then, for each chunk of ``_CHUNK`` of those
columns, ``A W``, ``C A W`` and ``E W`` are one product each, and the
norms, the zero-floor test and the angles are stacked numpy calls.  A
real operator multiplies a complex block as one float64 product on
the block's interleaved real view (``_times``), not as a complex
product with an operator cast to complex128.  ``grassmann_distance``
is a one-pair call of the same angle kernel.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .constrained import (
    DEFAULT_NULL_TOL,
    CompressedSystem,
    ConstrainedSystem,
    compress,
    observability,
)
from .errors import IllConditionedMassError, UndefinedSubspaceError

__all__ = [
    "DEFAULT_THETA_THRESHOLD",
    "DEFAULT_ZERO_FLOOR",
    "DEFAULT_MASS_COND_LIMIT",
    "ModeRecord",
    "QualityReport",
    "eigenpairs",
    "grassmann_distance",
    "quality_report",
]

#: Reporting convention: modes with theta at or below this count as good.
#: A convention, not a derived constant.
DEFAULT_THETA_THRESHOLD = 1e-3

#: Relative floor under which |A M v| is treated as an exact zero mode:
#: a fixed multiple of rounding, about 450 eps.
DEFAULT_ZERO_FLOOR = 1e-13

#: Condition-number guard before inverting a compressed mass operator.
DEFAULT_MASS_COND_LIMIT = 1e12

#: Columns scored per stacked call: enough to amortise the per-call
#: overhead, few enough that the stacked copies stay small.  Scoring
#: every column of acoustic n=256 in one stack lifts the peak RSS of
#: that ``analyze`` from about 96 to 112 MB.
_CHUNK = 32


def eigenpairs(comp: CompressedSystem) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of the compressed system: ``(lams, vecs)``, complex128 arrays.

    A mass operator turns this into the pencil problem
    ``lambda E_k v = A_k v``, solved here as the standard problem for
    ``E_k^(-1) A_k`` behind the guard ``DEFAULT_MASS_COND_LIMIT`` on the
    condition number of ``E_k``.  ``vecs[:, i]`` is the eigenvector of
    ``lams[i]``, a unit column as LAPACK's geev returns it, in a
    C-contiguous matrix.  Eigenvalues are ordered so complex conjugates
    sit adjacent, positive imaginary part first; both arrays are complex
    also for a real spectrum.
    """
    if comp.e_k is None:
        lams, vecs = np.linalg.eig(comp.a_k)
    else:
        sv = np.linalg.svd(comp.e_k, compute_uv=False)
        cond = np.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
        if cond > DEFAULT_MASS_COND_LIMIT:
            raise IllConditionedMassError(
                f"compressed mass operator condition number {cond:.3e} "
                f"exceeds limit {DEFAULT_MASS_COND_LIMIT:.1e}"
            )
        lams, vecs = np.linalg.eig(np.linalg.solve(comp.e_k, comp.a_k))
    # numpy returns real arrays when the whole spectrum is real
    lams = lams.astype(complex, copy=False)
    order = np.lexsort((-lams.imag, np.abs(lams.imag), lams.real))
    return lams[order], vecs.take(order, axis=1).astype(complex, copy=False)


def _times(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``op @ x`` for a complex128 block x, as one real GEMM when op is real.

    A real op multiplies the interleaved float64 view of x, whose
    columns alternate real and imaginary parts; numpy would instead
    cast op to complex128 for every product and run a complex GEMM with
    twice the flops.  A complex op takes plain ``@``.
    """
    if np.iscomplexobj(op):
        return op @ x
    return (op @ np.ascontiguousarray(x).view(float)).view(complex)


def _norm2_bracket(op: np.ndarray, exact_norm: Callable[[], float]) -> Callable:
    """Return ``below(x, scale)``: elementwise ``x < scale(|op|_2)``, ``scale`` non-decreasing.

    ``|op|_2`` lies between the largest column norm and the Frobenius
    norm.  Widened by 1e-10 against rounding, these cheap bounds decide
    every entry of x outside the scaled bracket; only if some entry
    falls inside is ``exact_norm()`` called, and the result is then
    exactly ``x < scale(exact_norm())``.
    """
    ends = np.linalg.norm(op, axis=0).max() * (1 - 1e-10), np.linalg.norm(op) * (1 + 1e-10)

    def below(x, scale):
        lo, hi = (scale(end) for end in ends)
        if np.all((x < lo) | (x >= hi)):
            return x < lo
        return x < scale(exact_norm())

    return below


def _score_modes(
    sys: ConstrainedSystem,
    comp: CompressedSystem,
    vecs: np.ndarray,
) -> list[tuple[np.ndarray, float | None, float, bool]]:
    """``(w, s_norm, theta, zero_mode)`` of each column of ``vecs``, in order.

    ``s_norm`` is None with a mass operator, whose state derivative is
    not ``A z``.  With real operators, a column that is the exact
    conjugate of the one before it spans the same real plane: it takes
    the conjugate of that mode's ``w`` and its ``s_norm``, ``theta`` and
    ``zero_mode``, so ``W = M V`` and everything after it see one column
    per pair.  The columns are scored ``_CHUNK`` at a time
    (``_score_chunk``), which bounds the stacked copies.  The row block
    ``C A^(k-1)``, the last block of ``observability(sys, k)``, is formed once.
    ``sys.drift_norm`` is computed only for a chunk that its cheap
    bracket leaves undecided.
    """
    real = all(np.isrealobj(op) for op in (comp.m, sys.a, sys.c, sys.e) if op is not None)
    c_top = None if sys.e is not None else observability(sys, comp.k).entries[-sys.q :]
    mirrored = np.zeros(vecs.shape[1], dtype=bool)
    if real:
        mirrored[1:] = np.all(vecs[:, 1:] == np.conj(vecs[:, :-1]), axis=0)
    ws = _times(comp.m, vecs.compress(~mirrored, axis=1))
    below = _norm2_bracket(sys.a, lambda: sys.drift_norm)
    scores = []
    for start in range(0, ws.shape[1], _CHUNK):
        scores += _score_chunk(sys, c_top, ws[:, start : start + _CHUNK], below)
    own = zip(ws.T, scores)
    rows = []
    for twin in mirrored.tolist():
        w, score = (np.conj(w), score) if twin else next(own)
        rows.append((w, *score))
    return rows


def _score_chunk(
    sys: ConstrainedSystem, c_top: np.ndarray | None, ws: np.ndarray, below: Callable
) -> Iterator[tuple[float | None, float, bool]]:
    """``(s_norm, theta, zero_mode)`` of each column of ``ws``, one product per operator.

    ``s_norm`` is ``|(C A^(k-1)) (A w)|`` with ``c_top = C A^(k-1)``, and
    None where ``c_top`` is None.
    """
    aws = _times(sys.a, ws)
    n = ws.shape[1]
    s_norms = [None] * n
    if c_top is not None:
        s_norms = np.linalg.norm(_times(c_top, aws), axis=0).tolist()
    w_norms = np.linalg.norm(ws, axis=0)
    zero = below(np.linalg.norm(aws, axis=0), lambda nrm: DEFAULT_ZERO_FLOOR * nrm * w_norms)
    theta = np.zeros(n)
    live = np.flatnonzero(~zero)
    if live.size:
        lhs = ws[:, live] if sys.e is None else _times(sys.e, ws[:, live])
        theta[live] = _grassmann_distances(lhs.T, aws[:, live].T)
    return zip(s_norms, theta.tolist(), zero.tolist())


def _span_bases(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked SVD bases of span{Re u, Im u} for each row of u, and their ranks.

    Each span is one- or two-dimensional: the rank counts singular
    values above 1e-13 times the largest, so a row with negligible
    imaginary part spans a line.  The basis of a row is the leading
    rank columns of its ``(N, 2)`` block.
    """
    if not np.all(np.any(u, axis=-1)):
        raise UndefinedSubspaceError("zero vector spans no subspace")
    q, s, _ = np.linalg.svd(np.stack([u.real, u.imag], -1), full_matrices=False)
    return q, np.count_nonzero(s > 1e-13 * s[:, :1], axis=-1)


def _grassmann_distances(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """``grassmann_distance`` of each row pair of two ``(B, N)`` stacks.

    Pairs are grouped by the dimensions of their two spans, (1, 1),
    (1, 2) or (2, 2), the smaller span taken as B_small whichever side
    it is on, because a stacked SVD takes one block shape.  Each group
    makes one stacked product, one stacked SVD for the cosines and one
    for the sines.
    """
    q1, r1 = _span_bases(np.asarray(u1, dtype=complex))
    q2, r2 = _span_bases(np.asarray(u2, dtype=complex))
    swap = (r1 > r2)[:, None, None]
    small_q, big_q = np.where(swap, q2, q1), np.where(swap, q1, q2)
    r_small, r_big = np.minimum(r1, r2), np.maximum(r1, r2)
    dist = np.full(len(r_small), np.nan)
    for rs, rb in ((1, 1), (1, 2), (2, 2)):
        idx = np.flatnonzero((r_small == rs) & (r_big == rb))
        if idx.size == 0:
            continue
        small, big = small_q[idx][..., :rs], big_q[idx][..., :rb]
        proj = big.swapaxes(-1, -2) @ small
        cos = np.linalg.svd(proj, compute_uv=False)
        # both come sorted descending; reversed, the sines pair with the cosines
        sin = np.linalg.svd(small - big @ proj, compute_uv=False)[:, ::-1]
        # singular values are never negative, but may round above 1
        angles = np.where(
            cos * cos >= 0.5, np.arcsin(np.minimum(sin, 1.0)), np.arccos(np.minimum(cos, 1.0))
        )
        dist[idx] = np.linalg.norm(angles, axis=-1)
    return dist


def grassmann_distance(u1: np.ndarray, u2: np.ndarray) -> float:
    """Distance between the real spans of two complex vectors.

    Each vector u spans the real subspace span{Re u, Im u} of dimension
    one or two; the distance is the root sum square of the principal
    angles between the two spans.  With orthonormal bases B_small (the
    span of lower or equal dimension) and B_big, the cosines of the
    angles are the singular values of ``B_big^T B_small`` and their
    sines those of the residual ``B_small - B_big B_big^T B_small``.
    Angles below pi/4 are taken as arcsines of the sines, the rest as
    arccosines of the cosines (Bjorck & Golub 1973; Knyazev & Argentati
    2002), so every angle is resolved to about machine precision; an
    arccosine alone rounds angles below about 1.5e-8 to 0 or to
    sqrt(k eps).  Scaling either vector by any nonzero complex number
    leaves the result unchanged.  This is a one-pair call of the kernel
    that scores whole reports.
    """
    u1, u2 = (np.asarray(u, dtype=complex).reshape(1, -1) for u in (u1, u2))
    return float(_grassmann_distances(u1, u2)[0])


@dataclass(eq=False)
class ModeRecord:
    """One scored eigenpair: eigenvalue and lifted eigenvector w = M v."""

    lam: complex
    w: np.ndarray
    s_norm: float | None
    theta: float
    zero_mode: bool


@dataclass(eq=False)
class QualityReport:
    """Modes sorted best-first by angle score, plus run metadata."""

    modes: list[ModeRecord]
    meta: dict


def quality_report(
    sys: ConstrainedSystem,
    k: int = 1,
    *,
    null_tol: float = DEFAULT_NULL_TOL,
) -> QualityReport:
    """Compress at depth k, solve for the full spectrum, score every mode.

    Modes are sorted by ascending angle score, ties broken by ascending
    ``|Im lam|`` then ``|Re lam|``.  The derivative score is
    ``|C A^k M v|`` (see the module docstring) and is omitted for
    generalized systems.  A mode is a zero mode when
    ``|A M v| < DEFAULT_ZERO_FLOOR |A|_2 |M v|``.
    """
    return _report(sys, compress(sys, k, null_tol), null_tol)


def _report(sys: ConstrainedSystem, comp: CompressedSystem, null_tol: float) -> QualityReport:
    """The ``quality_report`` of one compressed system, whatever produced it."""
    lams, vecs = eigenpairs(comp)
    records = [
        ModeRecord(lam=lam, w=w, s_norm=s_norm, theta=theta, zero_mode=zero)
        for lam, (w, s_norm, theta, zero) in zip(lams.tolist(), _score_modes(sys, comp, vecs))
    ]
    records.sort(key=lambda m: (m.theta, abs(m.lam.imag), abs(m.lam.real)))

    labels = dict(sys.labels or {})
    meta = {
        "problem": labels.get("problem"),
        "n": labels.get("n", sys.n),
        "k": comp.k,
        "r": comp.r,
        "null_tol": null_tol,
        "real_system": bool(
            np.isrealobj(sys.a) and (sys.e is None or np.isrealobj(sys.e))
        ),
    }
    return QualityReport(modes=records, meta=meta)
