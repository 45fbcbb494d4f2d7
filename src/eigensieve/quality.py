"""Per-mode quality scores for compressed spectra.

Two scores are attached to every computed eigenpair, and both read
only the lifted eigenvector ``w = M v``.  The derivative score is the
size ``|P_k* A w|`` of the first implicit-constraint violation that the
depth-k basis leaves free; the angle score is the Grassmann distance
between the real spans of ``w`` and of its image ``A w`` under the
drift.  Well-resolved eigenmodes make both tiny; discretization
artifacts do not, which is what makes the scores usable as a screen.
``quality_report`` is the one entry point: it compresses, solves and
scores every mode of a system.

At depth k, M spans V_k, the states whose first k-1 derivatives keep
``C z = 0`` (``constrained.compress_depths``), and the next depth keeps
those whose ``A z`` lies in ``E V_k`` (``E = I`` without a mass
operator).  ``P_k`` is the orthonormal complement of ``E V_k`` that the
recursion builds for that step (``CompressedSystem.p``), so
``s_norm = |P_k* (A w)|`` is the part of the mode's derivative that
leaves the feasible subspace: the next depth's constraint violation in
the recursion's own coordinates (Wong 1974; Van Dooren 1981).  P_k is
orthonormal, so ``s_norm <= |A|_2 |w|`` at every depth, and scores of
different depths are comparable.  At k = 1 without a mass operator P_1
spans the rows of C, and the score is ``|C A w|`` for orthonormal rows;
with one, it is the part of ``A w`` outside ``E V_1``.  A score whose
squares underflow or overflow is taken again on a rescaled vector, so
a tiny score never reads 0 and a finite one never reads infinite.

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
zero-floor test is bracketed by two numbers taken once per report: the
largest column norm and the norm of the column norms (the Frobenius
norm), both overflow-safe, so a drift with entries past 1e154 still
has finite ends.  The SVD of A is computed only when some mode falls
inside the bracket, and then the comparison is the same floating-point
expression as without it.

The eigen solve takes each diagonal block of the compressed system on
its own: a mirrored system (``constrained.ConstrainedSystem.mirror``)
has two, its even and its odd half, and two solves of half the size
take about a quarter of the flops of one.  The split is an orthogonal
similarity, so it is as backward stable as the unsplit solve.  Scoring
still reads the full A, so the scores mean what they mean without a
mirror.

Scoring is a few matrix products.  ``eigenpairs`` hands over the
eigenvectors as one matrix, and ``W = M V`` is one product over one
column per conjugate pair; then, for each chunk of ``_CHUNK`` of those
columns, ``A W``, ``P_k* (A W)`` and ``E W`` are one product each, and the
norms, the zero-floor test and the angles are stacked numpy calls.  A
real operator multiplies a complex block as one float64 product on
the block's interleaved real view (``_times``), not as a complex
product with an operator cast to complex128.  ``grassmann_distance``
is a one-pair call of the same angle kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constrained import DEFAULT_NULL_TOL, CompressedSystem, ConstrainedSystem, compress
from .errors import IllConditionedMassError, UndefinedSubspaceError

__all__ = [
    "DEFAULT_THETA_THRESHOLD",
    "DEFAULT_ZERO_FLOOR",
    "DEFAULT_MASS_COND_LIMIT",
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

    Each diagonal block of the compressed system (``comp.slices``) is
    solved on its own: one block without a mirror, the even and the odd
    half with one.  A mass operator turns a block into the pencil
    problem ``lambda E_k v = A_k v``, solved here as the standard
    problem for ``E_k^(-1) A_k`` behind the guard
    ``DEFAULT_MASS_COND_LIMIT`` on the condition number of ``E_k``,
    read from the singular values of all its blocks.  ``vecs[:, i]`` is
    the eigenvector of ``lams[i]``, a unit column as LAPACK's geev
    returns it and zero outside its block, in a C-contiguous r x r
    matrix; both arrays are complex also for a real spectrum.
    Eigenvalues are sorted by real part, then by ``|Im|``.  For a real
    operator geev returns each conjugate pair side by side, its
    eigenvectors exact conjugates and the positive imaginary part
    first, and the sort moves each pair as one unit, so they stay so:
    pairs that tie on (Re, |Im|) keep geev's order of pairs, the even
    half's before the odd half's.  For a complex operator ties put
    Im >= 0 first.
    """
    parts = comp.slices
    drifts = [comp.a_k[part, part] for part in parts]
    if comp.e_k is not None:
        masses = [comp.e_k[part, part] for part in parts]
        sv = np.concatenate([np.linalg.svd(mass, compute_uv=False) for mass in masses])
        cond = np.inf if sv.min() == 0.0 else float(sv.max() / sv.min())
        if cond > DEFAULT_MASS_COND_LIMIT:
            raise IllConditionedMassError(
                f"compressed mass operator condition number {cond:.3e} "
                f"exceeds limit {DEFAULT_MASS_COND_LIMIT:.1e}"
            )
        drifts = [np.linalg.solve(mass, drift) for mass, drift in zip(masses, drifts)]
    solved = [np.linalg.eig(drift) for drift in drifts]
    # numpy returns real arrays when the whole spectrum is real
    lams = np.concatenate([lam for lam, _ in solved]).astype(complex, copy=False)
    below = lams.imag < 0
    # a pair's second half takes the position of its first
    real = all(np.isrealobj(drift) for drift in drifts)
    lead = np.arange(lams.size) - below if real else np.zeros(lams.size)
    order = np.lexsort((below, lead, np.abs(lams.imag), lams.real))
    # each block's vectors go straight to their sorted columns
    column = np.empty(lams.size, dtype=int)
    column[order] = np.arange(lams.size)
    vecs = np.zeros((comp.r, comp.r), dtype=complex)
    for part, (_, vec) in zip(parts, solved):
        vecs[part, column[part]] = vec
    return lams[order], vecs


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


def _score_modes(
    sys: ConstrainedSystem, comp: CompressedSystem, vecs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(ws, s_norm, theta, zero_mode)`` of the columns of ``vecs``, as arrays.

    Column i of ``ws`` is ``M v`` of column i, and entry i of each score
    array is its score.  The columns are scored ``_CHUNK`` at a time
    (``_score_chunk``), which bounds the stacked copies.  ``|A|_2`` lies
    between the largest column norm of A and the norm of its column
    norms; both are overflow-safe (``_norms``), taken once per report,
    and widened by 1e-10 against rounding.
    """
    ws = _times(comp.m, vecs)
    p_adj = comp.p.conj().T
    columns = _norms(sys.a)
    ends = columns.max() * (1 - 1e-10), _norms(columns[:, None])[0] * (1 + 1e-10)
    chunks = [
        _score_chunk(sys, p_adj, ws[:, start : start + _CHUNK], ends)
        for start in range(0, ws.shape[1], _CHUNK)
    ]
    s_norm, theta, zero = (np.concatenate(part) for part in zip(*chunks))
    return ws, s_norm, theta, zero


def _score_chunk(
    sys: ConstrainedSystem, p_adj: np.ndarray, ws: np.ndarray, ends: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(s_norm, theta, zero_mode)`` arrays of the columns of ``ws``, one product per operator.

    ``s_norm`` is ``|P_k* (A w)|`` with ``p_adj = P_k*``.  A zero mode has
    ``|A w| < DEFAULT_ZERO_FLOOR |A|_2 |w|``: ``ends`` bracket ``|A|_2``,
    and ``sys.drift_norm`` is computed only for a chunk that they leave
    undecided, in the same floating-point expression.  An exactly zero
    ``A w`` is a zero mode also where that floor is 0, as for a zero
    drift: it spans no subspace to take an angle to.
    """
    aws = _times(sys.a, ws)
    s_norm = _norms(_times(p_adj, aws))
    aw_norms, w_norms = _norms(aws), np.linalg.norm(ws, axis=0)
    lo, hi = (DEFAULT_ZERO_FLOOR * end * w_norms for end in ends)
    exact = aw_norms == 0.0
    zero = exact | (aw_norms < lo)
    if not np.all(zero | (aw_norms >= hi)):
        zero = exact | (aw_norms < DEFAULT_ZERO_FLOOR * sys.drift_norm * w_norms)
    theta = np.zeros(ws.shape[1])
    live = np.flatnonzero(~zero)
    lhs = ws[:, live] if sys.e is None else _times(sys.e, ws[:, live])
    theta[live] = _grassmann_distances(lhs.T, aws[:, live].T)
    return s_norm, theta, zero


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
        peak = np.abs(x[:, redo]).max(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            rescaled = peak * np.linalg.norm(x[:, redo] / np.where(peak > 0, peak, 1.0), axis=0)
        # a column holding inf or nan keeps its plain norm
        norms[redo] = np.where(np.isfinite(peak), rescaled, norms[redo])
    return norms


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
class QualityReport:
    """Scored modes sorted best-first by angle score, as arrays, plus run metadata.

    Entry i of each array belongs to mode i of the report order:
    ``lambdas`` (m,) complex128 eigenvalues, ``modes`` (m, N) whose row
    i is the lifted eigenvector ``w = M v`` of mode i, ``s_norm`` (m,)
    derivative scores, ``theta`` (m,)
    angle scores and ``zero_mode`` (m,) bool flags.
    """

    lambdas: np.ndarray
    modes: np.ndarray
    s_norm: np.ndarray
    theta: np.ndarray
    zero_mode: np.ndarray
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
    ``|P_k* A M v|`` (see the module docstring).  A mode is a zero mode when
    ``|A M v| < DEFAULT_ZERO_FLOOR |A|_2 |M v|`` or ``A M v`` is exactly 0.
    """
    return _report(sys, compress(sys, k, null_tol), null_tol)


def _report(sys: ConstrainedSystem, comp: CompressedSystem, null_tol: float) -> QualityReport:
    """The ``quality_report`` of one compressed system, whatever produced it.

    A system is real when A, C and E are.  Then an eigenvector that is
    the exact conjugate of the one before it (a twin) spans the same
    real plane: it takes its owner's scores through one index map, so
    ``W = M V`` and everything after it see one column per pair, and
    its row of ``modes`` is its owner's ``w`` conjugated in place.
    ``eigenpairs`` hands every pair over side by side, so each complex
    mode is an owner or a twin, and a twin ties with its owner on every
    sort key: the stable sort keeps it right after its owner, which is
    where ``reduction`` reads the pairs from.
    """
    lams, vecs = eigenpairs(comp)
    real = all(np.isrealobj(op) for op in (sys.a, sys.c, sys.e) if op is not None)
    twin = np.zeros(lams.size, dtype=bool)
    if real:
        twin[1:] = np.all(vecs[:, 1:] == np.conj(vecs[:, :-1]), axis=0)
    ws, s_norm, theta, zero = _score_modes(sys, comp, vecs.compress(~twin, axis=1))
    own = np.cumsum(~twin) - 1
    order = np.lexsort((np.abs(lams.real), np.abs(lams.imag), theta[own]))
    rows = own[order]
    # one sorted copy of the owners' rows, the twins conjugated in place:
    # a second copy would raise the peak memory
    modes = ws.T[rows]
    modes.imag[twin[order]] *= -1

    labels = dict(sys.labels or {})
    meta = {
        "problem": labels.get("problem"),
        "n": labels.get("n", sys.n),
        "k": comp.k,
        "r": comp.r,
        "null_tol": null_tol,
        "real_system": real,
    }
    return QualityReport(
        lambdas=lams[order],
        modes=modes,
        s_norm=s_norm[rows],
        theta=theta[rows],
        zero_mode=zero[rows],
        meta=meta,
    )
