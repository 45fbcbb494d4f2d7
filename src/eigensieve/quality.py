"""Per-mode quality scores for compressed spectra.

Two scores are attached to every computed eigenpair, and both read
only the eigenvector ``w = M v`` of the state space (computed in the
coordinates of its parity half, see below).  The derivative score is the
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
recursion builds for that step, kept per parity half (the ``p`` of each
of ``CompressedSystem.halves``), so ``s_norm = |P_k* (A w)|`` is the
part of the mode's derivative that leaves the feasible subspace: the
next depth's constraint violation in the recursion's own coordinates
(Wong 1974; Van Dooren 1981).  P_k is orthonormal, so
``s_norm <= |A|_2 |w|`` at every depth, and scores of different depths
are comparable.  At k = 1 without a mass operator P_1 spans the rows of
C, and the score is ``|C A w|`` for orthonormal rows; with one, it is
the part of ``A w`` outside ``E V_1``.  A score whose
squares underflow or overflow is taken again on a rescaled vector, so
a tiny score never reads 0 and a finite one never reads infinite.

The angle is computed from sines as well as cosines of the principal
angles, as an ``arctan2`` of both, so it resolves angles down to about
machine precision: a nonzero angle is not rounded to 0.  A mode whose
``A w`` is exactly parallel to ``w`` still scores exactly 0 without
being a zero mode, as an eigenvector that is exact in floating point
can.

Scores carry the rounding error of the products that form them, so a
score means something only down to its rounding floor.  For the angle
that floor is about ``eps (|A|_2 |w| / sigma_min(A w) + |E|_2 |w| /
sigma_min(E w))``, with ``E w = w`` and ``|E|_2 = 1`` without a mass
operator, where sigma_min(u) is the smallest singular value of
``[Re u, Im u]`` that the span's rank rule keeps: a nearly
one-dimensional span magnifies rounding.  The angle kernel's own
rounding stays within that floor where it is least: over 15000 random
mirrored systems, each scored once per half and once unsplit, modes
whose floor reads 2 eps (both spans lines, ``|A w| = |A|_2 |w|``)
differed by at most 2.0 eps, and every angle by at most 1.35 f.  The
BLAS build and thread count change how products round, so they move
scores within their floors and can reorder modes whose angles lie
within each other's floors; see the README.

Scoring does no work twice.  For a real system, the eigen solve hands
each conjugate pair over side by side as exact conjugates, the
positive imaginary part first, so the mode with Im lam < 0 (the twin)
spans the same real plane as the one before it: it takes that mode's
conjugated ``w`` and its scores without a product or an SVD of its
own.  The pairing is read off that layout once, and no vector is
compared to decide it.  The zero-floor test reads one number of the
drift, its largest column norm, taken once per system
(``ConstrainedSystem.drift_column_norm``) and overflow-safe, so a drift
with entries past 1e154 still has a finite floor; ``|A|_2`` itself is
never computed.

The eigen solve and scoring take each diagonal block of the
compressed system on its own: a mirrored system
(``constrained.ConstrainedSystem.mirror``) has two, its even and its
odd half, and two solves of half the size take about a quarter of the
flops of one.  The split is an orthogonal similarity, so it is as
backward stable as the unsplit solve.  A half's basis U is real and
orthonormal, and A and E commute with the mirror, so ``A U = U A_h``
and ``E U = U E_h`` with ``A_h = U^T A U``: for ``w = U w_h``, ``|A w|``,
``|P_k* A w|`` and the principal angles between the spans of ``w`` and
``A w`` are those of ``w_h`` and ``A_h w_h``, and each half is scored
in its own coordinates, on half as many rows.  Only the rounding
differs from scoring the lifted vectors with the whole A: each score
lies within a few times its rounding floor of that one.  The
zero floor is still taken on the whole A.  A system without a
mirror is the one-half case: U is the identity and ``A_h`` is A itself.

Each mode vector is stored once.  A report lifts the ``w`` of each
scored column, one per conjugate pair and per real mode of a real
system, to the state space by the call that assembles
``CompressedSystem.m`` (``CompressedSystem._lift``), whose transpose
is ``QualityReport.owners``, one row per scored column.
``QualityReport.modes``, one row per mode with each twin's row
conjugated, is gathered from them on its first read; ``reduction``
reads the owners and never builds it.
``QualityReport.rows`` is the one record of the pairing: a twin
repeats its owner's row, and ``reduction`` reads its pairs from there.

Scoring is a few matrix products.  ``eigenpairs`` hands over each
block's eigenvectors in the block's coordinates, and per half
``W_h = M_h V_h`` is one product over one column per conjugate pair;
then, for each chunk of ``_CHUNK`` of those columns, ``A_h W_h``,
``P_h* (A_h W_h)`` and ``E_h W_h`` are one product each, and the norms
and the zero-floor test are stacked numpy calls.  No angle takes an
N-row SVD: one stacked QR per chunk maps the two real spans of each
pair into R^4 (``_r4``), and one pass of 2 x 2 arithmetic over every
pair of the report takes the angles (``_angles``).  A real operator multiplies a
complex block as one float64 product on the block's interleaved real
view (``_times``), not as a complex product with an operator cast to
complex128.  ``grassmann_distance`` is a one-pair call of the same
angle kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constrained import (
    DEFAULT_NULL_TOL,
    CompressedSystem,
    ConstrainedSystem,
    _norms,
    compress,
)
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
#: a fixed multiple of rounding, about 450 eps, times the largest column
#: norm of A, a lower bound on |A|_2 that is at least |A|_2 / sqrt(n).
DEFAULT_ZERO_FLOOR = 1e-13

#: Condition-number guard before inverting a compressed mass operator.
DEFAULT_MASS_COND_LIMIT = 1e12

#: Columns scored per stacked call, so that the stacked copies stay
#: small and in cache.  Scoring each half of acoustic n=256 in one
#: pass lifts the peak RSS of that ``analyze`` by about 0.5 MB, and
#: one QR of all 128 pairs of a half takes about twice as long as four
#: of 32.
_CHUNK = 32


def eigenpairs(comp: CompressedSystem) -> tuple[np.ndarray, list[np.ndarray]]:
    """Full spectrum of the compressed system, sorted within each block: ``(lams, vecs)``.

    Each diagonal block of the compressed system (``comp.halves``) is
    solved on its own: one block without a mirror, the even and the odd
    half with one.  A mass operator turns a block into the pencil
    problem ``lambda E_k v = A_k v``, solved here as the standard
    problem for ``E_k^(-1) A_k`` behind the guard
    ``DEFAULT_MASS_COND_LIMIT`` on the condition number of ``E_k``,
    read from the singular values of all its blocks.  ``lams`` holds
    all r eigenvalues, complex128 also for a real spectrum, the blocks'
    spectra one after another, so block i's are ``lams[comp.slices[i]]``;
    each block's are sorted by real part, then by ``|Im|``.  ``vecs``
    holds one complex128 matrix per block, whose column j is the
    eigenvector of the block's eigenvalue j in the block's own
    coordinates, a unit column as LAPACK's geev returns it.  For a real
    operator geev returns each conjugate pair side by side, its
    eigenvectors exact conjugates and the positive imaginary part
    first, and the sort moves each pair as one unit, so they stay so:
    pairs that tie on (Re, |Im|) keep geev's order of pairs.  For a
    complex operator ties put Im >= 0 first.
    """
    drifts = [half.a_k for half in comp.halves]
    if comp.halves[0].e_k is not None:
        masses = [half.e_k for half in comp.halves]
        sv = np.concatenate([np.linalg.svd(mass, compute_uv=False) for mass in masses])
        cond = np.inf if sv.min() == 0.0 else float(sv.max() / sv.min())
        if cond > DEFAULT_MASS_COND_LIMIT:
            raise IllConditionedMassError(
                f"compressed mass operator condition number {cond:.3e} "
                f"exceeds limit {DEFAULT_MASS_COND_LIMIT:.1e}"
            )
        drifts = [np.linalg.solve(mass, drift) for mass, drift in zip(masses, drifts)]
    lams, vecs = [], []
    for drift in drifts:
        lam, vec = np.linalg.eig(drift)
        # numpy returns real arrays when the whole spectrum is real
        lam = lam.astype(complex, copy=False)
        below = lam.imag < 0
        # a pair's second half takes the position of its first
        lead = np.arange(lam.size) - below if np.isrealobj(drift) else np.zeros(lam.size)
        order = np.lexsort((below, lead, np.abs(lam.imag), lam.real))
        lams.append(lam[order])
        vecs.append(vec[:, order].astype(complex, copy=False))
        # the unsorted block goes before the next block's solve
        del vec
    return np.concatenate(lams), vecs


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


def _score_modes(comp: CompressedSystem, blocks: list, twin: np.ndarray, floor: float) -> tuple:
    """``(ws, s_norm, theta, zero_mode)`` of every half's scored columns.

    ``blocks`` holds each half's eigenvectors (``eigenpairs``), and a
    half's are popped and dropped once its products are taken; the
    columns of the twins (``twin``, over all modes) are not scored.
    ``ws`` holds each half's ``W_h = M_h V_h``, and entry i of each
    score array is the score of scored column i, half after half.  The
    operators are the half's: ``A_h = U^T A U``, ``E_h`` and ``P_h``,
    so ``s_norm`` is ``|P_h* (A_h w)|``.  A zero mode has ``|A w| <
    floor |w|``, with ``floor`` the zero floor of the whole drift
    (``_report``).  An exactly zero ``A w`` is a zero mode also where
    that floor is 0, as for a zero drift: it spans no subspace to take
    an angle to.  ``W_h`` is one product per half; the products after
    it and the map of each angle pair into R^4 (``_r4``) take
    ``_CHUNK`` columns at a time, and one ``_angles`` call takes the
    angles of every pair of the report.
    """
    ws, s_norm, zero, rs = [], [], [], []
    for half, part in zip(comp.halves, comp.slices):
        ws.append(_times(half.m, blocks.pop(0)[:, ~twin[part]]))
        # a half without a column to score makes one empty chunk
        for w in np.split(ws[-1], range(_CHUNK, ws[-1].shape[1], _CHUNK), axis=1):
            aw = _times(half.a, w)
            s_norm.append(_norms(_times(half.p.conj().T, aw)))
            aw_norms = _norms(aw)
            zero.append((aw_norms == 0.0) | (aw_norms < floor * np.linalg.norm(w, axis=0)))
            # a slice takes no copy
            live = ~zero[-1] if zero[-1].any() else slice(None)
            lhs = w[:, live] if half.e is None else _times(half.e, w[:, live])
            rs.append(_r4(lhs.T, aw[:, live].T))
    s_norm, zero = np.concatenate(s_norm), np.concatenate(zero)
    theta = np.zeros(zero.size)
    theta[~zero] = _angles(np.concatenate(rs, axis=-1))
    return ws, s_norm, theta, zero


def _sv2(p, q, r, s):
    """``(s1, s2, rank2, u)`` of the stacked 2 x 2 matrices ``[[p, q], [r, s]]``.

    ``s1 >= s2`` are the singular values, ``rank2`` the rank rule
    ``s2 > 1e-13 s1`` and u the unit left singular vector of s1, stored
    as the complex number ``x + iy`` of the vector ``(x, y)``; the
    transposed matrix gives the right one.  The closed form takes the
    polar angles of ``(p - s, r + q)`` and ``(p + s, r - q)`` (Blinn
    1996) as complex square roots, so a diagonal matrix gets an exact
    axis vector; a matrix whose singular vectors are not unique gets
    ``(1, 0)``.  Nothing is squared: entries up to 1 cannot overflow.
    """
    z1, z2 = (p - s) + 1j * (r + q), (p + s) + 1j * (r - q)
    u = np.sqrt(z1) * np.sqrt(z2)
    u = np.divide(u, np.abs(u), out=np.ones_like(u), where=u != 0)
    s1 = (np.abs(z1) + np.abs(z2)) / 2
    s2 = np.divide(np.abs(p * s - q * r), s1, out=np.zeros_like(s1), where=s1 > 0)
    return s1, s2, s2 > 1e-13 * s1, u


def _r4(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """``(4, 4, B)`` stack of the R of ``[Re u1, Im u1, Re u2, Im u2]``, one per row pair.

    u1 and u2 are ``(B, N)`` stacks.  One stacked QR (zero rows pad N
    up to 4) maps both real spans of a pair into R^4 by one orthogonal
    map, which keeps their principal angles; there the span of u1 lies
    in span{e1, e2}.
    """
    b, n = u1.shape
    x = np.zeros((b, 4, max(n, 4)))
    for k, part in enumerate((u1.real, u1.imag, u2.real, u2.imag)):
        x[:, k, :n] = part
    return np.linalg.qr(x.swapaxes(1, 2), mode="r").transpose(1, 2, 0)


def _angles(r: np.ndarray) -> np.ndarray:
    """Grassmann distance between the spans of columns 0, 1 and 2, 3 of each ``R`` of ``_r4``.

    All of it is 2 x 2 arithmetic (``_sv2``), the same for every pair:
    the rank rule on each span's 2 x 2 triangle, a turn of e1 and e2
    that makes a one-dimensional span1 the line of e1, an orthonormal
    basis ``Q2`` of span2 (its second column 0 if span2 is a line), and
    the principal vectors ``Q2 W``, W the right singular vectors of the
    rows of ``Q2`` inside span1.  Each principal vector's angle is the
    ``arctan2`` of its parts outside and inside span1, which resolves
    small and large angles alike.  A pair has two angles only if both
    spans are planes; otherwise only the first, that of the largest
    cosine, counts.
    """
    # each span's coordinates scaled to at most 1, where _sv2 cannot
    # overflow; a zero vector has zero coordinates
    scales = np.abs(r[:2, :2]).max(axis=(0, 1)), np.abs(r[:, 2:]).max(axis=(0, 1))
    if not (scales[0].all() and scales[1].all()):
        raise UndefinedSubspaceError("zero vector spans no subspace")
    l, y = r[:2, :2] / scales[0], r[:, 2:] / scales[1]
    _, _, plane1, u = _sv2(l[0, 0], l[0, 1], 0.0, l[1, 1])
    y[0], y[1] = u.real * y[0] + u.imag * y[1], u.real * y[1] - u.imag * y[0]
    # Gram-Schmidt gives span2's triangle [[t11, t12], [0, t22]]
    t11 = np.hypot.reduce(y[:, 0])
    e = np.divide(y[:, 0], t11, out=np.zeros_like(y[:, 0]), where=t11 > 0)
    t12 = (e * y[:, 1]).sum(axis=0)
    g1, g2, plane2, v = _sv2(t11, 0.0, t12, np.hypot.reduce(y[:, 1] - e * t12))
    qa = (v.real * y[:, 0] + v.imag * y[:, 1]) / g1
    qb = (v.real * y[:, 1] - v.imag * y[:, 0]) * np.divide(1.0, g2, out=0.0 * g2, where=plane2)
    *_, w = _sv2(qa[0], qa[1] * plane1, qb[0], qb[1] * plane1)
    p = np.stack([w.real * qa + w.imag * qb, w.real * qb - w.imag * qa], axis=1)
    inside = np.hypot(p[0], p[1] * plane1)
    angles = np.arctan2(np.hypot(np.hypot(p[1] * ~plane1, p[2]), p[3]), inside)
    return np.hypot(angles[0], angles[1] * (plane1 & plane2))


def _grassmann_distances(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """``grassmann_distance`` of each row pair of two ``(B, N)`` stacks."""
    return _angles(_r4(u1, u2))


def grassmann_distance(u1: np.ndarray, u2: np.ndarray) -> float:
    """Distance between the real spans of two complex vectors.

    Each vector u spans the real subspace span{Re u, Im u} of dimension
    one or two: two when the second singular value of ``[Re u, Im u]``
    exceeds 1e-13 times the first.  The distance is the root sum square
    of the principal angles between the two spans.  One QR of ``[Re u1,
    Im u1, Re u2, Im u2]`` maps both spans into R^4 by one orthogonal
    map, which keeps the angles (Bjorck & Golub 1973); there each angle
    is the ``arctan2`` of the parts of a principal vector of one span
    outside and inside the other, so every angle is resolved to about
    machine precision, where an arccosine alone rounds angles below
    about 1.5e-8 to 0 or to sqrt(k eps) (Knyazev & Argentati 2002).
    Scaling either vector by any nonzero complex number leaves the
    result unchanged.  This is a one-pair call of the kernel that
    scores whole reports (``_r4``, ``_angles``).

    Two vectors of different lengths, or a nan or infinite entry, raise
    ``ValueError``.
    """
    u1, u2 = (np.asarray(u, dtype=complex) for u in (u1, u2))
    if u1.size != u2.size:
        raise ValueError(f"vectors must have the same length, got shapes {u1.shape} and {u2.shape}")
    if not (np.isfinite(u1).all() and np.isfinite(u2).all()):
        raise ValueError("vectors must have finite entries")
    return float(_grassmann_distances(u1.reshape(1, -1), u2.reshape(1, -1))[0])


@dataclass(eq=False)
class QualityReport:
    """Scored modes sorted best-first by angle score, as arrays, plus run metadata.

    Entry i of each array belongs to mode i of the report order:
    ``lambdas`` (m,) complex128 eigenvalues, ``s_norm`` (m,) derivative
    scores, ``theta`` (m,) angle scores and ``zero_mode`` (m,) bool
    flags.  Each lifted eigenvector ``w = M v`` is stored once: row j of
    ``owners`` (o, N) complex128 is the ``w`` of one scored column, one
    per conjugate pair and per real mode of a real system, one per mode
    of a complex one.  ``rows`` (m,) int holds the owner row of mode i
    and is the one record of conjugate pairing.  Only the two modes of
    a conjugate pair share a row, side by side: the second (the twin)
    has its owner's ``w`` conjugated and, in a report that
    ``quality_report`` builds, Im lam < 0.  A hand-built report of a
    real system must mark each pair so, or ``reduction.truncate``
    rejects it.  ``modes`` (m, N), whose row i is the ``w`` of mode i,
    is built from them on its first read and kept, read-only.
    """

    lambdas: np.ndarray
    owners: np.ndarray
    rows: np.ndarray
    s_norm: np.ndarray
    theta: np.ndarray
    zero_mode: np.ndarray
    meta: dict

    @cached_property
    def modes(self) -> np.ndarray:
        # one gather, then the twins conjugated in place: a masked copy
        # would raise the peak memory
        modes = self.owners[self.rows]
        twin = np.r_[False, self.rows[1:] == self.rows[:-1]]
        np.negative(modes.imag, out=modes.imag, where=twin[:, None])
        modes.flags.writeable = False
        return modes


def quality_report(sys: ConstrainedSystem, k: int = 1) -> QualityReport:
    """Compress at depth k, solve for the full spectrum, score every mode.

    Every depth's rank is cut at ``DEFAULT_NULL_TOL`` (``compress_depths``),
    and ``meta["null_tol"]`` records that constant.  Modes are sorted by
    ascending angle score, ties broken by ascending ``|Im lam|`` then
    ``|Re lam|``, then ``Re lam``.  The derivative score is
    ``|P_k* A M v|`` (see the module docstring).  A mode is a zero mode when
    ``|A M v| < DEFAULT_ZERO_FLOOR a |M v|``, with a the largest column
    norm of A, taken once per system, or ``A M v`` is exactly 0.
    """
    return _report(sys, compress(sys, k))


def _report(sys: ConstrainedSystem, comp: CompressedSystem) -> QualityReport:
    """The ``quality_report`` of one compressed system, whatever produced it.

    Each half is scored in its own coordinates (``_score_modes``), and
    its block of eigenvectors is dropped as soon as it is scored.  A
    system is real when A, C and E are.  Then ``eigenpairs`` hands each
    conjugate pair over side by side in one block, Im > 0 first, with
    exact conjugate eigenvectors, so a mode with Im lam < 0 (a twin)
    spans the same real plane as the mode before it, read from the
    layout alone: it takes its owner's scores through one index map, so
    ``W_h = M_h V_h`` and everything after it see one column per pair.
    The owners are the other modes, in the order of ``lams``, block
    after block, so the owner row of mode i is the count of owners up
    to it, less one.  Each owner's ``w`` is lifted to the state space
    once (``CompressedSystem._lift``); a twin's entry of ``rows`` points
    at its owner's row, and ``QualityReport.modes`` conjugates it there.
    Each complex mode is an owner or a twin, and a twin ties with its
    owner on every sort key: the stable sort keeps it right after its
    owner, which is where ``reduction`` reads the pairs from.  Modes of
    different blocks that tie on theta, ``|Im lam|`` and ``|Re lam|``
    are ordered by ``Re lam``, as in one sort of the whole spectrum,
    and then by block.  The zero floor is ``DEFAULT_ZERO_FLOOR`` times
    the largest column norm of A, overflow-safe and taken once per
    system on the whole drift (``ConstrainedSystem.drift_column_norm``).
    """
    lams, blocks = eigenpairs(comp)
    real = all(np.isrealobj(op) for op in (sys.a, sys.c, sys.e) if op is not None)
    floor = DEFAULT_ZERO_FLOOR * sys.drift_column_norm
    # the second of each pair, right after its owner in its block
    twin = real & (lams.imag < 0)
    ws, s_norm, theta, zero = _score_modes(comp, blocks, twin, floor)
    owners = comp._lift(ws).T
    # owner rows follow lams; own[i] is the row of mode i's owner
    own = np.cumsum(~twin) - 1
    order = np.lexsort((lams.real, np.abs(lams.real), np.abs(lams.imag), theta[own]))
    rows = own[order]

    labels = dict(sys.labels or {})
    meta = {
        "problem": labels.get("problem"),
        "n": labels.get("n", sys.n),
        "k": comp.k,
        "r": comp.r,
        "null_tol": DEFAULT_NULL_TOL,
        "real_system": real,
    }
    return QualityReport(
        lambdas=lams[order],
        owners=owners,
        rows=rows,
        s_norm=s_norm[rows],
        theta=theta[rows],
        zero_mode=zero[rows],
        meta=meta,
    )
