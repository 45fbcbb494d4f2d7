"""Per-mode quality scores for compressed spectra.

Two scores are attached to every computed eigenpair.  The derivative
score is the norm of the first implicit-constraint violation
``|C A M v|``; the angle score is the Grassmann distance between the
real spans of the lifted eigenvector and of its image under the drift.
Well-resolved eigenmodes make both tiny; discretization artifacts do
not, which is what makes the scores usable as a screen.

Scores are bit-for-bit reproducible for a fixed BLAS build and thread
count.  The thread count changes how products round, and the arccos
floor of the angle (about 1.5e-8) can turn that into different
near-zero scores and mode order; see the README.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig

from .constrained import CompressedSystem, ConstrainedSystem, compress
from .errors import (
    GeneralizedUnsupportedError,
    IllConditionedMassError,
    UndefinedSubspaceError,
)

__all__ = [
    "DEFAULT_THETA_THRESHOLD",
    "DEFAULT_ZERO_FLOOR",
    "DEFAULT_MASS_COND_LIMIT",
    "ModeRecord",
    "QualityReport",
    "eigenpairs",
    "derivative_violation",
    "grassmann_distance",
    "mode_angle",
    "quality_report",
]

#: Reporting convention: modes with theta at or below this are labelled good.
#: A convention, not a derived constant; override per call or per run.
DEFAULT_THETA_THRESHOLD = 1e-3

#: Relative floor under which |A M v| is treated as an exact zero mode.
DEFAULT_ZERO_FLOOR = 1e-13

#: Condition-number guard before inverting a compressed mass operator.
DEFAULT_MASS_COND_LIMIT = 1e12


def eigenpairs(
    comp: CompressedSystem, mass_cond_limit: float = DEFAULT_MASS_COND_LIMIT
) -> list[tuple[complex, np.ndarray]]:
    """Full spectrum of the compressed system with unit eigenvectors.

    A mass operator turns this into the pencil problem
    ``lambda E_k v = A_k v``, solved here as the standard problem for
    ``E_k^(-1) A_k`` behind a condition-number guard.  Pairs are ordered
    so complex conjugates sit adjacent, positive imaginary part first.
    """
    if comp.e_k is None:
        lams, vecs = eig(comp.a_k)
    else:
        sv = np.linalg.svd(comp.e_k, compute_uv=False)
        cond = np.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
        if cond > mass_cond_limit:
            raise IllConditionedMassError(
                f"compressed mass operator condition number {cond:.3e} "
                f"exceeds limit {mass_cond_limit:.1e}"
            )
        lams, vecs = eig(np.linalg.solve(comp.e_k, comp.a_k))
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    order = np.lexsort((-lams.imag, np.abs(lams.imag), lams.real))
    return [(complex(lams[i]), vecs[:, i]) for i in order]


def derivative_violation(
    sys: ConstrainedSystem, comp: CompressedSystem, v: np.ndarray
) -> float:
    """Norm of the first implicit-constraint violation ``|C A M v|``.

    Defined only without a mass operator: the state derivative of a
    generalized system is not ``A z``, so this score does not apply
    there.
    """
    if sys.e is not None:
        raise GeneralizedUnsupportedError(
            "derivative score needs dz/dt = A z; not defined with a mass operator"
        )
    ((_, s_norm, _, _),) = _score_modes(sys, comp, [np.asarray(v)], None)
    return s_norm


def _promoted(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    # the cast numpy's matmul makes of a mixed-dtype operand on every call
    dtype = np.result_type(op, x)
    return op if op.dtype == dtype else op.astype(dtype, order="C")


def _score_modes(
    sys: ConstrainedSystem,
    comp: CompressedSystem,
    vs: list[np.ndarray],
    zero_floor: float | None,
) -> Iterator[tuple[np.ndarray, float | None, float | None, bool | None]]:
    """Yield ``(w, s_norm, theta, zero_mode)`` for compressed vectors of one dtype.

    A real operator times a complex vector makes numpy cast the whole
    operator to a fresh C-ordered copy on every product.  Here M and A
    are cast once each, the same way, and ``A w`` is formed once per
    mode for both scores, so every score is bit-identical to the
    one-mode-at-a-time products.  Without a ``zero_floor`` the angle is
    skipped.
    """
    m = _promoted(comp.m, vs[0])
    ws = [m @ v for v in vs]
    del m  # release the promoted basis before promoting the drift
    a = _promoted(sys.a, ws[0])
    for w in ws:
        aw = a @ w
        s_norm = None if sys.e is not None else float(np.linalg.norm(sys.c @ aw))
        if zero_floor is None:
            yield w, s_norm, None, None
        elif np.linalg.norm(aw) < zero_floor * sys.drift_norm * np.linalg.norm(w):
            yield w, s_norm, 0.0, True
        else:
            lhs = w if sys.e is None else sys.e @ w
            yield w, s_norm, grassmann_distance(lhs, aw), False


def _real_span_basis(u: np.ndarray, rtol: float = 1e-13) -> np.ndarray:
    """Orthonormal basis of span{Re u, Im u} as a real subspace.

    Vectors with negligible imaginary part (below ``rtol`` relative)
    collapse to a one-dimensional span.
    """
    u = np.asarray(u, dtype=complex).ravel()
    if not np.any(u):
        raise UndefinedSubspaceError("zero vector spans no subspace")
    q, s, _ = np.linalg.svd(np.column_stack([u.real, u.imag]), full_matrices=False)
    rank = int(np.count_nonzero(s > rtol * s[0]))
    return q[:, :rank]


def grassmann_distance(u1: np.ndarray, u2: np.ndarray) -> float:
    """Distance between the real spans of two complex vectors.

    Each vector u spans the real subspace span{Re u, Im u} of dimension
    one or two.  Principal angles are the arccosines of the singular
    values of the product of the orthonormal bases, clamped to [0, 1]
    first; the distance is the root sum square of the angles.  Scaling
    either vector by any nonzero complex number leaves the result
    unchanged.
    """
    b1, b2 = _real_span_basis(u1), _real_span_basis(u2)
    sig = np.linalg.svd(b1.T @ b2, compute_uv=False)
    angles = np.arccos(np.clip(sig, 0.0, 1.0))
    return float(np.sqrt(np.dot(angles, angles)))


def mode_angle(
    sys: ConstrainedSystem,
    comp: CompressedSystem,
    v: np.ndarray,
    zero_floor: float = DEFAULT_ZERO_FLOOR,
) -> tuple[float, bool]:
    """Grassmann score of one compressed eigenvector.

    Compares span{M v} against span{A M v}; with a mass operator the
    left side becomes span{E M v}.  When ``|A M v|`` sits at the noise
    floor ``zero_floor * |A| * |M v|`` the pair belongs to a zero
    eigenvalue and the angle is meaningless, so the mode is flagged and
    scored 0 instead.
    """
    ((_, _, theta, zero),) = _score_modes(sys, comp, [np.asarray(v)], zero_floor)
    return theta, zero


@dataclass(eq=False)
class ModeRecord:
    """One scored eigenpair: compressed vector v, lifted vector w = M v."""

    lam: complex
    v: np.ndarray
    w: np.ndarray
    s_norm: float | None
    theta: float
    zero_mode: bool


@dataclass(eq=False)
class QualityReport:
    """Modes sorted best-first by angle score, plus run metadata.

    ``multiplicity_flags`` marks modes whose eigenvalue lies within
    ``1e-8 |A_k|`` of another one; the single-pair angle can understate
    the defect for such clusters, so they are flagged rather than
    scored jointly.
    """

    modes: list[ModeRecord]
    meta: dict
    multiplicity_flags: np.ndarray


def quality_report(
    sys: ConstrainedSystem,
    k: int = 1,
    *,
    null_tol: float = 1e-10,
    zero_floor: float = DEFAULT_ZERO_FLOOR,
    theta_threshold: float = DEFAULT_THETA_THRESHOLD,
    mass_cond_limit: float = DEFAULT_MASS_COND_LIMIT,
) -> QualityReport:
    """Compress at depth k, solve for the full spectrum, score every mode.

    Modes are sorted by ascending angle score, ties broken by ascending
    ``|Im lam|`` then ``|Re lam|``.  The derivative score is omitted for
    generalized systems.
    """
    comp = compress(sys, k, null_tol)
    pairs = eigenpairs(comp, mass_cond_limit)
    records = [
        ModeRecord(lam=lam, v=v, w=w, s_norm=s_norm, theta=theta, zero_mode=zero)
        for (lam, v), (w, s_norm, theta, zero) in zip(
            pairs, _score_modes(sys, comp, [v for _, v in pairs], zero_floor)
        )
    ]
    records.sort(key=lambda m: (m.theta, abs(m.lam.imag), abs(m.lam.real)))

    lams = np.array([m.lam for m in records])
    dists = np.abs(lams[:, None] - lams[None, :])
    np.fill_diagonal(dists, np.inf)
    flags = dists.min(axis=1) < 1e-8 * np.linalg.norm(comp.a_k, 2)

    labels = dict(sys.labels or {})
    meta = {
        "problem": labels.get("problem"),
        "n": labels.get("n", sys.n),
        "k": k,
        "r": comp.r,
        "null_tol": null_tol,
        "zero_floor": zero_floor,
        "theta_threshold": theta_threshold,
        "theta_threshold_note": "reporting convention, not a derived constant",
        "real_system": bool(
            np.isrealobj(sys.a) and (sys.e is None or np.isrealobj(sys.e))
        ),
    }
    return QualityReport(modes=records, meta=meta, multiplicity_flags=flags)
