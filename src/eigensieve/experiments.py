"""Constraint-depth sweeps against analytic reference spectra.

Reproducible experiment drivers: match computed spectra to analytic
ladders, summarise the error per stack depth k, and tabulate the
per-mode quality scores across depths.  All outputs are plain rows of
floats so they serialize to CSV or JSON without further processing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals

from .constrained import compress
from .errors import TrivialNullspaceError
from .problems import get_problem
from .quality import DEFAULT_ZERO_FLOOR, quality_report

__all__ = [
    "MatchResult",
    "KSweepRow",
    "KQualityRow",
    "match_to_reference",
    "k_sweep",
    "k_quality_sweep",
]


@dataclass(eq=False)
class MatchResult:
    """Nearest-reference pairing of a computed spectrum.

    ``indices[i]`` is the reference eigenvalue closest to computed
    eigenvalue i in absolute distance.  Relative errors divide by the
    reference modulus, except against a zero reference where the
    absolute error is reported unchanged.
    """

    indices: np.ndarray
    abs_errors: np.ndarray
    rel_errors: np.ndarray


def match_to_reference(computed: np.ndarray, reference: np.ndarray) -> MatchResult:
    """Match each computed eigenvalue to its nearest analytic reference."""
    computed = np.asarray(computed, dtype=complex).ravel()
    reference = np.asarray(reference, dtype=complex).ravel()
    if reference.size == 0:
        raise ValueError("reference spectrum is empty")
    dist = np.abs(computed[:, None] - reference[None, :])
    idx = dist.argmin(axis=1)
    abs_err = dist[np.arange(computed.size), idx]
    denom = np.abs(reference[idx])
    rel_err = abs_err.copy()
    nz = denom > 0.0
    rel_err[nz] /= denom[nz]
    return MatchResult(indices=idx, abs_errors=abs_err, rel_errors=rel_err)


@dataclass(eq=False)
class KSweepRow:
    """Error summary of one stack depth.

    ``proxy_real_error`` is the real-part error of the worst-matched
    mode, the quantity whose collapse signals that the spurious branch
    is gone; ``max_abs_real`` is the largest ``|Re lam|`` over all
    computed modes and feeds the spurious-free verdict
    ``max_abs_real < 1e-8 |A|``.
    """

    k: int
    r: int
    proxy_real_error: float
    max_abs_error: float
    min_abs_error: float
    max_abs_real: float


def k_sweep(
    problem: str = "canuto",
    n: int = 32,
    k_max: int = 25,
    *,
    null_tol: float = 1e-10,
) -> list[KSweepRow]:
    """Sweep the constraint stack depth and summarise spectral errors.

    Stops early, with the rows collected so far, if some depth leaves
    no feasible subspace at all.  Requires a problem with an analytic
    reference spectrum.
    """
    prob = get_problem(problem)
    if prob.reference_cover is None:
        raise ValueError(f"problem {problem!r} has no analytic reference spectrum")
    sys = prob.build(n=n)
    rows: list[KSweepRow] = []
    for k in range(1, k_max + 1):
        try:
            comp = compress(sys, k, null_tol)
        except TrivialNullspaceError:
            break
        lams = eigvals(comp.a_k)
        reference = prob.reference_cover(float(np.abs(lams).max()))
        match = match_to_reference(lams, reference)
        worst = int(match.abs_errors.argmax())
        proxy = abs((reference[match.indices[worst]] - lams[worst]).real)
        rows.append(
            KSweepRow(
                k=k,
                r=comp.r,
                proxy_real_error=float(proxy),
                max_abs_error=float(match.abs_errors.max()),
                min_abs_error=float(match.abs_errors.min()),
                max_abs_real=float(np.abs(lams.real).max()),
            )
        )
    return rows


@dataclass(eq=False)
class KQualityRow:
    """Quality scores and matched error of one mode at one stack depth."""

    k: int
    rank: int
    lam: complex
    abs_error: float
    rel_error: float
    s_norm: float | None
    theta: float
    zero_mode: bool


def k_quality_sweep(
    problem: str = "canuto",
    n: int = 32,
    k_max: int = 10,
    *,
    null_tol: float = 1e-10,
    zero_floor: float = DEFAULT_ZERO_FLOOR,
) -> list[KQualityRow]:
    """Full per-mode quality grid across stack depths 1 .. k_max.

    Each depth contributes one row per computed mode, in the report's
    best-first order, with the eigenvalue error from nearest-reference
    matching alongside both quality scores.
    """
    prob = get_problem(problem)
    if prob.reference_cover is None:
        raise ValueError(f"problem {problem!r} has no analytic reference spectrum")
    sys = prob.build(n=n)
    rows: list[KQualityRow] = []
    for k in range(1, k_max + 1):
        try:
            report = quality_report(sys, k, null_tol=null_tol, zero_floor=zero_floor)
        except TrivialNullspaceError:
            break
        lams = np.array([m.lam for m in report.modes])
        reference = prob.reference_cover(float(np.abs(lams).max()))
        match = match_to_reference(lams, reference)
        for rank, mode in enumerate(report.modes):
            rows.append(
                KQualityRow(
                    k=k,
                    rank=rank,
                    lam=mode.lam,
                    abs_error=float(match.abs_errors[rank]),
                    rel_error=float(match.rel_errors[rank]),
                    s_norm=mode.s_norm,
                    theta=mode.theta,
                    zero_mode=mode.zero_mode,
                )
            )
    return rows
