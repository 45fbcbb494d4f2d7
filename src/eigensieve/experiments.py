"""Constraint-depth sweeps against analytic reference spectra.

Reproducible experiment drivers: match computed spectra to analytic
ladders, summarise the error per constraint depth k, and tabulate the
per-mode quality scores across depths.  All outputs are plain rows of
floats so they serialize to CSV or JSON without further processing.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigvals

# ``compress`` and ``quality_report`` are not called here, but
# perfbench/spans.py patches both names on this module to time its spans.
from .constrained import DEFAULT_NULL_TOL, compress, compress_depths  # noqa: F401
from .problems import get_problem
from .quality import _report, quality_report  # noqa: F401

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


def _depths(problem: str, n: int, k_max: int, null_tol: float, solve: Callable) -> Iterator[tuple]:
    """Walk depths 1 .. k_max of a problem with an analytic reference, in one pass.

    ``solve(sys, comp)`` returns a depth's result and its computed
    eigenvalues; each depth yields ``(k, result, lams, reference, match)``
    with the eigenvalues matched to a reference cover of their modulus.
    Each depth is compressed from the one before (``compress_depths``),
    and the walk stops early, with the depths done so far, once some
    depth leaves no feasible subspace at all.
    """
    prob = get_problem(problem)
    if prob.reference_cover is None:
        raise ValueError(f"problem {problem!r} has no analytic reference spectrum")
    sys = prob.build(n=n)
    for comp in compress_depths(sys, k_max, null_tol):
        result, lams = solve(sys, comp)
        reference = prob.reference_cover(float(np.abs(lams).max()))
        yield comp.k, result, lams, reference, match_to_reference(lams, reference)


@dataclass(eq=False)
class KSweepRow:
    """Error summary of one constraint depth.

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
    null_tol: float = DEFAULT_NULL_TOL,
) -> list[KSweepRow]:
    """Sweep the constraint depth and summarise spectral errors.

    Stops early, with the rows collected so far, if some depth leaves
    no feasible subspace at all.  Requires a problem with an analytic
    reference spectrum.  Each diagonal block of a depth's compressed
    drift (one, or the two parity halves of a mirrored system) is solved
    on its own.
    """

    def solve(sys, comp):
        lams = [eigvals(comp.a_k[part, part]) for part in comp.slices]
        return comp, np.concatenate(lams).astype(complex, copy=False)

    rows: list[KSweepRow] = []
    for k, comp, lams, reference, match in _depths(problem, n, k_max, null_tol, solve):
        errors = match.abs_errors
        worst = int(errors.argmax())
        proxy = abs((reference[match.indices[worst]] - lams[worst]).real)
        rows.append(KSweepRow(
            k=k, r=comp.r, proxy_real_error=float(proxy),
            max_abs_error=float(errors.max()), min_abs_error=float(errors.min()),
            max_abs_real=float(np.abs(lams.real).max()),
        ))
    return rows


@dataclass(eq=False)
class KQualityRow:
    """Quality scores and matched error of one mode at one constraint depth."""

    k: int
    rank: int
    lam: complex
    abs_error: float
    rel_error: float
    s_norm: float
    theta: float
    zero_mode: bool


def k_quality_sweep(
    problem: str = "canuto",
    n: int = 32,
    k_max: int = 10,
    *,
    null_tol: float = DEFAULT_NULL_TOL,
) -> list[KQualityRow]:
    """Full per-mode quality grid across constraint depths 1 .. k_max.

    Each depth contributes one row per computed mode, in the report's
    best-first order, with the eigenvalue error from nearest-reference
    matching alongside both quality scores.
    """

    def solve(sys, comp):
        report = _report(sys, comp, null_tol)
        return report, report.lambdas

    rows = []
    for k, report, lams, _, match in _depths(problem, n, k_max, null_tol, solve):
        columns = zip(
            lams.tolist(), match.abs_errors.tolist(), match.rel_errors.tolist(),
            report.s_norm.tolist(), report.theta.tolist(), report.zero_mode.tolist(),
        )
        rows.extend(KQualityRow(k, rank, *values) for rank, values in enumerate(columns))
    return rows
