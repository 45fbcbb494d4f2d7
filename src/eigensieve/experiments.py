"""Constraint-depth sweeps against analytic reference spectra.

Reproducible experiment drivers: match computed spectra to analytic
ladders, summarise the error per constraint depth k, and tabulate the
per-mode quality scores across depths.  Each sweep returns a table:
a dict that maps each column name, in CSV header order, to one 1-D
array, which the CLI writes as CSV or JSON without further processing.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigvals

# ``compress`` and ``quality_report`` are not called here, but
# perfbench/spans.py patches both names on this module to time its spans.
from .constrained import compress, compress_depths  # noqa: F401
from .problems import get_problem
from .quality import _report, quality_report  # noqa: F401

__all__ = [
    "MatchResult",
    "match_to_reference",
    "k_sweep",
    "k_quality_sweep",
]


@dataclass(eq=False)
class MatchResult:
    """Nearest-reference pairing of a computed spectrum.

    ``indices[i]`` is the reference eigenvalue closest to computed
    eigenvalue i in absolute distance, the reference lying on the real
    or the imaginary axis (``match_to_reference``).  Relative errors
    divide by the reference modulus, except against a zero reference
    where the absolute error is reported unchanged.
    """

    indices: np.ndarray
    abs_errors: np.ndarray
    rel_errors: np.ndarray


def match_to_reference(computed: np.ndarray, reference: np.ndarray) -> MatchResult:
    """Match each computed eigenvalue to its nearest analytic reference.

    The reference must be nonempty and lie on the real or the imaginary
    axis (every entry's imaginary part, or every real part, is 0); any
    other reference raises ``ValueError``.  Along the axis the distance
    ``np.abs(c - r)`` never falls as r moves away from the projection
    of c, rounding included, so a nearest point is one of the two cover
    points on either side of it.  Each computed eigenvalue is projected
    (exactly: one of its parts), placed among the cover's sorted
    distinct values by ``searchsorted`` and compared with the lowest
    index of each of those two neighbours; each distance is
    ``np.abs(c - r)``, as against the whole cover.  Ties go to the
    lower reference index.  The work is one sort of the cover
    (``np.unique``) and a few operations per computed eigenvalue.
    """
    computed = np.asarray(computed, dtype=complex).ravel()
    reference = np.asarray(reference, dtype=complex).ravel()
    on_real = np.all(reference.imag == 0.0)
    if not (reference.size and (on_real or np.all(reference.real == 0.0))):
        raise ValueError("reference spectrum must be nonempty, on the real or the imaginary axis")
    keys, points = (x.real if on_real else x.imag for x in (reference, computed))
    values, first = np.unique(keys, return_index=True)
    above = np.minimum(np.searchsorted(values, points), values.size - 1)
    # the lowest index of each of the nearest distinct values at or above
    # and below each projection; a tie keeps the lower of the two indices
    lo, hi = np.sort([first[above], first[np.maximum(above - 1, 0)]], axis=0)
    lo_err, hi_err = (np.abs(computed - reference[i]) for i in (lo, hi))
    idx, abs_err = np.where(hi_err < lo_err, hi, lo), np.minimum(lo_err, hi_err)
    denom = np.abs(reference[idx])
    rel_err = np.divide(abs_err, denom, out=abs_err.copy(), where=denom > 0.0)
    return MatchResult(indices=idx, abs_errors=abs_err, rel_errors=rel_err)


def _depths(problem: str, n: int, k_max: int, solve: Callable) -> Iterator[tuple]:
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
    for comp in compress_depths(sys, k_max):
        result, lams = solve(sys, comp)
        reference = prob.reference_cover(float(np.abs(lams).max()))
        yield comp.k, result, lams, reference, match_to_reference(lams, reference)


def _table(names: tuple[str, ...], depths: Iterable[tuple]) -> dict[str, np.ndarray]:
    """A table of ``names`` from each depth's pieces, given in that order, end to end.

    A piece is a scalar or a 1-D array; without depths every column is empty.
    """
    columns = list(zip(*depths)) or [[np.empty(0)]] * len(names)
    return {name: np.hstack(column) for name, column in zip(names, columns)}


def k_sweep(problem: str = "canuto", n: int = 32, k_max: int = 25) -> dict[str, np.ndarray]:
    """Sweep the constraint depth and summarise spectral errors.

    Returns the table of ``sweep-k``, one entry per depth: ``k``, the
    depth's dimension ``r``, then ``proxy_real_error``, the real-part
    error of the worst-matched mode, the quantity whose collapse
    signals that the spurious branch is gone, ``max_abs_error`` and
    ``min_abs_error`` over the matched modes, and ``max_abs_real``, the
    largest ``|Re lam|`` over all computed modes, which feeds the
    spurious-free verdict ``max_abs_real < 1e-8 |A|``.

    Stops early, with the depths done so far, if some depth leaves no
    feasible subspace at all.  Requires a problem with an analytic
    reference spectrum.  Each diagonal block of a depth's compressed
    drift (one, or the two parity halves of a mirrored system) is solved
    on its own.
    """

    def solve(sys, comp):
        lams = [eigvals(half.a_k) for half in comp.halves]
        return comp, np.concatenate(lams).astype(complex, copy=False)

    def summary(k, comp, lams, reference, match):
        errors = match.abs_errors
        worst = errors.argmax()
        proxy = abs((reference[match.indices[worst]] - lams[worst]).real)
        return k, comp.r, proxy, errors.max(), errors.min(), np.abs(lams.real).max()

    names = ("k", "r", "proxy_real_error", "max_abs_error", "min_abs_error", "max_abs_real")
    return _table(names, (summary(*depth) for depth in _depths(problem, n, k_max, solve)))


def k_quality_sweep(problem: str = "canuto", n: int = 32, k_max: int = 10) -> dict[str, np.ndarray]:
    """Full per-mode quality grid across constraint depths 1 .. k_max.

    Returns the table of ``sweep-k --grid``: each depth contributes one
    entry per computed mode, in the report's best-first order, with its
    depth ``k`` and ``rank``, the eigenvalue split into ``re_lambda``
    and ``im_lambda``, the ``abs_error`` and ``rel_error`` of
    nearest-reference matching, and the quality scores ``s_norm``,
    ``theta`` and ``zero_mode``.
    """

    def solve(sys, comp):
        report = _report(sys, comp)
        return report, report.lambdas

    names = ("k", "rank", "re_lambda", "im_lambda", "abs_error", "rel_error",
             "s_norm", "theta", "zero_mode")
    return _table(names, (
        (np.full(lams.size, k), np.arange(lams.size), lams.real, lams.imag,
         match.abs_errors, match.rel_errors, report.s_norm, report.theta, report.zero_mode)
        for k, report, lams, _, match in _depths(problem, n, k_max, solve)
    ))
