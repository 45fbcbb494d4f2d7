"""Quality-ranked truncation and time simulation of compressed models.

Reduced models keep the r best-scored modes of a quality report, close
them under complex conjugation so real dynamics stay real, and evolve
the retained modal coefficients exactly.  Every model of a report is a
leading block of one factorised basis, so a sweep over retained counts
evolves all of its models in one pass: one projection, one prefix sum
of the triangular inverse, one product (``_evolve``).  A fixed-step
integrator of the full compressed system is provided as an independent
cross-check; it advances 32 steps per product after the first 32.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .chebyshev import clenshaw_curtis
from .constrained import DEFAULT_NULL_TOL
from .errors import (
    DivergenceError,
    ImaginaryResidueError,
    RankDeficientBasisError,
    ZeroReferenceError,
)
from .problems import _IC_PROFILES, acoustic_reference, acoustic_wave
from .quality import QualityReport, quality_report

__all__ = [
    "ReducedModel",
    "SimulationResult",
    "ReductionRow",
    "truncate",
    "simulate_modal",
    "simulate_rk4",
    "relative_l2_error",
    "reduction_sweep",
]


@dataclass(eq=False)
class ReducedModel:
    """Retained eigenmodes of a quality report, conjugate-closed.

    ``truncate`` makes every model.  Columns come in retention order,
    the order in which a growing retained count takes in the report's
    modes; it is report order wherever conjugate partners sit side by
    side; ``indices`` names the report position of each column.
    ``shapes`` holds the lifted mode vectors w = M v as columns, so
    modal coefficients c lift to the state ``shapes @ c``.  ``q`` and
    ``r_inv`` are a thin QR factorisation ``shapes = q R`` and the
    inverse of its triangle, so restriction is a projection onto ``q``
    and one triangular product.  The arrays are read-only leading
    blocks of arrays that every model of the report shares.
    """

    lambdas: np.ndarray
    shapes: np.ndarray
    indices: tuple[int, ...]
    q: np.ndarray
    r_inv: np.ndarray

    @property
    def size(self) -> int:
        return self.lambdas.size

    def restrict(self, state: np.ndarray) -> tuple[np.ndarray, float]:
        """Least-squares modal coefficients of a physical state.

        With ``shapes = q R``, the coefficients are ``R^-1 q^H x`` and
        the relative projection residual is ``|q q^H x - x| / |x|``, at
        O(N size) per call.  On anything in the span of the retained
        modes, ``shapes @ coeffs`` gives the state back.
        """
        b, residual = self._project(state)
        return self.r_inv @ b, residual

    def _project(self, state: np.ndarray) -> tuple[np.ndarray, float]:
        """``q^H x`` and the relative projection residual, 0 for a zero state."""
        state = np.asarray(state)
        # q^H x as conj(q^T conj(x)), without a conjugated copy of q
        b = (self.q.T @ state.conj()).conj()
        nrm = np.linalg.norm(state)
        if nrm == 0.0:
            return b, 0.0
        return b, float(np.linalg.norm(self.q @ b - state) / nrm)


def _factor(shapes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of the columns and the inverse of R by back substitution.

    Row i of R^-1 needs only the rows below it and is zero left of the
    diagonal, so a zero or tiny pivot spoils only its own column and
    those to its right: the leading s x s block of the result stays the
    inverse of R's leading block, also when the full basis is singular.
    """
    q, r = np.linalg.qr(shapes)
    r_inv = np.zeros_like(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(r.shape[0] - 1, -1, -1):
            r_inv[i, i] = 1.0 / r[i, i]
            r_inv[i, i + 1 :] = -(r[i, i + 1 :] @ r_inv[i + 1 :, i + 1 :]) / r[i, i]
    return q, r_inv


#: Retention order, model sizes, factorised basis and rank bounds of each
#: truncated report, computed on its first ``truncate`` and dropped with the report.
_RETENTION: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _retention(report: QualityReport) -> tuple:
    """``(order, sizes, lambdas, shapes, q, r_inv, bound)`` of a report.

    One walk over the report lists its modes in the order a growing r
    retains them: a mode not yet placed brings in the chain of its
    conjugate partners, partner(i) = argmin_j |lam_j - conj(lam_i)| over
    the whole report.  The distance to itself is 2|Im lam|, so a nearly
    real mode is its own partner.  The map is fixed, so the closure of
    the first r modes is that of the first r - 1 plus the chain of mode
    r - 1: every selection is a prefix of ``order``, of length
    ``sizes[r - 1]``.  The arrays hold the modes in that order and are
    read-only, since every model of the report shares them.

    Only the leading N columns are factorised: more modes than state
    entries are dependent whatever they are.  ``bound[s - 1]`` is
    |R|_F |R^-1|_F of the leading s columns, an upper bound on their
    condition number, and infinite past N.  Both factors are cumulative
    column sums: q has orthonormal columns, so a column of R has the
    norm of its column of ``shapes``, and R^-1 is upper triangular, so
    its leading block holds its leading columns whole.
    """
    cached = _RETENTION.get(report)
    if cached is not None:
        return cached
    lams = np.array([m.lam for m in report.modes])
    partner = list(range(lams.size))
    if report.meta.get("real_system", True):
        partner = np.abs(lams[None, :] - np.conj(lams)[:, None]).argmin(axis=1).tolist()
    placed = [False] * lams.size
    order, sizes = [], []
    for i in range(lams.size):
        j = i
        while not placed[j]:
            placed[j] = True
            order.append(j)
            j = partner[j]
        sizes.append(len(order))
    shapes = np.column_stack([report.modes[i].w for i in order])
    lead = shapes[:, : shapes.shape[0]]
    q, r_inv = _factor(lead)
    frob = [np.sqrt(np.cumsum(np.linalg.norm(x, axis=0) ** 2)) for x in (lead, r_inv)]
    bound = np.full(len(order), np.inf)
    bound[: lead.shape[1]] = frob[0] * frob[1]
    arrays = (lams[order], shapes, q, r_inv, bound)
    for array in arrays:
        array.flags.writeable = False
    cached = _RETENTION[report] = (tuple(order), sizes, *arrays)
    return cached


def truncate(report: QualityReport, r: int) -> ReducedModel:
    """Keep the r best-scored modes, minimally closed under conjugation.

    The report is already sorted best-first with zero modes leading, so
    selection is positional.  For real systems any retained mode with a
    genuinely complex eigenvalue pulls in its conjugate partner when the
    cut would separate them, so the actual size may exceed r by one.
    The model is a leading block of the report's retention order (see
    ``ReducedModel``): its arrays are read-only views into arrays that
    the first ``truncate`` of a report computes and every later one
    shares, so a report must not change once it has been truncated.
    Scores stay on the report: the theta of column j is
    ``report.modes[model.indices[j]].theta``.

    |R|_F |R^-1|_F bounds the condition number of the retained columns
    from above.  A model raises ``RankDeficientBasisError`` when it
    exceeds 1 / (eps max(N, size)), the cut below which least squares
    would drop a direction of the retained span.
    """
    nmodes = len(report.modes)
    if not 1 <= r <= nmodes:
        raise ValueError(f"retained count must be in 1..{nmodes}, got r={r}")
    order, sizes, lambdas, shapes, q, r_inv, bound = _retention(report)
    s = sizes[r - 1]
    limit = 1.0 / (np.finfo(float).eps * max(shapes.shape[0], s))
    if not bound[s - 1] <= limit:
        raise RankDeficientBasisError(
            f"lifted basis of {s} modes is rank deficient: "
            f"|R|_F |R^-1|_F = {bound[s - 1]:.3e} exceeds 1/(eps max(N, size)) = {limit:.3e}"
        )
    return ReducedModel(
        lambdas=lambdas[:s],
        shapes=shapes[:, :s],
        indices=order[:s],
        q=q[:, :s],
        r_inv=r_inv[:s, :s],
    )


@dataclass(eq=False)
class SimulationResult:
    """Trajectory samples of a simulated model."""

    times: np.ndarray
    states: np.ndarray
    warnings: tuple[str, ...] = ()


def _evolve(
    model: ReducedModel, x0: np.ndarray, sizes: list[int], times: np.ndarray
) -> tuple[np.ndarray, float]:
    """States of the leading ``sizes`` columns of a model: ``(states, residual)``.

    Each leading s-column block of a model is the model that
    ``truncate`` returns for size s, so one projection serves all of
    them.  b = q^H x0 is formed once, and R^-1 is upper triangular, so
    the coefficients R_s^-1 b_s of size s are column s - 1 of the
    prefix sums of ``r_inv * b`` along its rows.  One product of
    ``shapes`` with every evolved coefficient gives every state:
    ``states[i, j]`` is size ``sizes[j]`` at ``times[i]``, real.
    ``residual`` is the relative projection residual of the whole
    model.  Every size must pass the checks of ``simulate_modal``, or
    the call raises; an imaginary residue is reported for the first
    failing size in list order.
    """
    x0 = np.asarray(x0)
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")
    b, residual = model._project(x0)
    sizes = np.asarray(sizes)
    inside = np.arange(model.size) < sizes[:, None]
    coeffs = np.cumsum(model.r_inv * b, axis=1)[:, sizes - 1].T
    with np.errstate(over="ignore", invalid="ignore"):
        evolved = np.exp(np.outer(times, model.lambdas))[:, None, :] * coeffs
    # a mode outside a size adds nothing to it, also where exp(lam t) overflows
    evolved = np.where(inside, evolved, 0.0)
    if not np.all(np.isfinite(evolved)):
        raise DivergenceError(
            "a modal coefficient left the floating-point range; "
            "exp(lam t) overflows at this end time"
        )
    states = (evolved.reshape(-1, model.size) @ model.shapes.T).reshape(*evolved.shape[:2], -1)
    scale = max(float(np.linalg.norm(x0)), np.finfo(float).tiny)
    residues = np.abs(states.imag).max(axis=(0, 2), initial=0.0)
    over = np.flatnonzero(residues > 1e-9 * scale)
    if over.size:
        raise ImaginaryResidueError(
            f"imaginary residue {residues[over[0]]:.3e} exceeds 1e-9 * |x0|; "
            "retained mode set is not closed under conjugation"
        )
    return states.real, residual


def simulate_modal(
    model: ReducedModel,
    x0: np.ndarray,
    t: float | np.ndarray,
) -> SimulationResult:
    """Evolve the retained modes exactly: each coefficient by exp(lam t).

    The initial state is projected by least squares (as ``restrict``
    does); a relative projection residual above 1e-8 is recorded as a
    warning, since the model then cannot represent its own initial
    condition.  States are returned real; a residual imaginary part
    above ``1e-9 |x0|`` aborts, because it means the retained set was
    not conjugate-closed.  A coefficient ``exp(lam t)`` that overflows
    raises ``DivergenceError``, and a non-finite ``x0`` ``ValueError``.
    This is the one-model case of the kernel that ``reduction_sweep``
    runs on every retained count at once.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    states, residual = _evolve(model, x0, [model.size], times)
    warnings = ()
    if residual > 1e-8:
        warnings = (
            f"initial condition poorly represented: relative projection "
            f"residual {residual:.3e}",
        )
    return SimulationResult(times=times, states=states[:, 0], warnings=warnings)


#: Steps advanced per product once the first block is stepped; a power
#: of two, so its power of the propagator is a few squarings.
_BLOCK = 32


def simulate_rk4(
    a: np.ndarray, x0: np.ndarray, t_end: float, dt: float
) -> SimulationResult:
    """Classical fixed-step fourth-order Runge-Kutta for dx/dt = A x.

    On a linear system one RK4 step is exactly ``x <- T(hA) x`` with
    ``T(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``, so the propagator is
    formed once by Horner's rule, three N x N products and O(N^3)
    work.  The first ``_BLOCK`` steps are one mat-vec each; after them
    the propagator's ``_BLOCK``-th power, five squarings, advances the
    last ``_BLOCK`` states by ``_BLOCK`` steps in one product.  The
    step is rounded so an integer number of steps lands exactly on
    ``t_end``.  Norm growth beyond 1e6 times the initial norm aborts,
    with the time of the first step past it; a NaN norm counts as
    growth.  For the neutrally stable and damped spectra this
    integrator is used to cross-check, such growth can only mean the
    step violates the stability bound.  A non-finite ``a`` or ``x0``
    raises ``ValueError``.  States are float64 for real inputs and
    complex128 once ``a`` or ``x0`` is complex.
    """
    if t_end <= 0 or dt <= 0:
        raise ValueError("t_end and dt must be positive")
    a = np.asarray(a)
    x = np.asarray(x0)
    x = x.astype(np.result_type(a, x, float), copy=False)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
        raise ValueError("a and x0 must be finite")
    steps = max(1, int(round(t_end / dt)))
    h = t_end / steps
    limit = 1e6 * max(float(np.linalg.norm(x)), np.finfo(float).tiny)
    times = np.linspace(0.0, t_end, steps + 1)
    states = np.empty((steps + 1, x.size), dtype=x.dtype)
    states[0] = x

    def check(start: int, stop: int) -> None:
        crossed = ~(np.linalg.norm(states[start:stop], axis=1) <= limit)
        if crossed.any():
            raise DivergenceError(
                f"norm grew past 1e6x the initial state at t={times[start + crossed.argmax()]:.6g}; "
                "step size is unstable for this spectrum"
            )

    head = min(steps, _BLOCK)
    # an overflowing propagator, or states past a crossing, are caught by check
    with np.errstate(over="ignore", invalid="ignore"):
        ha = h * a
        # T(z) = 1 + z (1 + z/2 (1 + z/3 (1 + z/4)))
        prop = ha / 4.0
        for divisor in (3.0, 2.0, 1.0):
            prop.flat[:: x.size + 1] += 1.0
            prop = ha @ prop
            prop /= divisor
        prop.flat[:: x.size + 1] += 1.0
        for i in range(head):
            states[i + 1] = prop @ states[i]
        check(1, head + 1)
        if steps > head:
            for _ in range(_BLOCK.bit_length() - 1):
                prop = prop @ prop
            for start in range(head + 1, steps + 1, _BLOCK):
                stop = min(start + _BLOCK, steps + 1)
                np.matmul(states[start - _BLOCK : stop - _BLOCK], prop.T, out=states[start:stop])
                check(start, stop)
    return SimulationResult(times=times, states=states)


def relative_l2_error(approx: np.ndarray, reference: np.ndarray, weights: np.ndarray) -> float:
    """Quadrature-weighted relative L2 distance between two grid fields."""
    ref_norm = np.sqrt(np.sum(weights * np.abs(reference) ** 2))
    if ref_norm == 0.0:
        raise ZeroReferenceError("reference field has zero norm")
    diff = np.asarray(approx) - np.asarray(reference)
    return float(np.sqrt(np.sum(weights * np.abs(diff) ** 2)) / ref_norm)


@dataclass(eq=False)
class ReductionRow:
    """One retained-count sample of a reduction sweep."""

    r: int
    size: int
    rel_error: float
    theta_r: float


def reduction_sweep(
    n: int,
    ic: str,
    r_values: tuple[int, ...] | list[int],
    t_end: float = 1.0,
    *,
    null_tol: float = DEFAULT_NULL_TOL,
) -> list[ReductionRow]:
    """Error at ``t_end`` of quality-ranked reduced models of one wave run.

    Builds the pressure-pinned wave system, ranks its modes, and for
    each requested size compares the reduced pressure field against the
    modal-series solution in the quadrature-weighted relative L2 norm.
    Returns one ``ReductionRow`` per entry of ``r_values``, in order;
    counts may repeat and come in any order.  The wave problem is the
    only one with a time-domain reference.

    Every count is truncated first, in list order, so the rank guard
    raises at the first failing count before anything is evolved.  The
    models are then leading blocks of the largest one and are evolved
    together on its arrays by the kernel of ``simulate_modal``: one
    projection of the initial state, the coefficients of every model
    as prefix sums, one product for every final state.
    """
    sys = acoustic_wave(n)
    grid = sys.labels["grid"]
    # the reference rejects an unknown profile before the report is scored
    p_ref, _ = acoustic_reference(grid, ic, t_end)
    x0 = np.concatenate([_IC_PROFILES[ic](grid), np.zeros(n)])
    weights = clenshaw_curtis(n)
    report = quality_report(sys, 1, null_tol=null_tol)

    models = [truncate(report, int(r)) for r in r_values]
    if not models:
        return []
    sizes = [model.size for model in models]
    largest = models[int(np.argmax(sizes))]
    states, _ = _evolve(largest, x0, sizes, np.array([t_end], dtype=float))
    return [
        ReductionRow(
            r=int(r),
            size=size,
            rel_error=relative_l2_error(p_r, p_ref, weights),
            theta_r=report.modes[int(r) - 1].theta,
        )
        for r, size, p_r in zip(r_values, sizes, states[-1, :, :n])
    ]
