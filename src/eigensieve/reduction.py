"""Quality-ranked truncation and time simulation of compressed models.

Reduced models keep the r best-scored modes of a quality report, close
them under complex conjugation so real dynamics stay real, and evolve
the retained modal coefficients exactly.  A real system's report holds
each conjugate pair side by side (``quality.eigenpairs``), the second
mode marked by repeating its owner's entry of ``QualityReport.rows``,
so closure reads the pairs from ``rows`` and takes at most the one
mode after the cut.  Every model of a report is a leading block of
one factorised basis, so a sweep over retained counts evolves all of
its models in one pass: one projection, one prefix sum of the
triangular inverse, one product (``_evolve``).  A real system is
reduced in real arithmetic: each exact conjugate pair (w, conj(w)) is
held as the real columns sqrt(2) [Re w, Im w] and evolved as a 2 x 2
rotation-scaling block, so the factorisation, the projection and the
final product are float64.  A fixed-step integrator of the full
compressed system is provided as an independent cross-check; it
integrates each diagonal block of the drift that no entry couples to
the rest on its own, and advances 32 steps per product after the first
32.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass

import numpy as np

from .chebyshev import clenshaw_curtis
from .errors import DivergenceError, RankDeficientBasisError, ZeroReferenceError
from .problems import _IC_PROFILES, _REFERENCE_MODES, acoustic_reference, acoustic_wave
from .quality import QualityReport, quality_report

__all__ = [
    "ReducedModel",
    "SimulationResult",
    "truncate",
    "simulate_modal",
    "simulate_rk4",
    "relative_l2_error",
    "reduction_sweep",
]


@dataclass(eq=False)
class ReducedModel:
    """Retained eigenmodes of a quality report, conjugate-closed.

    ``truncate`` makes every model.  Column j is mode j of the report,
    so its theta is ``report.theta[j]`` and its lifted mode vector
    w = M v is ``report.modes[j]``; the model keeps no copy of the
    vectors.  ``lambdas`` holds the eigenvalue of each column.

    ``basis`` holds the columns that the model factorises and evolves.
    For a real system, whose modes are exact conjugate pairs
    (w, conj(w)) side by side and real modes, it is float64: the pair
    at columns j, j + 1 becomes sqrt(2) Re w and sqrt(2) Im w, w the
    vector of column j, and a real mode keeps its w.  ``mates[j]`` is
    the other column of j's pair, j itself for a real mode.  The
    sqrt(2) makes each pair block a unitary image of [w, conj(w)], so
    every leading block of ``basis`` has the singular values of the
    same columns of ``report.modes.T``.  For a complex system ``basis``
    is those columns and ``mates`` is None: a system is real exactly
    when ``mates`` is set.
    ``q`` and ``r_inv`` are a thin QR factorisation ``basis = q R`` and
    the inverse of its triangle, so restriction is a projection onto
    ``q`` and one triangular product.  The arrays are read-only leading
    blocks of arrays that every model of the report shares.
    """

    lambdas: np.ndarray
    q: np.ndarray
    r_inv: np.ndarray
    basis: np.ndarray
    mates: np.ndarray | None

    @property
    def size(self) -> int:
        return self.lambdas.size

    def restrict(self, state: np.ndarray) -> tuple[np.ndarray, float]:
        """Least-squares modal coefficients of a physical state: ``(coeffs, residual)``.

        With ``basis = q R``, the coefficients of ``basis`` are
        ``R^-1 q^H x`` and the relative projection residual is
        ``|q q^H x - x| / |x|``, at O(N size) per call.  A pair's real
        coefficients (a, b) are those of w and conj(w) as
        (a -+ ib) / sqrt(2), so ``coeffs`` are the complex128
        coefficients of the retained modes ``report.modes[:size]``: on
        anything in their span, ``report.modes[:size].T @ coeffs``
        gives the state back.
        """
        b, residual = self._project(state)
        coeffs = (self.r_inv @ b).astype(complex)
        if self.mates is not None:
            own = np.arange(self.size)
            # +1 at the first column of a pair, -1 at its second, 0 at a real mode
            turn = np.sign(self.mates - own)
            lo, hi = coeffs[np.minimum(own, self.mates)], coeffs[np.maximum(own, self.mates)]
            coeffs = np.where(turn == 0, coeffs, (lo - 1j * turn * hi) / np.sqrt(2.0))
        return coeffs, residual

    def _project(self, state: np.ndarray) -> tuple[np.ndarray, float]:
        """``q^H x`` and the relative projection residual, 0 for a zero state."""
        state = np.asarray(state)
        # q^H x as conj(q^T conj(x)), without a conjugated copy of q
        b = (self.q.T @ state.conj()).conj()
        nrm = np.linalg.norm(state)
        if nrm == 0.0:
            return b, 0.0
        return b, float(np.linalg.norm(self.q @ b - state) / nrm)


def _factor(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of the columns and the inverse of R by recursive block halving.

    The inverse of [[R11, R12], [0, R22]] is
    [[R11^-1, -R11^-1 R12 R22^-1], [0, R22^-1]].  R is padded with the
    identity to a power-of-two order, so that the halving recursion
    reaches 1 x 1 blocks everywhere at once, and the recursion is
    evaluated level by level from those blocks up: each level joins
    adjacent pairs of inverted diagonal blocks by that formula, all
    pairs of a level in two stacked products, so the whole inverse
    takes 2 log2(order) products and no Python loop over rows.  Column
    j of the joined corner reads column j of R22^-1
    and all of R11^-1, so a zero or tiny pivot spoils only its own
    column and those to its right: the leading s x s block of the result
    stays the inverse of R's leading block, also when the full basis is
    singular.
    """
    q, r = np.linalg.qr(basis)
    n = r.shape[0]
    order = 1 << (n - 1).bit_length()
    padded = np.eye(order, dtype=r.dtype)
    padded[:n, :n] = r
    inv = np.zeros_like(padded)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.fill_diagonal(inv, 1.0 / np.diagonal(padded))
        half = 1
        while half < order:
            pairs = np.arange(order // (2 * half))
            x, t = (m.reshape(pairs.size, 2 * half, pairs.size, 2 * half) for m in (inv, padded))
            corner = x[pairs, :half, pairs, :half] @ t[pairs, :half, pairs, half:]
            x[pairs, :half, pairs, half:] = -(corner @ x[pairs, half:, pairs, half:])
            half *= 2
    return q, np.ascontiguousarray(inv[:n, :n])


#: Model sizes, the model of every retained mode and the rank bounds of
#: each truncated report, computed on its first ``truncate`` and dropped
#: with the report.
_RETENTION: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _retention(report: QualityReport) -> tuple[np.ndarray, ReducedModel, np.ndarray]:
    """``(sizes, model, bound)`` of a report.

    ``model`` holds every mode of the report, in report order; each
    model ``truncate`` returns is a leading block of it, of size
    ``sizes[r - 1]`` for r retained modes.  Its arrays are read-only,
    since every model of the report shares them.

    The report records its pairs in ``rows``: mode i is the second
    half of a pair (a twin) when ``rows[i] == rows[i - 1]``, and its w
    is then its owner's conjugated, so no vector is compared.  In a
    real system a twin must also have Im lam_i < 0 and lam_i the exact
    conjugate of lam_(i-1), the same bits up to the sign of the
    imaginary part, as ``quality._report`` hands them over.  Every
    other mode must be the first half of a pair or have an exactly real
    lam and w, or the report is malformed and raises ``ValueError``
    naming the first such mode: a hand-built report of a real system
    must mark each pair's second mode by repeating its owner's row, and
    an exact conjugate pair that ``rows`` does not mark is no pair.  A
    cut before a second half takes it in, so ``sizes[r - 1]`` is r, or
    r + 1 when mode r is one.  The basis is then real (see
    ``ReducedModel``).  A complex system pairs nothing:
    ``sizes[r - 1]`` is r and the basis is complex.

    Only the leading N columns are factorised: more modes than state
    entries are dependent whatever they are.  ``bound[s - 1]`` is
    |R|_F |R^-1|_F of the leading s columns, an upper bound on their
    condition number, and infinite past N.  Both factors are cumulative
    column sums: q has orthonormal columns, so a column of R has the
    norm of its column of the basis, and R^-1 is upper triangular, so
    its leading block holds its leading columns whole.  At every size
    that ends between two pairs, the real basis has the bound of the
    complex one in exact arithmetic.
    """
    cached = _RETENTION.get(report)
    if cached is not None:
        return cached
    lams = report.lambdas.copy()
    # the C-ordered columns of modes.T (GEMM rounds a transposed operand
    # differently), gathered without building modes; a twin shares its
    # owner's row, right after it, and a product with -1 conjugates it
    # exactly, faster than a negation masked column by column
    rows = report.rows
    twin = rows[1:] == rows[:-1]
    basis = np.take(report.owners.T, rows, axis=1)
    basis.imag[:, 1:] *= np.where(twin, -1.0, 1.0)
    own = np.arange(lams.size)
    # second[i]: mode i is the second half of a pair; second[m] stays False
    second = np.zeros(lams.size + 1, dtype=bool)
    mates = None
    if report.meta.get("real_system", True):
        second[1:-1] = twin & (lams.imag[1:] < 0) & (lams[1:] == lams[:-1].conj())
        first = second[1:]
        real = (lams.imag == 0) & ~np.any(basis.imag, axis=0)
        placed = second[:-1] | first | real
        if not placed.all():
            raise ValueError(
                f"mode {int(placed.argmin())} of a real system is complex but not half "
                "of a pair: each complex mode must sit next to its exact conjugate"
            )
        mates = own + first - second[:-1]
        # the second column of a pair holds sqrt(2) Im w of the first: -Im of its own
        basis = np.where(second[:-1], -basis.imag, basis.real)
        basis *= np.where(real, 1.0, np.sqrt(2.0))
    sizes = own + 1 + second[1:]
    lead = basis[:, : basis.shape[0]]
    q, r_inv = _factor(lead)
    frob = [np.sqrt(np.cumsum(np.linalg.norm(x, axis=0) ** 2)) for x in (lead, r_inv)]
    bound = np.full(lams.size, np.inf)
    bound[: lead.shape[1]] = frob[0] * frob[1]
    for array in (lams, basis, q, r_inv, bound, mates):
        if array is not None:
            array.flags.writeable = False
    model = ReducedModel(lambdas=lams, q=q, r_inv=r_inv, basis=basis, mates=mates)
    cached = _RETENTION[report] = (sizes, model, bound)
    return cached


def truncate(report: QualityReport, r: int) -> ReducedModel:
    """Keep the r best-scored modes, minimally closed under conjugation.

    The report is already sorted best-first with zero modes leading, so
    selection is positional.  A real system's report holds each
    conjugate pair side by side, its second mode marked by repeating
    its owner's entry of ``report.rows``, so a cut between the two
    halves of a pair takes in the second, and the size may exceed r by
    one.  The model's column j is mode j of the report (see
    ``ReducedModel``): its arrays are read-only views into arrays that
    the first ``truncate`` of a report computes and every later one
    shares, so a report must not change once it has been truncated.  Scores stay on
    the report: the theta of column j is ``report.theta[j]``.

    |R|_F |R^-1|_F bounds the condition number of the retained columns
    from above.  A model raises ``RankDeficientBasisError`` when it
    exceeds 1 / (eps max(N, size)), the cut below which least squares
    would drop a direction of the retained span.  A retained count
    that is not an integer raises ``TypeError``, one outside 1..m
    ``ValueError``, and so does a real system's report with a complex
    mode that ``rows`` does not pair with its exact conjugate.
    """
    try:
        r = operator.index(r)
    except TypeError:
        raise TypeError(f"retained count must be an integer, got r={r!r}") from None
    nmodes = report.lambdas.size
    if not 1 <= r <= nmodes:
        raise ValueError(f"retained count must be in 1..{nmodes}, got r={r}")
    sizes, full, bound = _retention(report)
    s = int(sizes[r - 1])
    limit = 1.0 / (np.finfo(float).eps * max(full.basis.shape[0], s))
    if not bound[s - 1] <= limit:
        raise RankDeficientBasisError(
            f"lifted basis of {s} modes is rank deficient: "
            f"|R|_F |R^-1|_F = {bound[s - 1]:.3e} exceeds 1/(eps max(N, size)) = {limit:.3e}"
        )
    return ReducedModel(
        lambdas=full.lambdas[:s],
        q=full.q[:, :s],
        r_inv=full.r_inv[:s, :s],
        basis=full.basis[:, :s],
        mates=None if full.mates is None else full.mates[:s],
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
    prefix sums of ``r_inv * b`` along its rows.  A column of a complex
    basis evolves by exp(lam t).  On a real basis, a pair with
    lam = alpha + i beta at its first column j and conj(lam) at its mate
    m turns its coefficients (c_j, c_m) by the block
    e^(alpha t) [[cos beta t, sin beta t], [-sin beta t, cos beta t]]:
    column j takes ``Re exp(lam_j t) c_j + Im exp(lam_j t) c_m``, and
    column m the same with j and m swapped.  A real mode is its own mate
    with a zero imaginary part.  One product of ``basis`` with every evolved
    coefficient gives every state: ``states[i, j]`` is size
    ``sizes[j]`` at ``times[i]``, float64 for a real basis and a real
    ``x0``.  ``residual`` is the relative projection residual of the
    whole model.  Every size must pass the checks of ``simulate_modal``,
    or the call raises.
    """
    x0 = np.asarray(x0)
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    b, residual = model._project(x0)
    sizes = np.asarray(sizes)
    inside = np.arange(model.size) < sizes[:, None]
    coeffs = np.cumsum(model.r_inv * b, axis=1)[:, sizes - 1].T
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.exp(np.outer(times, model.lambdas))[:, None, :]
        if model.mates is None:
            evolved = growth * coeffs
        else:
            evolved = growth.real * coeffs + growth.imag * coeffs[:, model.mates]
    # a mode outside a size adds nothing to it, also where exp(lam t) overflows
    evolved = np.where(inside, evolved, 0.0)
    if not np.all(np.isfinite(evolved)):
        raise DivergenceError(
            "a modal coefficient left the floating-point range; "
            "exp(lam t) overflows at this end time"
        )
    states = (evolved.reshape(-1, model.size) @ model.basis.T).reshape(*evolved.shape[:2], -1)
    return states, residual


def simulate_modal(
    model: ReducedModel,
    x0: np.ndarray,
    t: float | np.ndarray,
) -> SimulationResult:
    """Evolve the retained modes exactly: each coefficient by exp(lam t).

    The initial state is projected by least squares (as ``restrict``
    does); a relative projection residual above 1e-8 is recorded as a
    warning, since the model then cannot represent its own initial
    condition.  States are float64 for a model of a real system and a
    real ``x0``, complex128 otherwise: a complex system evolves to
    complex states by right.  A real system evolves in real arithmetic
    (see ``_evolve``), so its states are real by construction.  A
    coefficient ``exp(lam t)`` that overflows raises
    ``DivergenceError``, and a non-finite ``x0`` or ``t``
    ``ValueError``.  This is the one-model case of the kernel that
    ``reduction_sweep`` runs on every retained count at once.
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


#: Steps advanced per product once the first steps are taken; a power
#: of two, so its power of the propagator is a few squarings.  Also the
#: fewest states of a diagonal block that ``simulate_rk4`` integrates
#: on its own.
_BLOCK = 32


def _blocks(a: np.ndarray) -> list[slice]:
    """Contiguous diagonal blocks of a square ``a`` that no nonzero entry couples.

    A cut before index k is free when ``a[:k, k:]`` and ``a[k:, :k]``
    are zero, that is when no index below k reaches k or past it
    through a nonzero entry of its row or column: the running maximum
    of each index's furthest reach is k - 1.  That takes one pass over
    the zero pattern, O(N^2).  A free cut is taken only when it leaves
    at least ``_BLOCK`` states on each side of it since the last cut,
    so a diagonal drift is not cut into 1 x 1 pieces; a narrow block
    joins its neighbour, which keeps the union uncoupled from the rest.
    A drift that does not split is one block.
    """
    n = a.shape[0]
    own = np.arange(n)
    nonzero = a != 0
    reach = np.maximum(np.where(nonzero | nonzero.T, own, 0).max(axis=1, initial=0), own)
    bounds = [0]
    for end in np.flatnonzero(np.maximum.accumulate(reach) == own) + 1:
        if end - bounds[-1] >= _BLOCK and n - end >= _BLOCK:
            bounds.append(int(end))
    bounds.append(n)
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def simulate_rk4(
    a: np.ndarray, x0: np.ndarray, t_end: float, dt: float
) -> SimulationResult:
    """Classical fixed-step fourth-order Runge-Kutta for dx/dt = A x.

    On a linear system one RK4 step is exactly ``x <- T(hA) x`` with
    ``T(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``.  A block diagonal A has
    a block diagonal T(hA), so each diagonal block of A that no nonzero
    entry couples to the rest (``_blocks``) is integrated on its own
    columns of the states: for blocks of n_b states the propagators
    take three n_b x n_b products each by Horner's rule, sum n_b^3
    work, where a dense A takes three N x N products and N^3.  The
    first ``_BLOCK`` steps are one mat-vec per block each; after them
    each propagator's ``_BLOCK``-th power, five squarings, advances the
    last ``_BLOCK`` states of its block by ``_BLOCK`` steps in one
    product.  A drift that does not split is one block.  The step is
    rounded so an integer number of steps lands exactly on ``t_end``.
    Norm growth of the whole state beyond 1e6 times the initial norm
    aborts, with the time of the first step past it; a NaN norm counts
    as growth.  For the neutrally stable and damped spectra this
    integrator is used to cross-check, such growth can only mean the
    step violates the stability bound.  An ``a`` that is not square, an
    ``x0`` that is not a vector of its order, a ``t_end`` or ``dt`` that
    is not positive and finite, a ratio ``t_end / dt`` that overflows, a
    step count whose ``(steps + 1, N)`` state array cannot be
    allocated, or a non-finite ``a`` or ``x0``, raises ``ValueError``
    before any step is taken.  States are float64 for real inputs and
    complex128 once ``a`` or ``x0`` is complex.
    """
    if not (0 < t_end < np.inf and 0 < dt < np.inf):
        raise ValueError("t_end and dt must be positive and finite")
    if not t_end / dt < np.inf:
        raise ValueError(f"t_end / dt must be finite, got {t_end:g} / {dt:g}")
    a = np.asarray(a)
    x = np.asarray(x0)
    if not (a.ndim == 2 and x.ndim == 1 and a.shape == (x.size, x.size)):
        raise ValueError(
            f"a must be (N, N) and x0 a vector of length N, got a of shape {a.shape} "
            f"and x0 of shape {x.shape}"
        )
    x = x.astype(np.result_type(a, x, float), copy=False)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
        raise ValueError("a and x0 must be finite")
    steps = max(1, int(round(t_end / dt)))
    h = t_end / steps
    limit = 1e6 * max(float(np.linalg.norm(x)), np.finfo(float).tiny)
    try:
        states = np.empty((steps + 1, x.size), dtype=x.dtype)
        times = np.linspace(0.0, t_end, steps + 1)
    except (MemoryError, ValueError):
        nbytes = (steps + 1) * x.size * x.dtype.itemsize
        raise ValueError(
            f"t_end / dt = {t_end:g} / {dt:g} takes {steps} steps, whose "
            f"({steps + 1}, {x.size}) state array of {nbytes:.3e} bytes cannot be allocated"
        ) from None
    states[0] = x

    def check(start: int, stop: int) -> None:
        crossed = ~(np.linalg.norm(states[start:stop], axis=1) <= limit)
        if crossed.any():
            raise DivergenceError(
                f"norm grew past 1e6x the initial state at t={times[start + crossed.argmax()]:.6g}; "
                "step size is unstable for this spectrum"
            )

    blocks = _blocks(a)
    head = min(steps, _BLOCK)
    props = []
    # an overflowing propagator, or states past a crossing, are caught by check
    with np.errstate(over="ignore", invalid="ignore"):
        for cols in blocks:
            ha = h * a[cols, cols]
            size = ha.shape[0]
            # T(z) = 1 + z (1 + z/2 (1 + z/3 (1 + z/4)))
            prop = ha / 4.0
            for divisor in (3.0, 2.0, 1.0):
                prop.flat[:: size + 1] += 1.0
                prop = ha @ prop
                prop /= divisor
            prop.flat[:: size + 1] += 1.0
            for i in range(head):
                states[i + 1, cols] = prop @ states[i, cols]
            props.append(prop)
        check(1, head + 1)
        if steps > head:
            for _ in range(_BLOCK.bit_length() - 1):
                props = [prop @ prop for prop in props]
            for start in range(head + 1, steps + 1, _BLOCK):
                stop = min(start + _BLOCK, steps + 1)
                for cols, prop in zip(blocks, props):
                    np.matmul(
                        states[start - _BLOCK : stop - _BLOCK, cols],
                        prop.T,
                        out=states[start:stop, cols],
                    )
                check(start, stop)
    return SimulationResult(times=times, states=states)


def relative_l2_error(
    approx: np.ndarray, reference: np.ndarray, weights: np.ndarray
) -> float | np.ndarray:
    """Quadrature-weighted relative L2 distance between grid fields.

    The distance is taken over the last axis of ``approx``, so a stack
    of fields gives one error per field in one call, with the same sums
    as a call per field; a single field gives a ``float``.  ``weights``
    and ``reference`` must have the shape of that last axis, or
    ``ValueError`` is raised instead of a broadcast.  A non-finite entry
    in either field raises ``ValueError``, and a reference of zero norm
    ``ZeroReferenceError``.
    """
    approx, reference, weights = (np.asarray(x) for x in (approx, reference, weights))
    if not weights.shape == reference.shape == approx.shape[-1:]:
        raise ValueError(
            f"weights {weights.shape} and reference {reference.shape} must both have "
            f"the shape of the last axis of approx {approx.shape}"
        )
    if not (np.all(np.isfinite(approx)) and np.all(np.isfinite(reference))):
        raise ValueError("fields must be finite")
    ref_norm = np.sqrt(np.sum(weights * np.abs(reference) ** 2))
    if ref_norm == 0.0:
        raise ZeroReferenceError("reference field has zero norm")
    diff = approx - reference
    error = np.sqrt(np.sum(weights * np.abs(diff) ** 2, axis=-1)) / ref_norm
    return float(error) if error.ndim == 0 else error


def reduction_sweep(
    n: int,
    ic: str,
    r_values: tuple[int, ...] | list[int],
    t_end: float = 1.0,
) -> dict[str, np.ndarray]:
    """Error at ``t_end`` of quality-ranked reduced models of one wave run.

    Builds the pressure-pinned wave system, ranks its modes, and for
    each requested size compares the reduced pressure field against the
    modal-series solution in the quadrature-weighted relative L2 norm.
    Returns the table of ``reduce``, one entry per entry of
    ``r_values``, in order: the count ``r``, the conjugate-closed model
    ``size``, its ``rel_error`` and ``theta_r``, the angle of mode r.
    Counts may repeat and come in any order; no counts give the empty
    table, without scoring the report.  The wave problem is the only
    one with a time-domain reference.

    A reference pressure whose weighted norm is at or below the
    series' stated accuracy, ``2 eps (n_modes + 2)`` times the initial
    pressure's (``acoustic_reference``), is rounding, not a field, and
    raises ``ZeroReferenceError`` before the report is scored: the
    ``sine`` profile at t = 0.5, where its one mode's ``cos(pi t)``
    vanishes, would give relative errors near 1e11.

    Every count is truncated first, in list order, so the rank guard
    raises at the first failing count before anything is evolved.  The
    models are then leading blocks of the largest one and are evolved
    together on its arrays by the kernel of ``simulate_modal``: one
    projection of the initial state, the coefficients of every model
    as prefix sums, one product for every final state.  One call of
    ``relative_l2_error`` on the stacked pressures takes every error.
    """
    sys = acoustic_wave(n)
    grid = sys.labels["grid"]
    # the reference rejects an unknown profile before the report is scored
    p_ref, _ = acoustic_reference(grid, ic, t_end, _REFERENCE_MODES)
    x0 = np.concatenate([_IC_PROFILES[ic](grid), np.zeros(n)])
    weights = clenshaw_curtis(n)
    ref_norm, start_norm = (np.sqrt(weights @ p**2) for p in (p_ref, x0[:n]))
    if ref_norm <= 2 * np.finfo(float).eps * (_REFERENCE_MODES + 2) * start_norm:
        raise ZeroReferenceError(f"the reference pressure at t={t_end:g} is zero to rounding")
    counts = np.array(r_values, dtype=int)
    if not counts.size:
        return {"r": counts, "size": counts, "rel_error": np.empty(0), "theta_r": np.empty(0)}
    report = quality_report(sys, 1)

    models = [truncate(report, r) for r in counts.tolist()]
    sizes = np.array([model.size for model in models])
    largest = models[int(sizes.argmax())]
    states, _ = _evolve(largest, x0, sizes, np.array([t_end], dtype=float))
    errors = relative_l2_error(states[-1, :, :n], p_ref, weights)
    return {"r": counts, "size": sizes, "rel_error": errors, "theta_r": report.theta[counts - 1]}
