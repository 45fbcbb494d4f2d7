"""Quality-ranked truncation and time simulation of compressed models.

Reduced models keep the r best-scored modes of a quality report, close
them under complex conjugation so real dynamics stay real, and evolve
the retained modal coefficients exactly.  A fixed-step integrator of
the full compressed system is provided as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import clenshaw_curtis
from .errors import DivergenceError, ImaginaryResidueError, ZeroReferenceError
from .problems import _IC_PROFILES, acoustic_reference, acoustic_wave
from .quality import DEFAULT_ZERO_FLOOR, QualityReport, quality_report

__all__ = [
    "ReducedModel",
    "SimulationResult",
    "ReductionRow",
    "ReductionSweepResult",
    "truncate",
    "simulate_modal",
    "simulate_rk4",
    "relative_l2_error",
    "reduction_sweep",
]


@dataclass(eq=False)
class ReducedModel:
    """Retained eigenmodes of a quality report, conjugate-closed.

    ``shapes`` holds the lifted mode vectors M v as columns, so lifting
    modal coefficients is a single matrix product and restriction is a
    least-squares solve against the same columns.
    """

    lambdas: np.ndarray
    v_basis: np.ndarray
    shapes: np.ndarray
    thetas: np.ndarray
    indices: tuple[int, ...]
    requested: int

    @property
    def size(self) -> int:
        return self.lambdas.size

    def lift(self, coeffs: np.ndarray) -> np.ndarray:
        """Physical-grid state for a vector of modal coefficients."""
        return self.shapes @ coeffs

    def restrict(self, state: np.ndarray) -> tuple[np.ndarray, float]:
        """Least-squares modal coefficients of a physical state.

        Returns the coefficients and the relative projection residual;
        on anything in the span of the retained modes the round trip
        through ``lift`` is the identity.
        """
        state = np.asarray(state)
        coeffs, *_ = np.linalg.lstsq(self.shapes, state.astype(complex), rcond=None)
        nrm = np.linalg.norm(state)
        if nrm == 0.0:
            return coeffs, 0.0
        residual = float(np.linalg.norm(self.shapes @ coeffs - state) / nrm)
        return coeffs, residual


def truncate(report: QualityReport, r: int) -> ReducedModel:
    """Keep the r best-scored modes, minimally closed under conjugation.

    The report is already sorted best-first with zero modes leading, so
    selection is positional.  For real systems any retained mode with a
    genuinely complex eigenvalue pulls in its conjugate partner when the
    cut would separate them, so the actual size may exceed r by one.
    """
    nmodes = len(report.modes)
    if not 1 <= r <= nmodes:
        raise ValueError(f"retained count must be in 1..{nmodes}, got r={r}")
    selected = np.arange(nmodes) < r
    if report.meta.get("real_system", True):
        lams = np.array([m.lam for m in report.modes])
        added = np.arange(r)
        while added.size:
            # row j holds every distance to the conjugate of added mode j;
            # distance to self is 2|Im lam|, so a nearly real mode is its
            # own partner and nothing is added for it
            partners = np.abs(lams[None, :] - np.conj(lams[added])[:, None]).argmin(axis=1)
            added = np.unique(partners[~selected[partners]])
            selected[added] = True
    order = np.flatnonzero(selected).tolist()
    modes = [report.modes[i] for i in order]
    return ReducedModel(
        lambdas=np.array([m.lam for m in modes]),
        v_basis=np.column_stack([m.v for m in modes]),
        shapes=np.column_stack([m.w for m in modes]),
        thetas=np.array([m.theta for m in modes]),
        indices=tuple(order),
        requested=r,
    )


@dataclass(eq=False)
class SimulationResult:
    """Trajectory samples of a simulated model."""

    times: np.ndarray
    states: np.ndarray
    method: str
    warnings: tuple[str, ...] = ()


def simulate_modal(
    model: ReducedModel,
    x0: np.ndarray,
    t: float | np.ndarray,
    *,
    restrict_warn: float = 1e-8,
) -> SimulationResult:
    """Evolve the retained modes exactly: each coefficient by exp(lam t).

    The initial state is projected by least squares; a projection
    residual above ``restrict_warn`` (relative) is recorded as a
    warning, since the model then cannot represent its own initial
    condition.  States are returned real; a residual imaginary part
    above ``1e-9 |x0|`` aborts, because it means the retained set was
    not conjugate-closed.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    coeffs, residual = model.restrict(x0)
    warnings = ()
    if residual > restrict_warn:
        warnings = (
            f"initial condition poorly represented: relative projection "
            f"residual {residual:.3e}",
        )
    evolved = coeffs[None, :] * np.exp(np.outer(times, model.lambdas))
    states = evolved @ model.shapes.T
    scale = max(float(np.linalg.norm(x0)), np.finfo(float).tiny)
    residue = float(np.abs(states.imag).max()) if states.size else 0.0
    if residue > 1e-9 * scale:
        raise ImaginaryResidueError(
            f"imaginary residue {residue:.3e} exceeds 1e-9 * |x0|; "
            "retained mode set is not closed under conjugation"
        )
    return SimulationResult(
        times=times, states=states.real, method="modal-exact", warnings=warnings
    )


def simulate_rk4(
    a: np.ndarray, x0: np.ndarray, t_end: float, dt: float
) -> SimulationResult:
    """Classical fixed-step fourth-order Runge-Kutta for dx/dt = A x.

    The step is rounded so an integer number of steps lands exactly on
    ``t_end``.  Norm growth beyond 1e6 times the initial norm aborts:
    for the neutrally stable and damped spectra this integrator is used
    to cross-check, such growth can only mean the step violates the
    stability bound.
    """
    if t_end <= 0 or dt <= 0:
        raise ValueError("t_end and dt must be positive")
    a = np.asarray(a)
    x = np.asarray(x0, dtype=float).copy()
    steps = max(1, int(round(t_end / dt)))
    h = t_end / steps
    limit = 1e6 * max(float(np.linalg.norm(x)), np.finfo(float).tiny)
    times = np.linspace(0.0, t_end, steps + 1)
    states = np.empty((steps + 1, x.size))
    states[0] = x
    for i in range(steps):
        k1 = a @ x
        k2 = a @ (x + 0.5 * h * k1)
        k3 = a @ (x + 0.5 * h * k2)
        k4 = a @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.linalg.norm(x) > limit:
            raise DivergenceError(
                f"norm grew past 1e6x the initial state at t={times[i + 1]:.6g}; "
                "step size is unstable for this spectrum"
            )
        states[i + 1] = x
    return SimulationResult(times=times, states=states, method="rk4")


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


@dataclass(eq=False)
class ReductionSweepResult:
    """Error-versus-size table plus the full sorted score sequence."""

    rows: list[ReductionRow]
    thetas: np.ndarray
    full_error: float


def reduction_sweep(
    problem: str,
    n: int,
    ic: str,
    r_values: tuple[int, ...] | list[int],
    t_end: float = 1.0,
    *,
    n_modes: int = 1500,
    null_tol: float = 1e-10,
    zero_floor: float = DEFAULT_ZERO_FLOOR,
) -> ReductionSweepResult:
    """Error at ``t_end`` of quality-ranked reduced models of one wave run.

    Builds the pressure-pinned wave system, ranks its modes, and for
    each requested size compares the reduced pressure field against the
    modal-series solution in the quadrature-weighted relative L2 norm.
    Only the wave problem has that time-domain reference.
    """
    if problem != "acoustic":
        raise ValueError(
            f"time-domain reference solutions exist only for 'acoustic', got {problem!r}"
        )
    if ic not in _IC_PROFILES:
        raise ValueError(f"unknown initial condition {ic!r}; pick one of {sorted(_IC_PROFILES)}")
    sys = acoustic_wave(n)
    grid = sys.labels["grid"]
    report = quality_report(sys, 1, null_tol=null_tol, zero_floor=zero_floor)

    p0 = _IC_PROFILES[ic](grid)
    x0 = np.concatenate([p0, np.zeros(n)])
    p_ref, _ = acoustic_reference(grid, ic, t_end, n_modes)
    weights = clenshaw_curtis(n)

    full = truncate(report, len(report.modes))
    p_full = simulate_modal(full, x0, t_end).states[-1][:n]
    full_error = relative_l2_error(p_full, p_ref, weights)

    rows = []
    for r in r_values:
        model = truncate(report, int(r))
        p_r = simulate_modal(model, x0, t_end).states[-1][:n]
        rows.append(
            ReductionRow(
                r=int(r),
                size=model.size,
                rel_error=relative_l2_error(p_r, p_ref, weights),
                theta_r=report.modes[int(r) - 1].theta,
            )
        )
    thetas = np.array([m.theta for m in report.modes])
    return ReductionSweepResult(rows=rows, thetas=thetas, full_error=full_error)
