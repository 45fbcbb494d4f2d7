"""Benchmark constrained systems and their analytic references.

Every builder assembles the raw collocation operators on the descending
Gauss-Lobatto grid and states the boundary conditions as constraint
rows; nothing is deleted or bordered into the matrices, and each
system's ``labels["grid"]`` holds the node array.  The registry
maps the public problem names used by the command line to builders,
parameter lists, and (where known) analytic spectra.

The 4096-point Gauss-Legendre rule of ``acoustic_reference`` ships as
the table ``gauss_legendre_4096.npy`` (nodes in row 0, weights in row
1), so no run recomputes the rule.  ``tools/gauss_rule.py`` writes it
by long-double Newton steps on the Legendre recurrence: every node is
the float64 rounding of its root, and every moment x^k, k <= 64, is
integrated to within 1.1e-16.  The projection onto the
sine modes uses angle addition rather than one sine per mode and node,
so its cost grows with the square root of the mode count, and it reads
only the nodes where the weighted profile is nonzero (see
``acoustic_reference``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from .chebyshev import cheb_diff, cheb_points, diff_power
from .constrained import ConstrainedSystem

__all__ = [
    "BenchmarkProblem",
    "REGISTRY",
    "get_problem",
    "heat_dirichlet",
    "heat_reference",
    "canuto_hyperbolic",
    "canuto_reference",
    "orr_sommerfeld",
    "acoustic_wave",
    "acoustic_spectrum",
    "acoustic_reference",
    "bump_ic",
    "sine_ic",
]


def heat_dirichlet(n: int) -> ConstrainedSystem:
    """Diffusion on [-1, 1] with both endpoint values pinned to zero.

    Drift is the full second-derivative matrix; the two constraint rows
    sample the solution at x = +1 and x = -1.  The exact spectrum is
    ``-(m pi / 2)^2``.  The system is symmetric under x -> -x on the
    symmetric grid, so it declares ``mirror=(1,)``.
    """
    _check_points("heat", n)
    a = diff_power(cheb_diff(n), 2)
    c = np.zeros((2, n))
    c[0, 0] = 1.0
    c[1, n - 1] = 1.0
    labels = {"problem": "heat", "n": n, "grid": cheb_points(n)}
    return ConstrainedSystem(a=a, c=c, labels=labels, mirror=(1,))


def heat_reference(count: int) -> np.ndarray:
    """First ``count`` analytic eigenvalues ``-(m pi / 2)^2`` of heat_dirichlet."""
    m = np.arange(1, count + 1)
    return (-((m * np.pi / 2.0) ** 2)).astype(complex)


def canuto_hyperbolic(n: int) -> ConstrainedSystem:
    """Coupled two-field advection system with an imaginary-ladder spectrum.

    State is (psi1, psi2) with each field sampled on the n-point grid,
    drift ``A = -[[1/2, 1], [1, 1/2]] (x) D``, and the first field
    pinned at both endpoints.  The analytic eigenvalues are
    ``i (3 pi / 8) k`` for integer k, so eigenvalues off the imaginary
    axis are discretization artifacts by construction.  No reflection
    blockdiag(+-J, +-J) of the fields commutes with the drift (JDJ = -D
    flips the sign of a diagonal block whatever the signs), so the
    system declares no mirror.
    """
    _check_points("canuto", n)
    d = cheb_diff(n)
    a = np.kron(-np.array([[0.5, 1.0], [1.0, 0.5]]), d)
    c = np.zeros((2, 2 * n))
    c[0, n - 1] = 1.0  # psi1 at x = -1
    c[1, 0] = 1.0  # psi1 at x = +1
    labels = {"problem": "canuto", "n": n, "grid": cheb_points(n)}
    return ConstrainedSystem(a=a, c=c, labels=labels)


def canuto_reference(count: int) -> np.ndarray:
    """Imaginary ladder ``i (3 pi / 8) k`` for k = -count .. count."""
    k = np.arange(-count, count + 1)
    return 1j * (3.0 * np.pi / 8.0) * k


def orr_sommerfeld(n: int, alpha: float = 1.0, reynolds: float = 10000.0) -> ConstrainedSystem:
    """Wall-normal stability operator of plane Poiseuille flow.

    Stream-function form at streamwise wavenumber ``alpha`` and Reynolds
    number ``reynolds`` over the base profile ``1 - z^2``:

        E = alpha R (D^2 - alpha^2 I)
        A = D^4 + diag(-2 alpha^2 - i alpha R ubar) D^2
            + diag(alpha^4 + i alpha^3 R ubar - 2 i R alpha)

    with clamped walls: value and slope vanish at z = +1 and z = -1,
    stated as four constraint rows (rows of I and of D at both ends).
    The base profile is even, so the system declares ``mirror=(1,)``.
    A pair of parameters for which one of these coefficients overflows
    is rejected with ``ValueError``.
    """
    _check_points("orr-sommerfeld", n)
    if alpha <= 0 or reynolds <= 0:
        raise ValueError("alpha and reynolds must be positive")
    # alpha**k of a Python float raises OverflowError instead of giving inf
    al, rey = np.float64(alpha), np.float64(reynolds)
    with np.errstate(over="ignore"):
        al2, al4, ar, a3r, two_ra = al**2, al**4, al * rey, al**3 * rey, 2.0 * rey * al
    if not np.all(np.isfinite((al4, ar, a3r, two_ra))):
        raise ValueError(
            f"alpha={alpha:g} and reynolds={reynolds:g} give non-finite operator coefficients"
        )
    z = cheb_points(n)
    d = cheb_diff(n)
    d2 = diff_power(d, 2)
    d4 = diff_power(d, 4)
    ubar = 1.0 - z**2

    e = (ar * (d2 - al2 * np.eye(n))).astype(complex)
    a = (
        d4
        + (-2.0 * al2 - 1j * ar * ubar)[:, None] * d2
        + np.diag(al4 + 1j * a3r * ubar - 1j * two_ra)
    )
    c = np.zeros((4, n), dtype=complex)
    c[0, 0] = 1.0
    c[1, n - 1] = 1.0
    c[2] = d[0]
    c[3] = d[n - 1]
    labels = {
        "problem": "orr-sommerfeld",
        "n": n,
        "alpha": alpha,
        "reynolds": reynolds,
        "grid": z,
    }
    return ConstrainedSystem(a=a, c=c, e=e, labels=labels, mirror=(1,))


def acoustic_wave(n: int) -> ConstrainedSystem:
    """Pressure-velocity form of the 1-D wave equation, pressure pinned.

    State is (p, u) with drift ``[[0, D], [D, 0]]`` and the two
    constraint rows sampling p at x = +1 and x = -1.  The spectrum is
    ``+-i m pi / 2`` plus one zero mode (p = 0, u constant).  D maps
    even fields to odd ones, so the system declares ``mirror=(1, -1)``:
    p even with u odd is one half, p odd with u even the other.
    """
    _check_points("acoustic", n)
    d = cheb_diff(n)
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = d
    a[n:, :n] = d
    c = np.zeros((2, 2 * n))
    c[0, 0] = 1.0
    c[1, n - 1] = 1.0
    labels = {"problem": "acoustic", "n": n, "grid": cheb_points(n)}
    return ConstrainedSystem(a=a, c=c, labels=labels, mirror=(1, -1))


def acoustic_spectrum(count: int) -> np.ndarray:
    """Ladder ``i (pi / 2) m`` for m = -count .. count, zero mode included."""
    m = np.arange(-count, count + 1)
    return 1j * (np.pi / 2.0) * m


def bump_ic(x: np.ndarray) -> np.ndarray:
    """Compactly supported pressure pulse ``exp(-1/(1 - x/0.3)^4)`` on |x| < 0.3."""
    # One-sided cutoff exactly as specified: the exponent vanishes
    # smoothly at x = +0.3 but jumps at x = -0.3.
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mask = np.abs(x) < 0.3
    with np.errstate(divide="ignore"):
        t = 1.0 - x[mask] / 0.3
        out[mask] = np.exp(-1.0 / t**4)
    return out


def sine_ic(x: np.ndarray) -> np.ndarray:
    """Single standing-wave pressure profile ``sin(-pi x + pi)``."""
    return np.sin(-np.pi * np.asarray(x, dtype=float) + np.pi)


_IC_PROFILES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "bump": bump_ic,
    "sine": sine_ic,
}


#: Base rows of the angle-addition tables formed at a time in
#: ``acoustic_reference``.
_BASE_ROWS = 8

#: Sine modes of ``acoustic_reference``'s series by default.
_REFERENCE_MODES = 1500


@lru_cache(maxsize=1)
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the shipped rule, read-only since every call shares them."""
    rule = np.load(Path(__file__).with_name("gauss_legendre_4096.npy"))
    rule.flags.writeable = False
    return rule[0], rule[1]


def acoustic_reference(
    grid: np.ndarray, ic: str, t: float, n_modes: int = _REFERENCE_MODES
) -> tuple[np.ndarray, np.ndarray]:
    """Modal-series solution of the pressure-pinned wave system at the grid nodes.

    The initial pressure is projected onto the orthonormal standing
    waves ``sin(m pi (x+1)/2)`` with a dense Gauss-Legendre rule, kept
    independent of the collocation machinery on purpose, and each mode
    is evolved exactly at frequency ``m pi / 2``.  Velocity starts at
    rest, so pressure carries cosine and velocity sine time factors.

    Nodes where ``wq * profile`` is exactly 0 add exactly 0 to every
    coefficient, so the tables are built on the remaining nodes only:
    716 of the 4096 for ``bump``, whose support is |x| < 0.3, and all
    of them for ``sine``.

    Each mode is written as m = b + k, with b a multiple of
    ``width = ceil(sqrt(n_modes + 1))`` and 0 <= k < width, and
    ``sin(m theta) = sin(b theta) cos(k theta) + cos(b theta) sin(k theta)``.
    The cos(k theta) and sin(k theta) tables are formed once; the
    coefficients of ``_BASE_ROWS`` bases at a time are two matrix
    products against them.  That is about 4 width sines and cosines per
    node instead of n_modes sines: 0.64 M instead of 6.1 M trig calls
    for the default 1500 modes on all 4096 nodes.  The transient tables
    hold (2 width + 2 _BASE_ROWS) doubles per node, 3.1 MB at the
    default on all nodes.
    The fields at the grid nodes take the same addition as
    ``exp(i m theta) = exp(i b theta) exp(i k theta)``: the pressure is
    the imaginary part of the time-weighted series, the velocity the
    real part.  That is about 4 width trig calls per node instead of
    2 n_modes, 20 K instead of 384 K on the 128 nodes of n=128 at the
    default.  Tested against a long-double dense series, the fields
    stay within 2 eps (n_modes + 2) for both profiles and 1 to 1500
    modes.
    """
    if ic not in _IC_PROFILES:
        raise ValueError(f"unknown initial condition {ic!r}; pick one of {sorted(_IC_PROFILES)}")
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got n_modes={n_modes}")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got t={t}")
    xq, wq = _gauss_rule()
    fq = wq * _IC_PROFILES[ic](xq)
    # nodes where the weighted profile is exactly 0 add nothing to any coefficient
    support = fq != 0.0
    theta, fq = np.pi * (xq[support] + 1.0) / 2.0, fq[support]
    # ceil(sqrt(n_modes + 1)): entry (i, k) of coeff is mode i width + k
    width = math.isqrt(n_modes) + 1
    bases = np.arange(0, n_modes + 1, width)
    cos_k = np.empty((width, theta.size))
    sin_k = np.multiply.outer(np.arange(width), theta)
    np.cos(sin_k, out=cos_k)
    np.sin(sin_k, out=sin_k)
    sin_b = np.empty((min(bases.size, _BASE_ROWS), theta.size))
    cos_b = np.empty_like(sin_b)
    coeff = np.empty((bases.size, width))
    for i in range(0, bases.size, _BASE_ROWS):
        b = bases[i : i + _BASE_ROWS]
        sb, cb = sin_b[: b.size], cos_b[: b.size]
        np.multiply.outer(b, theta, out=sb)
        np.cos(sb, out=cb)
        np.sin(sb, out=sb)
        sb *= fq
        cb *= fq
        coeff[i : i + b.size] = sb @ cos_k.T + cb @ sin_k.T
    # entry (i, k) of coeff is mode i width + k: drop mode 0 and those past n_modes
    modes = np.add.outer(bases, np.arange(width))
    coeff[(modes == 0) | (modes > n_modes)] = 0.0
    phi = 1j * np.pi * (grid + 1.0) / 2.0
    exp_k, exp_b = (np.exp(np.multiply.outer(j, phi)) for j in (np.arange(width), bases))
    p = (exp_b * ((coeff * np.cos(modes * np.pi / 2.0 * t)) @ exp_k)).sum(axis=0).imag
    u = (exp_b * ((coeff * np.sin(modes * np.pi / 2.0 * t)) @ exp_k)).sum(axis=0).real
    return p, u


@dataclass(frozen=True)
class BenchmarkProblem:
    """Named builder plus an optional analytic spectrum generator.

    ``reference_cover(radius)`` returns every analytic eigenvalue out to
    at least the given modulus, with margin, so nearest-reference
    matching always has candidates beyond the computed spectrum.  The
    cover lies on the real or the imaginary axis, the contract that
    ``experiments.match_to_reference`` searches along and enforces.
    ``min_n`` is the fewest grid points the builder accepts: the one
    statement of it, read by the builder and by the command line.
    """

    name: str
    build: Callable[..., ConstrainedSystem]
    params: tuple[str, ...]
    reference_cover: Callable[[float], np.ndarray] | None = None
    min_n: int = 4


def _heat_cover(radius: float) -> np.ndarray:
    return heat_reference(int(np.ceil(2.0 * np.sqrt(max(radius, 0.0)) / np.pi)) + 2)


def _canuto_cover(radius: float) -> np.ndarray:
    return canuto_reference(int(np.ceil(radius / (3.0 * np.pi / 8.0))) + 2)


def _acoustic_cover(radius: float) -> np.ndarray:
    return acoustic_spectrum(int(np.ceil(radius / (np.pi / 2.0))) + 2)


REGISTRY: dict[str, BenchmarkProblem] = {
    "heat": BenchmarkProblem("heat", heat_dirichlet, ("n",), _heat_cover),
    "canuto": BenchmarkProblem("canuto", canuto_hyperbolic, ("n",), _canuto_cover),
    "orr-sommerfeld": BenchmarkProblem(
        "orr-sommerfeld", orr_sommerfeld, ("n", "alpha", "reynolds"), None, min_n=10
    ),
    "acoustic": BenchmarkProblem("acoustic", acoustic_wave, ("n",), _acoustic_cover),
}


def _check_points(name: str, n: int) -> None:
    """Reject a grid of fewer points than the registered problem's ``min_n``."""
    least = REGISTRY[name].min_n
    if n < least:
        raise ValueError(f"{name} needs at least {least} grid points, got n={n}")


def get_problem(name: str) -> BenchmarkProblem:
    """Look up a registered problem by its public name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; registered: {', '.join(REGISTRY)}"
        ) from None
