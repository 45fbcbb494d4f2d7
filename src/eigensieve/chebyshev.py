"""Chebyshev-Gauss-Lobatto collocation primitives.

Grids, dense differentiation matrices, and Clenshaw-Curtis quadrature
weights on [-1, 1], each a plain array fixed by the point count n
alone.  Nodes are ordered descending, ``x_0 = +1`` down to
``x_{n-1} = -1``; every boundary-row convention downstream relies on
this ordering.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cheb_points",
    "cheb_diff",
    "diff_power",
    "clenshaw_curtis",
]


def _check_size(n: int) -> None:
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got n={n}")


def cheb_points(n: int) -> np.ndarray:
    """Build the n-point Gauss-Lobatto grid on [-1, 1].

    Nodes are evaluated in the numerically symmetric form
    ``sin(pi (n-1-2j) / (2(n-1)))`` and the lower half is mirrored from
    the upper half, so ``x_j == -x_{n-1-j}`` holds exactly and the
    endpoints are exactly +-1.
    """
    _check_size(n)
    half = np.sin(np.pi * (n - 1 - 2 * np.arange(n // 2)) / (2 * (n - 1)))
    x = np.empty(n)
    x[: n // 2] = half
    if n % 2:
        x[n // 2] = 0.0
    x[n - n // 2 :] = -half[::-1]
    return x


def cheb_diff(n: int) -> np.ndarray:
    """First-derivative collocation matrix on the n-point grid.

    Off-diagonal entries follow the barycentric form
    ``(c_i / c_j) (-1)^(i+j) / (x_i - x_j)`` with endpoint weights
    ``c = (2, 1, ..., 1, 2)``.  Node differences are formed through the
    half-angle identity on the upper ceil(n/2) rows only, and the lower
    rows are their negated mirror, so they stay accurate near the
    boundary and take half the sines; the diagonal is the negated
    off-diagonal row sum, which makes the matrix exact on constants by
    construction.
    """
    _check_size(n)
    cs = np.ones(n)
    cs[0] = cs[-1] = 2.0
    cs *= (-1.0) ** np.arange(n)

    # dx[i, j] = x_i - x_j = 2 sin((t_i + t_j)/2) sin((t_j - t_i)/2), t = j pi/(n-1)
    half_th = (np.pi / (2 * (n - 1))) * np.arange(n)
    top = half_th[: (n + 1) // 2, None]
    dx = np.empty((n, n))
    dx[: top.size] = 2.0 * np.sin(top + half_th) * np.sin(half_th - top)
    dx[n // 2 :] = -dx[: top.size][::-1, ::-1]
    np.fill_diagonal(dx, 1.0)

    d = np.outer(cs, 1.0 / cs) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def diff_power(d: np.ndarray, p: int) -> np.ndarray:
    """Derivative matrix of order p as the p-th power of the first-order matrix d."""
    if p < 1:
        raise ValueError(f"derivative order must be >= 1, got {p}")
    return np.linalg.matrix_power(d, p)


def clenshaw_curtis(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights on the n-point grid; exact for polynomial degree < n."""
    _check_size(n)
    nseg = n - 1
    w = np.empty(n)
    interior = np.arange(1, nseg)
    theta = np.pi * interior / nseg
    ks = np.arange(1, (nseg + 1) // 2)
    v = 1.0 - 2.0 * (
        np.cos(2.0 * np.outer(ks, theta)) / (4.0 * ks**2 - 1.0)[:, None]
    ).sum(axis=0)
    if nseg % 2 == 0:
        w[0] = w[nseg] = 1.0 / (nseg**2 - 1)
        v -= np.cos(nseg * theta) / (nseg**2 - 1)
    else:
        w[0] = w[nseg] = 1.0 / nseg**2
    w[interior] = 2.0 * v / nseg
    return w
