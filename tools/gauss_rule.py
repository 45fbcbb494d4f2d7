"""Regenerate the 4096-point Gauss-Legendre table that ``acoustic_reference`` reads.

The nodes are refined in long double by Newton's method on the
three-term Legendre recurrence, starting from the table's current
nodes, and the weights are 2 / ((1 - x^2) P_n'(x)^2) at the refined
nodes; both are then rounded to float64.  Only the nodes in (0, 1) are
computed: the other half is their exact mirror image, so the rule is
symmetric bit for bit.  Long double must carry more digits than
float64 (x86_64's 80-bit format does), or the refinement would only
reproduce float64 rounding.

    python3 tools/gauss_rule.py    # rewrites src/eigensieve/gauss_legendre_4096.npy

The table has nodes in row 0 and weights in row 1, ascending nodes.
The script prints the largest moment error of the table before and
after.
"""

from pathlib import Path

import numpy as np

TABLE = Path(__file__).resolve().parents[1] / "src" / "eigensieve" / "gauss_legendre_4096.npy"

#: Newton steps from the float64 nodes; each squares the relative error,
#: and two take a float64-accurate start to long-double accuracy.
NEWTON_STEPS = 2


def legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, in the dtype of x."""
    before, p = np.ones_like(x), x.copy()
    for k in range(1, n):
        before, p = p, ((2 * k + 1) * x * p - k * before) / (k + 1)
    return p, n * (x * p - before) / (x * x - 1)


def refine(n: int, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Long-double nodes and weights of the n-point rule from positive float64 start nodes."""
    x = start.astype(np.longdouble)
    for _ in range(NEWTON_STEPS):
        p, dp = legendre(n, x)
        x = x - p / dp
    _, dp = legendre(n, x)
    return x, 2 / ((1 - x * x) * dp * dp)


def max_moment_error(nodes: np.ndarray, weights: np.ndarray, k_max: int = 64) -> float:
    """Largest |sum w x^k - integral of x^k over [-1, 1]|, k = 0..k_max, in long double."""
    x, w = nodes.astype(np.longdouble), weights.astype(np.longdouble)
    exact = [(1 + (-1) ** k) / np.longdouble(k + 1) for k in range(k_max + 1)]
    return float(max(abs(w @ x**k - exact[k]) for k in range(k_max + 1)))


def main() -> int:
    rule = np.load(TABLE)
    print(f"current table: largest moment error {max_moment_error(*rule):.3e}")
    assert np.finfo(np.longdouble).eps < 1e-18, "long double must carry more digits than float64"
    n = rule.shape[1]
    x, w = refine(n, rule[0][n // 2 :])
    half_nodes, half_weights = x.astype(float), w.astype(float)
    nodes = np.concatenate([-half_nodes[::-1], half_nodes])
    weights = np.concatenate([half_weights[::-1], half_weights])
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
    table = np.stack([nodes, weights])
    assert table.shape == rule.shape and table.dtype == rule.dtype
    print(f"new table: largest moment error {max_moment_error(nodes, weights):.3e}, "
          f"weight sum - 2 = {weights.sum() - 2.0:.3e}")
    np.save(TABLE, table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
