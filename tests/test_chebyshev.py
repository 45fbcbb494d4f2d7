"""Grid, differentiation, and quadrature primitives against closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensieve.chebyshev import (
    cheb_diff,
    cheb_points,
    clenshaw_curtis,
    diff_power,
)

SQ2 = np.sqrt(2.0) / 2.0


def test_grid_five_points_exact():
    grid = cheb_points(5)
    assert grid.size == 5
    # endpoints and center are exact by construction; the quarter
    # points match sqrt(2)/2 to the last bit or one ulp
    assert grid[0] == 1.0
    assert grid[2] == 0.0
    assert grid[4] == -1.0
    np.testing.assert_allclose(grid, [1.0, SQ2, 0.0, -SQ2, -1.0], atol=1e-15)


def test_grid_two_points():
    assert cheb_points(2).tolist() == [1.0, -1.0]


def test_grid_matches_cosine_form():
    for n in (3, 8, 17, 33, 64):
        j = np.arange(n)
        np.testing.assert_allclose(
            cheb_points(n), np.cos(np.pi * j / (n - 1)), atol=1e-15
        )


def test_grid_rejects_degenerate_size():
    for primitive in (cheb_points, cheb_diff, clenshaw_curtis):
        with pytest.raises(ValueError):
            primitive(1)


@given(st.integers(min_value=2, max_value=160))
def test_grid_symmetry_and_endpoints(n):
    x = cheb_points(n)
    # mirrored construction: antisymmetry and unit endpoints are exact
    assert x[0] == 1.0 and x[n - 1] == -1.0
    assert np.all(x == -x[::-1])
    assert np.all(np.diff(x) < 0)


def test_diff_three_points_closed_form():
    d = cheb_diff(3)
    np.testing.assert_allclose(
        d, [[1.5, -2.0, 0.5], [0.5, 0.0, -0.5], [-0.5, 2.0, -1.5]], atol=1e-15
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 128, 129])
def test_diff_equals_the_full_grid_formula_bit_for_bit(n):
    # reference: the half-angle differences of every row, then the lower
    # half overwritten with the negated mirror of the upper one; only the
    # upper ceil(n/2) rows need the sines
    cs = np.ones(n)
    cs[0] = cs[-1] = 2.0
    cs *= (-1.0) ** np.arange(n)
    half_th = (np.pi / (2 * (n - 1))) * np.arange(n)
    dx = 2.0 * np.sin(half_th[:, None] + half_th[None, :]) * np.sin(
        half_th[None, :] - half_th[:, None]
    )
    dx[n // 2 :, :] = -dx[: (n + 1) // 2, :][::-1, ::-1]
    np.fill_diagonal(dx, 1.0)
    expected = np.outer(cs, 1.0 / cs) / dx
    np.fill_diagonal(expected, 0.0)
    np.fill_diagonal(expected, -expected.sum(axis=1))
    d = cheb_diff(n)
    assert d.shape == (n, n) and d.dtype == np.float64
    assert d.tobytes() == expected.tobytes()


def test_diff_is_exact_on_monomials():
    n = 12
    d = cheb_diff(n)
    x = cheb_points(n)
    for m in range(n):
        expected = np.zeros(n) if m == 0 else m * x ** (m - 1)
        np.testing.assert_allclose(d @ x**m, expected, atol=1e-6 * n)


def test_diff_rows_sum_to_zero():
    for n in (4, 9, 40):
        d = cheb_diff(n)
        np.testing.assert_allclose(d.sum(axis=1), 0.0, atol=1e-12 * n)


def test_diff_kills_constants():
    # the diagonal is the negated off-diagonal row sum, so the matvec
    # against a constant cancels to summation-order noise
    d = cheb_diff(21)
    resid = d @ np.ones(21)
    assert np.abs(resid).max() < 1e-12 * np.abs(d).max()


def test_diff_power_matches_analytic_derivatives():
    n = 14
    d1 = cheb_diff(n)
    x = cheb_points(n)
    for p in range(1, 5):
        dp = diff_power(d1, p)
        for m in range(n - p):
            c = np.prod(np.arange(m, m - p, -1, dtype=float))
            expected = c * x ** (m - p) if m >= p else np.zeros(n)
            np.testing.assert_allclose(dp @ x**m, expected, atol=1e-6 * n**p)


def test_diff_power_fourth_derivative_of_cubic_vanishes():
    n = 9
    dp = diff_power(cheb_diff(n), 4)
    x = cheb_points(n)
    np.testing.assert_allclose(dp @ x**3, 0.0, atol=1e-6 * n**2)


def test_diff_power_validates_inputs():
    d1 = cheb_diff(6)
    with pytest.raises(ValueError):
        diff_power(d1, 0)


def test_quadrature_two_points():
    assert clenshaw_curtis(2).tolist() == [1.0, 1.0]


def test_quadrature_basic_integrals():
    w = clenshaw_curtis(9)
    x = cheb_points(9)
    assert w @ np.ones(9) == pytest.approx(2.0, abs=1e-14)
    assert w @ x**2 == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert w @ x**3 == pytest.approx(0.0, abs=1e-14)


def test_quadrature_weights_positive_and_symmetric():
    for n in (2, 5, 16, 33):
        w = clenshaw_curtis(n)
        assert np.all(w > 0)
        np.testing.assert_allclose(w, w[::-1], atol=1e-15)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_quadrature_exact_below_degree_n(n):
    w = clenshaw_curtis(n)
    x = cheb_points(n)
    for m in range(n):
        exact = 0.0 if m % 2 else 2.0 / (m + 1)
        assert w @ x**m == pytest.approx(exact, abs=1e-12 * n)


def test_quadrature_converges_on_smooth_nonpolynomial():
    grid = cheb_points(30)
    w = clenshaw_curtis(30)
    # integral of exp(x) over [-1, 1]
    assert w @ np.exp(grid) == pytest.approx(np.e - 1.0 / np.e, abs=1e-13)
