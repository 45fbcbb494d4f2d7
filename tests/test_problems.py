"""Benchmark system builders against their analytic references."""

import tracemalloc
import warnings

import numpy as np
import pytest

from eigensieve import problems
from eigensieve.chebyshev import cheb_diff, cheb_points, diff_power
from eigensieve.constrained import compress
from eigensieve.problems import (
    REGISTRY,
    acoustic_reference,
    acoustic_spectrum,
    acoustic_wave,
    bump_ic,
    canuto_hyperbolic,
    canuto_reference,
    get_problem,
    heat_dirichlet,
    heat_reference,
    orr_sommerfeld,
    sine_ic,
)
from eigensieve.quality import quality_report

LONG_PI = np.longdouble("3.14159265358979323846264338327950288")


class TestHeat:
    def test_operator_is_second_derivative(self):
        n = 12
        sys = heat_dirichlet(n)
        d2 = diff_power(cheb_diff(n), 2)
        assert np.array_equal(sys.a, d2)
        assert sys.c.shape == (2, n)
        assert sys.c[0, 0] == 1.0 and sys.c[1, n - 1] == 1.0
        assert np.count_nonzero(sys.c) == 2

    def test_labels(self):
        sys = heat_dirichlet(8)
        assert sys.labels["problem"] == "heat"
        assert sys.labels["grid"].size == 8

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            heat_dirichlet(3)

    def test_reference_values(self):
        ref = heat_reference(3)
        np.testing.assert_allclose(
            ref, [-((np.pi / 2) ** 2), -(np.pi**2), -((3 * np.pi / 2) ** 2)]
        )

    def test_compressed_spectrum_hits_analytic_rates(self):
        comp = compress(heat_dirichlet(48), 1)
        lams = np.sort(np.linalg.eigvals(comp.a_k).real)[::-1]
        ref = heat_reference(10).real
        np.testing.assert_allclose(lams[:10], ref, rtol=1e-12)


class TestCanutoHyperbolic:
    def test_operator_is_coupled_advection(self):
        n = 10
        sys = canuto_hyperbolic(n)
        d = cheb_diff(n)
        want = -np.kron(np.array([[0.5, 1.0], [1.0, 0.5]]), d)
        # bit for bit, signed zeros included
        assert sys.a.tobytes() == want.tobytes()

    def test_constraints_pin_first_field_at_both_ends(self):
        n = 10
        sys = canuto_hyperbolic(n)
        assert sys.c.shape == (2, 2 * n)
        assert sys.c[0, n - 1] == 1.0  # psi1 at x = -1
        assert sys.c[1, 0] == 1.0  # psi1 at x = +1
        assert np.count_nonzero(sys.c) == 2

    def test_reference_is_symmetric_imaginary_ladder(self):
        ref = canuto_reference(2)
        step = 3.0 * np.pi / 8.0
        np.testing.assert_allclose(ref, 1j * step * np.array([-2, -1, 0, 1, 2]))
        assert np.all(ref.real == 0.0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            canuto_hyperbolic(2)


class TestOrrSommerfeld:
    def test_shapes_and_dtypes(self):
        n = 16
        sys = orr_sommerfeld(n)
        assert sys.a.shape == (n, n) and np.iscomplexobj(sys.a)
        assert sys.e.shape == (n, n) and np.iscomplexobj(sys.e)
        assert sys.c.shape == (4, n)

    def test_mass_operator_formula(self):
        n = 16
        alpha, reynolds = 0.8, 3000.0
        sys = orr_sommerfeld(n, alpha=alpha, reynolds=reynolds)
        d2 = diff_power(cheb_diff(n), 2)
        np.testing.assert_allclose(
            sys.e, alpha * reynolds * (d2 - alpha**2 * np.eye(n)), atol=1e-9
        )

    def test_constraints_clamp_value_and_slope(self):
        n = 16
        sys = orr_sommerfeld(n)
        d = cheb_diff(n)
        assert sys.c[0, 0] == 1.0 and np.count_nonzero(sys.c[0]) == 1
        assert sys.c[1, n - 1] == 1.0 and np.count_nonzero(sys.c[1]) == 1
        np.testing.assert_allclose(sys.c[2].real, d[0], atol=1e-15)
        np.testing.assert_allclose(sys.c[3].real, d[n - 1], atol=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            orr_sommerfeld(8)
        with pytest.raises(ValueError):
            orr_sommerfeld(16, alpha=0.0)
        with pytest.raises(ValueError):
            orr_sommerfeld(16, reynolds=-1.0)

    @pytest.mark.parametrize(
        "alpha, reynolds", [(1e300, 1e4), (1e78, 1e4), (1e10, 1e300), (1.0, 1e308)]
    )
    def test_overflowing_coefficients_rejected(self, alpha, reynolds):
        with pytest.raises(ValueError, match="non-finite"):
            orr_sommerfeld(16, alpha=alpha, reynolds=reynolds)

    def test_labels_carry_parameters(self):
        sys = orr_sommerfeld(16, alpha=0.9, reynolds=2000.0)
        assert sys.labels["alpha"] == 0.9
        assert sys.labels["reynolds"] == 2000.0

    def test_leading_instability_eigenvalue(self):
        # wall mode of plane Poiseuille flow at alpha=1, R=10000
        target = 0.00373967 - 0.23752649j
        report = quality_report(orr_sommerfeld(100))
        mode = np.abs(report.lambdas - target).argmin()
        assert abs(report.lambdas[mode] - target) < 1e-6
        assert report.theta[mode] < 1e-3


class TestAcoustic:
    def test_operator_is_offdiagonal_gradient_pair(self):
        n = 8
        sys = acoustic_wave(n)
        d = cheb_diff(n)
        assert np.array_equal(sys.a[:n, n:], d)
        assert np.array_equal(sys.a[n:, :n], d)
        assert not sys.a[:n, :n].any() and not sys.a[n:, n:].any()
        assert sys.c[0, 0] == 1.0 and sys.c[1, n - 1] == 1.0
        zero = np.zeros((n, n))
        assert sys.a.tobytes() == np.block([[zero, d], [d, zero]]).tobytes()

    def test_build_memory_stays_bounded(self):
        # the drift is filled into one zeroed array and its mirror is
        # checked field block by field block: 3.29 MB traced, against
        # 5.39 MB for np.block and a mirror check over the whole drift
        acoustic_wave(256)
        tracemalloc.start()
        try:
            acoustic_wave(256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.4e6

    def test_spectrum_reference_values(self):
        ref = acoustic_spectrum(2)
        np.testing.assert_allclose(ref, 1j * (np.pi / 2) * np.array([-2, -1, 0, 1, 2]))

    def test_smallest_computed_modes_sit_on_the_ladder(self):
        comp = compress(acoustic_wave(64), 1)
        lams = np.linalg.eigvals(comp.a_k)
        small = lams[np.argsort(np.abs(lams))[:21]]
        ref = acoustic_spectrum(30)
        errs = np.abs(small[:, None] - ref[None, :]).min(axis=1)
        assert errs.max() < 1e-10


class TestInitialConditions:
    def test_bump_pointwise_values(self):
        pts = np.array([-0.2999999, -0.3, 0.0, 0.29, 0.3])
        vals = bump_ic(pts)
        assert vals[0] == pytest.approx(0.939413023671, abs=1e-9)
        assert vals[1] == 0.0  # jump: just inside is ~0.94, the endpoint is 0
        assert vals[2] == pytest.approx(np.exp(-1.0), abs=1e-15)
        assert vals[3] == 0.0  # right cutoff is smooth, underflows to zero
        assert vals[4] == 0.0

    def test_bump_support(self):
        grid = cheb_points(64)
        vals = bump_ic(grid)
        outside = np.abs(grid) >= 0.3
        assert not vals[outside].any()
        assert vals.max() > 0.9

    def test_sine_profile_closed_form(self):
        grid = cheb_points(40)
        np.testing.assert_allclose(
            sine_ic(grid), np.sin(np.pi * grid), atol=1e-13
        )


@pytest.fixture(scope="module")
def long_double_coefficients():
    """Sine coefficients of both profiles for modes 1..1500 in long double.

    The dense series: one full row of sines per mode, summed against the
    same float64 weighted samples the reference starts from, with the
    angles, sines and sums carried in long double.
    """
    xq, wq = problems._gauss_rule()
    theta = LONG_PI * (xq.astype(np.longdouble) + 1) / 2
    samples = {"bump": wq * bump_ic(xq), "sine": wq * sine_ic(xq)}
    m = np.arange(1, 1501).astype(np.longdouble)
    coeff = {ic: np.empty(m.size, dtype=np.longdouble) for ic in samples}
    for i in range(0, m.size, 100):
        table = np.sin(np.multiply.outer(m[i : i + 100], theta))
        for ic, fq in samples.items():
            coeff[ic][i : i + 100] = table @ fq.astype(np.longdouble)
    return coeff


class TestAcousticReference:
    def test_sine_solution_is_a_single_standing_wave(self):
        x = cheb_points(48)
        t = 0.37
        p, u = acoustic_reference(x, "sine", t, n_modes=500)
        np.testing.assert_allclose(p, np.cos(np.pi * t) * np.sin(np.pi * x), atol=1e-10)
        np.testing.assert_allclose(u, np.sin(np.pi * t) * np.cos(np.pi * x), atol=1e-10)

    def test_starts_from_rest(self):
        grid = cheb_points(32)
        p, u = acoustic_reference(grid, "sine", 0.0)
        np.testing.assert_allclose(p, sine_ic(grid), atol=1e-12)
        assert not u.any()

    def test_bump_series_carries_a_gibbs_floor_at_t_zero(self):
        # the initial profile has a jump, so a 1500-term sine series
        # reconstructs it to percent level only; this pins the window
        grid = cheb_points(64)
        p, u = acoustic_reference(grid, "bump", 0.0, n_modes=1500)
        rel = np.linalg.norm(p - bump_ic(grid)) / np.linalg.norm(bump_ic(grid))
        assert 1e-4 < rel < 5e-2
        assert not u.any()

    def test_blocks_match_the_dense_series(self):
        # 250 modes: width 16, so modes 0..255 in 16 bases, two full
        # groups of _BASE_ROWS = 8; the series drops modes past 250
        grid = cheb_points(24)
        xq, wq = problems._gauss_rule()
        m = np.arange(1, 251)
        coeff = np.sin(np.outer(m, np.pi * (xq + 1.0) / 2.0)) @ (wq * bump_ic(xq))
        p_dense = (coeff * np.cos(m * np.pi / 2.0)) @ np.sin(np.outer(m, np.pi * (grid + 1.0) / 2.0))
        p, _ = acoustic_reference(grid, "bump", 1.0, n_modes=250)
        np.testing.assert_allclose(p, p_dense, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 99, 100, 101, 1500])
    @pytest.mark.parametrize("ic", ["bump", "sine"])
    def test_matches_the_long_double_series(self, long_double_coefficients, ic, n_modes):
        # worst case over both profiles, every n_modes and 1 or 2 BLAS
        # threads, measured on x86_64: 0.22 of the bound, and 0.32 for the
        # dense float64 sine table the angle-addition coefficients replaced
        grid = cheb_points(24)
        t = 0.7
        m = np.arange(1, n_modes + 1).astype(np.longdouble)
        coeff = long_double_coefficients[ic][:n_modes]
        angle = np.multiply.outer(m, LONG_PI * (grid.astype(np.longdouble) + 1) / 2)
        p_long = (coeff * np.cos(m * LONG_PI / 2 * t)) @ np.sin(angle)
        u_long = (coeff * np.sin(m * LONG_PI / 2 * t)) @ np.cos(angle)
        p, u = acoustic_reference(grid, ic, t, n_modes=n_modes)
        bound = 2 * np.finfo(float).eps * (n_modes + 2)
        assert np.abs(p - p_long).max() <= bound
        assert np.abs(u - u_long).max() <= bound

    def test_validation(self):
        grid = cheb_points(16)
        with pytest.raises(ValueError, match="initial condition"):
            acoustic_reference(grid, "boxcar", 0.0)
        with pytest.raises(ValueError, match="mode"):
            acoustic_reference(grid, "sine", 0.0, n_modes=0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_raises_before_any_table(self, t):
        # a non-finite time made all-nan fields, with RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="time must be finite"):
                acoustic_reference(cheb_points(8), "bump", t)


class TestGaussRule:
    """The shipped 4096-point Gauss-Legendre table behind acoustic_reference."""

    def test_shape_and_exact_symmetry(self):
        nodes, weights = problems._gauss_rule()
        assert nodes.shape == weights.shape == (4096,)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)

    def test_weights_sum_to_interval_length(self):
        _, weights = problems._gauss_rule()
        assert abs(weights.sum() - 2.0) <= 1e-14

    @pytest.mark.parametrize("k", range(2, 65, 2))
    def test_integrates_even_monomials(self, k):
        # measured: at most 1.1e-16 off in float64 for every even k <= 64;
        # scipy's roots_legendre(4096) misses them by -2.0e-13 to -2.7e-13
        nodes, weights = problems._gauss_rule()
        assert abs(weights @ nodes**k - 2.0 / (k + 1)) <= 1e-15

    def test_matches_the_long_double_recurrence(self):
        # P_4096 and P_4096' by the three-term recurrence in long double:
        # one more Newton step moves no node by more than half its float64
        # spacing (measured: 0.4991), and each weight is within eps of
        # 2 / ((1 - x^2) P'(x)^2) at the refined node (measured: 1.5e-16);
        # the nodes below 0 mirror these bit for bit
        nodes, weights = (half[2048:] for half in problems._gauss_rule())

        def legendre(x):
            before, p = np.ones_like(x), x.copy()
            for k in range(1, 4096):
                before, p = p, ((2 * k + 1) * x * p - k * before) / (k + 1)
            return p, 4096 * (x * p - before) / (x * x - 1)

        x = nodes.astype(np.longdouble)
        p, dp = legendre(x)
        step = p / dp
        assert np.all(np.abs(step) <= 0.51 * np.spacing(nodes))
        _, dp = legendre(x - step)
        exact = 2 / ((1 - (x - step) ** 2) * dp * dp)
        assert np.all(np.abs(weights - exact) <= np.finfo(float).eps * exact)

    def test_is_read_only_and_shared(self):
        nodes, weights = problems._gauss_rule()
        assert problems._gauss_rule()[0] is nodes
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.0


class TestRegistry:
    def test_registered_names(self):
        assert list(REGISTRY) == ["heat", "canuto", "orr-sommerfeld", "acoustic"]

    def test_lookup_returns_builders(self):
        assert get_problem("heat").build is heat_dirichlet
        assert get_problem("canuto").build is canuto_hyperbolic
        assert get_problem("orr-sommerfeld").params == ("n", "alpha", "reynolds")

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="acoustic"):
            get_problem("laplace")

    def test_reference_covers_reach_requested_radius(self):
        for name in ("heat", "canuto", "acoustic"):
            cover = get_problem(name).reference_cover
            for radius in (1.0, 50.0, 400.0):
                assert np.abs(cover(radius)).max() >= radius
        assert get_problem("orr-sommerfeld").reference_cover is None

    def test_reference_covers_lie_on_an_axis(self):
        # the contract experiments.match_to_reference searches along
        for problem in REGISTRY.values():
            if problem.reference_cover is None:
                continue
            for radius in (0.0, 1.0, 50.0, 400.0, 1.5e4):
                cover = problem.reference_cover(radius)
                assert np.all(cover.imag == 0.0) or np.all(cover.real == 0.0), problem.name
