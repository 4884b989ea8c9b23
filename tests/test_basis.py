"""Tests for the symmetrized basis: parity, orthonormality, first-order calculus.

The closed form of the odd-index functions was verified against mpmath
numerical differentiation of the defining formula before freezing; here the
two routes are compared in float and the sign table of the first-order
operator is pinned against the pointwise operator.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symjacobi.basis import (
    analyze,
    d_apply_pointwise,
    d_apply_spectral,
    defining_odd_phi,
    delta_apply,
    delta_star_apply,
    eval_phi,
    half_index,
    lowering_compose,
    mode_table,
    phi_table,
    sym_eigenvalue,
    sym_operator_apply,
    synthesize,
)
from symjacobi.core import JacobiParams, eigenvalue, eval_trig_poly
from symjacobi.quadrature import mu_full_rule, mu_plus_rule

PARAM_PAIRS = [(-0.5, -0.5), (0.0, 0.0), (0.5, 2.0), (3.0, -0.5)]


class TestEvalPhi:
    def test_half_index(self):
        assert list(half_index(np.arange(7))) == [0, 1, 1, 2, 2, 3, 3]

    def test_constant_mode_chebyshev(self):
        """Phi_0 = 1/sqrt(2 pi) at (-1/2, -1/2)."""
        p = JacobiParams(-0.5, -0.5)
        th = np.linspace(-3.0, 3.0, 11)
        assert_allclose(eval_phi(p, 0, th), np.full_like(th, (2.0 * np.pi) ** -0.5), rtol=1e-14)

    def test_parity(self):
        p = JacobiParams(0.5, 2.0)
        th = np.linspace(0.1, 3.0, 17)
        for n in [0, 2, 6]:
            assert_allclose(eval_phi(p, n, -th), eval_phi(p, n, th), rtol=1e-14)
        for n in [1, 3, 7]:
            assert_allclose(eval_phi(p, n, -th), -eval_phi(p, n, th), rtol=1e-14)

    def test_odd_closed_form_matches_definition(self):
        """(1/(2 sqrt2)) sin(theta) Ptrig_{k-1}^{(+1,+1)} equals the normalized
        lowering of Ptrig_k."""
        th = np.linspace(-2.9, 2.9, 41)
        for a, b in PARAM_PAIRS:
            p = JacobiParams(a, b)
            for k in [1, 2, 5]:
                assert_allclose(
                    eval_phi(p, 2 * k - 1, th),
                    defining_odd_phi(p, k, th),
                    rtol=1e-11,
                    atol=1e-13,
                )

    def test_table(self):
        p = JacobiParams(3.0, -0.5)
        th = np.linspace(-2.5, 2.5, 13)
        tab = phi_table(p, 9, th)
        for n in range(10):
            assert_allclose(tab[n], eval_phi(p, n, th), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "theta",
        [np.array(0.7), np.linspace(-3.0, 3.0, 15).reshape(3, 5), np.linspace(-3.1, 3.1, 64)],
        ids=["0-d", "3x5", "64"],
    )
    @pytest.mark.parametrize("ab", [(-0.5, -0.5), (6.0, 2.0), (0.5, -0.25)], ids=str)
    def test_table_rows_bitwise(self, ab, theta):
        """The table built in place holds eval_phi's bits, row by row, on
        theta of any shape, for even and odd nmax."""
        p = JacobiParams(*ab)
        for nmax in (0, 1, 40, 41):
            tab = phi_table(p, nmax, theta)
            assert tab.shape == (nmax + 1,) + theta.shape
            for n in range(nmax + 1):
                assert np.array_equal(tab[n], eval_phi(p, n, theta)), n

    def test_table_builds_no_temporaries(self):
        """phi_table(511, 2048 points) peaks below 1.1 times its output: the
        recurrence and the scalings run in place, with a few theta-sized
        rows beside the table."""
        p = JacobiParams(0.5, -0.25)
        th = np.linspace(-3.1, 3.1, 2048)
        phi_table(p, 511, th)
        tracemalloc.start()
        try:
            phi_table(p, 511, th)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 512 * th.size * 8

    def test_orthonormality(self):
        """<Phi_n, Phi_m> over dmu = delta_{nm} for n, m <= 16."""
        for a, b in PARAM_PAIRS:
            p = JacobiParams(a, b)
            rule = mu_full_rule(p, 48)
            tab = phi_table(p, 16, rule.nodes)
            gram = (tab * rule.weights) @ tab.T
            assert_allclose(gram, np.eye(17), atol=1e-12)

    def test_half_line_families_orthonormal(self):
        """Each of {sqrt2 Phi_{2n}} and {sqrt2 Phi_{2n+1}} restricted to
        (0, pi) is orthonormal in L^2(dmu+)."""
        p = JacobiParams(0.5, 2.0)
        rule = mu_plus_rule(p, 48)
        even = np.sqrt(2.0) * phi_table(p, 20, rule.nodes)[0::2]
        odd = np.sqrt(2.0) * phi_table(p, 21, rule.nodes)[1::2]
        assert_allclose((even * rule.weights) @ even.T, np.eye(even.shape[0]), atol=1e-12)
        assert_allclose((odd * rule.weights) @ odd.T, np.eye(odd.shape[0]), atol=1e-12)


class TestAnalyzeSynthesize:
    def test_basis_vectors(self):
        p = JacobiParams(0.0, 0.0)
        for m in [0, 1, 4, 9]:
            coeffs = analyze(p, lambda th: eval_phi(p, m, th), 12)
            expected = np.zeros(13)
            expected[m] = 1.0
            assert_allclose(coeffs, expected, atol=1e-12)

    def test_roundtrip_band_limited(self):
        rng = np.random.default_rng(42)
        for a, b in PARAM_PAIRS:
            p = JacobiParams(a, b)
            c = rng.standard_normal(14)
            got = analyze(p, lambda th: synthesize(p, c, th), 13)
            assert_allclose(got, c, atol=1e-11)

    def test_parseval(self):
        """Sum of squared coefficients equals the squared dmu norm."""
        p = JacobiParams(0.5, 2.0)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(10)
        f = lambda th: synthesize(p, c, th)
        rule = mu_full_rule(p, 64)
        norm_sq = rule.integrate(f(rule.nodes) ** 2)
        assert_allclose(norm_sq, np.sum(c**2), rtol=1e-12)


class TestDOperator:
    def test_spectral_shift_rule(self):
        """D moves even indices down one, odd indices up one, with the frozen
        signs and the gap magnitudes."""
        p = JacobiParams(0.5, 2.0)
        gap = lambda k: float(eigenvalue(p, k) - p.lam0)
        c = np.zeros(8)
        c[4] = 1.0  # Phi_4 = even, degree 2
        out = d_apply_spectral(p, c)
        expected = np.zeros(9)
        expected[3] = -np.sqrt(gap(2))
        assert_allclose(out, expected, rtol=1e-14)
        c = np.zeros(8)
        c[3] = 1.0  # Phi_3 = odd, degree 2
        out = d_apply_spectral(p, c)
        expected = np.zeros(9)
        expected[4] = +np.sqrt(gap(2))
        assert_allclose(out, expected, rtol=1e-14)

    def test_kills_bottom_mode(self):
        p = JacobiParams(0.0, 0.0)
        c = np.zeros(5)
        c[0] = 2.5
        assert_allclose(d_apply_spectral(p, c), np.zeros(6), atol=0.0)

    def test_second_power_diagonal(self):
        """D^2 = -(lam_{<n>} - lam_0) on every mode, exactly in coefficients."""
        for a, b in PARAM_PAIRS:
            p = JacobiParams(a, b)
            n = np.arange(12)
            c = np.ones(12)
            out = d_apply_spectral(p, c, order=2)
            assert_allclose(out[:12], -(sym_eigenvalue(p, n) - p.lam0) * c, rtol=1e-13)
            assert_allclose(out[12:], 0.0, atol=0.0)

    def test_pointwise_matches_spectral(self):
        """Pointwise D of a random band-limited function agrees with the
        spectral shift rule on an interior grid."""
        rng = np.random.default_rng(11)
        th = np.linspace(-2.7, 2.7, 31)
        th = th[np.abs(th) > 0.25]
        for a, b in PARAM_PAIRS:
            p = JacobiParams(a, b)
            c = rng.standard_normal(9)
            f = lambda t: synthesize(p, c, t)
            spect = synthesize(p, d_apply_spectral(p, c), th)
            point = d_apply_pointwise(p, f, th, h=1e-5)
            assert_allclose(point, spect, rtol=2e-7, atol=2e-7)

    def test_sym_operator_eigenfunctions(self):
        """-D^2 + lam0 reproduces lam_{<n>} Phi_n pointwise (FD accuracy)."""
        p = JacobiParams(0.0, 0.0)
        th = np.linspace(-2.6, 2.6, 21)
        th = th[np.abs(th) > 0.4]
        for n in [0, 1, 2, 5]:
            lam = float(sym_eigenvalue(p, n))
            got = sym_operator_apply(p, lambda t: eval_phi(p, n, t), th, h=1e-4)
            assert_allclose(got, lam * eval_phi(p, n, th), rtol=1e-5, atol=1e-6)


class TestLoweringOperators:
    def test_delta_on_trig_poly(self):
        """delta Ptrig_n equals the analytic derivative rule."""
        from symjacobi.core import eval_trig_poly_deriv

        p = JacobiParams(0.5, 2.0)
        th = np.linspace(0.4, 2.7, 15)
        for n in [1, 3, 6]:
            fd = delta_apply(lambda t: eval_trig_poly(p, n, t), th, h=1e-6)
            assert_allclose(fd, eval_trig_poly_deriv(p, n, th), rtol=1e-7, atol=1e-8)

    def test_adjoint_identity(self):
        """<delta f, g>_{dmu+} = <f, delta* g>_{dmu+} for interior-supported
        smooth f, g (integration by parts with no boundary terms)."""
        p = JacobiParams(0.5, 2.0)
        rule = mu_plus_rule(p, 200)
        th = rule.nodes
        bump = lambda t: np.exp(-1.0 / np.maximum((t - 0.5) * (2.6 - t), 1e-30)) * (
            (t > 0.5) & (t < 2.6)
        )
        f = bump
        g = lambda t: np.cos(3.0 * t) * bump(t)
        lhs = rule.integrate(delta_apply(f, th, 1e-6) * g(th))
        rhs = rule.integrate(f(th) * delta_star_apply(p, g, th, 1e-6))
        assert_allclose(lhs, rhs, rtol=5e-6, atol=1e-8)

    def test_two_step_identity(self):
        """delta* delta Ptrig_n = (lam_n - lam_0) Ptrig_n, with O(h^2) error."""
        p = JacobiParams(0.5, 2.0)
        n = 3
        gap = float(eigenvalue(p, n) - p.lam0)
        th = np.linspace(0.5, 2.6, 17)
        ref = gap * eval_trig_poly(p, n, th)
        errs = []
        for h in [2e-3, 1e-3]:
            got = lowering_compose(p, lambda t: eval_trig_poly(p, n, t), th, 2, "delta", h)
            errs.append(np.max(np.abs(got - ref)))
        assert errs[1] < 1e-3 * max(1.0, np.max(np.abs(ref)))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.9

    def test_odd_two_step_identity(self):
        """delta delta* on an odd-index basis function multiplies by the gap."""
        p = JacobiParams(0.0, 0.0)
        k = 2  # Phi_{2k-1}
        gap = float(eigenvalue(p, k) - p.lam0)
        th = np.linspace(0.5, 2.6, 17)
        ref = gap * eval_phi(p, 2 * k - 1, th)
        got = lowering_compose(p, lambda t: eval_phi(p, 2 * k - 1, t), th, 2, "delta_star", 1e-3)
        assert_allclose(got, ref, rtol=1e-5, atol=1e-6)

    def test_bad_first(self):
        with pytest.raises(ValueError, match="delta"):
            lowering_compose(JacobiParams(0.0, 0.0), np.sin, 1.0, 2, "nope")


class TestModeTable:
    """The one builder of mode rows: derivative rows against central
    differences of the rows one order lower, lowered rows against the
    pointwise adjoint lowering of the odd modes."""

    PARAMS = [(0.0, 0.0), (0.5, 2.0), (-0.5, 1.0)]
    THETA = np.linspace(0.2, 2.9, 23)
    N_MODES = 9

    @pytest.mark.parametrize("a, b", PARAMS)
    @pytest.mark.parametrize("parity, lowered", [("even", False), ("odd", False), ("odd", True)])
    @pytest.mark.parametrize("order", [1, 2])
    def test_derivative_rows_match_central_differences(self, a, b, parity, lowered, order):
        p = JacobiParams(a, b)
        h = 1e-5

        def lower(x):
            return mode_table(p, self.N_MODES, x, parity, order - 1, lowered)

        ref = (lower(self.THETA + h) - lower(self.THETA - h)) / (2.0 * h)
        got = mode_table(p, self.N_MODES, self.THETA, parity, order, lowered)
        assert got.shape == (self.N_MODES, self.THETA.size)
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-7 * np.maximum(scale, 1.0))

    @pytest.mark.parametrize("a, b", PARAMS)
    def test_lowered_rows_match_adjoint_lowering(self, a, b):
        p = JacobiParams(a, b)
        got = mode_table(p, self.N_MODES, self.THETA, "odd", lowered=True)
        for n in range(self.N_MODES):
            odd_mode = lambda x, n=n: mode_table(p, self.N_MODES, x, "odd")[n]
            ref = delta_star_apply(p, odd_mode, self.THETA)
            assert_allclose(got[n], ref, rtol=1e-7, atol=1e-7 * np.max(np.abs(ref)))

    def test_full_parity_takes_no_derivatives(self):
        p = JacobiParams(0.0, 0.0)
        with pytest.raises(ValueError):
            mode_table(p, 4, self.THETA, "full", order=1)
        with pytest.raises(ValueError):
            mode_table(p, 4, self.THETA, "full", lowered=True)
        with pytest.raises(ValueError):
            mode_table(p, 4, self.THETA, "even", lowered=True)
        with pytest.raises(ValueError):
            mode_table(p, 4, self.THETA, "odd", order=3)
