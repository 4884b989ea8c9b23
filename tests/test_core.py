"""Tests for the Jacobi polynomial core: the normalized recurrence, its
single-degree rows, the classical-recurrence oracle, and the spectrum.

Reference values were frozen from a 40-digit mpmath session (hypergeometric
evaluation of the polynomials, gamma-function normalizers, numerical
differentiation for the derivative rule), independent of the recurrences
checked here.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import jacobi_operator_apply, jacobi_table
from symjacobi import core
from symjacobi.core import (
    JacobiParams,
    eigenvalue,
    eval_trig_poly,
    eval_trig_poly_deriv,
    spectrum,
    total_mass,
    trig_poly_table,
)

PARAM_PAIRS = [(-0.5, -0.5), (0.0, 0.0), (0.5, 2.0), (3.0, -0.5)]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="exceed -1"):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(ValueError, match="exceed -1"):
            JacobiParams(0.0, -1.5)

    @pytest.mark.parametrize(
        "ab, bad",
        [((np.inf, 0.0), "alpha=inf"), ((0.0, np.inf), "beta=inf"), ((np.nan, 0.0), "alpha=nan")],
    )
    def test_nonfinite_rejected(self, ab, bad):
        """An infinite parameter is refused, naming it, not carried into
        all-NaN tables."""
        name, value = bad.split("=")
        with pytest.raises(ValueError, match=f"{name} must be finite and exceed -1, got {value}"):
            JacobiParams(*ab)

    def test_critical_flag(self):
        assert JacobiParams(-0.5, -0.5).critical
        assert JacobiParams(-0.25, -0.75).critical
        assert not JacobiParams(0.0, 0.0).critical

    def test_lam0(self):
        assert JacobiParams(-0.5, -0.5).lam0 == 0.0
        assert JacobiParams(0.0, 0.0).lam0 == 0.25
        assert_allclose(JacobiParams(0.5, 2.0).lam0, (3.5 / 2.0) ** 2, rtol=1e-15)

    def test_kernel_valid(self):
        assert JacobiParams(-0.5, 2.0).kernel_valid
        assert not JacobiParams(-0.75, 0.0).kernel_valid


class TestEvalJacobi:
    # (n, alpha, beta, x, value) frozen from mpmath.jacobi at 40 digits
    FROZEN = [
        (0, 0.5, -0.5, 0.3, 1.0),
        (1, 0.5, -0.5, 0.3, 0.7999999999999999889),
        (5, 0.5, -0.5, 0.7, -0.59952375000000002763),
        (8, 0.0, 0.0, -0.2, -0.039564800000000026424),
        (12, 3.0, -0.5, 0.9, 5.4497472538500176331),
        (3, 1.5, 2.0, -0.75, -2.9180908203125),
    ]

    def test_frozen_values(self):
        for n, a, b, x, ref in self.FROZEN:
            assert_allclose(jacobi_table(n, a, b, x)[n], ref, rtol=1e-13)

    def test_value_at_one(self):
        """P_n(1) = binom(n + alpha, n)."""
        from scipy.special import binom

        for a, b in PARAM_PAIRS:
            for n in [0, 1, 2, 7, 20]:
                assert_allclose(jacobi_table(n, a, b, 1.0)[n], binom(n + a, n), rtol=1e-12)

    def test_symmetry(self):
        """P_n^{(a,b)}(-x) = (-1)^n P_n^{(b,a)}(x)."""
        x = np.linspace(-1, 1, 31)
        for n in [0, 1, 4, 9]:
            assert_allclose(
                jacobi_table(n, 0.5, 2.0, -x)[n],
                (-1.0) ** n * jacobi_table(n, 2.0, 0.5, x)[n],
                rtol=1e-12,
                atol=1e-14,
            )

    def test_table_matches_single(self):
        x = np.linspace(-1, 1, 17)
        tab = jacobi_table(10, 0.5, 2.0, x)
        for n in range(11):
            assert_allclose(tab[n], jacobi_table(n, 0.5, 2.0, x)[n], rtol=1e-13)

    def test_against_scipy(self):
        from scipy.special import eval_jacobi as scipy_jacobi

        x = np.linspace(-0.99, 0.99, 41)
        for a, b in PARAM_PAIRS:
            for n in [0, 1, 3, 10, 25]:
                assert_allclose(
                    jacobi_table(n, a, b, x)[n], scipy_jacobi(n, a, b, x), rtol=1e-10, atol=1e-12
                )

    def test_bad_degree(self):
        with pytest.raises(ValueError, match="nonnegative"):
            jacobi_table(-1, 0.0, 0.0, 0.5)


class TestTrigPoly:
    FROZEN = [
        (5, -0.5, -0.5, 0.8, -0.52153215335435749673),
        (4, 0.5, 2.0, 1.1, -0.13413398019126420837),
        (9, 3.0, -0.5, 2.4, 0.039743112639800630765),
    ]

    def test_frozen_values(self):
        for n, a, b, th, ref in self.FROZEN:
            assert_allclose(eval_trig_poly(JacobiParams(a, b), n, th), ref, rtol=1e-12)

    def test_chebyshev_cosines(self):
        """At (-1/2,-1/2): 1/sqrt(pi) for n=0 and sqrt(2/pi) cos(n theta) for n>=1."""
        p = JacobiParams(-0.5, -0.5)
        th = np.linspace(0.05, np.pi - 0.05, 40)
        assert_allclose(eval_trig_poly(p, 0, th), np.full_like(th, np.pi**-0.5), rtol=1e-13)
        for n in [1, 2, 5, 12]:
            assert_allclose(
                eval_trig_poly(p, n, th), np.sqrt(2 / np.pi) * np.cos(n * th), rtol=1e-11, atol=1e-13
            )

    def test_even_in_theta(self):
        p = JacobiParams(0.5, 2.0)
        th = np.linspace(0.1, 3.0, 11)
        for n in [0, 3, 6]:
            assert_allclose(eval_trig_poly(p, n, -th), eval_trig_poly(p, n, th), rtol=1e-14)

    def test_table(self):
        p = JacobiParams(3.0, -0.5)
        th = np.linspace(0.2, 2.8, 9)
        tab = trig_poly_table(p, 8, th)
        # a row of a longer table holds the single-degree row's bits, the
        # prefix property that ModeRows' row reuse relies on
        assert tab.shape == (9, 9)
        for n in range(9):
            assert np.array_equal(tab[n], eval_trig_poly(p, n, th))

    def test_high_degree_in_point_blocks(self, monkeypatch):
        """At degree 1000 on 10 000 points, eval_trig_poly peaks near one
        block's table (SWEEP_BYTES), not the whole 80 MB table, returns the
        input's shape, and holds the whole table's row n bitwise."""
        p = JacobiParams(0.5, 2.0)
        th = np.linspace(0.01, 3.13, 10_000).reshape(100, 100)
        eval_trig_poly(p, 1000, th[:1])
        tracemalloc.start()
        try:
            got = eval_trig_poly(p, 1000, th)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * core.SWEEP_BYTES
        assert got.shape == th.shape
        assert np.array_equal(got, trig_poly_table(p, 1000, th)[1000])
        # blocks that end inside the array, and a 0-d input
        monkeypatch.setattr(core, "SWEEP_BYTES", 8 * 1001 * 37)
        assert np.array_equal(eval_trig_poly(p, 1000, th), got)
        assert np.ndim(eval_trig_poly(p, 1000, th[3, 7])) == 0
        assert eval_trig_poly(p, 1000, th[3, 7]) == got[3, 7]


# degrees and angles of the high-degree check, and at each parameter pair the
# worst error, relative to the row's largest value, of the classical
# recurrence scaled by a ratio recurrence for c_n, which built these rows
# before the normalized recurrence did
HIGH_DEGREES = (100, 1000, 2047, 4096)
HIGH_THETAS = (0.05, 0.7, 1.6, 2.5, 3.1)
CLASSICAL_ERRORS = {(0.5, 2.0): 3.0e-13, (0.0, 0.0): 1.4e-12, (6.0, 2.0): 1.1e-11, (-0.9, 3.0): 3.5e-10}


def _trig_poly_mp(alpha, beta, n, theta):
    """c_n P_n(cos theta) in 40-digit mpmath, from its hypergeometric Jacobi
    polynomial and Gamma-function normalizer, at the exact float arguments."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        log_c2 = (
            mpmath.log(2 * n + a + b + 1) + mpmath.loggamma(n + a + b + 1) + mpmath.loggamma(n + 1)
            - mpmath.loggamma(n + a + 1) - mpmath.loggamma(n + b + 1)
        )
        return float(mpmath.exp(log_c2 / 2) * mpmath.jacobi(n, a, b, mpmath.cos(mpmath.mpf(theta))))


@pytest.mark.parametrize("ab", CLASSICAL_ERRORS, ids=str)
def test_high_degree_rows_match_mpmath(ab):
    """Rows up to degree 4096 stay within twice the classical recurrence's
    worst error, near both ends of (0, pi) included."""
    tab = trig_poly_table(JacobiParams(*ab), HIGH_DEGREES[-1], np.array(HIGH_THETAS))
    worst = 0.0
    for n in HIGH_DEGREES:
        want = np.array([_trig_poly_mp(*ab, n, th) for th in HIGH_THETAS])
        worst = max(worst, np.max(np.abs(tab[n] - want)) / np.max(np.abs(want)))
    assert worst <= 2.0 * CLASSICAL_ERRORS[ab]


class TestTrigPolyDeriv:
    def test_against_central_difference(self):
        """Analytic rule matches a small-step central difference to 1e-8."""
        h = 1e-6
        for a, b in PARAM_PAIRS:
            p = JacobiParams(a, b)
            for n in [1, 2, 5, 9]:
                th = np.linspace(0.3, np.pi - 0.3, 15)
                fd = (eval_trig_poly(p, n, th + h) - eval_trig_poly(p, n, th - h)) / (2 * h)
                assert_allclose(eval_trig_poly_deriv(p, n, th), fd, rtol=1e-8, atol=1e-8)

    def test_zero_for_constant(self):
        p = JacobiParams(0.5, 2.0)
        assert_allclose(eval_trig_poly_deriv(p, 0, np.array([0.3, 1.0])), 0.0, atol=0.0)


class TestSpectrum:
    def test_values(self):
        p = JacobiParams(0.5, 2.0)
        ent = spectrum(p, 5)
        assert len(ent) == 6
        for k, e in enumerate(ent):
            assert e.n == k
            assert_allclose(e.lam, (k + 1.75) ** 2, rtol=1e-15)
            assert_allclose(e.sqrt_lam, k + 1.75, rtol=1e-15)

    def test_critical_bottom(self):
        ent = spectrum(JacobiParams(-0.5, -0.5), 3)
        assert ent[0].lam == 0.0
        assert_allclose([e.lam for e in ent], [0.0, 1.0, 4.0, 9.0], rtol=1e-15)

    def test_gap_identity(self):
        """lam_k - lam_0 = k (k + alpha + beta + 1)."""
        for a, b in PARAM_PAIRS:
            p = JacobiParams(a, b)
            k = np.arange(1, 12)
            assert_allclose(
                eigenvalue(p, k) - p.lam0, k * (k + a + b + 1.0), rtol=1e-13
            )


class TestTotalMass:
    FROZEN = [
        (-0.5, -0.5, 3.1415926535897932385),
        (0.0, 0.0, 1.0),
        (0.5, 2.0, 0.15238095238095238095),
        (3.0, -0.5, 0.91428571428571428571),
        (1.5, 2.0, 0.050793650793650793651),
    ]

    def test_frozen_values(self):
        for a, b, ref in self.FROZEN:
            assert_allclose(total_mass(JacobiParams(a, b)), ref, rtol=1e-13)


class TestOperatorApply:
    def test_eigenfunction_residual(self):
        """J Ptrig_n = lam_n Ptrig_n with O(h^2) finite-difference error."""
        p = JacobiParams(0.5, 2.0)
        n = 4
        lam = float(eigenvalue(p, n))
        errs = []
        for m in [800, 1600]:
            th = np.linspace(0.4, np.pi - 0.4, m)
            f = eval_trig_poly(p, n, th)
            res = jacobi_operator_apply(p, f, th)[1:-1] - lam * f[1:-1]
            errs.append(np.max(np.abs(res)))
        order = np.log2(errs[0] / errs[1])
        assert errs[1] < 0.02
        assert order > 1.9

    def test_nonuniform_grid_rejected(self):
        p = JacobiParams(0.0, 0.0)
        th = np.array([0.1, 0.2, 0.45])
        with pytest.raises(ValueError, match="uniform"):
            jacobi_operator_apply(p, np.sin(th), th)
