"""Tests for spectral-side operators: semigroup, maximal, Riesz, square
functions, multipliers, and the parity reduction."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import combine_symmetrized, delta_apply, delta_star_apply, reduce_symmetrized
from symjacobi.basis import (
    d_apply_spectral,
    mode_eigenvalues,
    mode_table,
    phi_table,
    sym_eigenvalue,
)
from symjacobi.core import JacobiParams, eigenvalue, trig_poly_table
from symjacobi.kernels import L2TWeighted, SupOverT, bnorm
from symjacobi.operators import (
    AtomicMultiplier,
    LaplaceMultiplier,
    fractional_atoms,
    gfun_apply,
    gfun_bound,
    gfun_mode_factors,
    gfun_norm,
    maximal_apply,
    multiplier_apply,
    riesz_apply,
    semigroup_apply,
)
from symjacobi.quadrature import mu_full_rule, mu_plus_rule

MN_SET = [(1, 0), (0, 1), (1, 1), (2, 1)]


class TestConventions:
    def test_bad_parity(self):
        with pytest.raises(ValueError, match="parity"):
            semigroup_apply(JacobiParams(0.0, 0.0), 1.0, np.ones(3), parity="both")

    def test_restricted_needs_half_line(self):
        with pytest.raises(ValueError, match="half-line"):
            riesz_apply(JacobiParams(0.0, 0.0), np.ones(3), parity="full", restricted=True)

    def test_mode_eigenvalues(self):
        p = JacobiParams(0.5, 2.0)
        full = mode_eigenvalues(p, 5, "full")
        assert_allclose(full, sym_eigenvalue(p, np.arange(5)))
        assert_allclose(mode_eigenvalues(p, 4, "odd"), eigenvalue(p, np.arange(1, 5)))

    def test_mode_tables_orthonormal(self):
        """Each parity's mode family is orthonormal under its measure."""
        p = JacobiParams(0.5, 2.0)
        full = mu_full_rule(p, 200)
        half = mu_plus_rule(p, 200)
        for parity, rule in [("full", full), ("even", half), ("odd", half)]:
            tab = mode_table(p, 8, rule.nodes, parity)
            gram = (tab * rule.weights) @ tab.T
            assert np.max(np.abs(gram - np.eye(8))) < 1e-12


class TestSemigroup:
    def test_zero_time_identity(self):
        p = JacobiParams(0.0, 0.0)
        c = np.array([1.0, -2.0, 0.5])
        assert_allclose(semigroup_apply(p, 0.0, c), c)

    def test_decay_factors(self):
        p = JacobiParams(0.5, 2.0)
        c = np.ones(6)
        out = semigroup_apply(p, 0.8, c, parity="even")
        ref = np.exp(-0.8 * np.sqrt(eigenvalue(p, np.arange(6))))
        assert_allclose(out, ref, rtol=1e-15)

    def test_restricted_half(self):
        p = JacobiParams(0.5, 2.0)
        c = np.ones(4)
        assert_allclose(
            semigroup_apply(p, 1.2, c, parity="even", restricted=True),
            0.5 * semigroup_apply(p, 1.2, c, parity="even"),
            rtol=0,
        )

    def test_infinite_time_projects_on_zero_mode(self):
        """On the critical line the bottom eigenvalue is 0, so at t = inf
        only that mode survives; finite t keeps the plain decay bit for bit."""
        p = JacobiParams(-0.25, -0.75)
        c = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(semigroup_apply(p, np.inf, c), [1.0, 0.0, 0.0, 0.0])
        lam = mode_eigenvalues(p, 4)
        assert np.array_equal(semigroup_apply(p, 0.7, c), c * np.exp(-0.7 * np.sqrt(lam)))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            semigroup_apply(JacobiParams(0.0, 0.0), -0.1, np.ones(2))

    def test_nan_time_rejected(self):
        """A NaN time is refused, naming it, not carried into all-NaN
        coefficients."""
        with pytest.raises(ValueError, match="time must be nonnegative, got nan"):
            semigroup_apply(JacobiParams(0.0, 0.0), np.nan, np.ones(2))


class TestMaximal:
    def test_constant_fixed_in_critical_case(self):
        """The critical-case semigroup fixes constants, so the maximal
        function of the bottom mode is its absolute value."""
        p = JacobiParams(-0.5, -0.5)
        assert p.critical
        th = np.linspace(-2.5, 2.5, 9)
        c = np.zeros(5)
        c[0] = 1.0
        assert_allclose(maximal_apply(p, c, th), np.abs(phi_table(p, 4, th)[0]), rtol=1e-14)

    def test_bottom_mode_sup_at_smallest_time(self):
        p = JacobiParams(0.5, 2.0)
        th = np.linspace(-2.5, 2.5, 9)
        c = np.zeros(3)
        c[0] = 1.0
        ref = np.exp(-1e-4 * np.sqrt(p.lam0)) * np.abs(phi_table(p, 2, th)[0])
        assert_allclose(maximal_apply(p, c, th), ref, rtol=1e-13)

    def test_dominates_fixed_time(self):
        p = JacobiParams(0.0, 0.0)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(8)
        th = rng.uniform(-3.0, 3.0, 25)
        t_star = 0.5  # on the default grid up to rounding; compare with slack
        fixed = np.abs(
            semigroup_apply(p, t_star, c) @ phi_table(p, 7, th)
        )
        assert np.all(maximal_apply(p, c, th) >= fixed * (1.0 - 1e-6))


class TestRiesz:
    def test_full_pure_mode_ratio(self):
        """Squared output equals 1 - lam0/lam, approaching 1 from below."""
        p = JacobiParams(0.5, 2.0)
        for n in [1, 2, 5, 40]:
            c = np.zeros(n + 1)
            c[n] = 1.0
            out = riesz_apply(p, c, parity="full")
            lam = sym_eigenvalue(p, np.array([n]))[0]
            assert_allclose(np.sum(out**2), 1.0 - p.lam0 / lam, rtol=1e-13)

    def test_restricted_quarter_bound(self):
        """Restricted squared ratio is (1/4)(1 - lam0/lam): below 1/4 always,
        above 0.24 for high modes."""
        p = JacobiParams(0.5, 2.0)
        for n in [1, 5, 40]:
            c = np.zeros(n + 1)
            c[n] = 1.0
            out = riesz_apply(p, c, parity="even", restricted=True)
            lam = eigenvalue(p, np.array([n]))[0]
            got = np.sum(out**2)
            assert_allclose(got, 0.25 * (1.0 - p.lam0 / lam), rtol=1e-13)
            assert got < 0.25
        assert np.sum(riesz_apply(p, c, parity="even", restricted=True) ** 2) > 0.24

    def test_even_dual_route(self):
        """Spectral Riesz equals the plain derivative of the spectrally
        computed inverse square root."""
        p = JacobiParams(0.0, 0.0)
        rng = np.random.default_rng(7)
        a = rng.standard_normal(5)
        lam = mode_eigenvalues(p, 5, "even")
        th = np.linspace(0.4, 2.7, 9)
        f = lambda x: (a / np.sqrt(lam)) @ trig_poly_table(p, 4, x)
        ref = riesz_apply(p, a, parity="even") @ mode_table(p, 4, th, "odd")
        assert_allclose(delta_apply(f, th), ref, atol=1e-8)

    def test_odd_dual_route(self):
        p = JacobiParams(0.0, 0.0)
        rng = np.random.default_rng(8)
        b = rng.standard_normal(4)
        lam = mode_eigenvalues(p, 4, "odd")
        th = np.linspace(0.4, 2.7, 9)
        g = lambda x: (b / np.sqrt(lam)) @ mode_table(p, 4, x, "odd")
        out = riesz_apply(p, b, parity="odd")
        ref = out @ mode_table(p, out.size, th, "even")
        assert_allclose(delta_star_apply(p, g, th), ref, atol=1e-8)

    def test_full_matches_spectral_lowering(self):
        p = JacobiParams(0.0, 0.0)
        rng = np.random.default_rng(9)
        c = rng.standard_normal(7)
        lam = mode_eigenvalues(p, 7, "full")
        assert_allclose(
            riesz_apply(p, c, parity="full"),
            d_apply_spectral(p, c / np.sqrt(lam)),
            rtol=1e-13,
        )

    def test_critical_constant_annihilated(self):
        p = JacobiParams(-0.5, -0.5)
        c = np.zeros(3)
        c[0] = 2.0
        assert np.all(riesz_apply(p, c, parity="even") == 0.0)
        assert np.all(riesz_apply(p, c, parity="full") == 0.0)

    def test_higher_order_pure_modes(self):
        """Restricted squared output is (1/4) ratio^order; even orders stay
        diagonal, the full-parity square carries the negative-gap sign."""
        p = JacobiParams(0.5, 2.0)
        c = np.zeros(41)
        c[40] = 1.0
        lam = eigenvalue(p, np.array([40]))[0]
        for order in [1, 2, 3]:
            out = riesz_apply(p, c, parity="even", restricted=True, order=order)
            got = np.sum(out**2)
            assert_allclose(got, 0.25 * (1.0 - p.lam0 / lam) ** order, rtol=1e-13)
            assert 0.24 < got < 0.25
        c2 = np.zeros(5)
        c2[4] = 1.0
        out = riesz_apply(p, c2, order=2)
        lam4 = sym_eigenvalue(p, np.array([4]))[0]
        assert_allclose(out[4], -(1.0 - p.lam0 / lam4), rtol=1e-14)
        assert_allclose(np.delete(out, 4), 0.0, atol=0.0)
        with pytest.raises(ValueError, match="order"):
            riesz_apply(p, c2, order=0)

    def test_order_equals_composition(self):
        """One order-3 application agrees with three order-1 applications;
        the inverse root commutes along the in-pair mode walk."""
        p = JacobiParams(0.5, 2.0)
        rng = np.random.default_rng(14)
        c = rng.standard_normal(8)
        once = riesz_apply(p, c, order=3)
        thrice = riesz_apply(p, riesz_apply(p, riesz_apply(p, c)))
        assert_allclose(thrice[: once.size], once, rtol=1e-13, atol=1e-14)
        assert_allclose(thrice[once.size:], 0.0, atol=0.0)
        even2 = riesz_apply(p, c, parity="even", order=2)
        chained = riesz_apply(p, riesz_apply(p, c, parity="even"), parity="odd")
        assert_allclose(chained[: even2.size], even2, rtol=1e-13, atol=1e-14)


class TestGFunction:
    def test_bound_values(self):
        """Gamma(2M+2N)/2^{2M+2N}: 1/4, 1/4, 3/8, 45/16, quartered when
        restricted."""
        assert_allclose(gfun_bound(1, 0), 0.25)
        assert_allclose(gfun_bound(0, 1), 0.25)
        assert_allclose(gfun_bound(1, 1), 6.0 / 16.0)
        assert_allclose(gfun_bound(2, 1), 120.0 / 64.0)
        assert_allclose(gfun_bound(1, 1, restricted=True), 6.0 / 64.0)

    def test_pure_mode_against_quadrature(self):
        """Exact Gamma-form factor matches the numeric time integral of the
        mode profile to 1e-8."""
        p = JacobiParams(0.5, 2.0)
        n = 3
        lam = eigenvalue(p, np.array([n]))[0]
        gap = lam - p.lam0
        c = np.zeros(n + 1)
        c[n] = 1.0
        for M, N in MN_SET:
            exact = gfun_norm(p, c, M, N, parity="even", restricted=True)
            q = bnorm(
                lambda t: np.exp(-t * np.sqrt(lam)), L2TWeighted(m=M, n=N, lam_min=lam)
            )
            assert_allclose(exact, 0.5 * lam ** (M / 2.0) * gap ** (N / 2.0) * q, rtol=1e-8)

    def test_factors_below_bound_and_saturating(self):
        p = JacobiParams(0.5, 2.0)
        for M, N in MN_SET:
            gam = gfun_mode_factors(p, 60, M, N, parity="even", restricted=True)
            bound = gfun_bound(M, N, restricted=True)
            assert np.all(gam <= bound + 1e-15)
            assert gam[-1] > 0.96 * bound

    def test_norm_bound_random_inputs(self):
        p = JacobiParams(0.5, 2.0)
        rng = np.random.default_rng(11)
        for M, N in MN_SET:
            bound = gfun_bound(M, N, restricted=True)
            for _ in range(20):
                c = rng.standard_normal(12)
                val = gfun_norm(p, c, M, N, parity="even", restricted=True)
                assert val**2 <= bound * np.sum(c**2) * (1.0 + 1e-14)

    def test_pointwise_integrates_to_norm(self):
        """The pointwise square function's L^2 norm under the matching
        measure recovers the exact diagonal value, for every parity."""
        p = JacobiParams(0.0, 0.0)
        rng = np.random.default_rng(12)
        full = mu_full_rule(p, 300)
        half = mu_plus_rule(p, 300)
        for parity, rule in [("full", full), ("even", half), ("odd", half)]:
            for M, N in MN_SET:
                c = rng.standard_normal(6)
                g = gfun_apply(p, c, M, N, rule.nodes, parity=parity)
                assert_allclose(
                    np.sqrt(rule.integrate(g**2)),
                    gfun_norm(p, c, M, N, parity=parity),
                    rtol=1e-10,
                )

    def test_full_parity_time_slice_route(self):
        """Pointwise values agree with integrating the per-time spectral
        lowering directly (independent signs and index walk)."""
        p = JacobiParams(0.0, 0.0)
        rng = np.random.default_rng(13)
        c = rng.standard_normal(6)
        th = np.linspace(0.4, 2.7, 7)
        g1 = gfun_apply(p, c, 0, 1, th, parity="full")
        spec = L2TWeighted(m=0, n=1, lam_min=float(sym_eigenvalue(p, np.array([1]))[0]))
        t, w = spec.grid()
        acc = np.zeros(th.size)
        for t_, w_ in zip(t, w):
            dct = d_apply_spectral(p, semigroup_apply(p, t_, c))
            acc += w_ * (dct @ phi_table(p, dct.size - 1, th)) ** 2
        assert_allclose(g1, np.sqrt(acc), rtol=1e-12)

    def test_needs_at_least_one_order(self):
        with pytest.raises(ValueError, match="M \\+ N"):
            gfun_norm(JacobiParams(0.0, 0.0), np.ones(3), 0, 0)


def _unfolded_maximal(params, c, theta, parity="full", restricted=False):
    """maximal_apply as one (times, points) grid: every time row at once,
    one decay column per coefficient slot."""
    lam = mode_eigenvalues(params, c.size, parity)
    decay = np.exp(-np.outer(SupOverT().grid(), np.sqrt(lam)))
    vals = (decay * c) @ mode_table(params, c.size, np.ravel(theta), parity)
    out = np.max(np.abs(vals), axis=0).reshape(np.shape(theta))
    return 0.5 * out if restricted else out


def _profiles(params, lam, M, N, t, restricted):
    root, gap = np.sqrt(lam), np.maximum(lam - params.lam0, 0.0)
    prof = (-root) ** M * gap ** (N // 2) * np.exp(-np.outer(t, root))
    if N % 2:
        prof = prof * (-np.sqrt(gap))
    return 0.5 * prof if restricted else prof


def _time_sum(vals, wt, theta):
    # the time-ordered sum, which is what sum(axis=0) does over the strided
    # time axis of two or more points (a single column it sums pairwise)
    acc = np.cumsum(wt[:, None] * vals**2, axis=0)[-1]
    return np.sqrt(acc).reshape(np.shape(theta))


def _unfolded_gfun(params, c, M, N, theta, parity="full", restricted=False):
    """gfun_apply as one (times, points) grid, one profile column per
    coefficient slot, its weighted squares summed over the time axis."""
    lam = mode_eigenvalues(params, c.size, parity)
    if not np.any((lam > 0.0) & (c != 0.0)):
        return np.zeros(np.shape(theta))
    t, wt = L2TWeighted(m=M, n=N, lam_min=float(np.min(lam[lam > 0.0]))).grid()
    prof = _profiles(params, lam, M, N, t, restricted) * c
    x = np.ravel(theta)
    if N % 2 == 0:
        vals = prof @ mode_table(params, c.size, x, parity)
    elif parity == "full":
        n = np.arange(c.size)
        target = np.where(n == 0, 0, n - (-1) ** n)
        vals = (prof * (-1.0) ** n) @ mode_table(params, c.size + 1, x, parity)[target]
    elif parity == "even":
        vals = prof[:, 1:] @ mode_table(params, c.size - 1, x, "odd")
    else:
        vals = prof @ mode_table(params, c.size + 1, x, "even")[1:]
    return _time_sum(vals, wt, theta)


def _folded(params, weights, x):
    """The full-basis table with weights[n] on Phi_n and the rows 2k - 1,
    2k of lam_k added into one: floor(N/2) + 1 rows for N weights."""
    n = 2 * (weights.size // 2) + 1
    w = np.zeros(n)
    w[: weights.size] = weights
    table = mode_table(params, n, x, "full") * w[:, None]
    folded = table[0::2]
    folded[1:] += table[1::2]
    return folded


def _whole_grid_maximal(params, c, theta, parity="full", restricted=False):
    """maximal_apply as one (times, points) grid, with the full basis folded
    to one decay column per eigenvalue, as the sweep folds it."""
    if parity != "full":
        return _unfolded_maximal(params, c, theta, parity, restricted)
    table = _folded(params, c, np.ravel(theta))
    lam = eigenvalue(params, np.arange(table.shape[0]))
    vals = np.exp(-np.outer(SupOverT().grid(), np.sqrt(lam))) @ table
    return np.max(np.abs(vals), axis=0).reshape(np.shape(theta))


def _whole_grid_gfun(params, c, M, N, theta, parity="full", restricted=False):
    """gfun_apply as one (times, points) grid, with the full basis folded to
    one profile column per eigenvalue, as the sweep folds it: for odd N slot
    n carries (-1)^n c_n to its target row n - (-1)^n."""
    if parity != "full":
        return _unfolded_gfun(params, c, M, N, theta, parity, restricted)
    lam = mode_eigenvalues(params, c.size)
    t, wt = L2TWeighted(m=M, n=N, lam_min=float(np.min(lam[lam > 0.0]))).grid()
    weights = c
    if N % 2:
        weights = np.zeros(c.size + 1)
        for n in range(c.size):
            weights[n - (-1) ** n if n else 0] = (-1.0) ** n * c[n]
        weights = weights[: 2 * (c.size // 2) + 1]
    table = _folded(params, weights, np.ravel(theta))
    prof = _profiles(params, eigenvalue(params, np.arange(table.shape[0])), M, N, t, restricted)
    return _time_sum(prof @ table, wt, theta)


# point grids: 0-d, a (3, 5) grid and 40 points, each less than one block of
# the time sweep, and 2048 points, many blocks.  The counts are multiples of
# 8, the column tile of the usual dgemm kernels, so that a block's product
# rounds as the same rows of the whole-grid product
_GRIDS = {
    "0-d": np.array(0.8),
    "3x5": np.linspace(-2.9, 2.9, 15).reshape(3, 5),
    "40": np.linspace(-3.1, 3.1, 40),
    "2048": np.sort(np.random.default_rng(21).uniform(-np.pi, np.pi, 2048)),
}
_BLOCK_PARAMS = [JacobiParams(-0.5, -0.5), JacobiParams(6.0, 2.0), JacobiParams(0.5, -0.25)]


def _fold_inputs():
    """Coefficient vectors for the fold test: random ones of even and odd
    length, lengths 1 and 2, and single nonzero slots on both parities of
    the index (slot 0, the two slots of lam_1, and the top slot)."""
    rng = np.random.default_rng(25)
    yield from (rng.standard_normal(n) for n in (1, 2, 7, 8, 95, 96))
    for n in (7, 8):
        for k in (0, 1, 2, n - 1):
            c = np.zeros(n)
            c[k] = 1.5
            yield c


class TestFold:
    """The full-basis sweeps fold the slots 2k - 1, 2k of each eigenvalue
    into one table row; they agree with the sum over every slot."""

    @pytest.mark.parametrize(
        "params", [JacobiParams(-0.5, -0.5), JacobiParams(0.5, 2.0), JacobiParams(6.0, 2.0)],
        ids=lambda p: f"{p.alpha:g},{p.beta:g}",
    )
    def test_fold_matches_slot_sum(self, params):
        theta = _GRIDS["40"]
        for c in _fold_inputs():
            got, want = maximal_apply(params, c, theta), _unfolded_maximal(params, c, theta)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), c.size
            for M, N in [(1, 0), (1, 2), (0, 1), (2, 1)]:
                got = gfun_apply(params, c, M, N, theta)
                want = _unfolded_gfun(params, c, M, N, theta)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (c.size, M, N)


class TestRowBlocks:
    """The time sweeps in row blocks give the bits of the whole-grid forms."""

    @pytest.mark.parametrize("grid", _GRIDS, ids=str)
    @pytest.mark.parametrize("params", _BLOCK_PARAMS, ids=lambda p: f"{p.alpha:g},{p.beta:g}")
    def test_maximal_bitwise(self, params, grid):
        c = np.random.default_rng(22).standard_normal(96)
        theta = _GRIDS[grid]
        got = maximal_apply(params, c, theta)
        assert got.shape == theta.shape
        assert np.array_equal(got, _whole_grid_maximal(params, c, theta))
        half = np.abs(theta)
        for parity in ("even", "odd"):
            got = maximal_apply(params, c, half, parity=parity, restricted=True)
            assert np.array_equal(got, _whole_grid_maximal(params, c, half, parity, True))

    @pytest.mark.parametrize("grid", _GRIDS, ids=str)
    @pytest.mark.parametrize("params", _BLOCK_PARAMS, ids=lambda p: f"{p.alpha:g},{p.beta:g}")
    def test_gfun_bitwise_every_branch(self, params, grid):
        """N even, and N odd under "full", "even" and "odd"."""
        c = np.random.default_rng(23).standard_normal(96)
        theta = _GRIDS[grid]
        for M, N, parity in [(1, 0, "full"), (1, 2, "even"), (0, 1, "full"), (2, 1, "full"),
                             (0, 1, "even"), (1, 1, "odd")]:
            x = theta if parity == "full" else np.abs(theta)
            got = gfun_apply(params, c, M, N, x, parity=parity)
            assert got.shape == theta.shape
            assert np.array_equal(got, _whole_grid_gfun(params, c, M, N, x, parity)), (M, N, parity)
        got = gfun_apply(params, c, 1, 1, np.abs(theta), parity="even", restricted=True)
        assert np.array_equal(got, _whole_grid_gfun(params, c, 1, 1, np.abs(theta), "even", True))

    @pytest.mark.parametrize(
        "apply",
        [
            lambda p, c, th: maximal_apply(p, c, th),
            lambda p, c, th: gfun_apply(p, c, 1, 0, th),
            lambda p, c, th: gfun_apply(p, c, 0, 1, th),
            lambda p, c, th: maximal_apply(p, c, np.abs(th), parity="odd"),
            lambda p, c, th: gfun_apply(p, c, 0, 1, np.abs(th), parity="even"),
            lambda p, c, th: mode_table(p, c.size, np.abs(th), "odd"),
        ],
        ids=["maximal", "gfun_N_even", "gfun_N_odd", "maximal_odd", "gfun_even_N_odd",
             "mode_table_odd"],
    )
    def test_sweep_builds_no_time_grid(self, apply):
        """At 512 modes x 2048 points (the spectral benchmark's size) the
        sweep peaks below one and a half (modes, points) float64 mode tables:
        the whole-grid forms held a (1141, 2048) values grid, its absolute
        values and the (1141, 512) decay, over six tables in all.  The
        odd-family table is the shifted polynomial table scaled in place,
        not a scaled copy beside it."""
        p = JacobiParams(0.5, -0.25)
        c = np.random.default_rng(24).standard_normal(512)
        theta = _GRIDS["2048"]
        apply(p, c, theta)
        tracemalloc.start()
        try:
            apply(p, c, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * c.size * theta.size * 8


class TestMultipliers:
    def test_identity(self):
        """phi = 1 gives m(z) = 1 for every positive z."""
        p = JacobiParams(0.5, 2.0)
        ident = LaplaceMultiplier(phi=lambda t: np.ones_like(t), bound=1.0)
        rng = np.random.default_rng(21)
        c = rng.standard_normal(8)
        assert_allclose(multiplier_apply(p, ident, c), c, atol=1e-10)

    def test_atom_equals_semigroup_exactly(self):
        p = JacobiParams(0.5, 2.0)
        atom = AtomicMultiplier(times=np.array([0.7]), weights=np.array([1.0]))
        rng = np.random.default_rng(22)
        c = rng.standard_normal(8)
        got = multiplier_apply(p, atom, c)
        ref = semigroup_apply(p, 0.7, c)
        assert np.array_equal(got, ref)

    def test_fractional_atoms(self):
        """Atomic z^{-1/2} is accurate to 1e-6 at z in {1, 2, 5}."""
        frac = fractional_atoms()
        for z in [1.0, 2.0, 5.0]:
            assert_allclose(frac.evaluate(np.array([z]))[0], z**-0.5, rtol=1e-6)

    def test_fractional_applied(self):
        p = JacobiParams(0.5, 2.0)
        assert p.alpha + p.beta + 1.0 > 0
        c = np.ones(6)
        got = multiplier_apply(p, fractional_atoms(), c, parity="even")
        ref = eigenvalue(p, np.arange(6)) ** -0.25
        assert_allclose(got, ref, rtol=1e-6)

    def test_sign_multiplier_closed_form(self):
        """phi(t) = sign(sin t) has m(z) = tanh(pi z / 2)."""
        sgn = LaplaceMultiplier(
            phi=lambda t: np.sign(np.sin(t)),
            bound=1.0,
            breakpoints=tuple(np.pi * np.arange(1, 200)),
        )
        z = np.array([0.3, 1.0, 3.0, 10.0])
        assert_allclose(sgn.evaluate(z), np.tanh(np.pi * z / 2.0), atol=1e-12)

    def test_bounded_by_sup_phi(self):
        rng = np.random.default_rng(23)
        osc = LaplaceMultiplier(phi=lambda t: np.cos(3.0 * t), bound=1.0)
        z = rng.uniform(0.2, 12.0, 30)
        assert np.all(np.abs(osc.evaluate(z)) <= 1.0 + 1e-12)

    def test_zero_mode_conventions(self):
        """The Laplace form vanishes at z = 0; the atomic form sums its
        weights there."""
        ident = LaplaceMultiplier(phi=lambda t: np.ones_like(t))
        assert ident.evaluate(np.array([0.0]))[0] == 0.0
        atoms = AtomicMultiplier(times=np.array([0.5, 1.5]), weights=np.array([0.3, 0.4]))
        assert_allclose(atoms.evaluate(np.array([0.0]))[0], 0.7)

    def test_atom_validation(self):
        with pytest.raises(ValueError, match="matching"):
            AtomicMultiplier(times=np.array([1.0, 2.0]), weights=np.array([1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            AtomicMultiplier(times=np.array([-1.0]), weights=np.array([1.0]))


class TestParityReduction:
    def test_roundtrip(self):
        rng = np.random.default_rng(31)
        c = rng.standard_normal(9)
        a, b = reduce_symmetrized(c)
        assert_allclose(combine_symmetrized(a, b), c, rtol=1e-15)

    def test_parseval_between_measures(self):
        """Half-line energies sum to half the full energy, matching the
        doubling of the symmetric measure."""
        rng = np.random.default_rng(32)
        c = rng.standard_normal(12)
        a, b = reduce_symmetrized(c)
        assert_allclose(np.sum(a**2) + np.sum(b**2), np.sum(c**2) / 2.0, rtol=1e-14)

    def test_functions_match_on_half_line(self):
        """Even + odd half-line synthesis reproduces the full synthesis on
        (0, pi)."""
        p = JacobiParams(0.5, 2.0)
        rng = np.random.default_rng(33)
        c = rng.standard_normal(7)
        th = np.linspace(0.3, 2.8, 11)
        full_vals = c @ phi_table(p, 6, th)
        a, b = reduce_symmetrized(c)
        half_vals = a @ mode_table(p, a.size, th, "even") + b @ mode_table(
            p, b.size, th, "odd"
        )
        assert_allclose(half_vals, full_vals, rtol=1e-12)
