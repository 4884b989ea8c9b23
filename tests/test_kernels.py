"""Tests for the kernel module: series and integral routes, derivatives, norms.

Series reference values were frozen from a 40-digit mpmath mode sum; the
Chebyshev-case closed form and the mass identities are classical and serve as
independent oracles.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from oracles import kernel_derivative

from symjacobi import kernels
from symjacobi.basis import mode_eigenvalues, mode_table
from symjacobi.core import JacobiParams
from symjacobi.kernels import (
    AccuracyWarning,
    ConvergenceError,
    L2TWeighted,
    SupOverT,
    bnorm,
    mode_sum,
    n_max_for,
    poisson_kernel,
    poisson_kernel_series,
    q_fn,
    q_theta,
    semigroup_mass,
    symmetrized_kernel,
    symmetrized_kernel_mode_sum,
    tilde_kernel,
)
from symjacobi.quadrature import mu_full_rule, mu_plus_rule

KERNEL_PAIRS = [(-0.5, -0.5), (0.0, 0.0), (0.5, 2.0)]


class TestQFunction:
    def test_range(self):
        rng = np.random.default_rng(0)
        th, ph = rng.uniform(0, np.pi, 500), rng.uniform(0, np.pi, 500)
        u, v = rng.uniform(-1, 1, 500), rng.uniform(-1, 1, 500)
        q = q_fn(th, ph, u, v)
        assert np.all(q >= 0.0) and np.all(q <= 2.0)

    def test_corner_value(self):
        """q(theta, phi, 1, 1) = 1 - cos((theta - phi)/2)."""
        th, ph = 1.2, 0.4
        assert_allclose(q_fn(th, ph, 1.0, 1.0), 1.0 - np.cos((th - ph) / 2.0), rtol=1e-14)

    def test_theta_derivative(self):
        h = 1e-6
        th, ph, u, v = 1.1, 2.3, 0.4, -0.7
        fd = (q_fn(th + h, ph, u, v) - q_fn(th - h, ph, u, v)) / (2 * h)
        assert_allclose(q_theta(th, ph, u, v), fd, rtol=1e-8)

    def test_gradient_bound(self):
        """|d_theta q| <= sqrt(q) * const over a broad sample (trig lemma)."""
        rng = np.random.default_rng(5)
        th, ph = rng.uniform(0, np.pi, 2000), rng.uniform(0, np.pi, 2000)
        u, v = rng.uniform(-1, 1, 2000), rng.uniform(-1, 1, 2000)
        ratio = np.abs(q_theta(th, ph, u, v)) / np.sqrt(np.maximum(q_fn(th, ph, u, v), 1e-300))
        assert np.max(ratio) < 2.0


class TestSeriesKernel:
    # frozen from 40-digit mpmath mode sums
    FROZEN = [
        (0.0, 0.0, 0.5, 0.9, 2.1, 0.13450806244078897955),
        (0.5, 2.0, 1.0, 1.4, 0.6, 0.39581555467435384092),
    ]

    def test_frozen_values(self):
        for a, b, t, th, ph, ref in self.FROZEN:
            assert_allclose(
                poisson_kernel_series(JacobiParams(a, b), t, th, ph), ref, rtol=1e-12
            )

    def test_chebyshev_closed_form(self):
        """At (-1/2,-1/2): H_t = [P_r(th - ph) + P_r(th + ph)] / (4 pi), r = e^{-t}."""
        p = JacobiParams(-0.5, -0.5)
        rng = np.random.default_rng(2)
        th = rng.uniform(0.1, np.pi - 0.1, 20)
        ph = rng.uniform(0.1, np.pi - 0.1, 20)
        for t in [0.2, 1.0, 4.0]:
            r = np.exp(-t)
            P = lambda x: (1 - r**2) / (1 - 2 * r * np.cos(x) + r**2)
            ref = (P(th - ph) + P(th + ph)) / (4 * np.pi)
            assert_allclose(poisson_kernel_series(p, t, th, ph), ref, rtol=1e-11)

    def test_symmetry(self):
        p = JacobiParams(0.5, 2.0)
        assert_allclose(
            poisson_kernel_series(p, 0.8, 1.3, 0.4),
            poisson_kernel_series(p, 0.8, 0.4, 1.3),
            rtol=1e-13,
        )

    def test_positivity_on_grid(self):
        p = JacobiParams(0.0, 0.0)
        th = np.linspace(0.05, np.pi - 0.05, 25)
        vals = poisson_kernel_series(p, 0.3, th[:, None], th[None, :])
        assert np.all(vals > 0.0)

    def test_half_line_mass(self):
        """integral H_t(theta, .) dmu+ = e^{-t |alpha+beta+1| / 2}/2; below the
        critical line the bottom mode still decays."""
        for a, b in KERNEL_PAIRS + [(3.0, -0.5), (-0.9, -0.9), (-0.75, -0.5)]:
            p = JacobiParams(a, b)
            rule = mu_plus_rule(p, 400)
            for t in [0.3, 1.0]:
                got = rule.integrate(poisson_kernel_series(p, t, 1.2, rule.nodes))
                assert_allclose(got, semigroup_mass(p, t), rtol=1e-11)

    def test_semigroup_composition(self):
        """integral H_t(theta, xi) H_s(xi, phi) dmu+(xi) = H_{t+s}(theta, phi)/2."""
        p = JacobiParams(0.5, 2.0)
        rule = mu_plus_rule(p, 300)
        t, s, th, ph = 0.4, 0.9, 1.1, 2.3
        lhs = rule.integrate(
            poisson_kernel_series(p, t, th, rule.nodes)
            * poisson_kernel_series(p, s, rule.nodes, ph)
        )
        assert_allclose(lhs, 0.5 * poisson_kernel_series(p, t + s, th, ph), rtol=1e-8)

    def test_mode_cap_raises(self):
        with pytest.raises(ConvergenceError, match="cap"):
            n_max_for(JacobiParams(0.0, 0.0), 1e-4)

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_nonfinite_time_rejected(self, t):
        """At t = inf the series would multiply the critical line's zero
        root by inf; the mode count refuses such a time instead."""
        with pytest.raises(ValueError, match="positive and finite"):
            n_max_for(JacobiParams(-0.5, -0.5), t)

    def test_mass_limit_at_infinite_time(self):
        """The bottom mode keeps its mass on the critical line and decays
        off it, also in the limit t = inf."""
        assert semigroup_mass(JacobiParams(-0.5, -0.5), np.inf) == 0.5
        assert semigroup_mass(JacobiParams(0.0, 0.0), np.inf) == 0.0


class TestDKRoute:
    def test_route_agreement_sweep(self):
        """Series and integral routes agree to 1e-6 relative over the stated
        (t, parameter) sweep with seeded random point pairs."""
        rng = np.random.default_rng(314)
        for a, b in KERNEL_PAIRS:
            p = JacobiParams(a, b)
            th = rng.uniform(0.05, np.pi - 0.05, 20)
            ph = rng.uniform(0.05, np.pi - 0.05, 20)
            for t in [0.1, 0.5, 1.0, 3.0]:
                ser = poisson_kernel_series(p, t, th, ph)
                dk = poisson_kernel(p, t, th, ph, route="dk")
                assert_allclose(dk, ser, rtol=1e-6)

    def test_atomic_case_exact(self):
        """(-1/2,-1/2) reduces to four corner evaluations and is exact."""
        p = JacobiParams(-0.5, -0.5)
        ser = poisson_kernel_series(p, 0.7, 0.9, 2.0)
        dk = poisson_kernel(p, 0.7, 0.9, 2.0, route="dk")
        assert_allclose(dk, ser, rtol=1e-13)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="-1/2"):
            poisson_kernel(JacobiParams(-0.75, 0.0), 1.0, 1.0, 2.0, route="dk")

    @pytest.mark.parametrize("theta, phi, name", [(0.6, 3.5, "phi"), (-3.5, 1.0, "theta")])
    def test_angle_outside_domain_rejected(self, theta, phi, name):
        message = rf"{name}=-?3\.5 lies outside the kernel domain \[-pi, pi\]"
        with pytest.raises(ValueError, match=message):
            poisson_kernel(JacobiParams(0.5, 1.0), 1.0, theta, phi, route="dk")

    @pytest.mark.parametrize("t", [1500.0, np.inf])
    @pytest.mark.parametrize("a, b", KERNEL_PAIRS)
    def test_overflowing_time_rejected(self, a, b, t):
        """Past t of about 1420.9, sinh(t/2) and cosh(t/2) - 1 overflow and
        every integral-route value would be NaN."""
        p = JacobiParams(a, b)
        for evaluate in (
            lambda: poisson_kernel(p, t, 1.0, 1.2, route="dk"),
            lambda: tilde_kernel(p, t, 1.0, 1.2, route="dk"),
            lambda: kernel_derivative(p, t, 1.0, 1.2, m=1, route="dk"),
        ):
            with pytest.raises(ValueError, match=f"t={t}"):
                evaluate()

    def test_largest_finite_time_still_evaluated(self):
        p = JacobiParams(-0.5, -0.5)
        val = poisson_kernel(p, 1420.0, 1.0, 1.2, route="dk")
        assert_allclose(val, 1.0 / (2.0 * np.pi), rtol=1e-14)

    def test_layer_warning_and_auto_upgrade(self, monkeypatch):
        """Near-diagonal small-t evaluation: the corner rule resolves the
        boundary layer at the default nodes, the integral route of H and of
        Ht converges without a warning and matches the series value, and
        each warns only when its node cap stops it short of rel_tol."""
        p = JacobiParams(0.0, 0.0)
        t, th, ph = 0.05, 1.0, 1.01
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            fixed = kernels._dk_eval(p, t, th, ph, ("even", 0, 0, 0), kernels.DK_NODES)
            assert_allclose(fixed, poisson_kernel_series(p, t, th, ph), rtol=1e-7)
            for part in (poisson_kernel, tilde_kernel):
                assert_allclose(part(p, t, th, ph, route="dk"), part(p, t, th, ph), rtol=1e-7)
        monkeypatch.setattr(kernels, "DK_REL_TOL", 1e-17)
        monkeypatch.setattr(kernels, "DK_MAX_NODES", 12)
        for part in (poisson_kernel, tilde_kernel):
            with pytest.warns(AccuracyWarning, match="not converged"):
                part(p, t, th, ph, route="dk")

    def test_auto_value_does_not_depend_on_batch(self):
        """Each point keeps the value at its own first agreeing node count:
        a slow near-diagonal point does not drag a fast one to more nodes."""
        p, t = JacobiParams(8.0, 7.5), 0.005
        th, ph = np.array([1.0, 0.05]), np.array([1.001, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            block = poisson_kernel(p, t, th, ph, route="dk")
            single = [poisson_kernel(p, t, x, y, route="dk") for x, y in zip(th, ph)]
        assert np.array_equal(block, np.array(single))


class TestRouteChoice:
    """poisson_kernel is the one function that reads `route`: the public
    kernel parts evaluate through it on the route they are given."""

    @pytest.mark.parametrize("route", ["series", "dk"])
    @pytest.mark.parametrize("a, b", KERNEL_PAIRS + [(8.0, 7.5)])
    def test_symmetrized_is_sum_of_parts(self, a, b, route):
        p = JacobiParams(a, b)
        th, ph = np.random.default_rng(41).uniform(-np.pi + 0.1, np.pi - 0.1, (2, 9))
        for t in (0.35, 1.0):
            parts = poisson_kernel(p, t, th, ph, route=route) + tilde_kernel(
                p, t, th, ph, route=route
            )
            assert np.array_equal(symmetrized_kernel(p, t, th, ph, route=route), parts)

    @pytest.mark.parametrize("a, b", KERNEL_PAIRS + [(8.0, 7.5), (-0.75, 3.0)])
    def test_series_name_is_the_series_route(self, a, b):
        p = JacobiParams(a, b)
        th = np.linspace(-3.0, 3.0, 7)
        for t in (0.2, 2.0):
            got = poisson_kernel_series(p, t, th[:, None], th[None, :])
            assert np.array_equal(got, poisson_kernel(p, t, th[:, None], th[None, :], route="series"))

    @pytest.mark.parametrize("part", [poisson_kernel, tilde_kernel, symmetrized_kernel])
    def test_unknown_route_named(self, part):
        with pytest.raises(ValueError, match="unknown route 'product'"):
            part(JacobiParams(0.0, 0.0), 1.0, 1.0, 2.0, route="product")


class TestSymmetrizedKernel:
    def test_decomposition(self):
        """Mode sum over the symmetrized basis equals even part + odd part."""
        for a, b in KERNEL_PAIRS:
            p = JacobiParams(a, b)
            rng = np.random.default_rng(9)
            th = rng.uniform(-np.pi + 0.1, np.pi - 0.1, 50)
            ph = rng.uniform(-np.pi + 0.1, np.pi - 0.1, 50)
            for t in [0.3, 1.5]:
                direct = symmetrized_kernel_mode_sum(p, t, th, ph)
                split = symmetrized_kernel(p, t, th, ph)
                assert np.max(np.abs(direct - split)) < 1e-10

    def test_full_mass(self):
        """integral HH_t(theta, .) dmu = e^{-t(alpha+beta+1)/2}."""
        for a, b in KERNEL_PAIRS:
            p = JacobiParams(a, b)
            rule = mu_full_rule(p, 400)
            for t in [0.1, 1.0, 5.0]:
                got = rule.integrate(symmetrized_kernel(p, t, 0.8, rule.nodes))
                assert_allclose(got, 2.0 * semigroup_mass(p, t), atol=1e-8)

    def test_odd_part_is_reflection_difference(self):
        """Ht = (HH(theta,.) - HH(-theta,.))/2 since H is even in theta."""
        p = JacobiParams(0.5, 2.0)
        th, ph, t = 1.1, -0.7, 0.6
        odd = 0.5 * (
            symmetrized_kernel(p, t, th, ph) - symmetrized_kernel(p, t, -th, ph)
        )
        assert_allclose(odd, tilde_kernel(p, t, th, ph), rtol=1e-12)

    def test_dk_route_on_the_full_circle(self):
        """The integral route takes negative angles as the series does: at
        (theta, -phi) its even part is bitwise that at (theta, phi), and HH
        agrees with the series on (-pi, pi)^2, derivatives included."""
        rng = np.random.default_rng(27)
        th = rng.uniform(-np.pi + 0.1, np.pi - 0.1, 12)
        ph = rng.uniform(-np.pi + 0.1, np.pi - 0.1, 12)
        for a, b in KERNEL_PAIRS:
            p = JacobiParams(a, b)
            mirror = poisson_kernel(p, 0.6, th, -ph, route="dk")
            assert np.array_equal(mirror, poisson_kernel(p, 0.6, th, ph, route="dk"))
            dk = symmetrized_kernel(p, 0.6, th, ph, route="dk")
            assert_allclose(dk, symmetrized_kernel(p, 0.6, th, ph), rtol=1e-8)
            for m, nd, par in [(1, 0, "even"), (0, 1, "even"), (1, 0, "odd"), (0, 1, "odd")]:
                s = kernel_derivative(p, 0.6, th, ph, m=m, n_delta=nd, parity=par)
                d = kernel_derivative(p, 0.6, th, ph, m=m, n_delta=nd, parity=par, route="dk")
                assert_allclose(d, s, rtol=1e-8, atol=1e-12)

    def test_tilde_parameter_shift(self):
        """Reflected part equals (1/4) sin sin times the shifted-family kernel."""
        p = JacobiParams(0.0, 0.0)
        th, ph, t = 2.0, 0.9, 0.8
        ref = 0.25 * np.sin(th) * np.sin(ph) * poisson_kernel_series(
            p.shifted(), t, th, ph
        )
        assert_allclose(tilde_kernel(p, t, th, ph), ref, rtol=1e-13)


class TestKernelDerivative:
    def test_composition_identity_even(self):
        """Two lowerings equal the time identity: delta_2 H = d_t^2 H - lam0 H."""
        for a, b in KERNEL_PAIRS:
            p = JacobiParams(a, b)
            t, th, ph = 0.8, 1.1, 2.0
            lhs = kernel_derivative(p, t, th, ph, m=0, n_delta=2)
            rhs = kernel_derivative(p, t, th, ph, m=2) - p.lam0 * poisson_kernel_series(
                p, t, th, ph
            )
            assert_allclose(lhs, rhs, rtol=1e-12)

    def test_composition_identity_odd(self):
        """Same identity for the reflected part with the odd pattern."""
        p = JacobiParams(0.5, 2.0)
        t, th, ph = 0.9, 0.7, 1.9
        lhs = kernel_derivative(p, t, th, ph, m=0, n_delta=2, parity="odd")
        rhs = kernel_derivative(p, t, th, ph, m=2, parity="odd") - p.lam0 * tilde_kernel(
            p, t, th, ph
        )
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_time_derivative_fd(self):
        p = JacobiParams(0.0, 0.0)
        t, th, ph = 0.7, 1.3, 0.5
        h = 1e-5
        fd = (
            poisson_kernel_series(p, t + h, th, ph) - poisson_kernel_series(p, t - h, th, ph)
        ) / (2 * h)
        assert_allclose(kernel_derivative(p, t, th, ph, m=1), fd, rtol=1e-8)

    def test_theta_derivative_fd(self):
        p = JacobiParams(0.5, 2.0)
        t, th, ph = 0.7, 1.3, 0.5
        h = 1e-5
        fd = (
            poisson_kernel_series(p, t, th + h, ph) - poisson_kernel_series(p, t, th - h, ph)
        ) / (2 * h)
        assert_allclose(kernel_derivative(p, t, th, ph, n_delta=1), fd, rtol=1e-8)

    def test_first_order_route_agreement(self):
        """Series and integral routes agree for all first-order derivatives."""
        p = JacobiParams(0.5, 2.0)
        t, th, ph = 0.9, 1.3, 0.7
        for m, nd, par in [(1, 0, "even"), (0, 1, "even"), (1, 0, "odd"), (0, 1, "odd")]:
            s = kernel_derivative(p, t, th, ph, m=m, n_delta=nd, parity=par)
            d = kernel_derivative(p, t, th, ph, m=m, n_delta=nd, parity=par, route="dk")
            assert_allclose(d, s, rtol=1e-9)

    def test_higher_dk_unimplemented(self):
        with pytest.raises(NotImplementedError):
            kernel_derivative(JacobiParams(0.0, 0.0), 1.0, 1.0, 2.0, m=1, n_delta=1, route="dk")


def _paired_mode_sum(params, spec, t, theta, phi, pairs):
    """Reference mode sum: theta and phi broadcast and raveled to paired
    points, mode rows built per point and contracted by one
    "tn,np,np->tp" einsum, then shaped back."""
    parity, th_op, ph_op, m = spec
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n_modes = n_max_for(params, float(np.min(t)), extra_power=4.0) + 1
    lam = mode_eigenvalues(params, n_modes, parity)
    root = np.sqrt(lam)
    decay = np.exp(-np.outer(t, root))
    if m:
        decay = decay * (-root) ** m
    if pairs:
        decay = decay * (lam - params.lam0) ** pairs

    def rows(op, x):
        order = {"low": 0, "low1": 1}.get(op, op)
        low = op in ("low", "low1")
        return mode_table(params, n_modes, x.ravel(), parity, order, lowered=low)

    vals = 0.5 * np.einsum("tn,np,np->tp", decay, rows(th_op, theta), rows(ph_op, phi))
    return vals.reshape(t.shape + theta.shape)


def _grid(theta, phi, layout):
    """theta and phi as an outer grid, or one of them as a scalar."""
    theta, phi = np.array(theta), np.array(phi)
    if layout == "outer":
        return theta[:, None], phi[None, :]
    if layout == "scalar_theta":
        return float(theta[0]), phi
    return theta, float(phi[0])


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# alpha, beta on the atomic value -1/2 or anywhere in (-0.9, 4.5), so that
# a + b > 4 is drawn as well
_ab_any = st.one_of(st.just(-0.5), st.floats(min_value=-0.9, max_value=4.5))
_angles = st.lists(st.floats(min_value=-3.1, max_value=3.1), min_size=1, max_size=5)
_layout = st.sampled_from(["outer", "scalar_theta", "scalar_phi"])
_OPS = {"even": [0, 1, 2], "odd": [0, 1, 2, "low", "low1"]}
_parity_ops = st.sampled_from(["even", "odd"]).flatmap(
    lambda par: st.tuples(st.just(par), st.sampled_from(_OPS[par]), st.sampled_from(_OPS[par]))
)


class TestBroadcasting:
    """The series entry points broadcast theta against phi and build mode rows
    per input, bitwise equal to the paired call on the raveled grid."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        a=_ab_any, b=_ab_any, t=st.lists(st.floats(0.3, 2.0), min_size=1, max_size=2),
        theta=_angles, phi=_angles, layout=_layout, ops=_parity_ops,
        m=st.integers(0, 1), pairs=st.integers(0, 1),
    )
    @example(a=3.0, b=2.5, t=[0.3], theta=[0.2, 3.0], phi=[1.0, -2.9, 0.4],
             layout="outer", ops=("odd", "low1", 2), m=1, pairs=1)
    @example(a=-0.5, b=-0.5, t=[0.5, 2.0], theta=[1.1, -0.3], phi=[2.0],
             layout="scalar_theta", ops=("even", 2, 1), m=0, pairs=1)
    def test_mode_sum_equals_paired_call(self, a, b, t, theta, phi, layout, ops, m, pairs):
        p = JacobiParams(a, b)
        spec = (*ops, m)
        th, ph = _grid(theta, phi, layout)
        got = mode_sum(p, spec, t, th, ph, pairs)
        assert _same_bits(got, _paired_mode_sum(p, spec, t, th, ph, pairs))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        a=_ab_any, b=_ab_any, t=st.floats(0.3, 2.0), theta=_angles, phi=_angles,
        layout=_layout, m=st.integers(0, 1), n_delta=st.integers(0, 3),
        parity=st.sampled_from(["even", "odd"]),
    )
    @example(a=3.0, b=2.5, t=0.3, theta=[0.2, 3.0], phi=[1.0, -2.9, 0.4],
             layout="outer", m=1, n_delta=3, parity="odd")
    def test_series_entry_points_equal_paired_call(
        self, a, b, t, theta, phi, layout, m, n_delta, parity
    ):
        p = JacobiParams(a, b)
        th, ph = _grid(theta, phi, layout)
        shape = np.broadcast_shapes(np.shape(th), np.shape(ph))
        flat = [x.ravel() for x in np.broadcast_arrays(th, ph)]
        for f in (
            lambda x, y: poisson_kernel_series(p, t, x, y),
            lambda x, y: tilde_kernel(p, t, x, y),
            lambda x, y: kernel_derivative(p, t, x, y, m=m, n_delta=n_delta, parity=parity),
            lambda x, y: symmetrized_kernel_mode_sum(p, t, x, y),
        ):
            assert _same_bits(f(th, ph), f(*flat).reshape(shape))

    def test_outer_grid_builds_no_grid_sized_rows(self):
        """The mass column of `symjacobi kernel` (7 thetas x 400 nodes) peaks
        below one and a half (n_modes, 400) float64 tables: rows are built
        per theta and per node, not per grid point, and each table is
        normalized in place."""
        p, t = JacobiParams(0.5, 2.0), 0.2
        nodes = mu_plus_rule(p, 400).nodes
        th = np.linspace(0.1, 3.0, 7)
        table_bytes = (n_max_for(p, t) + 1) * nodes.size * 8
        poisson_kernel_series(p, t, th[:, None], nodes[None, :])
        tracemalloc.start()
        try:
            poisson_kernel_series(p, t, th[:, None], nodes[None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table_bytes


class TestBNorm:
    def test_l2_exponential_oracle(self):
        """Integral of e^{-2t} t dt over (0, inf) is 1/4."""
        spec = L2TWeighted(m=1, n=0, lam_min=1.0)
        assert_allclose(bnorm(lambda t: np.exp(-t), spec), 0.5, rtol=1e-7)

    def test_l2_gamma_oracle(self):
        """General mode: integral e^{-2 t sqrt(lam)} t^{2M+2N-1} dt =
        Gamma(2M+2N) / (2 sqrt(lam))^{2M+2N}."""
        from scipy.special import gamma

        lam = 6.25
        for m, n in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            spec = L2TWeighted(m=m, n=n, lam_min=lam)
            w = 2 * (m + n)
            ref = np.sqrt(gamma(w) / (2 * np.sqrt(lam)) ** w)
            got = bnorm(lambda t: np.exp(-t * np.sqrt(lam)), spec)
            assert_allclose(got, ref, rtol=1e-7)

    def test_l2_self_convergence(self, monkeypatch):
        """Doubling the quadrature density moves the value below 0.5%."""
        f = lambda t: np.exp(-0.8 * t) * np.cos(t)
        base = bnorm(f, L2TWeighted(m=1, n=1, lam_min=0.64))
        monkeypatch.setattr(L2TWeighted, "POINTS_PER_DECADE", 60)
        fine = bnorm(f, L2TWeighted(m=1, n=1, lam_min=0.64))
        assert abs(base - fine) / fine < 5e-3

    def test_sup_grid(self):
        spec = SupOverT()
        grid = spec.grid()
        assert grid[0] == pytest.approx(1e-4) and grid[-1] == pytest.approx(50.0)
        assert_allclose(bnorm(lambda t: np.exp(-t), spec), 1.0, rtol=1e-3)

    def test_weight_power_validation(self):
        with pytest.raises(ValueError, match="m \\+ n"):
            L2TWeighted(m=0, n=0, lam_min=1.0).weight_power
