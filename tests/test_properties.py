"""Property tests over the parameter range: spectral identities and exact
bounds that hold for every admissible (alpha, beta).

Parameters are drawn anywhere in (-1, 8], on the critical line
alpha + beta + 1 = 0 (dyadic, so the line holds exactly), at the atomic
boundary -1/2 and the float just above it, and with alpha + beta above 4
and above 10.  Every test is derandomized with an explicit example budget,
so a run is deterministic.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from symjacobi.basis import analyze, mode_eigenvalues, phi_table, synthesize
from symjacobi.cli import MASS_NODES
from symjacobi.core import JacobiParams
from symjacobi.kernels import (
    poisson_kernel_series,
    semigroup_mass,
    symmetrized_kernel,
    symmetrized_kernel_mode_sum,
)
from symjacobi.operators import gfun_bound, gfun_mode_factors, riesz_apply, semigroup_apply
from symjacobi.quadrature import mu_full_rule, mu_plus_rule

ABOVE_HALF = float(np.nextafter(-0.5, 0.0))
ABOVE_MINUS_ONE = float(np.nextafter(-1.0, 0.0))
_coord = st.one_of(
    st.sampled_from([-0.5, ABOVE_HALF]),
    st.floats(min_value=-1.0, max_value=8.0, exclude_min=True),
)
PARAMS = st.one_of(
    st.tuples(_coord, _coord),
    st.integers(1, 1023).map(lambda k: (-k / 1024, -1.0 + k / 1024)),
    st.tuples(*[st.floats(min_value=2.0, max_value=8.0, exclude_min=True)] * 2),
    st.tuples(*[st.floats(min_value=5.0, max_value=8.0, exclude_min=True)] * 2),
).map(lambda ab: JacobiParams(*ab))
PARITY = st.sampled_from(["full", "even", "odd"])
HALF_PARITY = st.sampled_from(["even", "odd"])
TIME = st.floats(min_value=0.0, max_value=5.0)

BOUNDARY = [
    JacobiParams(-0.5, -0.5),
    JacobiParams(ABOVE_HALF, ABOVE_HALF),
    JacobiParams(-0.25, -0.75),
    JacobiParams(8.0, 8.0),
]


def _examples(*others):
    """@example for each boundary pair, with the other arguments given."""

    def wrap(fn):
        for p in BOUNDARY:
            fn = example(p, *others)(fn)
        return fn

    return wrap


@settings(derandomize=True, max_examples=60, deadline=None)
@given(params=PARAMS, s=TIME, t=TIME, parity=PARITY)
@_examples(0.3, 1.7, "full")
def test_semigroup_law(params, s, t, parity):
    """P_s P_t = P_{s+t} on every mode."""
    c = 0.5 ** np.arange(24)
    twice = semigroup_apply(params, s, semigroup_apply(params, t, c, parity), parity)
    assert_allclose(twice, semigroup_apply(params, s + t, c, parity), rtol=1e-13, atol=0.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(params=PARAMS, nmax=st.integers(0, 24))
@_examples(16)
def test_analyze_inverts_synthesize(params, nmax):
    c = 0.5 ** np.arange(nmax + 1)
    back = analyze(params, lambda th: synthesize(params, c, th), nmax)
    assert_allclose(back, c, rtol=0.0, atol=1e-10)


# Counterexamples near alpha or beta = -1, where the Gauss-Jacobi rules fix
# the end node only to an absolute eps while its weight grows like
# 1/(beta + 1), and a node just outside [-1, 1] gives NaN.  Each is frozen as
# a strict xfail, so it turns into a failure here once the rules are mended
# and the mark must go.
GAUSS_JACOBI_END = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="Gauss-Jacobi rules lose the end node as alpha or beta nears -1",
)


@pytest.mark.parametrize(
    "alpha, beta",
    [
        (-0.9999, -0.9999),
        pytest.param(-0.999999, 0.3, marks=GAUSS_JACOBI_END),
        pytest.param(ABOVE_MINUS_ONE, -0.5, marks=GAUSS_JACOBI_END),
    ],
)
def test_analyze_inverts_synthesize_near_minus_one(alpha, beta):
    params = JacobiParams(alpha, beta)
    c = 0.5 ** np.arange(17)
    with np.errstate(invalid="ignore"):
        back = analyze(params, lambda th: synthesize(params, c, th), 16)
    assert_allclose(back, c, rtol=0.0, atol=1e-10)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(params=PARAMS, nmax=st.integers(0, 40))
@_examples(40)
def test_phi_table_orthonormal(params, nmax):
    """The Gram matrix of the phi_table rows on mu_full_rule is the identity
    within the basis suite's 1e-10."""
    rule = mu_full_rule(params, nmax + 16)
    tab = phi_table(params, nmax, rule.nodes)
    gram = (tab * rule.weights) @ tab.T
    assert np.max(np.abs(gram - np.eye(nmax + 1))) <= 1e-10


@settings(derandomize=True, max_examples=100, deadline=None)
@given(params=PARAMS, nmax=st.integers(0, 40))
@_examples(40)
def test_synthesize_parseval(params, nmax):
    """The quadrature norm of synthesize(c) squared is sum(c^2)."""
    c = np.random.default_rng(nmax).standard_normal(nmax + 1)
    rule = mu_full_rule(params, nmax + 16)
    f = synthesize(params, c, rule.nodes)
    assert_allclose(rule.integrate(f**2), np.sum(c**2), rtol=1e-10)


@pytest.mark.parametrize(
    "alpha, beta",
    [(0.3, 0.2), (-0.5, -0.5), pytest.param(-0.5, ABOVE_MINUS_ONE, marks=GAUSS_JACOBI_END)],
)
def test_kernel_mass_by_quadrature(alpha, beta):
    """The MASS_NODES-node dmu+ integral of the series kernel, the kernel
    command's mass column, is the semigroup mass."""
    params = JacobiParams(alpha, beta)
    rule = mu_plus_rule(params, MASS_NODES)
    for theta in (0.5, 2.0):
        got = rule.integrate(poisson_kernel_series(params, 1.0, theta, rule.nodes))
        assert_allclose(got, semigroup_mass(params, 1.0), rtol=1e-10)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(params=PARAMS, t=st.floats(min_value=0.5, max_value=5.0), seed=st.integers(0, 2**32 - 1))
@_examples(0.5, 0)
def test_symmetrized_kernel_splits(params, t, seed):
    """HH = H + Ht: the mode sum over the symmetrized basis is the plain
    kernel plus the reflected one at 16 random points of (-pi, pi)^2, within
    1e-10 of max |HH|, the bound and normalization of the verify check
    KernelSplitIdentity."""
    th, ph = np.random.default_rng(seed).uniform(-np.pi, np.pi, (2, 16))
    hh = symmetrized_kernel(params, t, th, ph)
    gap = np.abs(symmetrized_kernel_mode_sum(params, t, th, ph) - hh)
    assert gap.max() <= 1e-10 * np.max(np.abs(hh))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(params=PARAMS, order=st.integers(1, 3), parity=HALF_PARITY, n_modes=st.integers(1, 40))
@_examples(3, "even", 40)
def test_restricted_riesz_quarter_bound(params, order, parity, n_modes):
    """Each unit mode's restricted squared output is (1/4)(1 - lam0/lam)^order,
    never above 1/4, and zero on a zero eigenvalue."""
    lam = mode_eigenvalues(params, n_modes, parity)
    for n in range(n_modes):
        c = np.zeros(n_modes)
        c[n] = 1.0
        got = np.sum(riesz_apply(params, c, parity, restricted=True, order=order) ** 2)
        assert got <= 0.25
        want = 0.25 * (1.0 - params.lam0 / lam[n]) ** order if lam[n] > 0.0 else 0.0
        assert_allclose(got, want, rtol=1e-13, atol=0.0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    params=PARAMS, m_ord=st.integers(0, 3), n_ord=st.integers(0, 3),
    parity=PARITY, restricted=st.booleans(),
)
@_examples(2, 1, "even", True)
def test_gfun_factors_below_bound(params, m_ord, n_ord, parity, restricted):
    if m_ord + n_ord == 0 or (restricted and parity == "full"):
        return
    factors = gfun_mode_factors(params, 40, m_ord, n_ord, parity, restricted)
    assert np.all(factors >= 0.0)
    assert np.all(factors <= gfun_bound(m_ord, n_ord, restricted))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(params=PARAMS, t=st.floats(min_value=0.0, max_value=50.0))
@_examples(0.2)
def test_semigroup_mass(params, t):
    """semigroup_mass is e^(-t |alpha+beta+1| / 2) / 2, the e^(-t sqrt(lam0))
    / 2 of the bottom mode; on the critical line it is 1/2 at every t, inf
    included."""
    want = 0.5 * np.exp(-t * abs(params.alpha + params.beta + 1.0) / 2.0)
    assert_allclose(semigroup_mass(params, t), want, rtol=1e-15)
    assert_allclose(semigroup_mass(params, t), 0.5 * np.exp(-t * np.sqrt(params.lam0)), rtol=1e-14)
    assert semigroup_mass(params, np.inf) == (0.5 if params.critical else 0.0)
