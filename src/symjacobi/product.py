"""The product-formula integrator: moments of shifted negative powers of q
against the normalized product measures dPi_a(u) dPi_b(v) on [-1, 1]^2.

For a point pair (theta, phi),

    q = 1 - A u - B v = q_floor + A (1 - u) + B (1 - v),
    A = sin(theta/2) sin(phi/2),  B = cos(theta/2) cos(phi/2),
    q_floor = 1 - cos((theta - phi)/2) = 2 sin^2((theta - phi)/4),

so (s + q)^-p is near-singular only at the corner u = v = 1.  The rule is an
L-shaped geometric mesh in (xi, eta) = (A (1 - u), B (1 - v)).  Each axis is
split at its midpoint, so that no cell sees both endpoint singularities of
the density (1 - u^2)^(a - 1/2), and its near half halves toward the corner
until the scaled width drops below the grading floor.  In the tensor grid of
these cells, the cells of a column whose eta-range lies wholly below the
column's xi-start merge into one strip [0, eta*], and the same holds with xi
and eta swapped, so O(K) cells remain instead of O(K^2).  Cells at u = +-1
use Gauss-Jacobi with the exact endpoint singularity, the others Gauss-
Legendre, and at a = -1/2 the measure is the two atoms (+-1, 1/2).

The mesh depends on the pair only through A, B and the floor, all symmetric
in theta and phi, so a pair and its swap get bitwise equal moments.  It is
cached in three layers: the cell structure per mesh signature, the nodes
and weights of each axis per (a, halvings, nodes), and the assembled rule
for the most recent meshes, which is a few gathers from the first two.

The kernels H and Ht need the plain family (a, b) and the shifted family
(a + 1, b + 1).  For a > -1/2, dPi_(a+1)(u) = (a + 1)/(a + 1/2) (1 - u^2)
dPi_a(u), so the shifted moments of (s + q)^-(p + 2 + j) are the plain
rule's weights times the two ratios and (1 - u^2)(1 - v^2), at powers the
plain chain reaches two steps on: pair_moments(..., shifted=True) computes
both from one rule (with the larger family's nodes) and one power chain.
At an atomic axis a = -1/2 the factor 1 - u^2 vanishes on the atoms and
the ratio is infinite, so there, and within SHARED_GAP of it where the
ratio amplifies rounding, the two families take separate passes.

Callers work on blocks of pairs.  block_moments is the one loop over pairs:
it reduces a block to its unordered pairs, computes each once, in mesh order
so that consecutive pairs share a cached rule, and expands the result back
to the block.  PairHead and HeadKernels assemble the kernel profiles of a
whole block from those moments, as (times, pairs) arrays.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import gammaln

from .core import JacobiParams, total_mass
from .quadrature import composite_gauss, gauss_jacobi_rule

__all__ = [
    "cosh_half_minus_one", "nodes_for", "corner_rule", "pair_moments", "block_moments",
    "PairHead", "HeadKernels",
]

# Gauss nodes per cell side (two more above a + b = 4 and again above 10,
# where the exponent makes the corner layer steeper), and the grading floor
# as a fraction of the smallest value of the shifted q
NODES_PER_PANEL = 6
PANEL_FLOOR_FRAC = 1.0 / 4.0
# the shared plain/shifted pass reweights by (a + 1)/(a + 1/2), which
# amplifies the rounding of the plain rule as a -> -1/2; closer than this to
# an atomic axis the two families take separate passes
SHARED_GAP = 1e-6


def cosh_half_minus_one(t) -> np.ndarray:
    """cosh(t/2) - 1 = 2 sinh^2(t/4), the time shift of q, stable for small t."""
    return 2.0 * np.sinh(np.asarray(t, dtype=float) / 4.0) ** 2


def nodes_for(a: float, b: float, refine: int = 1) -> int:
    """Default Gauss nodes per cell side; each refine step adds two."""
    steep = (2 if a + b > 4.0 else 0) + (2 if a + b > 10.0 else 0)
    return NODES_PER_PANEL + steep + 2 * (refine - 1)


def _axis_cells(k: int) -> list:
    """Cells of one axis in x = 1 - u: [0, 2^-k], the near half halving
    toward x = 0 up to [1/2, 1], and the far half [1, 2]."""
    edges = [0.0] + [2.0**-j for j in range(k, -2, -1)]
    return list(zip(edges[:-1], edges[1:]))


@lru_cache(maxsize=1024)
def _segment(a: float, x0: float, x1: float, n: int):
    """Nodes x = 1 - u and weights of dPi_a restricted to x in [x0, x1]."""
    if a == -0.5:
        return np.array([0.0, 2.0]), np.array([0.5, 0.5])
    norm = np.exp(gammaln(a + 1.0) - gammaln(a + 0.5)) / np.sqrt(np.pi)
    if x0 == 0.0:  # endpoint u = 1, weight x^(a - 1/2) handled exactly
        rule = gauss_jacobi_rule(a - 0.5, 0.0, n)
        x = x1 * (1.0 - rule.nodes) / 2.0
        w = rule.weights * (x1 / 2.0) ** (a + 0.5) * (2.0 - x) ** (a - 0.5)
    elif x1 == 2.0:  # endpoint u = -1, weight (2 - x)^(a - 1/2) handled exactly
        rule = gauss_jacobi_rule(0.0, a - 0.5, n)
        x = 2.0 - (2.0 - x0) * (1.0 + rule.nodes) / 2.0
        w = rule.weights * ((2.0 - x0) / 2.0) ** (a + 0.5) * x ** (a - 0.5)
    else:
        x, w = composite_gauss([x0, x1], n)
        w = w * (x * (2.0 - x)) ** (a - 0.5)
    return x, norm * w


def _levels(c: float, floor: float) -> int:
    """Halvings of the near half until the scaled width c 2^-k <= floor."""
    return max(0, int(np.ceil(np.log2(c / floor)))) if c > floor else 0


def _scales(theta, phi):
    """A, B and q_floor of a point pair, all symmetric in theta and phi."""
    A = np.sin(theta / 2.0) * np.sin(phi / 2.0)
    B = np.cos(theta / 2.0) * np.cos(phi / 2.0)
    q_floor = 2.0 * np.sin(abs(theta - phi) / 4.0) ** 2
    return A, B, q_floor


def _grading_floor(q_floor, shifts, refine):
    return max((q_floor + shifts.min()) * PANEL_FLOOR_FRAC / 4.0 ** (refine - 1), 1e-15)


def _signature(a, b, A, B, floor):
    """The mesh of a rule as (ku, kv, d): the halvings of each axis and the
    clamped floor(log2(A / B))."""
    ku = 0 if a == -0.5 else _levels(A, floor)
    kv = 0 if b == -0.5 else _levels(B, floor)
    if a == -0.5 or b == -0.5:
        return ku, kv, 0
    # the mesh compares xi- and eta-edges A 2^-i and B 2^-j, so it depends on
    # A / B only through floor(log2(A / B)), clamped to where it matters
    if A == 0.0 or B == 0.0:
        return ku, kv, (-kv - 3 if A == 0.0 else ku + 3)
    return ku, kv, int(min(max(np.floor(np.log2(A) - np.log2(B)), -kv - 3), ku + 3))


def corner_rule(a: float, b: float, A: float, B: float, floor: float, nodes: int):
    """Corner-graded rule for dPi_a(u) dPi_b(v) at the scales A, B, graded
    down to the floor.  Returns (1 - u, 1 - v, weights times the monomials
    1, u, v, u^2, uv, v^2 as an (N, 6) array); the arrays are cached by the
    mesh signature and read-only."""
    return _corner_rule(float(a), float(b), *_signature(a, b, A, B, floor), nodes)


def _axis_segments(k: int) -> list:
    """Segments of one axis with k halvings: its cells, then the strips
    [0, x1] that merge the cells up to each near-half cell's end x1 > 2^-k."""
    xs = _axis_cells(k)
    return xs + [(0.0, x1) for _, x1 in xs[1:-1]]


@lru_cache(maxsize=4096)
def _cells(atomic_u: bool, atomic_v: bool, ku: int, kv: int, d: int):
    """Cell structure of one mesh: per cell, the row of its u-segment and of
    its v-segment in the axis tables of _axis_rule."""
    if atomic_u or atomic_v:
        # an atomic axis is one cell holding both atoms, and nothing merges
        n_v = 1 if atomic_v else kv + 2
        cells = divmod(np.arange((1 if atomic_u else ku + 2) * n_v), n_v)
    else:
        xs, ys = _axis_cells(ku), _axis_cells(kv)
        ratio = 2.0 ** (d + 0.5)  # stands for A / B in the edge comparisons
        # column i absorbs the near-half eta-cells with y1_j <= ratio x0_i, row
        # j the near-half xi-cells with ratio x1_i < y0_j; both are prefixes.
        # The strip over an axis's first r cells is its segment 0 for r = 1,
        # else segment (cells on that axis) + r - 2 of _axis_segments
        y1s = [y1 for _, y1 in ys[:-1]]
        rx1s = [ratio * x1 for _, x1 in xs[:-1]]
        col = [bisect_right(y1s, ratio * x0) for x0, _ in xs]
        row = [bisect_left(rx1s, y0) for y0, _ in ys]
        cells = [(i, 0 if c == 1 else len(ys) + c - 2) for i, c in enumerate(col) if c]
        cells += [(0 if r == 1 else len(xs) + r - 2, j) for j, r in enumerate(row) if r]
        cells += [
            (i, j)
            for i in range(len(xs))
            for j in range(len(ys))
            if j >= col[i] and i >= row[j]
        ]
        cells = np.array(cells).T
    iu, iv = cells
    iu.flags.writeable = iv.flags.writeable = False
    return iu, iv


@lru_cache(maxsize=1024)
def _axis_rule(a: float, k: int, n: int):
    """Nodes x = 1 - u and weights of dPi_a on each segment of an axis with
    k halvings, one row per segment (the two atoms at a = -1/2)."""
    segments = [(0.0, 2.0)] if a == -0.5 else _axis_segments(k)
    nodes, weights = (np.array(z) for z in zip(*(_segment(a, x0, x1, n) for x0, x1 in segments)))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# a rule holds 10^2 to 10^4 nodes with eight values each, so only recent meshes
# are kept: the sorted pair sweeps revisit a mesh soon after first building it
@lru_cache(maxsize=32)
def _corner_rule(a: float, b: float, ku: int, kv: int, d: int, n: int):
    iu, iv = _cells(a == -0.5, b == -0.5, ku, kv, d)
    nu, wu = _axis_rule(a, ku, n)
    nv, wv = _axis_rule(b, kv, n)
    shape = (iu.size, nu.shape[1], nv.shape[1])
    xu = np.broadcast_to(nu[iu][:, :, None], shape).ravel()
    xv = np.broadcast_to(nv[iv][:, None, :], shape).ravel()
    w = (wu[iu][:, :, None] * wv[iv][:, None, :]).ravel()
    u, v = 1.0 - xu, 1.0 - xv
    fams = np.stack([w, w * u, w * v, w * u * u, w * u * v, w * v * v], axis=1)
    for arr in (xu, xv, fams):
        arr.flags.writeable = False
    return xu, xv, fams


def pair_moments(
    a, b, theta, phi, shifts, power=None, n_j=3, nodes=None, refine=1, shifted=False
):
    """Moments of (shift + q)^(-power-j), j < n_j, against the six monomial
    families for one point pair, all time shifts at once: (n_j, n_t, 6).

    power defaults to a + b + 2.  The mesh is graded down to a fraction of
    the smallest shifted q, q_floor + min(shifts), which each refine step
    divides by four while adding two nodes per cell side.

    shifted=True returns (plain, shifted): the second the same moments for
    the parameters (a + 1, b + 1) at power + 2.  For a, b > -1/2 both come
    from one rule, with the nodes of the larger family, and one power chain;
    at an atomic axis, or within SHARED_GAP of one, they are two passes."""
    if shifted and min(a, b) + 0.5 <= SHARED_GAP:
        shifted_power = None if power is None else power + 2.0
        return (
            pair_moments(a, b, theta, phi, shifts, power, n_j, nodes, refine),
            pair_moments(a + 1.0, b + 1.0, theta, phi, shifts, shifted_power, n_j, nodes, refine),
        )
    A, B, q_floor = _scales(theta, phi)
    shifts = np.asarray(shifts, dtype=float)
    floor = _grading_floor(q_floor, shifts, refine)
    if nodes is None:  # with shifted=True, the shifted family's (the larger) count
        nodes = nodes_for(a + 1.0, b + 1.0, refine) if shifted else nodes_for(a, b, refine)
    xu, xv, fams = corner_rule(a, b, A, B, floor, nodes)
    p = a + b + 2.0 if power is None else power
    sq = shifts[:, None] + (q_floor + A * xu + B * xv)[None, :]
    base = sq ** (-p)
    inv = np.divide(1.0, sq, out=sq)  # in place: the chain keeps two (n_t, N) arrays
    out = np.empty((n_j, shifts.size, fams.shape[1]))
    if shifted:
        # dPi_(a+1)(u) = (a + 1)/(a + 1/2) (1 - u^2) dPi_a(u), and 1 - u^2 =
        # x (2 - x), so the shifted moments reweight the plain rule; their
        # power p + 2 + j is the plain chain two steps on
        g = (a + 1.0) / (a + 0.5) * (b + 1.0) / (b + 0.5) * (xu * (2.0 - xu)) * (xv * (2.0 - xv))
        sfams = fams * g[:, None]
        sout = np.empty_like(out)
    steps = n_j + 2 if shifted else n_j
    for j in range(steps):
        if j < n_j:
            out[j] = base @ fams
        if shifted and j >= 2:
            sout[j - 2] = base @ sfams
        if j + 1 < steps:
            base *= inv
    return (out, sout) if shifted else out


def block_moments(
    a, b, theta, phi, shifts, power=None, n_j=3, nodes=None, refine=1, shifted=False
):
    """pair_moments for a block of P pairs (theta[i], phi[i]), given as two
    arrays of length P (a scalar counts as one pair): (n_j, n_t, P, 6), or
    (plain, shifted) with shifted=True.

    Each unordered pair is computed once, whatever its order or repeats in
    the block, and the pairs are visited in mesh order, so the rules of
    consecutive pairs come from the cache.  Pair i's slice is bitwise the
    result of pair_moments at (theta[i], phi[i])."""
    pairs, inverse = np.unique(
        np.column_stack([np.minimum(theta, phi), np.maximum(theta, phi)]),
        axis=0, return_inverse=True,
    )
    shifts = np.asarray(shifts, dtype=float)
    meshes = []
    for lo, hi in pairs:
        A, B, q_floor = _scales(lo, hi)
        meshes.append(_signature(a, b, A, B, _grading_floor(q_floor, shifts, refine)))
    outs = [np.empty((n_j, shifts.size, len(pairs), 6)) for _ in range(1 + shifted)]
    for i in sorted(range(len(pairs)), key=meshes.__getitem__):
        m = pair_moments(a, b, *pairs[i], shifts, power, n_j, nodes, refine, shifted)
        for out, mi in zip(outs, m if shifted else (m,)):
            out[:, :, i] = mi
    outs = tuple(out.take(inverse.ravel(), axis=2) for out in outs)
    return outs if shifted else outs[0]


class PairHead:
    """The product-formula kernel c sinh(t/2) int int (cosh(t/2) - 1 + q)^-p
    and its time and theta/phi derivatives for a block of point pairs, all
    times at once: each profile is a (times, pairs) array, assembled from the
    block's moments m of block_moments.  Only cs and sc depend on the order
    of a pair; the moments do not."""

    def __init__(self, params_eff: JacobiParams, theta, phi, t, m):
        self.p = params_eff.alpha + params_eff.beta + 2.0
        self.C = 2.0 ** (-self.p) / total_mass(params_eff)
        self.sh = np.sinh(t / 2.0)[:, None]
        self.ch = np.cosh(t / 2.0)[:, None]
        self.m = m
        self.cs = np.cos(theta / 2.0) * np.sin(phi / 2.0)
        self.sc = np.sin(theta / 2.0) * np.cos(phi / 2.0)
        self.ss = np.sin(theta / 2.0) * np.sin(phi / 2.0)
        self.cc = np.cos(theta / 2.0) * np.cos(phi / 2.0)

    def value(self):
        return self.C * self.sh * self.m[0][..., 0]

    def _lin(self, j, first, second):
        return (first / 2.0) * self.m[j][..., 1] - (second / 2.0) * self.m[j][..., 2]

    def _d_t_lin(self, first, second):
        return self.C * self.p * (
            self.ch / 2.0 * self._lin(1, first, second)
            - (self.p + 1.0) * self.sh**2 / 2.0 * self._lin(2, first, second)
        )

    def d_theta(self):
        return self.C * self.sh * self.p * self._lin(1, self.cs, self.sc)

    def d_phi(self):
        return self.C * self.sh * self.p * self._lin(1, self.sc, self.cs)

    def d_t(self):
        return self.C * (
            self.ch / 2.0 * self.m[0][..., 0] - self.p * self.sh**2 / 2.0 * self.m[1][..., 0]
        )

    def d_t_theta(self):
        return self._d_t_lin(self.cs, self.sc)

    def d_t_phi(self):
        return self._d_t_lin(self.sc, self.cs)

    def d_theta2(self):
        quad = (
            self.cs**2 / 4.0 * self.m[2][..., 3]
            - self.cs * self.sc / 2.0 * self.m[2][..., 4]
            + self.sc**2 / 4.0 * self.m[2][..., 5]
        )
        curv = self.ss / 4.0 * self.m[1][..., 1] + self.cc / 4.0 * self.m[1][..., 2]
        return self.C * self.sh * self.p * ((self.p + 1.0) * quad - curv)

    def d_theta_phi(self):
        quad = self.cs * self.sc / 4.0 * (self.m[2][..., 3] + self.m[2][..., 5]) - (
            self.cs**2 + self.sc**2
        ) / 4.0 * self.m[2][..., 4]
        mixed = -self.cc / 4.0 * self.m[1][..., 1] - self.ss / 4.0 * self.m[1][..., 2]
        return self.C * self.sh * self.p * ((self.p + 1.0) * quad - mixed)


def _cstar(params: JacobiParams, theta: float) -> float:
    half = theta / 2.0
    return -(params.alpha + 0.5) / np.tan(half) + (params.beta + 0.5) * np.tan(half)


def _cstar_prime(params: JacobiParams, theta: float) -> float:
    half = theta / 2.0
    return (params.alpha + 0.5) / (2.0 * np.sin(half) ** 2) + (params.beta + 0.5) / (
        2.0 * np.cos(half) ** 2
    )


class HeadKernels:
    """Product-formula profiles of every kernel family's integrand (H, the
    reflected Ht = (1/4) sin(theta) sin(phi) H^(alpha+1, beta+1), their
    derivatives and adjoint lowerings) for a block of pairs (theta[i], phi[i]),
    each a (times, pairs) array, composed from the plain and shifted parameter
    sets, built lazily.  The estimate harness takes them for its time head and
    the kernels module for its integral route.

    A caller that reads both families passes both=True, and their moments
    come from one shared block_moments pass; otherwise each family that is
    read makes its own pass.  Either way each unordered pair of the block is
    computed once."""

    def __init__(self, params: JacobiParams, theta, phi, t, refine=1, nodes=None, both=False):
        self.params = params
        self.theta, self.phi = theta, phi
        self._t, self._refine, self._nodes = t, refine, nodes
        self._both = both

    def _moments(self, params_eff, shifted=False):
        return block_moments(
            params_eff.alpha, params_eff.beta, self.theta, self.phi, cosh_half_minus_one(self._t),
            nodes=self._nodes, refine=self._refine, shifted=shifted,
        )

    @cached_property
    def _shared(self):
        return self._moments(self.params, shifted=True)

    def _head(self, params_eff, which):
        m = self._shared[which == "shift"] if self._both else self._moments(params_eff)
        return PairHead(params_eff, self.theta, self.phi, self._t, m)

    @cached_property
    def plain(self):
        return self._head(self.params, "plain")

    @cached_property
    def shift(self):
        return self._head(self.params.shifted(), "shift")

    # plain family
    def H(self):
        return self.plain.value()

    def H_dth(self):
        return self.plain.d_theta()

    def H_dt(self):
        return self.plain.d_t()

    def H_dt_dth(self):
        return self.plain.d_t_theta()

    def H_dt_dph(self):
        return self.plain.d_t_phi()

    def H_dth2(self):
        return self.plain.d_theta2()

    def H_dth_dph(self):
        return self.plain.d_theta_phi()

    # reflected family: (1/4) sin(theta) sin(phi) times the shifted kernel
    def _prefix(self):
        return 0.25 * np.sin(self.theta) * np.sin(self.phi)

    def Ht(self):
        return self._prefix() * self.shift.value()

    def Ht_dth(self):
        s, c = np.sin(self.theta), np.cos(self.theta)
        return 0.25 * np.sin(self.phi) * (c * self.shift.value() + s * self.shift.d_theta())

    def Ht_dph(self):
        s, c = np.sin(self.phi), np.cos(self.phi)
        return 0.25 * np.sin(self.theta) * (c * self.shift.value() + s * self.shift.d_phi())

    def Ht_dt(self):
        return self._prefix() * self.shift.d_t()

    def Ht_dt_dth(self):
        s, c = np.sin(self.theta), np.cos(self.theta)
        return 0.25 * np.sin(self.phi) * (c * self.shift.d_t() + s * self.shift.d_t_theta())

    def Ht_dth2(self):
        s, c = np.sin(self.theta), np.cos(self.theta)
        return 0.25 * np.sin(self.phi) * (
            -s * self.shift.value() + 2.0 * c * self.shift.d_theta() + s * self.shift.d_theta2()
        )

    def Ht_dth_dph(self):
        st, ct = np.sin(self.theta), np.cos(self.theta)
        sp, cp = np.sin(self.phi), np.cos(self.phi)
        return 0.25 * (
            ct * cp * self.shift.value()
            + ct * sp * self.shift.d_phi()
            + st * cp * self.shift.d_theta()
            + st * sp * self.shift.d_theta_phi()
        )

    # adjoint lowering applied in theta to the reflected family
    def Ht_low(self):
        return -self.Ht_dth() + _cstar(self.params, self.theta) * self.Ht()

    def Ht_dt_low(self):
        return -self.Ht_dt_dth() + _cstar(self.params, self.theta) * self.Ht_dt()

    def Ht_low_dth(self):
        return (
            -self.Ht_dth2()
            + _cstar_prime(self.params, self.theta) * self.Ht()
            + _cstar(self.params, self.theta) * self.Ht_dth()
        )

    def Ht_low_dph(self):
        return -self.Ht_dth_dph() + _cstar(self.params, self.theta) * self.Ht_dph()
