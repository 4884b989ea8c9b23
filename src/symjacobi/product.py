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
for the most recent meshes, which is a few gathers from the first two (with
the shifted families of the next paragraph beside it).

The kernels H and Ht need the plain family (a, b) and the shifted family
(a + 1, b + 1).  For a > -1/2, dPi_(a+1)(u) = (a + 1)/(a + 1/2) (1 - u^2)
dPi_a(u), so the shifted moments of (s + q)^-(p + 2 + j) are the plain
rule's weights times the two ratios and (1 - u^2)(1 - v^2), at powers the
plain chain reaches two steps on: pair_moments(..., shifted=True) computes
both from one rule (with the larger family's nodes) and one power chain.
At an atomic axis a = -1/2 the factor 1 - u^2 vanishes on the atoms and
the ratio is infinite, so there, and within SHARED_GAP of it where the
ratio amplifies rounding, the two families take separate passes.

Most time shifts of the estimate head are tiny next to q_floor: the head's
times reach 1e-8, where s = cosh(t/2) - 1 is about t^2/8, and pairs are as
close as 1e-3, so q_floor >= 1.25e-7.  The leading shifts with
s < CONT_EPS q_floor (CONT_EPS = 1e-2) come from one chain continued past
s = 0, by

    (s + q)^-r = sum_k binom(-r, k) s^k q^(-r-k),

with each term at most (r + k)/(k + 1) CONT_EPS times the one before.  The
series keeps K terms, the fewest for which the first dropped one is below
1e-16 relative at the largest exponent r of the call.  All its rows share one
N-vector chain, scaled by q_floor against overflow: row n is
q^-p (q_floor / q)^n, which never exceeds q^-p, and the coefficients are
binom(-r, k) (s / q_floor)^k q_floor^-(r - p); unscaled, q^-(p + n) would
reach about 1e238 at (a, b) = (8, 7.5) and the closest pairs.  The chain
costs a few products per node where each direct row costs a power, so it
replaces the small rows when their count makes up for its fixed cost; one
shift alone always takes the direct chain.

Callers work on blocks of pairs.  block_moments is the one loop over pairs:
it reduces a block to its unordered pairs, computes each once, in mesh order
so that consecutive pairs share a cached rule, and expands the result back
to the block.  A pair with one negative angle is the pair of absolute angles
with u -> -u, since dPi_a is even: its moments of u and uv change sign.

HeadKernels assembles the kernel profiles of a whole block from those
moments, as (times, pairs) arrays, keyed by the spec (parity, th_op, ph_op,
m) that the series route's mode_sum takes, from PairHead's moment formulas.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache

import numpy as np

from .core import JacobiParams, sin_product_derivative, total_mass
from .quadrature import composite_gauss, gauss_jacobi_rule

__all__ = [
    "cosh_half_minus_one", "nodes_for", "corner_rule", "pair_moments", "block_moments",
    "HeadKernels",
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
# shifts below CONT_EPS q_floor continue the s = 0 power chain by a binomial
# series, cut where its first dropped term falls below CONT_TOL relative.  The
# series replaces those rows when it is cheaper, in node-products measured on
# one core: a direct row costs one power (about POW_COST products) and a
# product per chain step at each node, the series chain about two products
# per row at each node (its rows carry both families' columns) plus
# CHAIN_OVERHEAD of fixed cost
CONT_EPS = 1e-2
CONT_TOL = 1e-16
POW_COST = 4.0
CHAIN_OVERHEAD = 5.0e4


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


def _atomic(a: float) -> bool:
    """Whether dPi_a is taken as the two atoms: at a = -1/2, and at the one
    float above it whose rule exponent a - 1/2 rounds to -1."""
    return a - 0.5 == -1.0


@lru_cache(maxsize=1024)
def _segment(a: float, x0: float, x1: float, n: int):
    """Nodes x = 1 - u and weights of dPi_a restricted to x in [x0, x1]."""
    if _atomic(a):
        return np.array([0.0, 2.0]), np.array([0.5, 0.5])
    # the weights are normalized for the exponent e the rules use, which is
    # a - 1/2 rounded: normalizing for a itself puts a relative error of about
    # 1e-16 / (a + 1/2) on the mass, just above a = -1/2.  Where a - 1/2 is
    # exact, e + 1 and e + 3/2 round as a + 1/2 and a + 1 do.
    e = a - 0.5
    norm = math.exp(math.lgamma(e + 1.5) - math.lgamma(e + 1.0)) / math.sqrt(math.pi)
    if x0 == 0.0:  # endpoint u = 1, weight x^e handled exactly
        rule = gauss_jacobi_rule(e, 0.0, n)
        x = x1 * (1.0 - rule.nodes) / 2.0
        w = rule.weights * (x1 / 2.0) ** (e + 1.0) * (2.0 - x) ** e
    elif x1 == 2.0:  # endpoint u = -1, weight (2 - x)^e handled exactly
        rule = gauss_jacobi_rule(0.0, e, n)
        x = 2.0 - (2.0 - x0) * (1.0 + rule.nodes) / 2.0
        w = rule.weights * ((2.0 - x0) / 2.0) ** (e + 1.0) * x ** e
    else:
        x, w = composite_gauss([x0, x1], n)
        w = w * (x * (2.0 - x)) ** e
    return x, norm * w


def _levels(c: float, floor: float) -> int:
    """Halvings of the near half until the scaled width c 2^-k <= floor."""
    return max(0, int(np.ceil(np.log2(c / floor)))) if c > floor else 0


def _scales(theta, phi):
    """A, B and q_floor of the pair (|theta|, |phi|), symmetric in theta and phi."""
    theta, phi = abs(theta), abs(phi)
    A = np.sin(theta / 2.0) * np.sin(phi / 2.0)
    B = np.cos(theta / 2.0) * np.cos(phi / 2.0)
    q_floor = 2.0 * np.sin(abs(theta - phi) / 4.0) ** 2
    return A, B, q_floor


def _grading_floor(q_floor, shifts, refine):
    return max((q_floor + shifts.min()) * PANEL_FLOOR_FRAC / 4.0 ** (refine - 1), 1e-15)


def _signature(a, b, A, B, floor):
    """The mesh of a rule as (ku, kv, d): the halvings of each axis and the
    clamped floor(log2(A / B))."""
    ku = 0 if _atomic(a) else _levels(A, floor)
    kv = 0 if _atomic(b) else _levels(B, floor)
    if _atomic(a) or _atomic(b):
        return ku, kv, 0
    # the mesh compares xi- and eta-edges A 2^-i and B 2^-j, so it depends on
    # A / B only through floor(log2(A / B)), clamped to where it matters
    if A == 0.0 or B == 0.0:
        return ku, kv, (-kv - 3 if A == 0.0 else ku + 3)
    return ku, kv, int(min(max(np.floor(np.log2(A) - np.log2(B)), -kv - 3), ku + 3))


def _pair_mesh(a, b, theta, phi, shifts, refine):
    """A, B and q_floor of the pair, and the mesh signature of its rule for
    dPi_a(u) dPi_b(v) at the shifts and refine step."""
    A, B, q_floor = _scales(theta, phi)
    return A, B, q_floor, _signature(a, b, A, B, _grading_floor(q_floor, shifts, refine))


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
    """Per segment of an axis with k halvings, one row each (the two atoms
    at a = -1/2): the nodes x = 1 - u, 1 - x, the weights of dPi_a and
    x (2 - x), as one (4, segments, nodes) table."""
    segments = [(0.0, 2.0)] if _atomic(a) else _axis_segments(k)
    x, w = (np.array(z) for z in zip(*(_segment(a, x0, x1, n) for x0, x1 in segments)))
    table = np.stack([x, 1.0 - x, w, x * (2.0 - x)])
    table.flags.writeable = False
    return table


def _cell_grids(a, b, ku, kv, d, n, rows):
    """The given rows of the two axis tables gathered to the cells of a mesh,
    laid out in the order of the rule's nodes (u outer, v inner): two
    (len(rows), cells, nodes per cell) arrays."""
    iu, iv = _cells(_atomic(a), _atomic(b), ku, kv, d)
    tu, tv = _axis_rule(a, ku, n)[rows][:, iu], _axis_rule(b, kv, n)[rows][:, iv]
    return np.repeat(tu, tv.shape[2], axis=2), np.tile(tv, (1, 1, tu.shape[2]))


# a rule holds 10^2 to 10^4 nodes with eight values each, so only recent meshes
# are kept: the sorted pair sweeps revisit a mesh soon after first building it
@lru_cache(maxsize=32)
def _corner_rule(a: float, b: float, ku: int, kv: int, d: int, n: int):
    gu, gv = _cell_grids(a, b, ku, kv, d, n, slice(0, 3))
    (xu, u, wu), (xv, v, wv) = gu.reshape(3, -1), gv.reshape(3, -1)
    xu, xv = xu.copy(), xv.copy()  # the cached rule keeps these, not the grids
    # columns w, wu, wv, (wu) u, (wu) v, (wv) v, filled in place
    fams = np.empty((xu.size, 6))
    np.multiply(wu, wv, out=fams[:, 0])
    for col, (src, by) in enumerate(((0, u), (0, v), (1, u), (1, v), (2, v)), start=1):
        np.multiply(fams[:, src], by, out=fams[:, col])
    for arr in (xu, xv, fams):
        arr.flags.writeable = False
    return xu, xv, fams


# a pair sweep reads the shifted families right after building the rule, so
# fewer of them are kept
@lru_cache(maxsize=8)
def _both_families(a: float, b: float, ku: int, kv: int, d: int, n: int):
    """The families of _corner_rule (columns 0-5) beside those of the shifted
    measures (columns 6-11): dPi_(a+1)(u) = (a + 1)/(a + 1/2) (1 - u^2)
    dPi_a(u), and 1 - u^2 = x (2 - x); cached beside the rule, read-only.
    The ratios are taken at the rule's exponents a - 1/2 and b - 1/2, as in
    _segment."""
    fams = _corner_rule(a, b, ku, kv, d, n)[2]
    gu, gv = _cell_grids(a, b, ku, kv, d, n, slice(3, 4))
    ea, eb = a - 0.5, b - 0.5
    g = (ea + 1.5) / (ea + 1.0) * (eb + 1.5) / (eb + 1.0) * gu.ravel() * gv.ravel()
    both = np.empty((fams.shape[0], 12))
    both[:, :6] = fams
    np.multiply(fams, g[:, None], out=both[:, 6:])
    both.flags.writeable = False
    return both


def pair_moments(
    a, b, theta, phi, shifts, power=None, n_j=3, nodes=None, refine=1, shifted=False, mesh=None
):
    """Moments of (shift + q)^(-power-j), j < n_j, against the six monomial
    families for one point pair, all time shifts at once: (n_j, n_t, 6).

    power defaults to a + b + 2.  The mesh is graded down to a fraction of
    the smallest shifted q, q_floor + min(shifts), which each refine step
    divides by four while adding two nodes per cell side.

    shifted=True returns (plain, shifted): the second the same moments for
    the parameters (a + 1, b + 1) at power + 2.  For a, b > -1/2 both come
    from one rule, with the nodes of the larger family, and one power chain;
    at an atomic axis, or within SHARED_GAP of one, they are two passes.

    The leading shifts below CONT_EPS q_floor may come from the binomial
    series of the module docstring, the others from the direct chain of
    powers (s + q)^-p times 1 / (s + q) per step.

    mesh, when given, is the pair's _pair_mesh for (a, b), which
    block_moments has already computed to sort its pairs."""
    shifts = np.asarray(shifts, dtype=float)
    if shifted and min(a, b) + 0.5 <= SHARED_GAP:
        shifted_power = None if power is None else power + 2.0
        return (
            pair_moments(a, b, theta, phi, shifts, power, n_j, nodes, refine, mesh=mesh),
            pair_moments(a + 1.0, b + 1.0, theta, phi, shifts, shifted_power, n_j, nodes, refine),
        )
    if mesh is None:
        mesh = _pair_mesh(a, b, theta, phi, shifts, refine)
    A, B, q_floor, signature = mesh
    if nodes is None:  # with shifted=True, the shifted family's (the larger) count
        nodes = nodes_for(a + 1.0, b + 1.0, refine) if shifted else nodes_for(a, b, refine)
    rule = (float(a), float(b), *signature, nodes)
    xu, xv, fams = _corner_rule(*rule)
    p = a + b + 2.0 if power is None else power
    q = q_floor + A * xu + B * xv
    outs = [np.empty((n_j, shifts.size, 6)) for _ in range(1 + shifted)]
    if shifted:  # their power p + 2 + j is the plain chain two steps on
        wide = _both_families(*rule)
        cols = [wide[:, :6], wide[:, 6:]]
    else:
        wide, cols = fams, [fams]
    steps = n_j + 2 if shifted else n_j
    # the leading shifts below CONT_EPS q_floor (all of them on an ascending
    # grid) may come from the series; the rest take the direct chain
    n_small = 0
    if shifts.size > 1:
        small = shifts < CONT_EPS * q_floor
        n_small = shifts.size if small.all() else int(np.argmin(small))
    terms = _series_terms(p + steps - 1)
    if n_small > 1 and n_small * (POW_COST + steps) * q.size > (
        (POW_COST + 2.0 * (steps + terms)) * q.size + CHAIN_OVERHEAD
    ):
        m = _continuation(q, q_floor, shifts[:n_small] / q_floor, p, wide, steps, terms)
        for i, o in enumerate(outs):  # family i's moment j is row 2 i + j
            o[:, :n_small] = m[2 * i : 2 * i + n_j, :, 6 * i : 6 * i + 6]
    else:
        n_small = 0
    if n_small < shifts.size:
        sq = shifts[n_small:, None] + q[None, :]
        base = sq ** (-p)
        if steps > 1:  # in place: the chain keeps two (n_t, N) arrays
            inv = np.divide(1.0, sq, out=sq)
        for j in range(steps):
            for i, (o, c) in enumerate(zip(outs, cols)):
                if 0 <= j - 2 * i < n_j:
                    np.matmul(base, c, out=o[j - 2 * i, n_small:])
            if j + 1 < steps:
                base *= inv
    if theta * phi < 0:  # the pair (|theta|, |phi|) with u -> -u, as dPi_a is even
        for o in outs:
            o[..., [1, 4]] *= -1.0
    return tuple(outs) if shifted else outs[0]


@lru_cache(maxsize=64)
def _series_terms(r: float) -> int:
    """Terms K of the binomial series of (s + q)^-r kept at s < CONT_EPS q:
    the first dropped one, |binom(-r, K)| CONT_EPS^K, is below CONT_TOL.
    Exponents up to r need no more, since |binom(-r, k)| grows with r."""
    k, term = 0, 1.0
    while term >= CONT_TOL:
        term *= (r + k) / (k + 1) * CONT_EPS
        k += 1
    return k


@lru_cache(maxsize=64)
def _binomial_band(p: float, steps: int, terms: int):
    """Row m of the series coefficients as an (steps, steps + terms - 1)
    band: binom(-(p + m), k) at column m + k for k < terms, zero elsewhere;
    with the power k of s / q_floor each column takes, clipped to the band."""
    m = np.arange(steps)[:, None]
    k = np.arange(terms - 1)
    # binom(-r, k + 1) = binom(-r, k) (-(r + k) / (k + 1))
    factors = np.hstack([np.ones((steps, 1)), -(p + m + k) / (k + 1.0)])
    power = np.arange(steps + terms - 1) - m
    inside = (power >= 0) & (power < terms)
    band = np.zeros(power.shape)
    band[inside] = np.cumprod(factors, axis=1).ravel()
    power = np.clip(power, 0, terms - 1)
    for arr in (band, power):
        arr.flags.writeable = False
    return band, power


def _continuation(q, q_floor, x, p, fams, steps, terms):
    """Moments of (s + q)^-(p + m), m < steps, against the columns of fams at
    the small shifts s = x q_floor: (steps, x.size, columns), from

        (s + q)^-(p + m) = sum_k binom(-(p + m), k) (s / q_floor)^k
                           q_floor^-m  q^-p (q_floor / q)^(m + k).

    The chain rows q^-p (q_floor / q)^n stay below q^-p, so no row
    overflows where the unscaled powers q^-(p + n) would."""
    n_rows = steps + terms - 1
    chain = np.empty((n_rows, q.size))
    chain[0] = q ** (-p)
    ratio, n = q_floor / q, 1
    while n < n_rows:  # rows n.. from rows 0.. by doubling
        k = min(n, n_rows - n)
        np.multiply(chain[:k], ratio, out=chain[n : n + k])
        n += k
        if n < n_rows:
            ratio = ratio * ratio
    band, power = _binomial_band(p, steps, terms)
    band = band * q_floor ** -np.arange(steps)[:, None]
    coef = band[:, None, :] * (x[:, None] ** np.arange(terms))[:, power].transpose(1, 0, 2)
    return (coef.reshape(-1, n_rows) @ (chain @ fams)).reshape(steps, x.size, -1)


def block_moments(
    a, b, theta, phi, shifts, power=None, n_j=3, nodes=None, refine=1, shifted=False
):
    """pair_moments for a block of P pairs (theta[i], phi[i]), given as two
    arrays of length P (a scalar counts as one pair): (n_j, n_t, P, 6), or
    (plain, shifted) with shifted=True.

    Each unordered pair is computed once, whatever its order or repeats in
    the block, and the pairs are visited in mesh order, so the rules of
    consecutive pairs come from the cache; each pair's mesh, computed for
    that order, is handed to pair_moments.  Pair i's slice is bitwise the
    result of pair_moments at (theta[i], phi[i])."""
    pairs, inverse = np.unique(
        np.column_stack([np.minimum(theta, phi), np.maximum(theta, phi)]),
        axis=0, return_inverse=True,
    )
    shifts = np.asarray(shifts, dtype=float)
    meshes = [_pair_mesh(a, b, lo, hi, shifts, refine) for lo, hi in pairs]
    outs = [np.empty((n_j, shifts.size, len(pairs), 6)) for _ in range(1 + shifted)]
    for i in sorted(range(len(pairs)), key=lambda i: meshes[i][3]):
        m = pair_moments(
            a, b, *pairs[i], shifts, power, n_j, nodes, refine, shifted, mesh=meshes[i]
        )
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


# PairHead's formula for each (theta, phi, time) derivative order
_PAIR_PARTS = {
    (0, 0, 0): PairHead.value,
    (1, 0, 0): PairHead.d_theta,
    (0, 1, 0): PairHead.d_phi,
    (0, 0, 1): PairHead.d_t,
    (1, 0, 1): PairHead.d_t_theta,
    (0, 1, 1): PairHead.d_t_phi,
    (2, 0, 0): PairHead.d_theta2,
    (1, 1, 0): PairHead.d_theta_phi,
}


def _cstar(params: JacobiParams, theta: float) -> float:
    half = theta / 2.0
    return -(params.alpha + 0.5) / np.tan(half) + (params.beta + 0.5) * np.tan(half)


def _cstar_prime(params: JacobiParams, theta: float) -> float:
    half = theta / 2.0
    return (params.alpha + 0.5) / (2.0 * np.sin(half) ** 2) + (params.beta + 0.5) / (
        2.0 * np.cos(half) ** 2
    )


class HeadKernels:
    """Product-formula profiles of every kernel family's integrand for a
    block of pairs (theta[i], phi[i]), each a (times, pairs) array, keyed by
    mode_sum's spec (parity, th_op, ph_op, m): "even" is H and "odd" the
    reflected Ht = (1/4) sin(theta) sin(phi) H^(alpha+1, beta+1).  The
    estimate harness takes them for its time head and the kernels module for
    its integral route.

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

    def profile(self, spec):
        """The (times, pairs) profile of the spec (parity, th_op, ph_op, m)."""
        parity, th_op, ph_op, m = spec
        if th_op in ("low", "low1"):  # -d_theta + c* in theta, or its theta-derivative
            part = lambda k: self.profile((parity, k, ph_op, m))
            cstar = _cstar(self.params, self.theta)
            if th_op == "low":
                return -part(1) + cstar * part(0)
            return -part(2) + _cstar_prime(self.params, self.theta) * part(0) + cstar * part(1)
        if parity == "even":
            return _PAIR_PARTS[th_op, ph_op, m](self.plain)
        # the product rule over sin(theta) at each phi-order, then over sin(phi)
        shift = lambda k, j: _PAIR_PARTS[k, j, m](self.shift)
        by_phi = [
            sin_product_derivative(self.theta, [shift(k, j) for k in range(th_op + 1)])
            for j in range(ph_op + 1)
        ]
        return 0.25 * sin_product_derivative(self.phi, by_phi)
