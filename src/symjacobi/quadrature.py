"""Gauss quadrature rules and interval measures for the Jacobi setting.

Provides Gauss-Jacobi rules on [-1, 1] built by Golub-Welsch (symmetric
tridiagonal eigenproblem), their transplant to (0, pi) against the measure
dmu+, the composite Gauss-Legendre panel rule, and exact interval/ball
measures through the regularized incomplete Beta function.  Everything here
needs numpy only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import JacobiParams, jacobi_matrix, total_mass

# the incomplete Beta fraction stops once a step's factor is this close to 1
# (a few ulps); it takes about sqrt(max(a, b)) / 2 steps (526 at a = b = 1e6)
# and raises past the cap
LENTZ_TOL = 4.0 * np.finfo(float).eps
LENTZ_MAX_STEPS = 1000
LENTZ_TINY = 1e-300

__all__ = [
    "QuadratureRule",
    "gauss_jacobi_rule",
    "composite_gauss",
    "mu_plus_rule",
    "mu_full_rule",
    "interval_measure",
    "ball_measure",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule; weights sum to the measure mass."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, values) -> float:
        """Weighted sum of function values sampled on the nodes."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def gauss_jacobi_rule(alpha: float, beta: float, n: int) -> QuadratureRule:
    """n-point Gauss rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1].

    Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix of
    the recurrence coefficients; weights are the total mass times the squared
    first eigenvector components (Golub-Welsch).  Exact for polynomials of
    degree <= 2n - 1.  Rules are cached by (alpha, beta, n), so a repeat call
    returns the same rule, whose arrays are read-only.
    """
    JacobiParams(alpha, beta)
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    return _golub_welsch(float(alpha), float(beta), operator.index(n))


def _frozen_rule(nodes: np.ndarray, weights: np.ndarray) -> QuadratureRule:
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


@lru_cache(maxsize=1024)
def _golub_welsch(a: float, b: float, n: int) -> QuadratureRule:
    mass = 2.0 ** (a + b + 1.0) * total_mass(JacobiParams(a, b))
    diag, off = jacobi_matrix(a, b, n)
    if n == 1:
        return _frozen_rule(diag, np.array([mass]))
    jacobi = np.diag(diag)
    jacobi[range(1, n), range(n - 1)] = off
    jacobi[range(n - 1), range(1, n)] = off
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = mass * vecs[0] ** 2
    return _frozen_rule(nodes, weights)


def composite_gauss(edges, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with `nodes` points on each panel
    between consecutive edges; exact panelwise for polynomials of degree
    <= 2 nodes - 1.  Nodes and weights come back flattened panel by panel."""
    edges = np.asarray(edges, dtype=float)
    x, w = _legendre(nodes)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


@lru_cache(maxsize=64)
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    rule = _frozen_rule(*np.polynomial.legendre.leggauss(nodes))
    return rule.nodes, rule.weights


def mu_plus_rule(params: JacobiParams, n: int) -> QuadratureRule:
    """n-point rule on (0, pi) integrating against dmu+ exactly for
    trigonometric Jacobi polynomial products of degree <= 2n - 1.

    Transplant of the Gauss-Jacobi rule under x = cos theta; the change of
    variables contributes the constant 2^{-alpha-beta-1}.
    """
    base = gauss_jacobi_rule(params.alpha, params.beta, n)
    theta = np.arccos(base.nodes)[::-1].copy()
    scale = 2.0 ** (-params.alpha - params.beta - 1.0)
    weights = (scale * base.weights)[::-1].copy()
    return QuadratureRule(nodes=theta, weights=weights)


def mu_full_rule(params: JacobiParams, n: int) -> QuadratureRule:
    """2n-point rule on (-pi, pi) for the reflection-symmetric measure dmu
    (the |.|-extension of dmu+), built by mirroring the half-line rule."""
    half = mu_plus_rule(params, n)
    nodes = np.concatenate([-half.nodes[::-1], half.nodes])
    weights = np.concatenate([half.weights[::-1], half.weights])
    return QuadratureRule(nodes=nodes, weights=weights)


def interval_measure(params: JacobiParams, lo, hi) -> np.ndarray:
    """dmu+ measure of the interval (lo, hi) intersected with (0, pi).

    Exact: under u = sin^2(theta/2) the measure becomes u^alpha (1-u)^beta du,
    an incomplete Beta difference.  Arrays broadcast.
    """
    lo = np.clip(np.asarray(lo, dtype=float), 0.0, np.pi)
    hi = np.clip(np.asarray(hi, dtype=float), 0.0, np.pi)
    a1, b1 = params.alpha + 1.0, params.beta + 1.0
    vals = total_mass(params) * (
        _betainc(a1, b1, np.sin(hi / 2.0) ** 2) - _betainc(a1, b1, np.sin(lo / 2.0) ** 2)
    )
    return np.maximum(vals, 0.0)


def ball_measure(params: JacobiParams, theta, radius) -> np.ndarray:
    """dmu+ measure of the ball B(theta, radius) inside (0, pi)."""
    theta = np.asarray(theta, dtype=float)
    radius = np.asarray(radius, dtype=float)
    if np.any(radius < 0):
        raise ValueError("radius must be nonnegative")
    return interval_measure(params, theta - radius, theta + radius)


def _betainc(a: float, b: float, x) -> np.ndarray:
    """Regularized incomplete Beta function I_x(a, b) for a, b > 0 and x in
    [0, 1], elementwise over x.

    The continued fraction for I_x(a, b) converges fast for
    x < (a + 1)/(a + b + 2); above that, I_x(a, b) = 1 - I_{1-x}(b, a).
    Each fraction runs the modified Lentz iteration until its factor is
    within a few ulps of 1.
    """
    x = np.asarray(x, dtype=float)
    flip = x > (a + 1.0) / (a + b + 2.0)
    p = np.where(flip, b, a)
    q = np.where(flip, a, b)
    # y is the argument of the fraction and z = 1 - y, each taken from x
    # itself where it can be
    y = np.where(flip, 1.0 - x, x)
    z = np.where(flip, x, 1.0 - x)
    # the front factor y^p z^q / (p B(p, q)), with
    # 1 / (p B(p, q)) = q / (a + b) * Gamma(a + b + 1) / (Gamma(a + 1) Gamma(b + 1));
    # in logs only where Gamma(a + b + 1) would overflow, which costs about
    # eps * lgamma(a + b + 1) of relative accuracy
    if a + b < 170.0:
        ratio = math.gamma(a + b + 1.0) / (math.gamma(a + 1.0) * math.gamma(b + 1.0))
        front = y**p * z**q * (q / (a + b) * ratio)
    else:
        log_ratio = math.lgamma(a + b + 1.0) - math.lgamma(a + 1.0) - math.lgamma(b + 1.0)
        with np.errstate(divide="ignore"):
            front = np.exp(p * np.log(y) + q * np.log(z) + log_ratio) * (q / (a + b))
    part = np.clip(front * _beta_fraction(p, q, y), 0.0, 1.0)
    return np.where(flip, 1.0 - part, part)


def _beta_fraction(p: np.ndarray, q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The continued fraction of I_y(p, q) by the modified Lentz method,
    iterated on the entries that have not converged yet."""
    shape = y.shape
    p, q, y = (np.broadcast_to(v, shape).ravel() for v in (p, q, y))
    out = np.empty(y.size)
    todo = np.arange(y.size)
    c = np.ones(y.size)
    d = 1.0 / _off_zero(1.0 - (p + q) * y / (p + 1.0))
    h = d.copy()
    for m in range(1, LENTZ_MAX_STEPS + 1):
        # the even then the odd partial numerator of step m
        for num in (
            m * (q - m) * y / ((p + 2 * m - 1.0) * (p + 2 * m)),
            -(p + m) * (p + q + m) * y / ((p + 2 * m) * (p + 2 * m + 1.0)),
        ):
            d = 1.0 / _off_zero(1.0 + num * d)
            c = _off_zero(1.0 + num / c)
            h *= c * d
        done = np.abs(c * d - 1.0) <= LENTZ_TOL
        out[todo[done]] = h[done]
        if done.all():
            return out.reshape(shape)
        todo, p, q, y, c, d, h = (v[~done] for v in (todo, p, q, y, c, d, h))
    raise ArithmeticError(f"incomplete Beta fraction did not converge in {LENTZ_MAX_STEPS} steps")


def _off_zero(v: np.ndarray) -> np.ndarray:
    """v with entries of modulus below LENTZ_TINY set to LENTZ_TINY, so the
    Lentz quotients never divide by zero."""
    return np.where(np.abs(v) < LENTZ_TINY, LENTZ_TINY, v)
