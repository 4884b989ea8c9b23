"""Gauss quadrature rules and interval measures for the Jacobi setting.

Provides Gauss-Jacobi rules on [-1, 1] built by Golub-Welsch (symmetric
tridiagonal eigenproblem), their transplant to (0, pi) against the measure
dmu+, the composite Gauss-Legendre panel rule, and exact interval/ball
measures through the regularized incomplete Beta function.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import betainc, betaln

from .core import JacobiParams, total_mass

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
    mass = float(np.exp((a + b + 1.0) * np.log(2.0) + betaln(a + 1.0, b + 1.0)))
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    k = np.arange(1, n, dtype=float)
    diag[1:] = (b * b - a * a) / ((2.0 * k + a + b) * (2.0 * k + a + b + 2.0))
    if n == 1:
        return _frozen_rule(diag, np.array([mass]))
    offsq = np.empty(n - 1)
    offsq[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    k = np.arange(2, n, dtype=float)
    offsq[1:] = (
        4.0 * k * (k + a) * (k + b) * (k + a + b)
        / ((2.0 * k + a + b) ** 2 * (2.0 * k + a + b + 1.0) * (2.0 * k + a + b - 1.0))
    )
    nodes, vecs = eigh_tridiagonal(diag, np.sqrt(offsq))
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
        betainc(a1, b1, np.sin(hi / 2.0) ** 2) - betainc(a1, b1, np.sin(lo / 2.0) ** 2)
    )
    return np.maximum(vals, 0.0)


def ball_measure(params: JacobiParams, theta, radius) -> np.ndarray:
    """dmu+ measure of the ball B(theta, radius) inside (0, pi)."""
    theta = np.asarray(theta, dtype=float)
    radius = np.asarray(radius, dtype=float)
    if np.any(radius < 0):
        raise ValueError("radius must be nonnegative")
    return interval_measure(params, theta - radius, theta + radius)

