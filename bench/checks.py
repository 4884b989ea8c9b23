"""Output checks for the benchmark workloads.

Every check takes plain data (a parsed report, a table as an array, a
coefficient vector) and raises CheckFailed with the reason when the data is
wrong.  The checks use the paper's exact constants and identities and
closed forms computed here; none trusts a verdict the program printed about
itself or compares with a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """A workload's output failed a correctness check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# closed forms


def eigenvalues_full(alpha: float, beta: float, n_modes: int) -> np.ndarray:
    """lam_<n> = (floor((n+1)/2) + (alpha+beta+1)/2)^2 for the symmetrized basis."""
    k = (np.arange(n_modes) + 1) // 2
    return (k + (alpha + beta + 1.0) / 2.0) ** 2


def exact_mass(alpha: float, beta: float, t: float) -> float:
    """Half-line kernel mass e^{-t(alpha+beta+1)/2} / 2."""
    return 0.5 * math.exp(-t * (alpha + beta + 1.0) / 2.0)


def in_ap_window(r: float, s: float, p: float, alpha: float, beta: float) -> bool:
    """Double-power weight membership window for p > 1:
    -(2 alpha + 2) < r < (2 alpha + 2)(p - 1), and likewise for (s, beta)."""
    da, db = 2.0 * alpha + 2.0, 2.0 * beta + 2.0
    return -da < r < da * (p - 1.0) and -db < s < db * (p - 1.0)


def phi_reference(alpha: float, beta: float, nmax: int, theta) -> np.ndarray:
    """Symmetrized basis Phi_0..Phi_nmax through scipy's Jacobi polynomials and
    gamma-function normalizations, independent of symjacobi's recurrence."""
    from scipy.special import eval_jacobi, gammaln

    theta = np.asarray(theta, dtype=float)
    x = np.cos(theta)

    def trig(a, b, k):
        if k == 0:
            log_c2 = gammaln(a + b + 2.0) - gammaln(a + 1.0) - gammaln(b + 1.0)
        else:
            log_c2 = (
                math.log(2.0 * k + a + b + 1.0) + gammaln(k + a + b + 1.0)
                + gammaln(k + 1.0) - gammaln(k + a + 1.0) - gammaln(k + b + 1.0)
            )
        return math.exp(0.5 * log_c2) * eval_jacobi(k, a, b, x)

    out = np.empty((nmax + 1, theta.size))
    for n in range(nmax + 1):
        if n % 2 == 0:
            out[n] = trig(alpha, beta, n // 2) / math.sqrt(2.0)
        else:
            out[n] = np.sin(theta) * trig(alpha + 1.0, beta + 1.0, (n - 1) // 2) / (
                2.0 * math.sqrt(2.0)
            )
    return out


# ---------------------------------------------------------------------------
# verify_all


def check_verify_report(report: dict, growth_recompute) -> None:
    """The golden verification report of ``verify --suite all``.

    ``growth_recompute(theta, phi, t)`` returns the poisson Growth ratio
    H_t(theta, phi) * mu(B(theta, |theta - phi|)) by an independent route.
    """
    require(report.get("passed") is True, "report does not have passed: true")
    require(not report.get("failures"), f"report lists failures {report.get('failures')}")
    alpha, beta = float(report["alpha"]), float(report["beta"])
    entries = report.get("results") or []
    require(entries, "report has no results")
    by_id: dict = {}
    for e in entries:
        eid = e["estimate_id"]
        by_id.setdefault((eid, e.get("kernel_id")), []).append(e)
        if eid == "Muckenhoupt":
            r, s = e["weight"]
            want = "stable" if in_ap_window(r, s, e["p"], alpha, beta) else "diverging"
        else:
            want = "stable"
        require(e["verdict"] == want, f"{eid}/{e.get('kernel_id')}: verdict {e['verdict']}, want {want}")
        sups = [lv["sup"] for lv in e["levels"]]
        require(all(math.isfinite(x) for x in sups), f"{eid}: non-finite sup")
        for a, b in zip(sups[:-1], sups[1:]):
            require(b >= a * (1.0 - 1e-12), f"{eid}/{e.get('kernel_id')}: sup decreased {a} -> {b}")

    def sup_of(eid, kid=None):
        found = by_id.get((eid, kid))
        require(found, f"report lacks {eid}/{kid}")
        return max(lv["sup"] for e in found for lv in e["levels"])

    require(sup_of("RieszContraction") <= 0.25 * (1.0 + 1e-12), "Riesz constant exceeds 1/4")
    require(sup_of("GfunFactorBound") <= 1.0 + 1e-12, "square-function factor exceeds 1")
    for eid in ("EstimatesA", "EstimatesB"):
        require(sup_of(eid) <= 1.0 + 1e-12, f"exact lemma {eid} exceeds 1")

    growth = by_id.get(("Growth", "poisson"))
    require(growth, "report lacks the poisson Growth ladder")
    for lv in growth[0]["levels"]:
        th, ph, t = lv["argmax"]
        again = growth_recompute(th, ph, t)
        gap = abs(again - lv["sup"]) / abs(lv["sup"])
        require(gap <= 1e-6, f"poisson Growth sup {lv['sup']} recomputes to {again} (rel {gap:.2e})")


# ---------------------------------------------------------------------------
# kernel_tables


KERNEL_HEADER = ["t", "theta", "phi", "H", "H_tilde", "H_full", "mass"]


def parse_csv_table(text: str):
    """(echo line, header, float array) of a symjacobi CSV table."""
    lines = text.splitlines()
    require(len(lines) >= 3 and lines[0].startswith("#"), "table lacks its echo line")
    header = lines[1].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    return lines[0], header, np.array(rows)


def check_kernel_table(header, data, alpha: float, beta: float, t: float, route: str) -> None:
    """Properties of one ``kernel`` table on the symmetric grid."""
    want = KERNEL_HEADER + (["rel_diff"] if route == "both" else [])
    require(header == want, f"kernel header {header}")
    n = int(round(math.sqrt(data.shape[0])))
    require(n * n == data.shape[0] and n % 2 == 1, "kernel table is not a square grid")
    require(np.all(np.isfinite(data)), "kernel table has non-finite entries")
    require(np.all(data[:, 0] == t), "t column differs from the requested time")
    grid = data[:, 1].reshape(n, n)[:, 0]
    require(np.array_equal(data[:, 2].reshape(n, n)[0], grid), "phi grid differs from theta grid")
    require(np.array_equal(grid[::-1], -grid), "grid is not symmetric under negation")
    H, Ht, HH = (data[:, j].reshape(n, n) for j in (3, 4, 5))
    require(np.all(H > 0.0), "H is not positive")
    scale = H
    for name, a, b in (
        ("H symmetric", H, H.T),
        ("H even in theta", H, H[::-1, :]),
        ("H even in phi", H, H[:, ::-1]),
        ("H_tilde odd in theta", Ht, -Ht[::-1, :]),
        ("H_tilde odd in phi", Ht, -Ht[:, ::-1]),
        ("H_tilde symmetric", Ht, Ht.T),
    ):
        gap = np.max(np.abs(a - b) / scale)
        require(gap <= 1e-10, f"{name}: relative gap {gap:.2e}")
    gap = np.max(np.abs(HH - (H + Ht)) / scale)
    require(gap <= 1e-13, f"H_full differs from H + H_tilde by {gap:.2e}")
    gap = np.max(np.abs(data[:, 6] - exact_mass(alpha, beta, t)))
    require(gap <= 1e-8, f"mass column off the exact mass by {gap:.2e}")
    if route == "both":
        worst = float(np.max(data[:, 7]))
        require(worst <= 1e-6, f"rel_diff column reaches {worst:.2e}")


def check_route_agreement(dk, series) -> None:
    """Every column of a dk table against the same-t series table, relative to
    the series H of the row (|H_tilde| <= H, so H bounds every column)."""
    require(dk.shape == series.shape, "dk and series tables differ in shape")
    require(np.array_equal(dk[:, :3], series[:, :3]), "dk and series tables differ in (t, theta, phi)")
    scale = series[:, 3]
    for j, name in ((3, "H"), (4, "H_tilde"), (5, "H_full"), (6, "mass")):
        gap = float(np.max(np.abs(dk[:, j] - series[:, j]) / scale))
        require(gap <= 1e-6, f"dk column {name} differs from series by {gap:.2e}")


# ---------------------------------------------------------------------------
# spectral


def check_close(got, want, rtol: float, what: str, atol: float = 0.0) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    require(np.all(np.isfinite(got)), f"{what}: non-finite values")
    err = np.abs(got - want)
    bad = err > rtol * np.abs(want) + atol
    require(not bad.any(), f"{what}: max error {float(err.max()):.3e}")


def check_roundtrip(coeffs, back, tol: float = 1e-10) -> None:
    """analyze(synthesize(c)) returns c for a band-limited input."""
    c = np.asarray(coeffs)
    check_close(back, c, 0.0, "analyze/synthesize round trip", atol=tol * np.max(np.abs(c)))


def check_contraction(before, after, what: str) -> None:
    """An operator of norm at most one: ||out||_2 <= ||in||_2."""
    a, b = float(np.linalg.norm(before)), float(np.linalg.norm(after))
    require(np.all(np.isfinite(after)), f"{what}: non-finite output")
    require(b <= a * (1.0 + 1e-12), f"{what}: norm grew from {a:.6e} to {b:.6e}")


def check_gfun_norm(g_values, weights, exact_norm: float) -> None:
    """The L^2(dmu) norm of g(f) by quadrature equals the exact Gamma norm."""
    g = np.asarray(g_values)
    require(np.all(g >= 0.0), "square function has negative values")
    got = math.sqrt(float(np.dot(weights, g * g)))
    gap = abs(got - exact_norm) / exact_norm
    require(gap <= 1e-10, f"||g f|| = {got!r} but the exact norm is {exact_norm!r} (rel {gap:.2e})")


def check_maximal(maximal, pointwise) -> None:
    """sup_t |T_t f| dominates |T_t f| at every sampled grid time."""
    m = np.asarray(maximal)
    p = np.abs(np.asarray(pointwise))
    slack = 1e-12 * np.max(m)
    require(np.all(p <= m + slack), f"maximal function below |T_t f| by {float(np.max(p - m)):.3e}")


def check_fractional(values, z, tol: float = 1e-6) -> None:
    """Atomic z^(-1/2): relative error at most tol."""
    z = np.asarray(z, dtype=float)
    err = float(np.max(np.abs(np.asarray(values) * np.sqrt(z) - 1.0)))
    require(err <= tol, f"fractional atoms off z^-1/2 by {err:.2e} relative")


def check_ap_verdict(output: str, rc: int, member: bool) -> None:
    """``ap-check`` prints the ladder verdict the membership window predicts."""
    want = "stable" if member else "diverging"
    require(f"ladder verdict: {want}" in output, f"ap-check verdict is not {want}")
    require(rc == 0, f"ap-check exited {rc}")
