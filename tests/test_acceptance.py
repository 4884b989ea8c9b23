"""Acceptance gate: the ten top-level criteria, one printed line each.

Each test prints a single PASS/FAIL line carrying the measured margin (run
pytest with -s to see the lines for passing tests; failures show them in the
captured output).  Criteria with stated runtime budgets measure wall time and
include it in the line.
"""

import json
import time
from pathlib import Path

import numpy as np

from oracles import d_apply_pointwise
from symjacobi.basis import (
    d_apply_spectral,
    mode_eigenvalues,
    phi_table,
    synthesize,
)
from symjacobi.cli import AP_DIVERGENCE_FACTOR, main
from symjacobi.core import (
    JacobiParams,
    eigenvalue,
    eval_trig_poly,
    eval_trig_poly_deriv,
)
from symjacobi.estimates import (
    WeightSpec,
    ap_constant,
    exact_lemma_report,
    ladder_verdict,
    run_standard_ladders,
)
from symjacobi.kernels import (
    L2TWeighted,
    bnorm,
    poisson_kernel,
    poisson_kernel_series,
    semigroup_mass,
    symmetrized_kernel,
    symmetrized_kernel_mode_sum,
)
from symjacobi.operators import (
    AtomicMultiplier,
    LaplaceMultiplier,
    fractional_atoms,
    gfun_bound,
    gfun_norm,
    multiplier_apply,
    riesz_apply,
    semigroup_apply,
)
from symjacobi.quadrature import mu_full_rule

BASIS_PAIRS = [(-0.5, -0.5), (0.0, 0.0), (0.5, 2.0), (3.0, -0.5)]
KERNEL_PAIRS = [(-0.5, -0.5), (0.0, 0.0), (0.5, 2.0)]
MN_SET = [(1, 0), (0, 1), (1, 1), (2, 1)]
# the report of `verify --suite all --level 2 --seed 3`; a change that moves a
# field updates this file and says why
GOLDEN_REPORT = Path(__file__).parent / "data" / "golden_verify.json"


def report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_ac01_orthonormality():
    start = time.perf_counter()
    worst = 0.0
    for a, b in BASIS_PAIRS:
        p = JacobiParams(a, b)
        rule = mu_full_rule(p, 128)
        table = phi_table(p, 32, rule.nodes)
        gram = (table * rule.weights) @ table.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(33)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(
        "AC01 orthonormality n,m<=32 over four parameter pairs",
        ok, f"max deviation {worst:.3e}, {elapsed:.1f} s",
    )


def test_ac02_eigen_identities():
    p = JacobiParams(0.5, 2.0)
    th = np.linspace(0.5, 2.6, 9)
    th = np.concatenate([-th[::-1], th])

    def d_pow(f, x, n_apps, h):
        g = f
        for _ in range(n_apps):
            g = (lambda gg: lambda y: d_apply_pointwise(p, gg, y, h))(g)
        return g(x)

    min_order = np.inf
    for n in range(7):
        unit = np.zeros(n + 1)
        unit[n] = 1.0
        for n_apps in (1, 2, 3):
            ref_c = d_apply_spectral(p, unit, order=n_apps)
            ref = synthesize(p, ref_c, th)
            scale = max(1.0, float(np.max(np.abs(ref))))
            errs = [
                np.max(np.abs(d_pow(lambda x: synthesize(p, unit, x), th, n_apps, h) - ref))
                for h in (2e-3, 1e-3)
            ]
            if errs[1] < 1e-13 * scale:
                continue  # annihilated modes hit roundoff, no order to measure
            min_order = min(min_order, np.log2(errs[0] / errs[1]))

    rel = 0.0
    h = 1e-5
    for a, b in BASIS_PAIRS:
        q = JacobiParams(a, b)
        grid = np.linspace(0.3, np.pi - 0.3, 15)
        for n in range(1, 7):
            exact = eval_trig_poly_deriv(q, n, grid)
            fd = (eval_trig_poly(q, n, grid + h) - eval_trig_poly(q, n, grid - h)) / (2 * h)
            rel = max(rel, float(np.max(np.abs(exact - fd)) / np.max(np.abs(exact))))

    ok = min_order >= 1.9 and rel < 1e-6
    report(
        "AC02 lowering identities N<=3, n<=6 and the differentiation rule",
        ok, f"min measured order {min_order:.2f}, derivative rel err {rel:.2e}",
    )


def test_ac03_route_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(314)
    worst = 0.0
    for a, b in KERNEL_PAIRS:
        p = JacobiParams(a, b)
        th = rng.uniform(0.05, np.pi - 0.05, 20)
        ph = rng.uniform(0.05, np.pi - 0.05, 20)
        for t in (0.1, 0.5, 1.0, 3.0):
            ser = poisson_kernel_series(p, t, th, ph)
            dk = poisson_kernel(p, t, th, ph, route="dk")
            worst = max(worst, float(np.max(np.abs(dk - ser) / np.abs(ser))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    report(
        "AC03 series and integral kernel routes agree over the sweep",
        ok, f"max rel err {worst:.3e}, {elapsed:.1f} s",
    )


def test_ac04_decomposition_and_mass():
    rng = np.random.default_rng(9)
    worst_split = 0.0
    worst_mass = 0.0
    for a, b in KERNEL_PAIRS:
        p = JacobiParams(a, b)
        th = rng.uniform(-np.pi + 0.1, np.pi - 0.1, 50)
        ph = rng.uniform(-np.pi + 0.1, np.pi - 0.1, 50)
        for t in (0.3, 1.5):
            gap = np.abs(
                symmetrized_kernel_mode_sum(p, t, th, ph)
                - symmetrized_kernel(p, t, th, ph)
            )
            worst_split = max(worst_split, float(np.max(gap)))
        rule = mu_full_rule(p, 400)
        for t in (0.1, 1.0, 5.0):
            got = rule.integrate(symmetrized_kernel(p, t, 0.8, rule.nodes))
            worst_mass = max(worst_mass, abs(got - 2.0 * semigroup_mass(p, t)))
    ok = worst_split < 1e-10 and worst_mass < 1e-8
    report(
        "AC04 kernel decomposition on 50 random points and full mass",
        ok, f"max split gap {worst_split:.3e}, max mass err {worst_mass:.3e}",
    )


def test_ac05_exact_l2_constants():
    p = JacobiParams(0.5, 2.0)
    rng = np.random.default_rng(5)

    riesz_ok = True
    high_values = []
    for order in (1, 2, 3):
        for _ in range(25):
            c = rng.standard_normal(12)
            out = riesz_apply(p, c, parity="even", restricted=True, order=order)
            riesz_ok &= np.sum(out**2) <= 0.25 * np.sum(c**2) * (1.0 + 1e-14)
        unit = np.zeros(41)
        unit[40] = 1.0
        out = riesz_apply(p, unit, parity="even", restricted=True, order=order)
        high_values.append(float(np.sum(out**2)))
    high = min(high_values)

    gfun_ok = True
    for m_ord, n_ord in MN_SET:
        bound = gfun_bound(m_ord, n_ord, restricted=True)
        for parity in ("even", "odd"):
            for _ in range(10):
                c = rng.standard_normal(12)
                val = gfun_norm(p, c, m_ord, n_ord, parity=parity, restricted=True)
                gfun_ok &= val**2 <= bound * np.sum(c**2) * (1.0 + 1e-14)

    n = 3
    lam = eigenvalue(p, np.array([n]))[0]
    gap = lam - p.lam0
    unit = np.zeros(n + 1)
    unit[n] = 1.0
    pure_err = 0.0
    for m_ord, n_ord in MN_SET:
        exact = gfun_norm(p, unit, m_ord, n_ord, parity="even", restricted=True)
        q = bnorm(
            lambda t: np.exp(-t * np.sqrt(lam)),
            L2TWeighted(m=m_ord, n=n_ord, lam_min=lam),
        )
        closed = 0.5 * lam ** (m_ord / 2.0) * gap ** (n_ord / 2.0) * q
        pure_err = max(pure_err, abs(exact - closed) / closed)

    ok = riesz_ok and high > 0.24 and gfun_ok and pure_err < 1e-8
    report(
        "AC05 quarter bound, square-function bounds, pure-mode Gamma values",
        ok,
        f"high-mode riesz {high:.4f} > 0.24, pure-mode rel err {pure_err:.2e}",
    )


def test_ac06_multipliers():
    p = JacobiParams(0.5, 2.0)
    lam = mode_eigenvalues(p, 33, "full")
    alive = lam > 0.0

    ident = LaplaceMultiplier(phi=lambda u: np.ones_like(u), bound=1.0)
    ident_dev = float(np.max(np.abs(ident.evaluate(np.sqrt(lam[alive])) - 1.0)))

    rng = np.random.default_rng(6)
    c = rng.standard_normal(12)
    atom = AtomicMultiplier(times=np.array([0.7]), weights=np.array([1.0]))
    atom_gap = float(
        np.max(np.abs(multiplier_apply(p, atom, c) - semigroup_apply(p, 0.7, c)))
    )

    z = np.array([1.0, 2.0, 5.0])
    frac_err = float(np.max(np.abs(fractional_atoms().evaluate(z) - z**-0.5) * z**0.5))

    ok = ident_dev < 1e-10 and atom_gap == 0.0 and frac_err < 1e-6
    report(
        "AC06 multiplier identity, single atom, inverse-root atoms",
        ok,
        f"identity dev {ident_dev:.2e}, atom gap {atom_gap:.1e}, "
        f"z^-1/2 rel err {frac_err:.2e}",
    )


def test_ac07_standard_estimate_ladders():
    start = time.perf_counter()
    n_stable = 0
    n_total = 0
    worst_ratio = 0.0
    for a, b in KERNEL_PAIRS:
        ladders = run_standard_ladders(JacobiParams(a, b), levels=(1, 2, 3, 4))
        for res in ladders.values():
            n_total += 1
            sups = res.sups
            worst_ratio = max(worst_ratio, sups[-1] / sups[-2])
            n_stable += res.verdict == "stable"
    elapsed = time.perf_counter() - start
    ok = n_stable == n_total and worst_ratio < 1.05 and elapsed < 600.0
    report(
        "AC07 standard-estimate ladders at three parameter pairs",
        ok,
        f"{n_stable}/{n_total} stable, worst last-step ratio {worst_ratio:.4f}, "
        f"{elapsed:.0f} s",
    )


def test_ac08_exact_constant_lemmas():
    rep_a, rep_b = exact_lemma_report(n_samples=1_000_000, seed=0)
    ok = (
        rep_a.empirical_sup <= 1.0 + 1e-12
        and rep_b.empirical_sup <= 1.0 + 1e-12
    )
    report(
        "AC08 exact inequality quotients over one million samples",
        ok, f"sups {rep_a.empirical_sup:.4f}, {rep_b.empirical_sup:.4f}",
    )


def test_ac09_ap_characterization():
    p = JacobiParams(0.0, 0.0)
    verdicts = {}
    for r, s in ((1.0, -1.0), (2.5, 0.0)):
        w = WeightSpec(r, s, 2.0)
        sups = [ap_constant(w, p, 2.0, n) for n in range(3, 7)]
        verdicts[(r, s)] = ladder_verdict(sups, divergence_factor=AP_DIVERGENCE_FACTOR)
    ok = verdicts[(1.0, -1.0)] == "stable" and verdicts[(2.5, 0.0)] == "diverging"
    report(
        "AC09 double-power weight ladders inside and outside the window",
        ok, f"(1,-1) {verdicts[(1.0, -1.0)]}, (2.5,0) {verdicts[(2.5, 0.0)]}",
    )


def test_ac10_verify_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "all", "--seed", "3"]
    rc_a = main(argv + ["--out", str(a)])
    rc_b = main(argv + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    golden = json.loads(a.read_text()) == json.loads(GOLDEN_REPORT.read_text())
    ok = identical and golden and rc_a == 0 and rc_b == 0
    report(
        "AC10 verification reports byte-identical across consecutive runs, equal to the golden one",
        ok, f"identical={identical}, golden={golden}, exit codes {rc_a},{rc_b}, "
        f"{a.stat().st_size} bytes",
    )
