"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

For every check, an unperturbed output (made by symjacobi on small inputs)
must pass and each deliberately perturbed copy must be rejected.  Exits 0
when all cases behave, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import copy
import math
import sys

import numpy as np

import run
import checks
from workloads import run_cli


def _expect(results, name, fn, should_pass):
    try:
        fn()
        passed = True
    except checks.CheckFailed:
        passed = False
    ok = passed == should_pass
    results.append(ok)
    print(f"{'ok  ' if ok else 'BAD '} {'accepts' if should_pass else 'rejects'} {name}")


def _table(sj, route, t=0.5, ab=(0.5, 2.0)):
    argv = ["kernel", "--route", route, "--t", repr(t), "--level", "1",
            "--alpha", repr(ab[0]), "--beta", repr(ab[1])]
    rc, text, _ = run_cli(sj, argv)
    assert rc == 0
    return checks.parse_csv_table(text)[1:]


def kernel_cases(sj, results):
    ab, t = (0.5, 2.0), 0.5
    tables = {r: _table(sj, r, t, ab) for r in ("series", "dk", "both")}

    def table_check(route, mutate=None):
        header, data = tables[route]
        data = data.copy()
        if mutate is not None:
            mutate(data)
        return lambda: checks.check_kernel_table(header, data, ab[0], ab[1], t, route)

    n = int(math.sqrt(tables["series"][1].shape[0]))
    off = 1 * n + 2  # an off-diagonal, off-axis grid point

    def bump(col, rel):
        def f(d):
            d[off, col] *= 1.0 + rel
        return f

    def set_col(col, value):
        def f(d):
            d[:, col] = value
        return f

    for route in ("series", "dk", "both"):
        _expect(results, f"{route} table", table_check(route), True)
    _expect(results, "H off symmetry by 1e-9", table_check("series", bump(3, 1e-9)), False)
    _expect(results, "H_tilde off oddness by 1e-9", table_check("series", bump(4, 1e-9)), False)
    _expect(results, "H_full != H + H_tilde", table_check("series", bump(5, 1e-12)), False)
    _expect(results, "negative H", table_check("series", lambda d: d.__setitem__((off, 3), -d[off, 3])), False)
    exact = checks.exact_mass(ab[0], ab[1], t)
    _expect(results, "mass off by 1e-7", table_check("series", set_col(6, exact + 1e-7)), False)
    _expect(results, "rel_diff 2e-6", table_check("both", set_col(7, 2e-6)), False)

    dk, series = tables["dk"][1], tables["series"][1]
    _expect(results, "dk against series", lambda: checks.check_route_agreement(dk, series), True)
    for col, name in ((3, "H"), (4, "H_tilde"), (5, "H_full")):
        bad = dk.copy()
        bad[off, col] += 1e-5 * bad[off, 3]
        _expect(results, f"dk column {name} off by 1e-5",
                lambda bad=bad: checks.check_route_agreement(bad, series), False)


def verify_cases(sj, results):
    p = sj.JacobiParams(0.0, 0.0)
    th, ph, t = 2.9, 3.1, 0.2

    def growth(theta, phi, tt):
        return float(sj.poisson_kernel_series(p, tt, theta, phi)) * float(
            sj.ball_measure(p, theta, abs(theta - phi)))

    sup = growth(th, ph, t)

    def level(lv, s, arg=()):
        return {"level": lv, "sup": s, "argmax": list(arg)}

    report = {
        "alpha": 0.0, "beta": 0.0, "passed": True, "failures": [],
        "results": [
            {"estimate_id": "RieszContraction", "levels": [level(2, 0.2497)], "verdict": "stable"},
            {"estimate_id": "GfunFactorBound", "levels": [level(2, 1.0)], "verdict": "stable"},
            {"estimate_id": "EstimatesA", "levels": [level(1, 0.08)], "verdict": "stable"},
            {"estimate_id": "EstimatesB", "levels": [level(1, 0.12)], "verdict": "stable"},
            {"estimate_id": "Growth", "kernel_id": "poisson", "verdict": "stable",
             "levels": [level(1, sup, (th, ph, t)), level(2, sup, (th, ph, t))]},
            {"estimate_id": "Bridge1", "verdict": "stable", "levels": [level(1, 3.5), level(2, 3.6)]},
            {"estimate_id": "Muckenhoupt", "weight": [1.0, -1.0], "p": 2.0, "verdict": "stable",
             "levels": [level(3, 2.4), level(4, 2.4)]},
            {"estimate_id": "Muckenhoupt", "weight": [2.5, 0.0], "p": 2.0, "verdict": "diverging",
             "levels": [level(3, 297.0), level(4, 421.0)]},
        ],
    }
    _expect(results, "verify report", lambda: checks.check_verify_report(report, growth), True)

    def mutated(edit):
        rep = copy.deepcopy(report)
        edit(rep)
        return lambda: checks.check_verify_report(rep, growth)

    def entry(rep, eid, which=0):
        return [e for e in rep["results"] if e["estimate_id"] == eid][which]

    cases = {
        "passed: false": lambda r: r.__setitem__("passed", False),
        "a diverging ladder": lambda r: entry(r, "Bridge1").__setitem__("verdict", "diverging"),
        "a decreasing ladder": lambda r: entry(r, "Bridge1")["levels"][1].__setitem__("sup", 3.4),
        "Riesz above 1/4": lambda r: entry(r, "RieszContraction")["levels"][0].__setitem__("sup", 0.2501),
        "square-function factor above 1": lambda r: entry(r, "GfunFactorBound")["levels"][0].__setitem__("sup", 1.001),
        "exact lemma above 1": lambda r: entry(r, "EstimatesB")["levels"][0].__setitem__("sup", 1.001),
        "Growth sup off by 1e-5": lambda r: [lv.__setitem__("sup", lv["sup"] * (1 + 1e-5)) for lv in entry(r, "Growth")["levels"]],
        "A_p member marked diverging": lambda r: entry(r, "Muckenhoupt", 0).__setitem__("verdict", "diverging"),
        "A_p non-member marked stable": lambda r: entry(r, "Muckenhoupt", 1).__setitem__("verdict", "stable"),
        "missing Riesz entry": lambda r: r["results"].pop(0),
    }
    for name, edit in cases.items():
        _expect(results, name, mutated(edit), False)


def spectral_cases(sj, results):
    rng = np.random.default_rng(0)
    p = sj.JacobiParams(0.5, -0.25)
    c = rng.standard_normal(40)
    back = sj.analyze(p, lambda th: sj.synthesize(p, c, th), c.size - 1)
    _expect(results, "round trip", lambda: checks.check_roundtrip(c, back), True)
    _expect(results, "round trip off by 1e-8", lambda: checks.check_roundtrip(c, back + 1e-8), False)

    once = sj.semigroup_apply(p, 0.7, c)
    _expect(results, "semigroup", lambda: checks.check_close(once, once * (1 + 1e-15), 1e-13, "s"), True)
    _expect(results, "semigroup off by 1e-12", lambda: checks.check_close(once * (1 + 1e-12), once, 1e-13, "s"), False)

    r = sj.riesz_apply(p, c, order=1)
    _expect(results, "Riesz contraction", lambda: checks.check_contraction(c, r, "R"), True)
    _expect(results, "Riesz norm grown", lambda: checks.check_contraction(c, c * 1.0001, "R"), False)

    rule = sj.mu_full_rule(p, 48)
    lam = checks.eigenvalues_full(0.5, -0.25, c.size)
    ratio = (lam - lam[0]) / lam
    exact = math.sqrt(math.gamma(4) / 2.0**4 * float(np.sum(ratio * c**2)))
    g = sj.gfun_apply(p, c, 1, 1, rule.nodes)
    _expect(results, "gfun norm", lambda: checks.check_gfun_norm(g, rule.weights, exact), True)
    _expect(results, "gfun off by 1e-9", lambda: checks.check_gfun_norm(g * (1 + 1e-9), rule.weights, exact), False)

    theta = np.linspace(-3.0, 3.0, 41)
    m = sj.maximal_apply(p, c, theta)
    pt = sj.synthesize(p, sj.semigroup_apply(p, 0.01, c), theta)
    _expect(results, "maximal dominates", lambda: checks.check_maximal(m, pt[None, :]), True)
    _expect(results, "maximal below |T_t f|", lambda: checks.check_maximal(m, 1.001 * m[None, :]), False)

    z = np.linspace(1.0, 5.0, 9)
    vals = sj.fractional_atoms().evaluate(z)
    _expect(results, "fractional atoms", lambda: checks.check_fractional(vals, z), True)
    _expect(results, "fractional atoms off by 1e-5", lambda: checks.check_fractional(vals * (1 + 1e-5), z), False)

    ref = checks.phi_reference(0.5, -0.25, 8, theta)
    tab = sj.phi_table(p, 8, theta)
    _expect(results, "basis against scipy", lambda: checks.check_close(tab, ref, 1e-10, "b", 1e-12), True)
    _expect(results, "basis off by 1e-8", lambda: checks.check_close(tab * (1 + 1e-8), ref, 1e-10, "b", 1e-12), False)

    text = "membership window predicts: member\nladder verdict: stable\n"
    _expect(results, "ap-check member", lambda: checks.check_ap_verdict(text, 0, True), True)
    _expect(results, "ap-check wrong verdict", lambda: checks.check_ap_verdict(text, 0, False), False)


def main() -> int:
    sj = run.import_symjacobi()
    results: list[bool] = []
    kernel_cases(sj, results)
    verify_cases(sj, results)
    spectral_cases(sj, results)
    bad = results.count(False)
    print(f"{len(results) - bad}/{len(results)} cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
