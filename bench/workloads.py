"""The three benchmark workloads.

Each workload builds its inputs from the seed, has a short warm-up that
finishes symjacobi's lazy set-up, and a fixed list of operations.  One round
runs every operation once; an operation is one call into a public entry point
(or one CLI command) followed by the checks on its output.  Entry points are
looked up on the package at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import warnings

import numpy as np

import checks

# AC07's three parameter pairs: the atomic corner, the Legendre-like centre
# and an asymmetric pair with a heavy cos-weight.
KERNEL_PAIRS = ((-0.5, -0.5), (0.0, 0.0), (0.5, 2.0))

# Kernel tables at level 1 (a 7 x 7 signed grid).  dk tables start at
# t = 0.5: below it the dk route's H_tilde uses an unrefined 48-node rule
# and is wrong by more than the 1e-6 the check allows.
KERNEL_LEVEL = 1
KERNEL_GROUPS = (
    (0.2, ("both",)),
    (0.5, ("series", "dk")),
    (2.0, ("series", "dk")),
)

# The golden report command of the roadmap: every suite, ladders at levels
# 1-2, default parameters, seed 3.
VERIFY_ARGV = ["verify", "--suite", "all", "--level", "2", "--seed", "3"]

SPECTRAL_PARAMS = (0.5, -0.25)
SPECTRAL_MODES = 512
SPECTRAL_GRID = 2048
GFUN_ORDERS = ((1, 0), (0, 1), (1, 1), (2, 1))


def run_cli(sj, argv, tracer=None):
    """Run ``symjacobi <argv>`` in this process with stdout and stderr captured.
    Warnings are recorded, so none reaches the terminal; in the traced run the
    kernel accuracy warnings a user would see are counted."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = sj.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a usage error this way
            rc = exc.code
    text = out.getvalue()
    if tracer is not None:
        tracer.count("cli.output_bytes", float(len(text.encode())))
        accuracy = getattr(sj.kernels, "AccuracyWarning", None)
        if accuracy is not None:
            n = sum(1 for w in caught if issubclass(w.category, accuracy))
            tracer.count("kernels.accuracy_warnings", float(n))
    return rc, text, err.getvalue()


def _params_args(alpha, beta):
    return ["--alpha", repr(alpha), "--beta", repr(beta)]


class Workload:
    name = ""

    def __init__(self, sj, seed: int, out_dir):
        self.sj = sj
        self.seed = seed
        self.tracer = None
        self.record: dict = {}

    def cli(self, argv):
        rc, out, err = run_cli(self.sj, argv, self.tracer)
        checks.require(rc == 0, f"symjacobi {' '.join(argv)} exited {rc}: {err.strip()[-300:]}")
        return out

    def warm_up(self) -> None:
        """Touch each layer once on tiny inputs so imports and first-call
        set-up are done before timing."""
        sj = self.sj
        p = sj.JacobiParams(0.5, -0.25)
        c = 0.5 ** np.arange(6)
        sj.analyze(p, lambda th: sj.synthesize(p, c, th), 5)
        sj.gfun_apply(p, c, 1, 1, np.array([0.3]))
        sj.maximal_apply(p, c, np.array([0.3]))
        sj.multiplier_apply(p, sj.fractional_atoms(), c)
        sj.ap_constant(sj.WeightSpec(1.0, 0.0, 2.0), p, 2.0, 2)
        run_cli(sj, ["kernel", "--route", "both", "--t", "1.0", "--level", "0"])

    def operations(self):
        raise NotImplementedError


class VerifyAll(Workload):
    """``symjacobi verify --suite all --level 2`` with fixed inputs; the seed
    does not change them, so the report bytes are the same on every run."""

    name = "verify_all"

    def operations(self):
        return [("verify_all", self.verify)]

    def verify(self):
        sj = self.sj
        text = self.cli(VERIFY_ARGV)
        self.record["report_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        report = json.loads(text)
        params = sj.JacobiParams(float(report["alpha"]), float(report["beta"]))

        def growth(theta, phi, t):
            h = float(sj.poisson_kernel_series(params, t, theta, phi))
            return h * float(sj.ball_measure(params, theta, abs(theta - phi)))

        checks.check_verify_report(report, growth)


class KernelTables(Workload):
    """``symjacobi kernel`` tables on the series, dk and both routes at AC07's
    parameter pairs.  The seed fixes the order in which the (pair, time)
    groups run; the tables themselves are fixed."""

    name = "kernel_tables"

    def operations(self):
        groups = [(ab, t, routes) for ab in KERNEL_PAIRS for t, routes in KERNEL_GROUPS]
        order = np.random.default_rng(self.seed).permutation(len(groups))
        ops = []
        for i in order:
            ab, t, routes = groups[i]
            ops.append((f"kernel{ab}@{t}", lambda ab=ab, t=t, routes=routes: self.group(ab, t, routes)))
        return ops

    def group(self, ab, t, routes):
        base = ["kernel", "--t", repr(t), "--level", str(KERNEL_LEVEL)] + _params_args(*ab)
        tables = {}
        for route in routes:
            _, header, data = checks.parse_csv_table(self.cli(base + ["--route", route]))
            checks.check_kernel_table(header, data, ab[0], ab[1], t, route)
            tables[route] = data
        if "dk" in tables:
            checks.check_route_agreement(tables["dk"], tables["series"])


class Spectral(Workload):
    """Coefficient-space operators on seeded band-limited inputs, plus the
    basis, operator and ap-check commands."""

    name = "spectral"

    def __init__(self, sj, seed, out_dir):
        super().__init__(sj, seed, out_dir)
        rng = np.random.default_rng(seed)
        n = SPECTRAL_MODES
        self.alpha, self.beta = SPECTRAL_PARAMS
        self.params = sj.JacobiParams(self.alpha, self.beta)
        # band-limited input: n modes with a mild algebraic decay
        self.coeffs = rng.standard_normal(n) / (1.0 + np.arange(n) / 32.0)
        self.lam = checks.eigenvalues_full(self.alpha, self.beta, n)
        # gap ratio (lam - lam_0) / lam of the Riesz and square-function
        # constants; lam[0] is lam_0, and the parameters are off the critical line
        self.ratio = (self.lam - self.lam[0]) / self.lam
        self.theta = np.sort(rng.uniform(-math.pi, math.pi, SPECTRAL_GRID))
        self.s, self.t = (float(x) for x in rng.uniform(0.05, 1.0, 2))
        self.laplace_rate = float(rng.uniform(0.5, 2.0))
        self.atom_time = float(rng.uniform(0.1, 2.0))
        self.frac_z = rng.uniform(1.0, 5.0, 64)
        grid = sj.kernels.SupOverT().grid()
        self.max_times = grid[np.sort(rng.choice(grid.size, 16, replace=False))]
        da, db = 2.0 * self.alpha + 2.0, 2.0 * self.beta + 2.0
        self.weights = [
            (float(rng.uniform(-0.8, 0.8) * da), float(rng.uniform(-0.8, 0.8) * db)),
            (float(rng.uniform(-0.8, 0.8) * da), float(rng.uniform(-0.8, 0.8) * db)),
            (float(da + rng.uniform(0.5, 2.0)), float(rng.uniform(-0.8, 0.8) * db)),
            (float(rng.uniform(-0.8, 0.8) * da), float(-db - rng.uniform(0.5, 2.0))),
        ]
        self.cli_coeffs = self.coeffs[:64]
        self.coeff_path = out_dir / f"spectral-coeffs-{seed}.csv"
        with open(self.coeff_path, "w") as fh:
            fh.write("n,value\n")
            fh.writelines(f"{i},{float(v)!r}\n" for i, v in enumerate(self.cli_coeffs))

    def operations(self):
        return [
            ("roundtrip", self.roundtrip),
            ("semigroup", self.semigroup),
            ("riesz", self.riesz),
            ("gfun", self.gfun),
            ("maximal", self.maximal),
            ("multipliers", self.multipliers),
            ("cli_basis", self.cli_basis),
            ("cli_operator", self.cli_operator),
            ("cli_ap_check", self.cli_ap_check),
        ]

    def roundtrip(self):
        sj, p, c = self.sj, self.params, self.coeffs
        back = sj.analyze(p, lambda th: sj.synthesize(p, c, th), c.size - 1)
        checks.check_roundtrip(c, back)

    def semigroup(self):
        sj, p, c = self.sj, self.params, self.coeffs
        both = sj.semigroup_apply(p, self.s, sj.semigroup_apply(p, self.t, c))
        once = sj.semigroup_apply(p, self.s + self.t, c)
        checks.check_close(both, once, 1e-13, "semigroup law T_s T_t = T_(s+t)")
        closed = c * np.exp(-(self.s + self.t) * np.sqrt(self.lam))
        checks.check_close(once, closed, 1e-13, "semigroup against exp(-t sqrt(lam))")

    def riesz(self):
        sj, p, c = self.sj, self.params, self.coeffs
        for parity in ("full", "even", "odd"):
            for order in (1, 2, 3):
                out = sj.riesz_apply(p, c, parity=parity, order=order)
                checks.check_contraction(c, out, f"Riesz order {order} ({parity})")
        checks.check_close(sj.riesz_apply(p, c, order=2), -self.ratio * c, 1e-13, "Riesz order 2")

    def gfun(self):
        sj, p, c = self.sj, self.params, self.coeffs
        rule = sj.mu_full_rule(p, c.size + 8)
        for m, n in GFUN_ORDERS:
            w = 2 * (m + n)
            exact = math.sqrt(math.gamma(w) / 2.0**w * float(np.sum(self.ratio**n * c**2)))
            g = sj.gfun_apply(p, c, m, n, rule.nodes)
            checks.check_gfun_norm(g, rule.weights, exact)

    def maximal(self):
        sj, p, c = self.sj, self.params, self.coeffs
        m = sj.maximal_apply(p, c, self.theta)
        pointwise = [sj.synthesize(p, sj.semigroup_apply(p, t, c), self.theta) for t in self.max_times]
        checks.check_maximal(m, np.array(pointwise))

    def multipliers(self):
        sj, p, c = self.sj, self.params, self.coeffs
        z = np.sqrt(self.lam)
        a = self.laplace_rate
        lap = sj.LaplaceMultiplier(phi=lambda u: np.exp(-a * u), bound=1.0)
        want = np.where(z > 0.0, z / (z + a), 0.0) * c
        checks.check_close(sj.multiplier_apply(p, lap, c), want, 1e-10, "Laplace multiplier z/(z+a)")
        atom = sj.AtomicMultiplier(times=np.array([self.atom_time]), weights=np.array([1.0]))
        got = sj.multiplier_apply(p, atom, c)
        checks.require(
            np.array_equal(got, sj.semigroup_apply(p, self.atom_time, c)),
            "a single unit atom does not reproduce the semigroup exactly",
        )
        frac = sj.fractional_atoms()
        checks.check_fractional(frac.evaluate(self.frac_z), self.frac_z)
        out = sj.multiplier_apply(p, frac, c)
        band = (z >= 1.0) & (z <= 5.0)
        checks.check_fractional(out[band] / c[band], z[band])

    def cli_basis(self):
        args = _params_args(self.alpha, self.beta)
        text = self.cli(["basis", "--nmax", "24", "--level", "3"] + args)
        _, header, data = checks.parse_csv_table(text.replace(",even,", ",0,").replace(",odd,", ",1,"))
        checks.require(header == ["n", "parity", "theta", "phi"], f"basis header {header}")
        theta = np.unique(data[:, 2])
        ref = checks.phi_reference(self.alpha, self.beta, 24, theta)
        got = data[:, 3].reshape(25, theta.size)
        checks.check_close(got, ref, 0.0, "basis table against scipy Jacobi", atol=1e-11 * np.max(np.abs(ref)))
        checks.require(np.all(data[:, 1] == data[:, 0] % 2), "basis parity column")

    def cli_operator(self):
        c = self.cli_coeffs
        lam = self.lam[: c.size]
        base = ["operator", "--input", str(self.coeff_path)] + _params_args(self.alpha, self.beta)

        def values(argv):
            _, header, data = checks.parse_csv_table(self.cli(base + argv))
            checks.require(header == ["n", "value"], f"operator header {header}")
            return data[:, 1]

        t = self.t
        checks.check_close(values(["--op", "semigroup", "--t", repr(t)]),
                           c * np.exp(-t * np.sqrt(lam)), 1e-13, "operator --op semigroup")
        checks.check_close(values(["--op", "riesz", "--N", "2"]), -self.ratio[: c.size] * c, 1e-13,
                           "operator --op riesz --N 2")
        out = values(["--op", "multiplier"])
        z = np.sqrt(lam)
        band = (z >= 1.0) & (z <= 5.0)
        checks.check_fractional(out[band] / c[band], z[band])

    def cli_ap_check(self):
        args = _params_args(self.alpha, self.beta)
        for r, s in self.weights:
            rc, out, _ = run_cli(self.sj, ["ap-check", "--r", repr(r), "--s", repr(s), "--p", "2"] + args, self.tracer)
            member = checks.in_ap_window(r, s, 2.0, self.alpha, self.beta)
            checks.check_ap_verdict(out, rc, member)


WORKLOADS = {w.name: w for w in (VerifyAll, KernelTables, Spectral)}
