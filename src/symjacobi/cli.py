"""Command line front end: basis and kernel tables, operator application on
coefficient vectors, and the JSON verification suites.

Output contracts
----------------
CSV files carry one ``#``-prefixed echo line with the run configuration and a
single column-header line; columns are fixed-order.  JSON reports carry
``schema_version`` (currently "1") and are byte-identical across runs with the
same flags; wall-clock metadata appears only under ``--stamp``.  They are
strict JSON: a number that is not finite is written as ``null``, and a check
whose sup is not finite has the verdict ``"inconclusive"``.  Checks
that need the product-formula route (alpha, beta >= -1/2) are written as
``"skipped"`` entries with a reason outside that range.  A suite that raises
leaves the finished entries in the report, with an ``error`` field.

Exit codes: 0 all checks pass, 1 verification failure or runtime error,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .basis import analyze, mode_eigenvalues, phi_table, synthesize
from .core import JacobiParams
from .estimates import (
    DIVERGENCE_FACTOR,
    SCALAR_KERNELS,
    STABILITY_THRESHOLD,
    VECTOR_KERNELS,
    WeightSpec,
    ap_constant,
    ap_member,
    exact_lemma_report,
    ladder_verdict,
    lemma_levels,
    run_standard_ladders,
)
from .kernels import (
    poisson_kernel_dk_auto,
    poisson_kernel_series,
    semigroup_mass,
    symmetrized_kernel,
    symmetrized_kernel_mode_sum,
    tilde_kernel,
)
from .operators import (
    AtomicMultiplier,
    LaplaceMultiplier,
    fractional_atoms,
    gfun_apply,
    gfun_bound,
    gfun_mode_factors,
    maximal_apply,
    multiplier_apply,
    riesz_apply,
    semigroup_apply,
)
from .quadrature import mu_full_rule, mu_plus_rule

SCHEMA_VERSION = "1"

# A_p ladders grow like 2^(excess * depth / 2) just outside the membership
# window, which can sit well under the estimate harness's per-level doubling
# criterion; sustained growth above this smaller factor flags divergence.
AP_DIVERGENCE_FACTOR = 1.2

LEMMA_IDS = ("Bridge1", "Bridge2", "L43Star", "Trig", "Comp", "Asympt")
# lemma samplers that integrate against the product-formula measures
PRODUCT_LEMMA_IDS = ("Bridge1", "Bridge2", "L43Star")
PRODUCT_SKIP_REASON = "product-formula measures need alpha, beta >= -1/2"
SUITES = ("basis", "kernels", "operators", "estimates", "ap")
# Gauss nodes of the dmu+ and dmu rules that integrate the kernel masses
MASS_NODES = 400


def _fmt(x) -> str:
    return repr(float(x))


def _sym_grid(level: int, size_exp: int = 3) -> np.ndarray:
    """Interior grid on (-pi, pi), nested in level and exactly symmetric under
    negation (the mirror points are bitwise negatives, so parity relations in
    the emitted tables hold to the last digit)."""
    half = np.linspace(0.0, np.pi, 2 ** (level + size_exp - 1) + 1)[:-1]
    return np.concatenate([-half[:0:-1], half])


def _echo_line(args, command: str, **extra) -> str:
    """The run configuration: alpha, beta, then nmax and level where the
    command takes them, then the command's own fields."""
    parts = [f"# symjacobi {command}", f"alpha={_fmt(args.alpha)}", f"beta={_fmt(args.beta)}"]
    parts += [f"{k}={getattr(args, k)}" for k in ("nmax", "level") if hasattr(args, k)]
    parts += [f"{k}={v}" for k, v in extra.items()]
    return " ".join(parts) + "\n"


def _write_csv(path, echo: str, header, rows) -> None:
    out = sys.stdout if path is None else open(path, "w", newline="")
    try:
        out.write(echo)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# basis / kernel / operator tables


def cmd_basis(args) -> int:
    params = JacobiParams(args.alpha, args.beta)
    theta = _sym_grid(args.level)
    table = phi_table(params, args.nmax, theta)
    rows = []
    for n in range(args.nmax + 1):
        parity = "even" if n % 2 == 0 else "odd"
        for j, th in enumerate(theta):
            rows.append((n, parity, _fmt(th), _fmt(table[n, j])))
    _write_csv(args.out, _echo_line(args, "basis"), ("n", "parity", "theta", "phi"), rows)
    return 0


def cmd_kernel(args) -> int:
    params = JacobiParams(args.alpha, args.beta)
    t = args.t
    theta = _sym_grid(args.level, size_exp=2)
    # each series column is one call over an outer grid: mode rows per input, not per point
    mass_rule = mu_plus_rule(params, MASS_NODES)
    kern = poisson_kernel_series(params, t, np.abs(theta)[:, None], mass_rule.nodes[None, :])
    mass = [mass_rule.integrate(row) for row in kern]
    th, ph = np.meshgrid(theta, theta, indexing="ij")
    if args.route == "dk":
        # H is even in each variable and Ht odd, so the integral route on
        # (0, pi) extends to the signed grid by symmetry
        half = poisson_kernel_dk_auto(params, t, abs(th), abs(ph))
        odd = np.sign(th) * np.sign(ph) * tilde_kernel(params, t, abs(th), abs(ph), route="dk")
    else:
        half = poisson_kernel_series(params, t, theta[:, None], theta[None, :])
        odd = tilde_kernel(params, t, theta[:, None], theta[None, :])
    cols = [th, ph, half, odd, half + odd, np.repeat(mass, theta.size).reshape(th.shape)]
    header = ["t", "theta", "phi", "H", "H_tilde", "H_full", "mass"]
    if args.route == "both":
        header.append("rel_diff")
        h_dk = poisson_kernel_dk_auto(params, t, abs(th), abs(ph))
        cols.append(np.abs(half - h_dk) / np.maximum(np.abs(half), 1e-300))
    rows = [[_fmt(t)] + [_fmt(c) for c in vals] for vals in zip(*(c.ravel() for c in cols))]
    echo = _echo_line(args, "kernel", t=_fmt(t), route=args.route)
    _write_csv(args.out, echo, header, rows)
    return 0


def _is_float(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _read_coeffs(path) -> np.ndarray:
    """Coefficient vector from a CSV: last field of each row.

    Blank lines and ``#`` comments are skipped, and so is a leading header
    row, one in which no field is a number.  Any other row whose last field
    is not a finite float raises, naming the file and line, so no
    coefficient is dropped, renumbered or carried as nan or inf."""
    vals = []
    first = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            header = first and not any(_is_float(f) for f in row)
            first = False
            if header:
                continue
            try:
                value = float(row[-1])
                if not np.isfinite(value):
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"{path}:{reader.line_num}: last field {row[-1]!r} is not a finite number"
                ) from None
            vals.append(value)
    if not vals:
        raise ValueError(f"no numeric rows found in {path}")
    return np.array(vals)


def cmd_operator(args) -> int:
    params = JacobiParams(args.alpha, args.beta)
    if args.input is not None:
        coeffs = _read_coeffs(args.input)
    else:
        coeffs = 0.5 ** np.arange(args.nmax + 1)
    echo = _echo_line(
        args, "operator", op=args.op, parity=args.parity, t=_fmt(args.t),
        M=args.M, N=args.N, n_coeffs=coeffs.size,
    )
    if args.op == "semigroup":
        out = semigroup_apply(params, args.t, coeffs, parity=args.parity)
        kind = "coeff"
    elif args.op == "riesz":
        out = riesz_apply(params, coeffs, parity=args.parity, order=args.N or 1)
        kind = "coeff"
    elif args.op == "multiplier":
        out = multiplier_apply(params, fractional_atoms(), coeffs, parity=args.parity)
        kind = "coeff"
    elif args.op == "maximal":
        theta = _sym_grid(args.level)
        out = maximal_apply(params, coeffs, theta, parity=args.parity)
        kind = "theta"
    else:
        theta = _sym_grid(args.level)
        out = gfun_apply(params, coeffs, args.M, args.N, theta, parity=args.parity)
        kind = "theta"
    if kind == "coeff":
        rows = [(n, _fmt(v)) for n, v in enumerate(out)]
        _write_csv(args.out, echo, ("n", "value"), rows)
    else:
        rows = [(_fmt(th), _fmt(v)) for th, v in zip(theta, out)]
        _write_csv(args.out, echo, ("theta", "value"), rows)
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _level_dict(level, sup, argmax) -> dict:
    return {
        "level": int(level),
        "sup": float(sup),
        "argmax": [float(x) for x in argmax],
    }


def _check_entry(estimate_id, level, sup, argmax, threshold, failures, **extra) -> dict:
    if not math.isfinite(sup):
        verdict = "inconclusive"
        failures.append(f"{estimate_id}: sup {sup} is not finite")
    elif sup <= threshold:
        verdict = "stable"
    else:
        verdict = "diverging"
        failures.append(f"{estimate_id}: sup {sup:.6g} exceeds {threshold:.6g}")
    entry = {
        "estimate_id": estimate_id,
        "levels": [_level_dict(level, sup, argmax)],
        "threshold": float(threshold),
        "verdict": verdict,
    }
    entry.update(extra)
    return entry


def _ladder_entry(estimate_id, ladder, failures, **extra) -> dict:
    """The entry of an estimates.LadderResult, which fails unless stable."""
    if ladder.verdict != "stable":
        failures.append(f"{estimate_id}: verdict {ladder.verdict}, expected stable")
    entry = {
        "estimate_id": estimate_id,
        "levels": [
            _level_dict(r.grid_level, r.empirical_sup, r.argmax_point) for r in ladder.reports
        ],
        "verdict": ladder.verdict,
    }
    entry.update(extra)
    return entry


def _skipped_entry(estimate_id, **extra) -> dict:
    entry = {
        "estimate_id": estimate_id,
        "levels": [],
        "reason": PRODUCT_SKIP_REASON,
        "verdict": "skipped",
    }
    entry.update(extra)
    return entry


def _gram_nodes(nmax: int) -> int:
    """Half-line Gauss nodes of the basis suite's Gram matrix: 256, or
    2*nmax + 32 when that is more.  Any count of at least nmax/2 + 2
    integrates the Gram matrix exactly."""
    return max(256, 2 * nmax + 32)


def _suite_basis(args):
    params = JacobiParams(args.alpha, args.beta)
    entries, failures = [], []
    rule = mu_full_rule(params, _gram_nodes(args.nmax))
    table = phi_table(params, args.nmax, rule.nodes)
    gram = (table * rule.weights) @ table.T
    dev = np.abs(gram - np.eye(args.nmax + 1))
    k = np.unravel_index(np.argmax(dev), dev.shape)
    entries.append(
        _check_entry("BasisOrthonormality", args.level, dev[k], k, 1e-10, failures)
    )
    coeffs = 0.5 ** np.arange(args.nmax + 1)
    back = analyze(params, lambda th: synthesize(params, coeffs, th), args.nmax)
    err = np.abs(back - coeffs)
    entries.append(
        _check_entry(
            "BasisRoundtrip", args.level, err.max(), [np.argmax(err)], 1e-10, failures
        )
    )
    return entries, failures


def _suite_kernels(args):
    params = JacobiParams(args.alpha, args.beta)
    entries, failures = [], []

    if params.kernel_valid:
        probes = [(0.35, 0.9, 1.7), (0.35, 2.4, 3.0), (1.0, 0.3, 2.9), (1.0, 1.5, 1.5)]
        worst, arg = -np.inf, (0.0, 0.0, 0.0)
        for t, th, ph in probes:
            a = poisson_kernel_series(params, t, th, ph)
            b = poisson_kernel_dk_auto(params, t, th, ph)
            rel = abs(a - b) / abs(a)
            if rel > worst:
                worst, arg = rel, (t, th, ph)
        entries.append(
            _check_entry("KernelRouteAgreement", args.level, worst, arg, 1e-6, failures)
        )
    else:
        entries.append(_skipped_entry("KernelRouteAgreement"))

    rng = np.random.default_rng(args.seed)
    th = rng.uniform(-np.pi + 0.1, np.pi - 0.1, 50)
    ph = rng.uniform(-np.pi + 0.1, np.pi - 0.1, 50)
    t_split = 0.6
    hh = symmetrized_kernel(params, t_split, th, ph)
    gap = np.abs(symmetrized_kernel_mode_sum(params, t_split, th, ph) - hh)
    k = int(np.argmax(gap))
    # relative to the largest |HH| sampled: at large alpha + beta the kernel
    # reaches 1e5-1e7 and absolute gaps of rounding size exceed 1e-10
    rel = gap[k] / np.max(np.abs(hh))
    entries.append(
        _check_entry("KernelSplitIdentity", args.level, rel, (th[k], ph[k]), 1e-10, failures)
    )

    half_rule = mu_plus_rule(params, MASS_NODES)
    full_rule = mu_full_rule(params, MASS_NODES)
    worst_h, arg_h = -np.inf, (0.0,)
    worst_f, arg_f = -np.inf, (0.0,)
    for t in (0.1, 1.0, 5.0):
        got = half_rule.integrate(
            poisson_kernel_series(params, t, 1.2, half_rule.nodes)
        )
        res = abs(got - semigroup_mass(params, t))
        if res > worst_h:
            worst_h, arg_h = res, (t,)
        got = full_rule.integrate(
            symmetrized_kernel(params, t, 0.8, full_rule.nodes)
        )
        res = abs(got - 2.0 * semigroup_mass(params, t))
        if res > worst_f:
            worst_f, arg_f = res, (t,)
    entries.append(
        _check_entry("KernelHalfMass", args.level, worst_h, arg_h, 1e-8, failures)
    )
    entries.append(
        _check_entry("KernelFullMass", args.level, worst_f, arg_f, 1e-8, failures)
    )
    return entries, failures


def _suite_operators(args):
    params = JacobiParams(args.alpha, args.beta)
    entries, failures = [], []
    n_modes = args.nmax + 1

    lam = mode_eigenvalues(params, n_modes, "even")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lam > 0.0, (lam - params.lam0) / lam, 0.0)
    sup = 0.25 * float(np.max(ratio))
    entries.append(
        _check_entry(
            "RieszContraction", args.level, sup, [np.argmax(ratio)],
            0.25 + 1e-12, failures,
        )
    )

    worst, arg = -np.inf, (0, 0, 0)
    for m_ord, n_ord in ((1, 0), (0, 1), (1, 1), (2, 1)):
        factors = gfun_mode_factors(params, n_modes, m_ord, n_ord, "even", restricted=True)
        rel = factors / gfun_bound(m_ord, n_ord, restricted=True)
        if rel.max() > worst:
            worst, arg = float(rel.max()), (m_ord, n_ord, int(np.argmax(rel)))
    entries.append(
        _check_entry("GfunFactorBound", args.level, worst, arg, 1.0 + 1e-10, failures)
    )

    alive = mode_eigenvalues(params, n_modes, "full") > 0.0
    ident = LaplaceMultiplier(phi=lambda u: np.ones_like(u), bound=1.0)
    m_vals = ident.evaluate(np.sqrt(mode_eigenvalues(params, n_modes, "full")[alive]))
    dev = np.abs(m_vals - 1.0)
    entries.append(
        _check_entry(
            "MultiplierIdentityProfile", args.level, dev.max(), [np.argmax(dev)],
            1e-10, failures,
        )
    )

    t_atom = 0.7
    coeffs = 0.5 ** np.arange(n_modes)
    atom = AtomicMultiplier(times=np.array([t_atom]), weights=np.array([1.0]))
    gap = np.abs(
        multiplier_apply(params, atom, coeffs)
        - semigroup_apply(params, t_atom, coeffs)
    )
    entries.append(
        _check_entry(
            "MultiplierAtomSemigroup", args.level, gap.max(), [np.argmax(gap)],
            1e-14, failures,
        )
    )
    return entries, failures


def _suite_estimates(args):
    params = JacobiParams(args.alpha, args.beta)
    levels = tuple(range(1, max(args.level, 2) + 1))
    entries, failures = [], []

    thresholds = {
        "stability_threshold": STABILITY_THRESHOLD,
        "divergence_factor": DIVERGENCE_FACTOR,
    }
    if params.kernel_valid:
        ladders = run_standard_ladders(params, levels=levels)
        for (kid, eid), res in sorted(ladders.items()):
            entries.append(_ladder_entry(eid, res, failures, kernel_id=kid, **thresholds))
    else:
        keys = [(k, e) for k in VECTOR_KERNELS for e in ("Growth", "SmoothTheta", "SmoothPhi")]
        keys += [(k, e) for k in SCALAR_KERNELS for e in ("Growth", "Gradient")]
        entries += [_skipped_entry(eid, kernel_id=kid) for kid, eid in sorted(keys)]

    for which in LEMMA_IDS:
        if which in PRODUCT_LEMMA_IDS and not params.kernel_valid:
            entries.append(_skipped_entry(which))
            continue
        res = lemma_levels(params, which, levels)
        entries.append(_ladder_entry(which, res, failures, **thresholds))

    for rep in exact_lemma_report(n_samples=1_000_000, seed=args.seed):
        entries.append(
            _check_entry(
                rep.estimate_id, rep.grid_level, rep.empirical_sup,
                rep.argmax_point, 1.0 + 1e-12, failures,
                sample_count=rep.sample_count,
            )
        )
    return entries, failures


def _ap_ladder(weight, params, level):
    """A_p constants at dyadic depths 3, 4, ...: level + 2 depths, at least four."""
    depths = range(3, 3 + max(level + 2, 4))
    sups = [ap_constant(weight, params, weight.p, n) for n in depths]
    verdict = ladder_verdict(sups, AP_DIVERGENCE_FACTOR)
    levels = [_level_dict(n, s, []) for n, s in zip(depths, sups)]
    return levels, verdict


def _suite_ap(args):
    params = JacobiParams(args.alpha, args.beta)
    entries, failures = [], []
    p = 2.0
    da = 2.0 * params.alpha + 2.0
    db = 2.0 * params.beta + 2.0
    probes = [
        (WeightSpec(da / 2.0, -db / 2.0, p), "stable"),
        (WeightSpec(da * (p - 1.0) + max(da / 4.0, 0.5), 0.0, p), "diverging"),
    ]
    for weight, expected in probes:
        levels, verdict = _ap_ladder(weight, params, args.level)
        eid = "Muckenhoupt"
        if verdict != expected:
            failures.append(
                f"{eid}[r={weight.r:g}, s={weight.s:g}]: verdict {verdict}, "
                f"expected {expected}"
            )
        entries.append(
            {
                "estimate_id": eid,
                "weight": [weight.r, weight.s],
                "p": weight.p,
                "member": ap_member(weight, params),
                "levels": levels,
                "verdict": verdict,
                "stability_threshold": STABILITY_THRESHOLD,
                "divergence_factor": AP_DIVERGENCE_FACTOR,
            }
        )
    return entries, failures


_SUITE_FUNCS = {
    "basis": _suite_basis,
    "kernels": _suite_kernels,
    "operators": _suite_operators,
    "estimates": _suite_estimates,
    "ap": _suite_ap,
}


def _finite_or_null(value):
    """A copy of a report with every non-finite number replaced by None,
    which JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def cmd_verify(args) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    entries, failures, error = [], [], None
    for name in suites:
        try:
            got, bad = _SUITE_FUNCS[name](args)
        except Exception as exc:
            # keep what the finished suites found; later suites do not run
            error = f"suite {name}: {type(exc).__name__}: {exc}"
            print(f"error: {error}", file=sys.stderr)
            break
        entries.extend(got)
        failures.extend(bad)
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": args.suite,
        "alpha": args.alpha,
        "beta": args.beta,
        "nmax": args.nmax,
        "nodes": _gram_nodes(args.nmax),
        "level": args.level,
        "seed": args.seed,
        "results": entries,
        "failures": failures,
        "passed": not failures and error is None,
    }
    if error is not None:
        report["error"] = error
    if args.stamp:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(_finite_or_null(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 0 if report["passed"] else 1


def cmd_ap_check(args) -> int:
    params = JacobiParams(args.alpha, args.beta)
    weight = WeightSpec(args.r, args.s, args.p)
    member = ap_member(weight, params)
    levels, verdict = _ap_ladder(weight, params, args.level)
    print(
        f"A_p ladder for |sin(theta/2)|^{args.r:g} cos(theta/2)^{args.s:g}, "
        f"p={args.p:g}, alpha={args.alpha:g}, beta={args.beta:g}"
    )
    for lv in levels:
        print(f"  depth {lv['level']}: {lv['sup']:.12g}")
    expected = "stable" if member else "diverging"
    print(f"membership window predicts: {'member' if member else 'not a member'}")
    print(f"ladder verdict: {verdict}")
    if args.out is not None:
        rows = [(lv["level"], _fmt(lv["sup"])) for lv in levels]
        echo = _echo_line(
            args, "ap-check", r=_fmt(args.r), s=_fmt(args.s), p=_fmt(args.p)
        )
        _write_csv(args.out, echo, ("depth", "constant"), rows)
    if verdict == expected:
        return 0
    print(f"FAIL verdict {verdict}, membership predicts {expected}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# argument parsing


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


def _positive_time(text: str) -> float:
    try:
        value = float(text)
        if 0.0 < value < float("inf"):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive finite time, got {text!r}")


def _add_command(sub, name: str, summary: str, nmax: bool) -> argparse.ArgumentParser:
    """A subcommand with the flags every command reads, and --nmax if it
    reads that too."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--alpha", type=float, default=0.0, help="finite Jacobi parameter > -1")
    parser.add_argument("--beta", type=float, default=0.0, help="finite Jacobi parameter > -1")
    if nmax:
        parser.add_argument("--nmax", type=_nonnegative_int, default=16, help="largest basis index")
    parser.add_argument("--level", type=_nonnegative_int, default=2, help="grid refinement level")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls.  Each command takes only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="symjacobi",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "basis", "tabulate the symmetrized basis functions as CSV", True)

    kernel = _add_command(sub, "kernel", "tabulate the Poisson kernel and its parts as CSV", False)
    kernel.add_argument(
        "--t", type=_positive_time, default=1.0, help="semigroup time, positive and finite"
    )
    kernel.add_argument(
        "--route", choices=("series", "dk", "both"), default="series",
        help="evaluation route; both adds a relative-difference column",
    )

    operator = _add_command(sub, "operator", "apply an operator to a coefficient vector", True)
    operator.add_argument(
        "--op", required=True,
        choices=("semigroup", "maximal", "riesz", "gfun", "multiplier"),
    )
    operator.add_argument("--t", type=float, default=1.0, help="semigroup time")
    operator.add_argument("--M", type=_nonnegative_int, default=1, help="time derivative order")
    operator.add_argument(
        "--N", type=_nonnegative_int, default=0,
        help="lowering order; for riesz, the transform order (0 means 1)",
    )
    operator.add_argument("--parity", choices=("full", "even", "odd"), default="full")
    operator.add_argument(
        "--input", default=None,
        help="CSV of expansion coefficients (default: geometric test vector)",
    )

    verify = _add_command(sub, "verify", "run a verification suite and write a JSON report", True)
    verify.add_argument("--seed", type=int, default=0, help="seed for the sampling suites")
    verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    verify.add_argument(
        "--stamp", action="store_true",
        help="include a wall-clock timestamp in the report header",
    )

    ap_check = _add_command(sub, "ap-check", "A_p ladder for one double-power weight", False)
    ap_check.add_argument("--r", type=float, required=True, help="sine exponent")
    ap_check.add_argument("--s", type=float, required=True, help="cosine exponent")
    ap_check.add_argument("--p", type=float, default=2.0, help="Lebesgue exponent")

    return parser


_COMMANDS = {
    "basis": cmd_basis,
    "kernel": cmd_kernel,
    "operator": cmd_operator,
    "verify": cmd_verify,
    "ap-check": cmd_ap_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
