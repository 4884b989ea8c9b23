"""Benchmark driver for symjacobi.

Usage (from the repository root):

    python3 bench/run.py --workload kernel_tables --seed 1 --seconds 4 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 4 --trace 0

Runs whole rounds of the workload's operations until --seconds have passed
(at least one round) in this one process, with BLAS pinned to one thread,
and prints one JSON line as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (wall_s, setup_s, peak_rss_mb); with
``--trace 1`` the per-layer ones, taken from spans recorded around every
public symjacobi function.  symjacobi is imported from ``src/`` next to this
directory and nowhere else; without it the run exits 2 and prints no result.
A sidecar with round times, the verify report hash and, for traced runs, the
spans is written to ``.bench_out/``.  ``--workload all`` runs the three
workloads one after another, each in its own process, and prints every
metric by name with its unit and the operations attempted and failed.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
WORKLOAD_NAMES = ("verify_all", "kernel_tables", "spectral")


def import_symjacobi():
    """Import symjacobi from this checkout's src/ only; exit 2 without it."""
    if not (SRC / "symjacobi" / "__init__.py").is_file():
        print(f"error: no symjacobi package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import symjacobi
    import symjacobi.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(symjacobi.__file__).resolve().parent != (SRC / "symjacobi").resolve():
        print(f"error: symjacobi imported from {symjacobi.__file__}", file=sys.stderr)
        sys.exit(2)
    return symjacobi


def setup(workload: str, seed: int):
    """Import symjacobi, build the workload's inputs and finish lazy set-up."""
    sj = import_symjacobi()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[workload](sj, seed, OUT_DIR)
    wl.warm_up()
    return sj, wl


def probe_setup_times(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: from spawn until the probe reports that
    symjacobi is imported and warmed up (CLOCK_MONOTONIC is system-wide)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_round(ops, failures: list, op_wall: dict) -> tuple[int, int, bool]:
    """Run every operation once, appending each one's time to op_wall;
    returns (attempted, failed, checks_ok)."""
    from checks import CheckFailed

    failed, checks_ok = 0, True
    for name, op in ops:
        t0 = time.perf_counter()
        try:
            op()
        except CheckFailed as exc:
            failed += 1
            checks_ok = False
            failures.append(f"{name}: check failed: {exc}")
        except Exception as exc:  # an operation that raises counts as failed
            failed += 1
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        op_wall.setdefault(name, []).append(time.perf_counter() - t0)
    return len(ops), failed, checks_ok


def layer_metrics(tracer, wall: float, cpu: float) -> dict:
    """Per-layer metrics of one traced round."""
    calls, busy, own = tracer.calls(), tracer.busy_times(), tracer.self_times()
    cnt = tracer.counters

    def div(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("core.trig_poly_table", "quadrature.gauss_jacobi_rule",
                 "quadrature.ball_measure", "kernels.poisson_kernel_series",
                 "kernels.poisson_kernel_dk", "kernels.poisson_kernel_dk_auto",
                 "estimates.FamilyBatch.profiles"):
        m[f"{name}.calls"] = float(calls.get(name, 0))
    for name in ("core.trig_poly_table", "quadrature.gauss_jacobi_rule",
                 "quadrature.ball_measure", "basis.analyze", "basis.synthesize",
                 "basis.phi_table", "kernels.poisson_kernel_series",
                 "kernels.poisson_kernel_dk", "kernels.poisson_kernel_dk_auto",
                 "operators.gfun_apply", "operators.maximal_apply",
                 "operators.multiplier_apply", "estimates.run_standard_ladders",
                 "estimates.FamilyBatch.profiles", "estimates.lemma_samplers",
                 "estimates.exact_lemma_report", "estimates.ap_constant"):
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    m["core.trig_poly_table.cells"] = cnt.get("core.trig_poly_table.cells", 0.0)
    m["quadrature.gauss_jacobi_rule.distinct_ratio"] = div(
        len(tracer.rule_keys), calls.get("quadrature.gauss_jacobi_rule", 0))
    m["kernels.poisson_kernel_dk_auto.steps"] = div(
        cnt.get("kernels.poisson_kernel_dk_auto.inner_calls", 0.0),
        calls.get("kernels.poisson_kernel_dk_auto", 0))
    m["kernels.accuracy_warnings"] = cnt.get("kernels.accuracy_warnings", 0.0)
    m["kernels.n_max_for.modes"] = cnt.get("kernels.n_max_for.modes", 0.0)
    pairs = cnt.get("estimates.FamilyBatch.profiles.pairs", 0.0)
    refined = cnt.get("estimates.FamilyBatch.profiles.refined_pairs", 0.0)
    m["estimates.FamilyBatch.profiles.self_s"] = own.get("estimates.FamilyBatch.profiles", 0.0)
    m["estimates.FamilyBatch.profiles.pairs"] = pairs
    m["estimates.FamilyBatch.profiles.refined_pairs"] = refined
    m["estimates.FamilyBatch.profiles.ms_per_pair"] = div(
        1000.0 * busy.get("estimates.FamilyBatch.profiles", 0.0), pairs + refined)
    m["estimates.pair_reuse_ratio"] = div(cnt.get("estimates.pair_grid.ladder_pairs", 0.0), pairs + refined)
    m["cli.main.calls"] = float(calls.get("cli.main", 0))
    m["cli.main.self_s"] = own.get("cli.main", 0.0)
    m["cli.output_bytes"] = cnt.get("cli.output_bytes", 0.0)
    m["process.cpu_s"] = cpu
    m["process.cpu_per_wall"] = div(cpu, wall)
    from spans import LAYERS

    # the round's root span is the benchmark's own layer (input handling and
    # checks), so the layer self times add up to the root span's duration
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, secs in own.items():
        layer_self[name.split(".", 1)[0]] += secs
    for layer, secs in layer_self.items():
        m[f"{layer}.self_s"] = secs
    m["trace.wall_s"] = wall
    return m


def run_all(args) -> int:
    """Run every workload in its own process and print each metric by name."""
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr[-2000:]}")
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct {res['correct']}, attempted {res['attempted']}, failed {res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.probe:
        setup(args.workload, args.seed)
        print(repr(time.monotonic()))
        return 0

    sj, wl = setup(args.workload, args.seed)
    ops = wl.operations()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(sj)
        wl.tracer = tracer
        for name in tracer.missing:
            print(f"warning: entry point {name} is missing; its metrics read 0", file=sys.stderr)

    attempted = failed = 0
    correct = True
    failures: list[str] = []
    round_wall, per_round, op_wall = [], [], {}
    start = time.perf_counter()
    while not round_wall or time.perf_counter() - start < args.seconds:
        if tracer is not None:
            tracer.reset()
            root = tracer.open("bench.round")
        cpu0, t0 = time.process_time(), time.perf_counter()
        n, bad, ok = run_round(ops, failures, op_wall)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        attempted, failed, correct = attempted + n, failed + bad, correct and ok
        round_wall.append(wall)
        if tracer is not None:
            tracer.close(root)
            per_round.append(layer_metrics(tracer, wall, cpu))

    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    side = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "round_wall_s": round_wall, "op_wall_s": op_wall, "failures": failures, **wl.record,
    }
    if tracer is None:
        setup_times = probe_setup_times(args.workload, args.seed)
        side["setup_s"] = setup_times
        metrics = {
            "wall_s": {"value": statistics.median(round_wall), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        with open(OUT_DIR / f"{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(side, fh)
    else:
        from spans import unit_of

        metrics = {
            name: {"value": statistics.median(r[name] for r in per_round), "unit": unit_of(name)}
            for name in per_round[0]
        }
        side["missing"] = tracer.missing
        side["per_round"] = per_round
        tracer.dump(OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json", side)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
