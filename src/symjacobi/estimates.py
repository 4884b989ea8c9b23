"""Refinement-ladder verification of kernel bounds and weight classes.

The checks in this module operationalize inequalities with existential
constants: an estimate "holds empirically" when the supremum of the
left-to-right quotient over nested sample grids stabilizes under refinement
(relative growth below the stability threshold between the last two levels),
and "fails" when the supremum keeps multiplying level after level.  Exact
inequalities (those with constant 1) are asserted directly instead.

Kernel families are evaluated in the time variable by a hybrid scheme: a
truncated mode sum for t >= 0.5 and the product-formula double integral for
smaller t, the latter on the corner-graded rules of symjacobi.product,
whose L-shaped cells halve geometrically toward the corner u = v = 1 where
the integrand peaks.  All theta and time derivatives reduce to moments of
shifted negative powers against the quadratic monomials in (u, v), so one
set of moments per point pair serves every kernel family at once.

The fixed time grids below are part of the computable surrogate norms: sup
norms are taken over the standardized grid, not over the continuum, and
time integrals run over [T_HEAD_LO, T_TAIL_HI].
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import core
from .core import JacobiParams
from .basis import ModeRows
from .kernels import mode_sum_rows, q_fn, q_theta, stack_mode_rows
from .product import HeadKernels, block_moments
from .quadrature import ball_measure, composite_gauss

VECTOR_KERNELS = ("poisson", "poisson_reflected", "square_even", "square_odd")
SCALAR_KERNELS = ("riesz_even", "riesz_odd", "multiplier_laplace", "multiplier_atomic")
KERNEL_IDS = VECTOR_KERNELS + SCALAR_KERNELS
PRODUCT_LEMMA_IDS = ("Bridge1", "Bridge2", "L43Star")
LEMMA_IDS = PRODUCT_LEMMA_IDS + ("Trig", "Comp", "Asympt")
# the kernel ladders', the lemmas' and the exact lemmas' estimate ids
ESTIMATE_IDS = (
    ("Growth", "Gradient", "SmoothTheta", "SmoothPhi") + LEMMA_IDS + ("EstimatesA", "EstimatesB")
)

# distances below this are excluded: the diagonal singularity makes both the
# mode sum and the product rule lose digits faster than the ladder gains them
MIN_DISTANCE = 1e-3

# time grid of the surrogate norms: product-rule head on [T_HEAD_LO, T_SPLIT],
# mode-sum tail on [T_SPLIT, T_TAIL_HI]
T_HEAD_LO = 1e-8
T_SPLIT = 0.5
T_TAIL_HI = 60.0
NODES_PER_TIME_PANEL = 4
# ladder verdicts, and the relative drift allowed when an argmax value is
# recomputed at doubled quadrature resolution
STABILITY_THRESHOLD = 0.05
DIVERGENCE_FACTOR = 2.0
REPRODUCE_TOL = 1e-6
# samples per chunk of the exact-lemma sweep
EXACT_CHUNK = 1 << 16
# random samples of the Trig and Comp lemmas at level 1; each level doubles them
NESTED_BASE = 100_000
# the L43Star exponents (gamma1, gamma2, kappa, k1, k2)
L43_EXPONENTS = (1.0, 1.0, 0.0, 0.0, 0.0)
# the A_p cells' composite rule: Gauss nodes per panel, and the panels halving
# toward a singular endpoint
CELL_NODES = 8
CELL_DEPTH = 6
# extra modes of the polynomial tables the tails share: a lowering reads one
# mode more than its sum
ROW_HEADROOM = 1


class EstimateAccuracyError(RuntimeError):
    """Raised when the argmax value fails to reproduce at doubled quadrature
    resolution, indicating a quadrature artifact rather than a real sup."""


@dataclass(frozen=True)
class EstimateReport:
    estimate_id: str
    grid_level: int
    empirical_sup: float
    sample_count: int
    argmax_point: tuple

    def __post_init__(self):
        if self.estimate_id not in ESTIMATE_IDS:
            raise ValueError(f"unknown estimate_id {self.estimate_id!r}")
        if not np.isfinite(self.empirical_sup):
            raise ValueError("empirical_sup must be finite")


def _check_exponent(p) -> None:
    if not 1.0 <= p < np.inf:
        raise ValueError(f"exponent must be finite and satisfy p >= 1, got {p}")


@dataclass(frozen=True)
class WeightSpec:
    """Double-power weight |sin(theta/2)|^r (cos(theta/2))^s with exponent
    p; r and s must be finite, and 1 <= p < inf."""

    r: float
    s: float
    p: float = 2.0

    def __post_init__(self):
        for name, value in (("r", self.r), ("s", self.s)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        _check_exponent(self.p)

    def values(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        # negative exponents are legal and give +inf at the singular points
        with np.errstate(divide="ignore"):
            return np.abs(np.sin(theta / 2.0)) ** self.r * np.cos(theta / 2.0) ** self.s


# ---------------------------------------------------------------------------
# grids


def _grid_levels(levels) -> tuple:
    """levels as a tuple, each checked to be an integer >= 1."""
    levels = tuple(levels)
    for level in levels:
        if not isinstance(level, (int, np.integer)) or level < 1:
            raise ValueError(f"grid level must be an integer >= 1, got {level!r}")
    return levels


def _pair_union(levels) -> tuple:
    """The union of the pair grids of levels, sorted, and per level the rows
    of the union that give its grid in pair_grid's order."""
    grids = [pair_grid(level) for level in levels]
    union, rows = np.unique(np.vstack(grids), axis=0, return_inverse=True)
    return union, np.split(rows.ravel(), np.cumsum([g.shape[0] for g in grids[:-1]]))


def _dyadic_interior(level: int) -> np.ndarray:
    """Nested theta grid: interior dyadic points of (0, pi), density 2^level."""
    n = 2 ** (level + 2)
    return np.pi * np.arange(1, n) / n


def _dyadic_log(level: int, lo: float, hi: float) -> np.ndarray:
    """Nested geometric grid including endpoints; refinement inserts midpoints."""
    n = 4 * 2 ** (level - 1)
    return np.exp(np.linspace(np.log(lo), np.log(hi), n + 1))


def _anchor_offsets() -> np.ndarray:
    """Fixed endpoint offsets, from the coordinate margin up to pi/4.

    Several kernel ratios increase monotonically as a coordinate approaches
    an endpoint, first order in the offset over distance.  A level-graded
    offset ladder would keep discovering larger values forever, so the full
    depth is present at every level and refinement only adds density."""
    return np.geomspace(MIN_DISTANCE, np.pi / 4, 10)


def pair_grid(level: int) -> np.ndarray:
    """Off-diagonal sample pairs (theta, phi), nested across levels.

    Coordinates stay inside the closed band [MIN_DISTANCE, pi - MIN_DISTANCE];
    the ladder certifies the sup over that band, which is what makes a finite
    empirical sup meaningful for ratios that peak only at the boundary.

    Three blocks, deduplicated.  Centers run over a dyadic theta grid and
    distances over a geometric grid in [MIN_DISTANCE, pi - MIN_DISTANCE],
    with phi = theta +- d kept inside the band.  A second block anchors one
    coordinate at a fixed set of endpoint offsets and runs the other over
    the same distance grid, so boundary-dominated ratios are resolved from
    level 1 instead of drifting upward as the dyadic grid happens to land
    near an endpoint.  Near the band corners the ratios vary on the scale
    of the margin itself, so anchors close to an endpoint add a fine
    distance grid over [margin, 4 margin], and the margin anchor also runs
    a doubled-density full-range grid to pin down its distance profile."""
    _grid_levels((level,))
    th = _dyadic_interior(level)
    d = _dyadic_log(level, MIN_DISTANCE, np.pi - MIN_DISTANCE)
    t_all = np.repeat(th, d.size * 2)
    d_all = np.tile(np.concatenate([d, -d]), th.size)
    blocks = [np.column_stack([t_all, t_all + d_all])]
    fine = MIN_DISTANCE * np.exp(np.linspace(0.0, np.log(4.0), 2**level + 1))
    # the margin anchor's distance profile oscillates on a short scale for
    # sign-changing multiplier profiles, so it gets a much denser grid
    dense = np.exp(
        np.linspace(
            np.log(MIN_DISTANCE), np.log(np.pi - MIN_DISTANCE), 48 * 2 ** (level - 1) + 1
        )
    )
    offsets = _anchor_offsets()
    for k, eps in enumerate(offsets):
        da = d
        if eps <= 16.0 * MIN_DISTANCE:
            da = np.concatenate([da, fine])
        if k == 0:
            da = np.concatenate([da, dense])
        for anchor in (eps, np.pi - eps):
            other = np.concatenate([anchor + da, anchor - da])
            fixed = np.full(other.size, anchor)
            blocks.append(np.column_stack([fixed, other]))
            blocks.append(np.column_stack([other, fixed]))
    pairs = np.vstack(blocks)
    lo, hi = MIN_DISTANCE - 1e-12, np.pi - MIN_DISTANCE + 1e-12
    keep = (pairs.min(axis=1) >= lo) & (pairs.max(axis=1) <= hi)
    return np.unique(pairs[keep], axis=0)


def _time_panels(lo: float, hi: float, nodes: int, breaks=()) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss rule for dt on (lo, hi), log-spaced panels of about one
    decade, split additionally at the given interior breakpoints."""
    decades = np.log10(hi / lo)
    edges = set(np.exp(np.linspace(np.log(lo), np.log(hi), int(np.ceil(decades)) + 1)))
    edges.update(b for b in breaks if lo < b < hi)
    edges = np.array(sorted(edges))
    # per panel, still integrate in log time for resolution near lo
    s, ws = composite_gauss(np.log(edges), nodes)
    t = np.exp(s)
    return t, ws * t


# ---------------------------------------------------------------------------
# kernel families

# profiles per family: slot -> spec, the (parity, th_op, ph_op, m) key that
# both the product-rule head (HeadKernels.profile) and the mode-sum tail
# (mode_sum) take; the "F" slot is the B-norm profile, G* slots are gradient
# components for scalar kernels.  The atomic kind has no head.
_FAMILY = {
    "poisson": dict(kind="sup", F=("even", 0, 0, 0)),
    "poisson_reflected": dict(kind="sup", F=("odd", 0, 0, 0)),
    "square_even": dict(kind="l2", power=3.0, F=("even", 1, 0, 1)),
    "square_odd": dict(kind="l2", power=3.0, F=("odd", "low", 0, 1)),
    "riesz_even": dict(
        kind="int",
        power=0.0,
        F=("even", 1, 0, 0),
        Gth=("even", 2, 0, 0),
        Gph=("even", 1, 1, 0),
    ),
    "riesz_odd": dict(
        kind="int",
        power=0.0,
        F=("odd", "low", 0, 0),
        Gth=("odd", "low1", 0, 0),
        Gph=("odd", "low", 1, 0),
    ),
    "multiplier_laplace": dict(
        kind="mult",
        F=("even", 0, 0, 1),
        Gth=("even", 1, 0, 1),
        Gph=("even", 0, 1, 1),
    ),
    "multiplier_atomic": dict(
        kind="atoms",
        F=("even", 0, 0, 0),
        Gth=("even", 1, 0, 0),
        Gph=("even", 0, 1, 0),
    ),
}


@dataclass(frozen=True)
class MultiplierProfile:
    """Bounded time profile for the Laplace-type multiplier kernel, with
    breakpoints marking discontinuities."""

    fn: object
    breakpoints: tuple = ()


# harness profile: the constant profile gives the identity operator, whose
# kernel vanishes off the diagonal, so the sign profile is the interesting
# stock case for kernel estimates
PROFILE_SIGN = MultiplierProfile(
    fn=lambda t: np.sign(np.sin(t)),
    breakpoints=tuple(np.pi * np.arange(1, 20)),
)
STOCK_ATOMS = (np.array([0.4, 1.1, 2.7]), np.array([0.6, -0.3, 0.4]))


class FamilyBatch:
    """Shared evaluator of the pair-grid ladders, of the kernel families
    (KERNEL_IDS) and product lemmas (PRODUCT_LEMMA_IDS) in ids: it computes
    the needed profiles for several kernel families in one pass per point
    pair, so the expensive product-rule moments are built once and reused
    by every assembly, and the mode-sum tails of a pass share their
    mode-row tables (basis.ModeRows): one stacked recurrence pass builds
    every polynomial family the pass reads (kernels.stack_mode_rows), over
    both coordinates of its pairs.  values() reduces
    them, and the lemmas' quotients, to every per-pair quantity the ladders
    read, at the working or at a doubled quadrature resolution, sweeping the
    pairs in blocks of unordered pairs sized by core.SWEEP_BYTES, so its
    memory is bounded by the block, not by the number of pairs.  The blocks
    are tasks of a task queue (_Tasks): run_estimate_suite's or, for a
    values() call on its own, the call's own.  A pooled sweep holds workers
    x one block.  The Laplace-type family uses the time profile
    PROFILE_SIGN, and the atomic family the (times, weights) pair
    STOCK_ATOMS."""

    def __init__(self, params: JacobiParams, ids=KERNEL_IDS):
        if not params.kernel_valid:
            raise ValueError("harness kernels need alpha, beta >= -1/2")
        unknown = [i for i in ids if i not in KERNEL_IDS + PRODUCT_LEMMA_IDS]
        if unknown:
            raise ValueError(f"unknown kernel_id or product lemma {unknown[0]!r}")
        self.params = params
        self.kernel_ids = tuple(i for i in ids if i in KERNEL_IDS)
        self.lemmas = tuple(i for i in ids if i in PRODUCT_LEMMA_IDS)
        self.t_head, self.w_head = _time_panels(T_HEAD_LO, T_SPLIT, NODES_PER_TIME_PANEL)
        self.t_tail, self.w_tail = _time_panels(T_SPLIT, T_TAIL_HI, NODES_PER_TIME_PANEL)
        if any(_FAMILY[k]["kind"] == "mult" for k in self.kernel_ids):
            self.t_mult, self.w_mult = _time_panels(
                T_SPLIT, T_TAIL_HI, NODES_PER_TIME_PANEL, PROFILE_SIGN.breakpoints
            )
        else:
            self.t_mult = self.t_tail
            self.w_mult = self.w_tail

    def _tail_grid_for(self, kid):
        return (self.t_mult, self.w_mult) if _FAMILY[kid]["kind"] == "mult" else (
            self.t_tail,
            self.w_tail,
        )

    def profiles(self, pairs: np.ndarray, slots=("F",), refine: int = 1) -> dict:
        """dict (kernel_id, slot) -> (head (nt1, P), tail (nt2, P)); atomic
        entries hold (None, values at the atom times)."""
        return self._profiles(np.atleast_2d(pairs), self.kernel_ids, slots, refine)

    def _profiles(self, pairs, kernel_ids, slots, refine):
        plan = []
        for kid in kernel_ids:
            fam = _FAMILY[kid]
            atoms = fam["kind"] == "atoms"
            t = STOCK_ATOMS[0] if atoms else self._tail_grid_for(kid)[0]
            plan += [(kid, slot, fam[slot], not atoms, t) for slot in slots if slot in fam]
        # a plan reading both the plain and the reflected family takes both
        # from one shared moment pass
        parities = {spec[0] for _, _, spec, has_head, _ in plan if has_head}
        hk = HeadKernels(
            self.params, pairs[:, 0], pairs[:, 1], self.t_head, refine, both=len(parities) == 2
        )
        # the tails share their row tables: one recurrence pass over the
        # pairs' two coordinates builds every family the plan reads, as
        # long as its longest sum, and each sum reads leading rows
        th_rows, ph_rows = ModeRows.pair(pairs[:, 0], pairs[:, 1], headroom=ROW_HEADROOM)
        stack_mode_rows(self.params, [(spec, t) for _, _, spec, _, t in plan], th_rows)
        out = {}
        for kid, slot, spec, has_head, t_tail in plan:
            tail = mode_sum_rows(self.params, spec, t_tail, th_rows, ph_rows)
            out[(kid, slot)] = (hk.profile(spec) if has_head else None, tail)
        return out

    def _reduce(self, kid, head, tail):
        """Profile pair -> per-pair B-norm (the absolute integral for scalar
        kernels).  For sup kernels also returns the argmax times.  Each
        pair's value depends on its own columns only (see _column_sums)."""
        fam = _FAMILY[kid]
        kind = fam["kind"]
        if kind == "sup":
            f_all = np.concatenate([np.abs(head), np.abs(tail)], axis=0)
            t_all = np.concatenate([self.t_head, self.t_tail])
            idx = np.argmax(f_all, axis=0)
            return f_all[idx, np.arange(f_all.shape[1])], t_all[idx]
        if kind == "l2":
            pw = fam["power"]
            acc = _column_sums(self.w_head * self.t_head**pw, head**2)
            acc = acc + _column_sums(self.w_tail * self.t_tail**pw, tail**2)
            return np.sqrt(acc), None
        if kind == "int":
            pw = fam["power"]
            vals = _column_sums(self.w_head * self.t_head**pw, head) + _column_sums(
                self.w_tail * self.t_tail**pw, tail
            )
            return np.abs(vals), None
        if kind == "mult":
            ph = PROFILE_SIGN.fn
            vals = -_column_sums(self.w_head * ph(self.t_head), head) - _column_sums(
                self.w_mult * ph(self.t_mult), tail
            )
            return np.abs(vals), None
        if kind == "atoms":
            return np.abs(_column_sums(STOCK_ATOMS[1], tail)), None
        raise RuntimeError(f"unknown kind {kind!r}")

    def values(self, pairs: np.ndarray, refine: int = 1) -> dict:
        """Every per-pair quantity of the ladders, (quantity, kernel_id) ->
        array over the pairs: "norm" is the B-norm (signless), "tstar" its
        argmax time (sup kernels only), "grad" |d_theta K| + |d_phi K|
        (scalar kernels), "smth" / "smph" the B-norm of K(theta, phi) minus
        K at the theta- or phi-moved point of _smoothness_pairs (vector
        kernels; nan where the moved point leaves (0, pi)), whose moved pairs
        get the vector kernels' profiles only, and ("ratio", lemma) the
        quotient of each product lemma (_bridge_ratio).

        The pairs are swept in blocks of unordered pairs (_pair_blocks), so a
        call holds the moments, row tables and profiles of one block at a
        time.  A pair, its swap and their moved pairs share a block, so each
        is computed once, and each pair's values are bitwise those of one
        call over all the pairs: every step is per pair, and the reductions
        are per column (_column_sums).  So the blocks are independent tasks,
        of a queue (_Tasks) with _sweep_workers(blocks) workers."""
        pairs = np.atleast_2d(pairs)
        with _Tasks(_sweep_workers(len(self._pair_blocks(pairs)))) as tasks:
            return self._sweep(tasks, pairs, refine)()

    def _sweep(self, tasks, pairs, refine):
        """Queue the blocks of pairs on tasks, one task each in the sweep's
        order; returns the function that waits for them and merges their
        values into the arrays values() returns."""
        blocks = self._pair_blocks(pairs)
        results = [tasks.submit(_sweep_block, self, pairs[cols], refine) for cols in blocks]

        def merge():
            out = {}
            for cols, result in zip(blocks, results):
                for q, v in result().items():
                    out.setdefault(q, np.empty(pairs.shape[0]))[cols] = v
            return out

        return merge

    def _pair_blocks(self, pairs):
        """Index arrays of the pairs, one per block: runs of the unordered
        pairs {theta, phi}, as many per block as keep the block's moments
        about core.SWEEP_BYTES (its row tables and profiles take about as
        much again).  An unordered pair stands for its two orders and their
        four moved pairs, each with plain and shifted moments (three
        exponents, six monomials) at every head time.  The runs go by octave
        of the distance |theta - phi|, then by the smaller angle: the grading
        floor of a pair's rule follows its distance, so the pairs of a block
        share rules, which the rule cache then serves."""
        unordered, which = np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)
        lo, hi = unordered.T
        rank = np.empty(lo.size, dtype=int)
        rank[np.lexsort((lo, np.frexp(hi - lo)[1]))] = np.arange(lo.size)
        per_pair = 8 * 6 * 2 * 3 * 6 * self.t_head.size
        block = rank[which.ravel()] // max(1, core.SWEEP_BYTES // per_pair)
        order = np.argsort(block, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(block[order])) + 1)

    def _block_values(self, pairs, refine):
        """values() of one block: the lemmas' quotients in one call, then
        the kernels' quantities in one pass over the pairs and one over
        their moved pairs."""
        out = {}
        if self.lemmas:
            ratios = _bridge_ratio(self.params, pairs, self.lemmas, refine)
            out.update(zip([("ratio", w) for w in self.lemmas], ratios))
        if not self.kernel_ids:
            return out
        sca_ids = [k for k in self.kernel_ids if "Gth" in _FAMILY[k]]
        vec_ids = [k for k in self.kernel_ids if _FAMILY[k]["kind"] in ("sup", "l2")]
        prof = self.profiles(pairs, ("F", "Gth", "Gph") if sca_ids else ("F",), refine)
        for kid in self.kernel_ids:
            out[("norm", kid)], tstar = self._reduce(kid, *prof[(kid, "F")])
            if tstar is not None:
                out[("tstar", kid)] = tstar
        for kid in sca_ids:
            gth, _ = self._reduce(kid, *prof[(kid, "Gth")])
            gph, _ = self._reduce(kid, *prof[(kid, "Gph")])
            out[("grad", kid)] = gth + gph
        if not vec_ids:
            return out
        # the theta-move of (theta, phi) is the swap of the phi-move of
        # (phi, theta), so both moved sets go through one profiles call
        th_moved, ok_th, ph_moved, ok_ph = _smoothness_pairs(pairs)
        moved = np.vstack([
            np.column_stack([th_moved[ok_th], pairs[ok_th, 1]]),
            np.column_stack([pairs[ok_ph, 0], ph_moved[ok_ph]]),
        ])
        alt = self._profiles(moved, vec_ids, ("F",), refine) if moved.shape[0] else None
        n_th = int(ok_th.sum())
        for tag, ok, cols in (
            ("smth", ok_th, slice(0, n_th)), ("smph", ok_ph, slice(n_th, None))
        ):
            for kid in vec_ids:
                diff = np.full(pairs.shape[0], np.nan)
                if ok.any():
                    h1, t1 = prof[(kid, "F")]
                    h2, t2 = alt[(kid, "F")]
                    diff[ok], _ = self._reduce(
                        kid, h1[:, ok] - h2[:, cols], t1[:, ok] - t2[:, cols]
                    )
                out[(tag, kid)] = diff
        return out


def _sweep_block(batch, pairs, refine):
    """One block's values, as a task of a sweep."""
    return batch._block_values(pairs, refine)


def _sweep_workers(n_tasks: int) -> int:
    """Worker processes for a task queue that starts with n_tasks tasks:
    min(n_tasks, usable CPUs).  It is 1, this process, with one task (a
    union of one block, every refine-2 pass on its own), with one usable
    CPU, where the platform cannot fork, while another thread runs (a fork
    could then deadlock) and in a daemonic process, which may not have
    children.  Forked workers start from this process's imports and caches,
    and each sets its BLAS to one thread (_one_blas_thread)."""
    if n_tasks < 2:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    if cpus < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    return min(n_tasks, cpus)


@functools.lru_cache(maxsize=None)
def _openblas():
    """The thread getter and setter of numpy's BLAS, or None.  They are
    looked up through numpy's compiled core module, whose handle also finds
    the symbols of the BLAS it links: scipy_openblas_{get,set}_num_threads64_
    in numpy's wheels, openblas_{get,set}_num_threads in other OpenBLAS
    builds."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        get, put = (f"{prefix}{verb}_num_threads{suffix}" for verb in ("get", "set"))
        if hasattr(lib, get) and hasattr(lib, put):
            get, put = getattr(lib, get), getattr(lib, put)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _one_blas_thread():
    """Pool initializer: one BLAS thread in this worker, so that the workers
    do not oversubscribe the CPUs with the threads they inherit.  Where
    numpy's BLAS has no OpenBLAS setter (_openblas), the worker keeps the
    thread count it inherits."""
    blas = _openblas()
    if blas is not None:
        blas[1](1)


def _on_one_blas_thread(fn, *args):
    """fn(*args) run in this process on one BLAS thread, as in a worker,
    with the thread count restored after.  How OpenBLAS splits a product
    among its threads can change the bits of its entries, so on one thread
    everywhere a task gives the same bits in a worker and in process."""
    blas = _openblas()
    if blas is None:
        return fn(*args)
    get, put = blas
    before = get()
    put(1)
    try:
        return fn(*args)
    finally:
        put(before)


class _Tasks:
    """A queue of independent tasks, used as a context manager.  submit(fn,
    *args) returns a function that gives fn(*args), or raises its
    exception.  With more than one worker a pool of that many forked
    processes takes the tasks in the order they were submitted; with one,
    each task runs in this process, on one BLAS thread as a worker does,
    when its result is first asked for, so
    the tasks run in the order a sequential run would take them and stop
    at its first error.  No worker outlives the block: the pool is closed
    and joined after it, and terminated and joined when it raises or is
    interrupted."""

    def __init__(self, workers: int):
        self._pool = None
        if workers > 1:
            import multiprocessing

            self._pool = multiprocessing.get_context("fork").Pool(
                workers, initializer=_one_blas_thread
            )

    def submit(self, fn, *args):
        if self._pool is None:
            return functools.partial(_on_one_blas_thread, fn, *args)
        return self._pool.apply_async(fn, args).get

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if self._pool is not None:
            if kind is None:
                self._pool.close()
            else:
                self._pool.terminate()
            self._pool.join()


def _column_sums(w, m):
    """w @ m for a (times, pairs) array m, one BLAS matrix-vector product per
    tile of 64 columns, the last tile zero-padded.  A single product over all
    columns rounds its last few (the columns past the kernel's row tiles) on
    another path, so a column's sum would depend on where it sits; on whole
    tiles every column takes the same path, and its sum depends on its own
    values only.  64 is a whole number of the row tiles of the usual dgemv
    kernels (4, 8 and 16)."""
    n, p = m.shape
    whole = p - p % 64
    out = np.empty(p)
    if whole:  # the tiles as a (tiles, times, 64) view, one product each
        out[:whole] = (w @ m[:, :whole].reshape(n, -1, 64).transpose(1, 0, 2)).ravel()
    if whole < p:
        last = np.zeros((n, 64))
        last[:, : p - whole] = m[:, whole:]
        out[whole:] = (w @ last)[: p - whole]
    return out


# ---------------------------------------------------------------------------
# shared argmax helpers


def _ball_factors(params, pairs):
    d = np.abs(pairs[:, 0] - pairs[:, 1])
    return d, ball_measure(params, pairs[:, 0], d)


def _reproduce_or_raise(value, refined, tol, label):
    scale = max(abs(value), abs(refined), 1e-300)
    if abs(value - refined) / scale > tol:
        raise EstimateAccuracyError(
            f"{label}: argmax value {value:.6e} moved to {refined:.6e} "
            "at doubled quadrature resolution"
        )


def _smoothness_pairs(pairs):
    """Admissible triples: the moved point sits a quarter distance away."""
    d = np.abs(pairs[:, 0] - pairs[:, 1])
    th_moved = pairs[:, 0] + d / 4.0
    ok_th = (th_moved > 0) & (th_moved < np.pi)
    ph_moved = pairs[:, 1] + d / 4.0
    ok_ph = (ph_moved > 0) & (ph_moved < np.pi)
    return th_moved, ok_th, ph_moved, ok_ph


# ---------------------------------------------------------------------------
# lemma samplers


def _uniform_chunks(seed: int, count: int, ranges):
    """count uniform draws on each range (lo, hi) of ranges, the draws of
    default_rng(seed) one range after another, yielded in chunks of at most
    EXACT_CHUNK as one array per range: range i's draws come from a
    PCG64(seed) stream advanced by i count."""
    streams = [
        np.random.Generator(np.random.PCG64(seed).advance(i * count)) for i in range(len(ranges))
    ]
    for start in range(0, count, EXACT_CHUNK):
        n = min(EXACT_CHUNK, count - start)
        yield tuple(s.uniform(lo, hi, n) for s, (lo, hi) in zip(streams, ranges))


def _fold_sup(best, quot, points):
    """The running (sup, argmax point) best after one more chunk of
    quotients quot at the points (a tuple of arrays); a tie keeps best, the
    earlier chunk's argmax, so a sweep gives np.argmax's first argmax."""
    if quot.size:
        k = int(np.argmax(quot))
        if quot[k] > best[0]:
            return quot[k], tuple(p[k] for p in points)
    return best


def _bridge_terms(params, pairs, which):
    """The shift of (alpha, beta), the power of q and the per-pair factor
    beside the ball measure in the quotient of Bridge1, Bridge2 or L43Star
    (with the exponents L43_EXPONENTS)."""
    shift, prefac = (0.0, 0.0), 1.0
    power_extra, dist_power = (1.5, 0.0) if which == "Bridge1" else (2.0, 1.0)
    if which == "L43Star":
        g1, g2, kappa, k1, k2 = L43_EXPONENTS
        power_extra, dist_power = 1.5 + g1 + g2 + kappa, 0.0
        shift = (g1 + kappa + k1, g2 + kappa + k2)
        s = np.sin(pairs[:, 0] / 2.0) + np.sin(pairs[:, 1] / 2.0)
        c = np.cos(pairs[:, 0] / 2.0) + np.cos(pairs[:, 1] / 2.0)
        prefac = s ** (2.0 * g1) * c ** (2.0 * g2)
    d = np.abs(pairs[:, 0] - pairs[:, 1])
    return shift, params.alpha + params.beta + power_extra, d**dist_power * prefac


def _bridge_ratio(params, pairs, which, refine=1):
    """Per pair, the quotients of the product lemmas in which, a tuple of
    Bridge1, Bridge2 and L43Star, one array each: the product-measure
    integral of q^-(power) times the ball measure and the factor of
    _bridge_terms.  The lemmas that share a shift read one rule per pair:
    Bridge1 and Bridge2 do, L43Star has its own."""
    terms = [_bridge_terms(params, pairs, w) for w in which]
    _, mb = _ball_factors(params, pairs)
    out = [None] * len(which)
    for shift in dict.fromkeys(shift for shift, _, _ in terms):
        idx = [i for i, term in enumerate(terms) if term[0] == shift]
        moments = block_moments(
            params.alpha + shift[0], params.beta + shift[1], pairs[:, 0], pairs[:, 1],
            np.zeros(1), tuple(terms[i][1] for i in idx), n_j=1, refine=refine,
        )
        for i, m in zip(idx, moments):
            out[i] = m[0, 0, :, 0] * mb * terms[i][2]
    return tuple(out)


def lemma_levels(params: JacobiParams, which: str, levels) -> LadderResult:
    """The ladder of a comparison lemma over the levels: per level the
    empirical sup of its left-to-right quotient, bitwise the single-level
    report.  which is Bridge1 or Bridge2 (the two product-integral bounds),
    L43Star (their weighted generalization, with the exponents
    L43_EXPONENTS), Trig (|d_theta q| against sqrt(q)), Comp (stability of q
    under moving theta a quarter distance) or Asympt (the
    hyperbolic-prefactor bound).

    A product lemma is a pair-grid ladder of run_estimate_suite.  The other
    quotients are evaluated once, on the deepest nested sample set, and each
    level reads its own subset in its own order (a sup's first argmax
    included): the Trig and Comp samples are drawn and swept chunk by chunk
    (_uniform_chunks), and a level's report is the running sup (_fold_sup)
    where its samples end."""
    levels = _grid_levels(levels)
    if which in PRODUCT_LEMMA_IDS:
        return run_estimate_suite(params, levels, (), (which,))[1][which]
    if which in ("Trig", "Comp"):
        # level 1 has NESTED_BASE samples, drawn by default_rng(seed + 1), and
        # level l > 1 adds NESTED_BASE 2^(l - 2) drawn by default_rng(seed + l),
        # so sample sets only grow; a sample is (theta, phi) in (0, pi)^2 and
        # (u, v) in (-1, 1)^2
        seed = 20 if which == "Trig" else 21
        ranges = ((0.0, np.pi), (0.0, np.pi), (-1.0, 1.0), (-1.0, 1.0))
        best, count, at_end = (-np.inf, None), 0, {}
        for level in range(1, max(levels) + 1):
            added = NESTED_BASE * 2 ** max(level - 2, 0)
            for th, ph, u, v in _uniform_chunks(seed + level, added, ranges):
                if which == "Trig":
                    q = q_fn(th, ph, u, v)
                    ratio = np.abs(q_theta(th, ph, u, v)) / np.sqrt(np.maximum(q, 1e-300))
                else:
                    keep = np.abs(th - ph) > 1e-12
                    th, ph, u, v = th[keep], ph[keep], u[keep], v[keep]
                    tht = th + (ph - th) / 4.0  # |theta - theta~| = |theta - phi| / 4
                    q1 = np.maximum(q_fn(th, ph, u, v), 1e-300)
                    q2 = np.maximum(q_fn(tht, ph, u, v), 1e-300)
                    ratio = np.maximum(q1 / q2, q2 / q1)
                best = _fold_sup(best, ratio, (th, ph))
                count += ratio.size
            at_end[level] = EstimateReport(which, level, float(best[0]), count, best[1])
        reports = [at_end[level] for level in levels]

    elif which == "Asympt":
        reports = [_asympt_report(params, level) for level in levels]
    else:
        raise ValueError(f"unknown lemma sampler {which!r}")
    return _ladder_result(reports, which)


def _asympt_report(params, grid_level):
    n = 64 * 2 ** (grid_level - 1)
    t = np.exp(np.linspace(np.log(1e-6), np.log(100.0), n + 1))
    q = np.exp(np.linspace(np.log(1e-6), np.log(2.0), n + 1))
    power = params.alpha + params.beta + 4.5
    # from alpha + beta of about 10 the denominator overflows to inf at the
    # largest times, which gives the quotient's limit there, 0
    with np.errstate(over="ignore"):
        denom = (2.0 * np.sinh(t[:, None] / 4.0) ** 2 + q[None, :]) ** power
    lhs = np.sinh(t[:, None] / 2.0) / denom
    ratio = lhs * q[None, :] ** (power - 0.5)
    k = np.unravel_index(np.argmax(ratio), ratio.shape)
    return EstimateReport(
        "Asympt", grid_level, float(ratio[k]), t.size * q.size, (t[k[0]], q[k[1]])
    )


def _exact_quotients(th, ph, tht):
    """The two exact lemma quotients, elementwise: (a) |theta - phi| phi
    (pi - phi) and (b) theta~ phi (pi - theta~)(pi - phi), each over
    (theta + phi)^2 (2 pi - theta - phi)^2."""
    denom = (th + ph) ** 2 * (2.0 * np.pi - th - ph) ** 2
    qa = np.abs(th - ph) * ph * (np.pi - ph) / denom
    qb = tht * ph * (np.pi - tht) * (np.pi - ph) / denom
    return qa, qb


def exact_lemma_report(n_samples: int = 1_000_000, seed: int = 0):
    """Sweep of both exact quotients over random admissible samples, in
    chunks of EXACT_CHUNK; returns the two reports.  theta, phi and the
    relative offset of theta~ are the first, second and third n_samples
    uniform draws of default_rng(seed) (_uniform_chunks)."""
    best = [(-np.inf, None), (-np.inf, None)]
    ranges = ((0.0, np.pi), (0.0, np.pi), (-0.5, 0.5))
    for th, ph, offset in _uniform_chunks(seed, n_samples, ranges):
        tht = np.clip(th + offset * np.abs(th - ph), 1e-12, np.pi - 1e-12)
        quots = _exact_quotients(th, ph, tht)
        best = [_fold_sup(b, quot, (th, ph)) for b, quot in zip(best, quots)]
    return tuple(
        EstimateReport(eid, 1, float(sup), n_samples, arg)
        for eid, (sup, arg) in zip(("EstimatesA", "EstimatesB"), best)
    )


# ---------------------------------------------------------------------------
# A_p constants


def _cell_rule(lo: float, hi: float, singular):
    """Composite rule on (lo, hi) with CELL_NODES Gauss nodes per panel, the
    panels halving CELL_DEPTH times toward any endpoint listed in singular."""
    edges = [lo, hi]
    width = hi - lo
    if lo in singular:
        edges += [lo + width * 2.0**-k for k in range(1, CELL_DEPTH + 1)]
    if hi in singular:
        edges += [hi - width * 2.0**-k for k in range(1, CELL_DEPTH + 1)]
    edges = np.array(sorted(set(edges)))
    return composite_gauss(edges, CELL_NODES)


def ap_member(weight: WeightSpec, params: JacobiParams, p: float | None = None) -> bool:
    """Membership window for double-power weights.

    The weight |sin(theta/2)|^r (cos(theta/2))^s lies in A_p of the symmetric
    measure exactly when -(2 alpha + 2) < r < (2 alpha + 2)(p - 1) and the
    same for (s, beta); for p = 1 the upper endpoints close to zero."""
    if p is None:
        p = weight.p
    _check_exponent(p)
    da = 2.0 * params.alpha + 2.0
    db = 2.0 * params.beta + 2.0
    if p == 1:
        return (-da < weight.r <= 0.0) and (-db < weight.s <= 0.0)
    return (-da < weight.r < da * (p - 1.0)) and (-db < weight.s < db * (p - 1.0))


def ap_constant(
    weight: WeightSpec,
    params: JacobiParams,
    p: float | None = None,
    n_intervals: int = 6,
) -> float:
    """Largest Muckenhoupt quotient of the weight over the dyadic subintervals
    of (-pi, pi) down to scale 2 pi / 2^n_intervals, with averages taken
    against the symmetric measure.

    For p > 1 this is [avg w][avg w^(-p'/p)]^(p/p'); for p = 1 the second
    factor is the essential sup of 1/w over the closed interval: +inf where
    w vanishes in it, else the largest 1/w at an endpoint or at an interior
    maximum."""
    if p is None:
        p = weight.p
    _check_exponent(p)
    n_cells = 2**n_intervals
    cell_edges = np.linspace(-np.pi, np.pi, n_cells + 1)
    singular = {-np.pi, 0.0, np.pi}

    def density(th):
        return (
            np.abs(np.sin(th / 2.0)) ** (2.0 * params.alpha + 1.0)
            * np.cos(th / 2.0) ** (2.0 * params.beta + 1.0)
        )

    w_cells = np.zeros(n_cells)
    dual_cells = np.zeros(n_cells)
    mu_cells = np.zeros(n_cells)
    dual_pow = 0.0 if p == 1 else -1.0 / (p - 1.0)
    for i in range(n_cells):
        lo, hi = cell_edges[i], cell_edges[i + 1]
        x, wq = _cell_rule(lo, hi, singular)
        dens = density(x)
        wv = weight.values(x)
        mu_cells[i] = wq @ dens
        w_cells[i] = wq @ (dens * wv)
        if p > 1:
            dual_cells[i] = wq @ (dens * wv**dual_pow)

    w_pre = np.concatenate([[0.0], np.cumsum(w_cells)])
    d_pre = np.concatenate([[0.0], np.cumsum(dual_cells)])
    m_pre = np.concatenate([[0.0], np.cumsum(mu_cells)])

    best = 0.0
    for k in range(n_intervals + 1):
        step = n_cells // 2**k
        starts = np.arange(0, n_cells, step)
        ends = starts + step
        mw = (w_pre[ends] - w_pre[starts]) / (m_pre[ends] - m_pre[starts])
        if p > 1:
            md = (d_pre[ends] - d_pre[starts]) / (m_pre[ends] - m_pre[starts])
            quot = mw * md ** (p - 1.0)
        else:
            # essential sup of 1/w over the closed interval: the largest 1/w at
            # the endpoints and at +-2 arctan(sqrt(r / s)) clipped into it, where
            # 1/w peaks for r, s < 0 (for r > 0 or s > 0 the point is a zero of w
            # or an endpoint); cos(theta/2) is taken as sin((pi - |theta|)/2),
            # which is exactly 0 at +-pi, so a zero of w gives +inf
            lo, hi = cell_edges[starts], cell_edges[ends]
            peak = 2.0 * np.arctan2(np.sqrt(max(0.0, -weight.r)), np.sqrt(max(0.0, -weight.s)))
            c = np.array([lo, hi, np.clip(peak, lo, hi), np.clip(-peak, lo, hi)])
            with np.errstate(divide="ignore"):
                inv = np.abs(np.sin(c / 2.0)) ** -weight.r
                inv = inv * np.sin((np.pi - np.abs(c)) / 2.0) ** -weight.s
            quot = mw * inv.max(axis=0)
        best = max(best, float(np.max(quot)))
    return best


# ---------------------------------------------------------------------------
# ladders


@dataclass(frozen=True)
class LadderResult:
    reports: tuple
    verdict: str

    @property
    def sups(self):
        return [r.empirical_sup for r in self.reports]


def ladder_verdict(sups, divergence_factor=DIVERGENCE_FACTOR) -> str:
    """stable: last-step relative growth below STABILITY_THRESHOLD;
    diverging: a last sup of +inf, or growth above the factor at each of the
    last three steps; else inconclusive."""
    sups = list(sups)
    if sups and sups[-1] == np.inf:
        return "diverging"
    if len(sups) < 2 or sups[-2] == 0.0:
        return "inconclusive"
    growth = [b / a if a > 0 else np.inf for a, b in zip(sups[:-1], sups[1:])]
    if len(growth) >= 3 and all(g > divergence_factor for g in growth[-3:]):
        return "diverging"
    if growth[-1] < 1.0 + STABILITY_THRESHOLD:
        return "stable"
    return "inconclusive"


def _assert_monotone(sups, label):
    for a, b in zip(sups[:-1], sups[1:]):
        if b < a * (1.0 - 1e-12):
            raise AssertionError(
                f"{label}: sup decreased across nested refinement: {a} -> {b}"
            )


def _ladder_result(reports, label) -> LadderResult:
    """The ladder of reports, whose sups read by rising level may not fall
    (_assert_monotone) and give the verdict (ladder_verdict)."""
    sups = [r.empirical_sup for r in sorted(reports, key=lambda r: r.grid_level)]
    _assert_monotone(sups, label)
    return LadderResult(tuple(reports), ladder_verdict(sups))


def run_standard_ladders(params: JacobiParams, kernel_ids=KERNEL_IDS, levels=(1, 2, 3, 4)) -> dict:
    """All applicable standard-estimate ladders for the given kernel
    families: the kernel ladders of run_estimate_suite.

    Returns {(kernel_id, estimate_id): LadderResult}.  Vector kernels get
    Growth, SmoothTheta and SmoothPhi; scalar kernels Growth and Gradient.
    The multiplier families use PROFILE_SIGN and STOCK_ATOMS.  One level
    gives the single-level check:
    run_standard_ladders(params, (kid,), levels=(level,))[(kid, eid)].reports[0]."""
    return run_estimate_suite(params, levels, kernel_ids)[0]


def run_estimate_suite(params: JacobiParams, levels, kernel_ids=KERNEL_IDS, lemmas=(), exact=None):
    """The standard ladders of kernel_ids (run_standard_ladders; none when
    it is empty), the ladder of each lemma in lemmas (see lemma_levels) and,
    when exact is (n_samples, seed), exact_lemma_report(n_samples, seed),
    from one task queue (_Tasks).  Returns (ladders, {lemma: LadderResult},
    exact reports or None).

    The queue takes, in this order: the blocks of one FamilyBatch sweep of
    the union of the level grids for the kernels and the product lemmas;
    the other lemma ladders; the exact reports; and, as soon as the union is
    merged, the refine-2 passes of _union_ladders.  It has
    _sweep_workers(tasks before the refine-2 passes) workers.  This process
    merges the results and checks the pair-grid ladders, and it raises the
    error a sequential run would raise first: the kernels', then the
    lemmas' in order, then the exact reports'."""
    levels = _grid_levels(levels)
    products = tuple(w for w in lemmas if w in PRODUCT_LEMMA_IDS)
    others = [w for w in lemmas if w not in products]
    batch = FamilyBatch(params, tuple(kernel_ids) + products) if kernel_ids or products else None
    n_tasks = len(others) + (exact is not None)
    if batch is not None:
        union, level_rows = _pair_union(levels)
        n_tasks += len(batch._pair_blocks(union))
    with _Tasks(_sweep_workers(n_tasks)) as tasks:
        if batch is not None:
            merge = batch._sweep(tasks, union, 1)
        checks = {w: tasks.submit(lemma_levels, params, w, levels) for w in others}
        exact_result = None if exact is None else tasks.submit(exact_lemma_report, *exact)
        if batch is not None:
            checks.update(_union_ladders(tasks, batch, levels, union, level_rows, merge()))
        ladders = {(kid, eid): res for kid in kernel_ids for eid, res in checks[kid]().items()}
        lemma_ladders = {w: checks[w]()[w] if w in products else checks[w]() for w in lemmas}
        return ladders, lemma_ladders, None if exact is None else exact_result()


def _union_ladders(tasks, batch, levels, union, level_rows, vals) -> dict:
    """The ladders of the batch's kernels and product lemmas from vals, its
    values on the union.  Queues on tasks one refine-2 pass per kernel and
    per lemma over the argmax pairs of all its levels, and returns per
    kernel or lemma the function that waits for it, checks that each argmax
    value reproduces and gives {estimate_id: LadderResult}."""
    params = batch.params
    d, mb = _ball_factors(params, union)
    th_moved, ok_th, ph_moved, ok_ph = _smoothness_pairs(union)
    every = np.ones(union.shape[0], dtype=bool)

    def check(owner, ladders, argmax, todo, refined):
        ref, at = refined(), {k: j for j, k in enumerate(todo)}
        reports = {}
        for level, rows, ks in zip(levels, level_rows, argmax):
            for (eid, q, ratios, ok), k in zip(ladders, ks):
                label = owner if eid == owner else f"{eid}[{owner}]"
                value, again = vals[(q, owner)][k], ref[(q, owner)][at[k]]
                _reproduce_or_raise(value, again, REPRODUCE_TOL, label)
                arg = tuple(union[k])
                if eid == "Growth" and ("tstar", owner) in vals:
                    arg += (vals[("tstar", owner)][k],)
                reports.setdefault((eid, label), []).append(
                    EstimateReport(eid, level, float(ratios[k]), int(ok[rows].sum()), arg)
                )
        return {eid: _ladder_result(reps, label) for (eid, label), reps in reports.items()}

    checks = {}
    for owner in batch.kernel_ids + batch.lemmas:
        # (estimate_id, quantity, ratios, pairs that count) per ladder
        if owner in batch.lemmas:
            ladders = [(owner, "ratio", vals[("ratio", owner)], every)]
        else:
            ladders = [("Growth", "norm", vals[("norm", owner)] * mb, every)]
        if ("grad", owner) in vals:
            ladders.append(("Gradient", "grad", vals[("grad", owner)] * d * mb, every))
        if ("smth", owner) in vals:
            for eid, q, moved, ok, col in (
                ("SmoothTheta", "smth", th_moved, ok_th, 0),
                ("SmoothPhi", "smph", ph_moved, ok_ph, 1),
            ):
                sep = np.abs(moved - union[:, col])
                with np.errstate(invalid="ignore"):
                    ratios = np.where(ok, vals[(q, owner)] * d * mb / sep, -np.inf)
                ladders.append((eid, q, ratios, ok))
        # per level, the argmax row of each ladder
        argmax = [[int(rows[np.argmax(r[rows])]) for _, _, r, _ in ladders] for rows in level_rows]
        todo = list(dict.fromkeys(k for ks in argmax for k in ks))
        refined = FamilyBatch(params, (owner,))._sweep(tasks, union[todo], 2)
        checks[owner] = functools.partial(check, owner, ladders, argmax, todo, refined)
    return checks
