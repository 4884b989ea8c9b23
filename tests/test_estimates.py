"""Tests for the estimate harness: grids, product-rule evaluator, ladders,
lemma samplers and Muckenhoupt constants.

The frozen constants were measured with this harness and cross-checked
against the series route where both apply; closed forms (axis-rule moments,
the constant weight, the p = 1 power weight) serve as independent oracles.
"""

import contextlib
import ctypes
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import lemma_estimates_exact, nested_lemma_reports, nested_samples
from symjacobi import basis, core, estimates, product
from symjacobi.cli import LEMMA_IDS, main
from symjacobi.core import JacobiParams, total_mass
from symjacobi.estimates import (
    MIN_DISTANCE,
    EstimateAccuracyError,
    EstimateReport,
    FamilyBatch,
    KERNEL_IDS,
    MultiplierProfile,
    WeightSpec,
    _assert_monotone,
    _dyadic_log,
    _FAMILY,
    _reproduce_or_raise,
    _time_panels,
    ap_constant,
    ap_member,
    exact_lemma_report,
    ladder_verdict,
    VECTOR_KERNELS,
    lemma_levels,
    pair_grid,
    run_estimate_suite,
    run_standard_ladders,
)
from symjacobi.kernels import mode_sum
from symjacobi.product import HeadKernels, corner_rule, nodes_for, pair_moments

ATOMIC = JacobiParams(-0.5, -0.5)
SQUARE = JacobiParams(0.0, 0.0)
SKEWED = JacobiParams(0.5, 2.0)


class TestGrids:
    def test_pair_grid_nested(self):
        prev = None
        for level in (1, 2, 3):
            g = pair_grid(level)
            assert g.ndim == 2 and g.shape[1] == 2
            if prev is not None:
                cur = set(map(tuple, g))
                assert all(tuple(row) in cur for row in prev)
            prev = g

    def test_pair_grid_band_and_separation(self):
        g = pair_grid(3)
        assert g.min() >= MIN_DISTANCE - 1e-12
        assert g.max() <= np.pi - MIN_DISTANCE + 1e-12
        assert np.all(np.abs(g[:, 0] - g[:, 1]) >= MIN_DISTANCE * (1 - 1e-12))

    def test_geometric_grid_bitwise_nested(self):
        """Midpoint insertion reproduces coarse nodes exactly, which the
        cross-level cache in the ladder runner relies on."""
        a = _dyadic_log(2, MIN_DISTANCE, np.pi - MIN_DISTANCE)
        b = _dyadic_log(3, MIN_DISTANCE, np.pi - MIN_DISTANCE)
        assert set(a.tolist()) <= set(b.tolist())

    def test_nested_samples_prefix(self, monkeypatch):
        monkeypatch.setattr(estimates, "NESTED_BASE", 500)
        s1 = nested_samples(7, 1)
        s2 = nested_samples(7, 2)
        assert s2.shape[0] == 2 * s1.shape[0]
        assert np.array_equal(s2[: s1.shape[0]], s1)

    def test_time_panels_split_at_breaks(self):
        t, w = _time_panels(0.5, 60.0, 4, breaks=(np.pi, 2 * np.pi))
        # integrates a smooth decaying profile accurately
        assert_allclose(w @ np.exp(-t), np.exp(-0.5) - np.exp(-60.0), rtol=1e-5)
        # no node strays outside, and panels do not straddle the breakpoints
        assert t.min() > 0.5 and t.max() < 60.0
        for b in (np.pi, 2 * np.pi):
            assert not np.any(np.abs(t - b) < 1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: pair_grid(0),
        lambda: lemma_levels(SQUARE, "Bridge1", (0,)).reports[0],
        lambda: lemma_levels(SQUARE, "Asympt", (0,)).reports[0],
        lambda: lemma_levels(SQUARE, "Trig", (0,)).reports[0],
        lambda: lemma_levels(SQUARE, "Comp", (2, 0)),
        lambda: run_standard_ladders(ATOMIC, ("poisson",), levels=(0,)),
        lambda: run_standard_ladders(ATOMIC, ("poisson",), levels=(1, 0)),
    ],
    ids=["pair_grid", "Bridge1", "Asympt", "Trig", "Comp-levels", "ladders", "ladders-1-0"],
)
def test_level_below_one_is_named(call):
    """Every entry point to the nested grids rejects level 0 by name."""
    with pytest.raises(ValueError, match="grid level must be an integer >= 1, got 0"):
        call()


def test_level_must_be_an_integer():
    with pytest.raises(ValueError, match="got 1.5"):
        lemma_levels(SQUARE, "Asympt", (1.5,)).reports[0]


class TestAxisRule:
    """Axis marginals of the corner rule (symjacobi.product), the one
    product-formula rule: each integrates its normalized density exactly,
    at a generic pair's scales and at both band margins."""

    SCALES = [(0.33, 0.59, 2e-2), (5e-7, 0.99, 3e-8), (0.99, 5e-7, 3e-8)]

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.7, 2.0])
    def test_normalized_moments(self, a):
        """Total mass one, zero first moments and u v moment, second moments
        1/(2a + 2) and 1/(2b + 2)."""
        b = 2.0 - a / 2.0
        for A, B, floor in self.SCALES:
            _, _, fams = corner_rule(a, b, A, B, floor, nodes_for(a, b))
            one, mu, mv, muu, muv, mvv = fams.sum(axis=0)
            assert_allclose(one, 1.0, atol=1e-9)
            assert_allclose([mu, mv, muv], 0.0, atol=1e-9)
            assert_allclose(muu, 1.0 / (2.0 * a + 2.0), atol=1e-9)
            assert_allclose(mvv, 1.0 / (2.0 * b + 2.0), atol=1e-9)

    def test_atomic_rule(self):
        """At a = -1/2 the u-marginal is the two atoms (+-1, 1/2) exactly."""
        xu, xv, fams = corner_rule(-0.5, 1.0, 0.3, 0.6, 1e-4, 6)
        assert set(xu.tolist()) == {0.0, 2.0}
        assert_allclose(fams[xu == 0.0, 0].sum(), 0.5, atol=1e-9)
        assert_allclose(fams[:, 3].sum(), 1.0, atol=1e-9)  # matches 1/(2a + 2)
        assert_allclose(fams[:, 5].sum(), 0.25, atol=1e-9)
        xu, xv, fams = corner_rule(-0.5, -0.5, 0.3, 0.6, 1e-4, 6)
        assert sorted(zip(xu.tolist(), xv.tolist())) == [(0, 0), (0, 2), (2, 0), (2, 2)]
        assert np.array_equal(fams[:, 0], [0.25] * 4)

    def test_refine_tightens_floor(self):
        """A lower floor adds cells toward the corner; more nodes per cell
        side add nodes to every cell."""
        base = corner_rule(0.5, 0.5, 0.4, 0.5, 1e-3, 6)[0].size
        assert corner_rule(0.5, 0.5, 0.4, 0.5, 1e-3 / 4.0, 6)[0].size > base
        assert corner_rule(0.5, 0.5, 0.4, 0.5, 1e-3, 8)[0].size > base

    def test_cached_by_depth_and_read_only(self):
        """The pair enters only through the integer halving depths and the
        edge order: two floors with the same depths share one cached rule,
        which cannot be written."""
        r1 = corner_rule(0.5, 0.5, 0.4, 0.5, 1.0e-3, 6)
        r2 = corner_rule(0.5, 0.5, 0.4, 0.5, 1.1e-3, 6)
        assert all(x is y for x, y in zip(r1, r2))
        for arr in r1:
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestSwapReuse:
    """The moments depend on the pair only through quantities symmetric in
    theta and phi, so a pair and its swap share them bit for bit."""

    PAIRS = [(0.9, 1.7), (0.001, 0.002), (3.14, 3.1405), (0.3, 3.0)]

    @pytest.mark.parametrize("params", [SQUARE, SKEWED, SQUARE.shifted(), SKEWED.shifted()])
    def test_moments_swap_symmetric(self, params):
        shifts = np.array([1e-8, 1e-3, 0.3])
        for th, ph in self.PAIRS:
            m1 = pair_moments(params.alpha, params.beta, th, ph, shifts)
            m2 = pair_moments(params.alpha, params.beta, ph, th, shifts)
            assert np.array_equal(m1, m2)

    @staticmethod
    def _count_moments(monkeypatch):
        calls = []
        inner = product.pair_moments

        def counted(*args, **kw):
            calls.append(args)
            return inner(*args, **kw)

        monkeypatch.setattr(product, "pair_moments", counted)
        return calls

    def test_block_equals_single_pairs(self, monkeypatch):
        """Both orders and a repeat in one block: bitwise the one-pair
        results, from one shared plain/shifted moment call per unordered pair."""
        batch = FamilyBatch(SKEWED, KERNEL_IDS)
        pairs = np.array(
            [[0.9, 1.7], [1.7, 0.9], [2.4, 3.0], [0.9, 1.7], [0.001, 0.002], [0.002, 0.001]]
        )
        slots = ("F", "Gth", "Gph")
        singles = [batch.profiles(pairs[i : i + 1], slots) for i in range(len(pairs))]
        calls = self._count_moments(monkeypatch)
        prof = batch.profiles(pairs, slots)
        assert len(calls) == 3  # three unordered pairs, both sets in one pass
        for i, one in enumerate(singles):
            for key, (head, tail) in prof.items():
                if head is not None:
                    assert np.array_equal(head[:, i], one[key][0][:, 0])
                assert np.array_equal(tail[:, i], one[key][1][:, 0])

    def test_moved_pairs_share_one_call(self, monkeypatch):
        """The theta-move of (theta, phi) is the swap of the phi-move of
        (phi, theta), so a pair and its swap need two unordered moved pairs;
        each unordered pair takes one shared plain/shifted moment call."""
        batch = FamilyBatch(SKEWED, ("poisson", "poisson_reflected"))
        pairs = np.array([[0.9, 1.7], [1.7, 0.9]])
        calls = self._count_moments(monkeypatch)
        batch.values(pairs)
        assert len(calls) == 1 + 2

    @pytest.mark.parametrize("params", [SQUARE, SKEWED, ATOMIC])
    def test_values_builds_each_row_table_once(self, params, monkeypatch):
        """One values call over one block makes one recurrence pass per
        profiles pass, stacking every family the pass reads: (alpha, beta)
        to (alpha + 2, beta + 2) for all slots of every kernel, and
        (alpha, beta), (alpha + 1, beta + 1) for the vector kernels' F slot
        at the moved pairs.  The tails share these tables."""
        calls = []
        inner = basis.trig_poly_table

        def counted(families, nmax, theta):
            calls.append(list(families))
            return inner(families, nmax, theta)

        monkeypatch.setattr(basis, "trig_poly_table", counted)
        FamilyBatch(params).values(pair_grid(1)[::9])
        shifted = params.shifted()
        assert sorted(calls, key=len) == [[params, shifted], [params, shifted, shifted.shifted()]]

    def test_profiles_of_no_kernel_make_no_pass(self, monkeypatch):
        """A profiles call whose plan reads no tail (a product lemma only,
        or a slot no kernel has) returns no profiles and builds no table."""
        calls = []
        monkeypatch.setattr(basis, "trig_poly_table", lambda *args: calls.append(args))
        pairs = np.array([[0.3, 1.2]])
        assert FamilyBatch(SQUARE, ("Bridge1",)).profiles(pairs) == {}
        assert FamilyBatch(SQUARE, ("poisson",)).profiles(pairs, ("Gth",)) == {}
        assert calls == []

    @pytest.mark.parametrize("params", [SQUARE, SKEWED])
    def test_shared_rows_give_the_standalone_tails(self, params):
        """Each tail of a profiles pass is bitwise the standalone mode_sum,
        though its rows are leading rows of tables another kernel built."""
        batch = FamilyBatch(params)
        pairs = pair_grid(1)[::11]
        for (kid, slot), (_, tail) in batch.profiles(pairs, ("F", "Gth", "Gph")).items():
            atoms = _FAMILY[kid]["kind"] == "atoms"
            t = estimates.STOCK_ATOMS[0] if atoms else batch._tail_grid_for(kid)[0]
            want = mode_sum(params, _FAMILY[kid][slot], t, pairs[:, 0], pairs[:, 1])
            assert np.array_equal(tail, want), (kid, slot)

    def test_moved_pass_reads_vector_kernels_only(self, monkeypatch):
        """The smoothness quantities exist for the vector kernels only, so the
        moved pairs get only their profiles; the values are unchanged."""
        batch = FamilyBatch(SKEWED)
        pairs = pair_grid(1)[::17]
        passes = []
        inner = FamilyBatch._profiles

        def spied(self, prs, kernel_ids, slots, refine):
            out = inner(self, prs, kernel_ids, slots, refine)
            passes.append(sorted({kid for kid, _ in out}))
            return out

        monkeypatch.setattr(FamilyBatch, "_profiles", spied)
        vals = batch.values(pairs)
        assert passes == [sorted(KERNEL_IDS), sorted(VECTOR_KERNELS)]
        vec = FamilyBatch(SKEWED, VECTOR_KERNELS).values(pairs)
        for key, v in vec.items():
            assert np.array_equal(vals[key], v, equal_nan=True), key


class TestRouteAgreement:
    """The product-rule head and the mode-sum tail are independent routes to
    the same profiles; near the splice both must agree."""

    @pytest.mark.parametrize("params", [SQUARE, SKEWED])
    def test_head_matches_series(self, params):
        """Every spec with a head gives the same profile on both routes at
        the splice."""
        t = np.array([0.35, 0.5])
        specs = {
            spec
            for fam in _FAMILY.values()
            if fam["kind"] != "atoms"
            for slot, spec in fam.items()
            if slot in ("F", "Gth", "Gph")
        }
        assert len(specs) == 12
        for th, ph in ((0.9, 1.7), (2.4, 3.0)):
            head = HeadKernels(params, th, ph, t)
            for spec in sorted(specs, key=str):
                hv = head.profile(spec)[:, 0]
                tv = mode_sum(params, spec, t, th, ph)[:, 0]
                assert_allclose(hv, tv, rtol=2e-7, atol=1e-12, err_msg=str(spec))

    def test_refine_reproduces(self):
        batch = FamilyBatch(SKEWED, ("poisson", "riesz_odd"))
        pairs = np.array([[1.1, 1.9], [2.9, 3.05]])
        for kid in ("poisson", "riesz_odd"):
            n1 = batch.values(pairs)[("norm", kid)]
            n2 = batch.values(pairs, refine=2)[("norm", kid)]
            assert_allclose(n1, n2, rtol=1e-6)


class TestReports:
    def test_estimate_report_validation(self):
        with pytest.raises(ValueError):
            EstimateReport("NoSuchEstimate", 1, 1.0, 10, (0.1, 0.2))

    def test_weight_spec_validation(self):
        with pytest.raises(ValueError):
            WeightSpec(1.0, 0.0, p=0.5)

    @pytest.mark.parametrize(
        "args, name",
        [((np.nan, 0.0, 2.0), "r"), ((0.0, np.inf, 2.0), "s"), ((0.0, 0.0, np.nan), "p"),
         ((0.0, 0.0, np.inf), "p")],
    )
    def test_weight_spec_nonfinite_rejected(self, args, name):
        """A NaN or infinite exponent is refused by name, never turned into
        an A_p constant of 0.0 or inf."""
        message = "exponent must be finite" if name == "p" else f"{name} must be finite"
        with pytest.raises(ValueError, match=message):
            WeightSpec(*args)

    def test_reproduce_or_raise(self):
        _reproduce_or_raise(1.0, 1.0 + 1e-8, 1e-6, "ok")
        with pytest.raises(EstimateAccuracyError):
            _reproduce_or_raise(1.0, 1.001, 1e-6, "drift")

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            FamilyBatch(JacobiParams(-0.8, 0.0), ("poisson",))
        with pytest.raises(ValueError):
            FamilyBatch(SQUARE, ("not_a_kernel",))


class TestLadderLogic:
    def test_verdicts(self):
        assert ladder_verdict([1.0, 1.2, 1.3, 1.31]) == "stable"
        assert ladder_verdict([1.0, 2.5, 6.0, 15.0]) == "diverging"
        assert ladder_verdict([1.0, 1.2, 1.5, 1.9]) == "inconclusive"
        assert ladder_verdict([1.0]) == "inconclusive"

    def test_infinite_sup_diverges(self):
        """An infinite constant diverges, with no NaN growth to make the
        ladder inconclusive."""
        assert ladder_verdict([np.inf] * 4) == "diverging"
        assert ladder_verdict([1.0, np.inf]) == "diverging"

    def test_assert_monotone_guard(self):
        """Nested grids can only raise a sup; a drop beyond rounding raises."""
        _assert_monotone([1.0, 1.0, 1.5], "flat then up")
        _assert_monotone([1.0, 1.0 - 1e-13], "rounding")
        with pytest.raises(AssertionError, match="drop: sup decreased"):
            _assert_monotone([1.5, 1.0], "drop")


def single_level(kernel_id, params, level):
    """estimate_id -> the one report of a single-level ladder run."""
    res = run_standard_ladders(params, (kernel_id,), levels=(level,))
    return {eid: lad.reports[0] for (kid, eid), lad in res.items() if kid == kernel_id}


class TestChecksSmoke:
    """Light end-to-end runs at the atomic parameters, where the axis rules
    collapse to two atoms and the grid costs stay small."""

    def test_check_growth_report(self):
        reps = single_level("poisson", ATOMIC, 1)
        assert set(reps) == {"Growth", "SmoothTheta", "SmoothPhi"}
        rep = reps["Growth"]
        assert rep.estimate_id == "Growth" and rep.grid_level == 1
        assert rep.sample_count == pair_grid(1).shape[0]
        assert rep.empirical_sup > 0.0
        assert len(rep.argmax_point) == 3  # includes the sup-attaining time

    def test_check_gradient_report(self):
        reps = single_level("riesz_odd", ATOMIC, 1)
        assert set(reps) == {"Growth", "Gradient"}
        rep = reps["Gradient"]
        assert rep.estimate_id == "Gradient"
        assert rep.empirical_sup > 0.0
        assert len(rep.argmax_point) == 2

    def test_check_smoothness_reports(self):
        reps = single_level("poisson_reflected", ATOMIC, 1)
        rth, rph = reps["SmoothTheta"], reps["SmoothPhi"]
        assert rth.estimate_id == "SmoothTheta"
        assert rph.estimate_id == "SmoothPhi"
        assert rth.empirical_sup > 0.0 and rph.empirical_sup > 0.0

    def test_standard_ladders_structure(self):
        res = run_standard_ladders(ATOMIC, levels=(1, 2))
        assert len(res) == 20
        for (kid, eid), lad in res.items():
            assert eid in ("Growth", "Gradient", "SmoothTheta", "SmoothPhi")
            sups = lad.sups
            assert len(sups) == 2
            assert sups[1] >= sups[0] * (1 - 1e-12)
            assert all(np.isfinite(s) and s > 0 for s in sups)
        gradient_ids = {k for (k, e) in res if e == "Gradient"}
        smooth_ids = {k for (k, e) in res if e == "SmoothTheta"}
        assert gradient_ids == {
            "riesz_even", "riesz_odd", "multiplier_laplace", "multiplier_atomic"
        }
        assert smooth_ids == {
            "poisson", "poisson_reflected", "square_even", "square_odd"
        }

    def test_profile_choice_changes_multiplier(self, monkeypatch):
        PROFILE_ONE = MultiplierProfile(fn=lambda t: np.ones_like(t))
        pairs = np.array([[1.0, 2.1]])
        b1 = FamilyBatch(ATOMIC, ("multiplier_laplace",))
        n1 = b1.values(pairs)[("norm", "multiplier_laplace")]
        monkeypatch.setattr(estimates, "PROFILE_SIGN", PROFILE_ONE)
        b2 = FamilyBatch(ATOMIC, ("multiplier_laplace",))
        n2 = b2.values(pairs)[("norm", "multiplier_laplace")]
        assert abs(n1[0] - n2[0]) > 1e-12
        # the constant profile telescopes to H(t_lo) - H(t_hi); at the
        # critical parameters the bottom eigenvalue is zero, so what remains
        # off the diagonal is the stationary mode 1/(2 pi)
        assert_allclose(n2[0], 1.0 / (2.0 * np.pi), rtol=1e-4)

    def test_custom_profile(self, monkeypatch):
        prof = MultiplierProfile(fn=lambda t: np.exp(-t))
        with monkeypatch.context() as patch:
            patch.setattr(estimates, "PROFILE_SIGN", prof)
            rep = single_level("multiplier_laplace", ATOMIC, 1)["Growth"]
        assert rep.empirical_sup > 0.0
        stock = single_level("multiplier_laplace", ATOMIC, 1)["Growth"]
        assert rep.empirical_sup != stock.empirical_sup


class TestLadderStore:
    """The ladders keep per-pair values across levels and refine the argmax
    pairs of each kernel in one batch per level."""

    def test_level_reports_independent_of_earlier_levels(self):
        """The value store reuses pairs of earlier levels, so a level's
        reports must be bitwise those of a run at that level alone."""
        both = run_standard_ladders(ATOMIC, levels=(1, 2))
        alone = run_standard_ladders(ATOMIC, levels=(2,))
        assert both.keys() == alone.keys()
        for key, lad in both.items():
            assert lad.reports[1] == alone[key].reports[0]

    def test_refined_checks_raise_on_drift(self, monkeypatch):
        monkeypatch.setattr(estimates, "REPRODUCE_TOL", -1.0)
        with pytest.raises(EstimateAccuracyError):
            run_standard_ladders(ATOMIC, ("poisson",), levels=(1,))

    def test_refined_checks_batched_per_kernel_and_level(self, monkeypatch):
        """One refine-2 pass per kernel over the argmax pairs of all its
        levels: at most two profiles calls (the pairs and their moved
        points), on a single-kernel batch.  The passes run in this process,
        which counts them; pooled, they run in forked workers."""
        monkeypatch.setattr(estimates, "_sweep_workers", lambda n_tasks: 1)
        calls = []
        inner = FamilyBatch.profiles

        def counted(self, pairs, slots=("F",), refine=1):
            if refine == 2:
                calls.append(self.kernel_ids)
            return inner(self, pairs, slots, refine)

        monkeypatch.setattr(FamilyBatch, "profiles", counted)
        kids, levels = ("poisson", "riesz_odd"), (1, 2)
        run_standard_ladders(ATOMIC, kids, levels=levels)
        assert calls and set(calls) <= {(kid,) for kid in kids}
        for kid in kids:
            assert 0 < calls.count((kid,)) <= 2

    @pytest.mark.parametrize("params", [SQUARE, SKEWED])
    def test_blocked_values_equal_one_block(self, params, monkeypatch):
        """A level swept in many blocks of unordered pairs gives, pair by
        pair, bitwise the values of one block holding the whole level, from
        as many moment calls: a pair, its swap and their moved pairs share a
        block, so each is computed once."""
        batch = FamilyBatch(params)
        pairs = pair_grid(2)
        # forked workers' moment calls are not counted here
        monkeypatch.setattr(estimates, "_sweep_workers", lambda n_blocks: 1)
        calls = TestSwapReuse._count_moments(monkeypatch)
        monkeypatch.setattr(core, "SWEEP_BYTES", 1 << 40)
        assert len(batch._pair_blocks(pairs)) == 1
        whole = batch.values(pairs)
        n_whole = len(calls)
        # about 40 unordered pairs per block
        monkeypatch.setattr(core, "SWEEP_BYTES", 40 * 8 * 6 * 2 * 3 * 6 * batch.t_head.size)
        assert len(batch._pair_blocks(pairs)) > 10
        blocked = batch.values(pairs)
        assert len(calls) - n_whole == n_whole
        assert blocked.keys() == whole.keys()
        for key, v in whole.items():
            assert np.array_equal(blocked[key], v, equal_nan=True), key

    def test_ladders_peak_in_bounded_memory(self, monkeypatch):
        """The ladders hold one block of a level's pairs at a time: levels
        1-2 at (0.5, 2) peak at about 23 MiB under tracemalloc, below 32 MiB
        (42 MiB when a level was one block; levels 1-4 went from 207 MiB to
        about 28 MiB).  The sweep runs in this process, which tracemalloc
        sees; a pooled sweep holds one block per worker."""
        monkeypatch.setattr(estimates, "_sweep_workers", lambda n_blocks: 1)
        tracemalloc.start()
        try:
            run_standard_ladders(SKEWED, levels=(1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @staticmethod
    def _small_blocks(monkeypatch, batch, pairs):
        """Shrink the blocks to about 40 unordered pairs; returns their count."""
        monkeypatch.setattr(core, "SWEEP_BYTES", 40 * 8 * 6 * 2 * 3 * 6 * batch.t_head.size)
        n_blocks = len(batch._pair_blocks(pairs))
        assert n_blocks > 2
        return n_blocks

    @staticmethod
    def _assert_same_values(got, want):
        assert got.keys() == want.keys()
        for key, v in want.items():
            assert np.array_equal(got[key], v, equal_nan=True), key

    @pytest.mark.parametrize("params", [SQUARE, SKEWED, JacobiParams(8.0, 7.5)])
    def test_pooled_sweep_equals_in_process(self, params, monkeypatch):
        """Two forked workers, on any number of CPUs, give key by key the
        bits of the in-process sweep, and no child outlives a call."""
        batch = FamilyBatch(params)
        pairs = pair_grid(2)
        self._small_blocks(monkeypatch, batch, pairs)
        monkeypatch.setattr(estimates, "_sweep_workers", lambda n_blocks: 1)
        alone = batch.values(pairs)
        assert not multiprocessing.active_children()
        monkeypatch.setattr(estimates, "_sweep_workers", lambda n_blocks: 2)
        pooled = batch.values(pairs)
        assert not multiprocessing.active_children()
        self._assert_same_values(pooled, alone)

    def test_pooled_sweep_passes_on_a_worker_error(self, monkeypatch):
        """A block that raises in a worker raises the same exception type in
        the caller, and no child is left."""
        batch = FamilyBatch(SQUARE)
        pairs = pair_grid(1)
        self._small_blocks(monkeypatch, batch, pairs)
        marked = pairs[batch._pair_blocks(pairs)[1][0]]
        inner = FamilyBatch._block_values

        def failing(self, prs, refine):
            if (prs == marked).all(axis=1).any():
                raise ZeroDivisionError("block fault")
            return inner(self, prs, refine)

        monkeypatch.setattr(FamilyBatch, "_block_values", failing)
        monkeypatch.setattr(estimates, "_sweep_workers", lambda n_blocks: 2)
        with pytest.raises(ZeroDivisionError, match="block fault"):
            batch.values(pairs)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("case", ["one block", "one CPU", "no fork", "thread", "daemon"])
    def test_sweep_falls_back_in_process(self, case, monkeypatch):
        """Each fallback alone gives one worker, the in-process loop, where
        two usable CPUs would give two; under a running thread and in a
        daemonic process, values gives the bits of the pooled sweep."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        batch = FamilyBatch(SKEWED)
        pairs = pair_grid(1)
        n_blocks = self._small_blocks(monkeypatch, batch, pairs)
        assert estimates._sweep_workers(n_blocks) == 2
        if case == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        if case in ("one block", "one CPU", "no fork"):
            assert estimates._sweep_workers(1 if case == "one block" else n_blocks) == 1
            return
        with monkeypatch.context() as patch:
            patch.setattr(estimates, "_sweep_workers", lambda n: 2)
            pooled = batch.values(pairs)
        if case == "thread":
            stop = threading.Event()
            other = threading.Thread(target=stop.wait)
            other.start()
            try:
                workers = estimates._sweep_workers(n_blocks)
                vals = batch.values(pairs)
            finally:
                stop.set()
                other.join(60)
            assert not other.is_alive()
        else:
            ctx = multiprocessing.get_context("fork")
            recv, send = ctx.Pipe(duplex=False)

            def run():
                send.send((estimates._sweep_workers(n_blocks), batch.values(pairs)))

            child = ctx.Process(target=run, daemon=True)
            child.start()
            send.close()  # a child that dies unsent then reads as EOF here
            try:
                assert recv.poll(300)
                workers, vals = recv.recv()
            finally:
                recv.close()
                child.join(60)
            assert child.exitcode == 0
        assert workers == 1
        assert not multiprocessing.active_children()
        self._assert_same_values(vals, pooled)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this thread when the block runs longer than
    seconds, so that a pool wait that never returns fails the test; forked
    workers do not inherit the alarm."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSuitePool:
    """One task queue runs the whole estimates suite: the kernels' union
    blocks, the lemma ladders, the exact reports and the refine-2 passes."""

    SUITE = ["verify", "--suite", "estimates", "--level", "2", "--seed", "3"]

    @staticmethod
    def _report(monkeypatch, path, argv, workers=None):
        """The report bytes of argv, with estimates._sweep_workers pinned to
        workers or, with None, left free; and the worker counts it gave."""
        counts, free = [], estimates._sweep_workers

        def recorded(n_tasks):
            counts.append(free(n_tasks) if workers is None else workers)
            return counts[-1]

        with monkeypatch.context() as patch, _deadline(600):
            patch.setattr(estimates, "_sweep_workers", recorded)
            main(argv + ["--out", str(path)])
        assert not multiprocessing.active_children()
        return path.read_bytes(), counts

    @pytest.mark.parametrize("alpha, beta", [("0", "0"), ("0.5", "2")])
    def test_pooled_suite_report_equals_in_process(self, alpha, beta, tmp_path, monkeypatch):
        """The estimates report has the same bytes from the suite's pool as
        from this process alone; on more than one usable CPU the free run
        takes a pool."""
        argv = self.SUITE + ["--alpha", alpha, "--beta", beta]
        alone, counts = self._report(monkeypatch, tmp_path / "alone.json", argv, workers=1)
        assert counts == [1]
        pooled, counts = self._report(monkeypatch, tmp_path / "pooled.json", argv)
        assert len(counts) == 1
        if estimates._sweep_workers(2) > 1:
            assert counts[0] > 1
        assert pooled == alone

    @staticmethod
    def _alone_and_pooled(monkeypatch, call):
        """call() with the task queue pinned to this process and left free,
        and the worker counts the free run gave; no child outlives either."""
        counts, free = [], estimates._sweep_workers

        def recorded(n_tasks):
            counts.append(free(n_tasks))
            return counts[-1]

        with monkeypatch.context() as patch, _deadline(900):
            patch.setattr(estimates, "_sweep_workers", lambda n_tasks: 1)
            alone = call()
        with monkeypatch.context() as patch, _deadline(900):
            patch.setattr(estimates, "_sweep_workers", recorded)
            pooled = call()
        assert not multiprocessing.active_children()
        return alone, pooled, counts

    def test_pooled_ladders_equal_in_process_at_large_alpha_beta(self, monkeypatch):
        """run_standard_ladders at (8, 7.5), levels 1-3, gives equal ladders
        with the sweep in this process and left free."""
        params = JacobiParams(8.0, 7.5)
        alone, pooled, _ = self._alone_and_pooled(
            monkeypatch, lambda: run_standard_ladders(params, levels=(1, 2, 3))
        )
        assert pooled == alone

    def test_pooled_lemma_ladder_equals_in_process(self, monkeypatch):
        """A product lemma's ladder on its own, lemma_levels(SKEWED,
        "L43Star", (1, 2)), is equal with its union sweep and refine-2 pass
        in this process and left free; on more than one usable CPU the free
        run takes a pool."""
        alone, pooled, counts = self._alone_and_pooled(
            monkeypatch, lambda: lemma_levels(SKEWED, "L43Star", (1, 2))
        )
        assert len(counts) == 1
        if estimates._sweep_workers(2) > 1:
            assert counts[0] > 1
        assert pooled == alone

    # each fault's error, in the order a sequential run meets them: the
    # kernels first, then the lemmas in the order of LEMMA_IDS
    FAULTS = {
        "refine": "[square_odd]",
        "drift": "Bridge2: argmax value",
        "lemma": "L43Star: injected",
        "task": "Asympt: injected",
    }

    @pytest.mark.parametrize(
        "faults",
        [
            ("lemma",), ("refine",), ("lemma", "refine"), ("drift",), ("task",),
            ("drift", "lemma"), ("lemma", "task"), ("drift", "task"),
            ("refine", "drift", "lemma", "task"),
        ],
    )
    def test_pooled_suite_raises_the_in_process_error(self, faults, tmp_path, monkeypatch):
        """Faults in each place the suite runs a ladder give the report error
        of the in-process suite, the one a sequential run meets first (see
        FAULTS): an EstimateAccuracyError raised in the L43Star refine-2
        pass ("lemma") or in the Asympt task ("task"), and refine-2 values
        that drift by 1%, so that the check in this process raises, of the
        square_odd kernel ("refine") or of the Bridge2 lemma ("drift").  No
        child outlives either run."""
        ratio = estimates._bridge_ratio

        def faulty(params, pairs, which, refine=1):
            if "lemma" in faults and refine == 2 and "L43Star" in which:
                raise EstimateAccuracyError("L43Star: injected fault")
            out = ratio(params, pairs, which, refine)
            if "drift" in faults and refine == 2 and which == ("Bridge2",):
                out = tuple(v * 1.01 for v in out)
            return out

        monkeypatch.setattr(estimates, "_bridge_ratio", faulty)
        if "task" in faults:

            def failing(params, grid_level):
                raise EstimateAccuracyError("Asympt: injected fault")

            monkeypatch.setattr(estimates, "_asympt_report", failing)
        if "refine" in faults:
            block = FamilyBatch._block_values

            def drifting(self, pairs, refine):
                out = block(self, pairs, refine)
                if refine == 2 and self.kernel_ids == ("square_odd",):
                    out = {key: v * 1.01 for key, v in out.items()}
                return out

            monkeypatch.setattr(FamilyBatch, "_block_values", drifting)
        errors = []
        for workers in (1, 2):
            text, _ = self._report(monkeypatch, tmp_path / f"{workers}.json", self.SUITE, workers)
            report = json.loads(text)
            assert report["passed"] is False and report["results"] == []
            errors.append(report["error"])
        assert errors[0] == errors[1]
        assert errors[0].startswith("suite estimates: EstimateAccuracyError: ")
        first = next(text for fault, text in self.FAULTS.items() if fault in faults)
        assert first in errors[0]

    @pytest.mark.parametrize("lemmas", [("Asympt", "L43Star"), ("L43Star", "Asympt")])
    def test_suite_raises_the_first_lemma_error_in_the_given_order(self, lemmas, monkeypatch):
        """With a fault in a product lemma's refine-2 pass and in another
        lemma's task, run_estimate_suite raises the error of the lemma
        given first, pooled and in process, and no child outlives it."""
        ratio = estimates._bridge_ratio

        def faulty(params, pairs, which, refine=1):
            if refine == 2:
                raise EstimateAccuracyError("L43Star: injected fault")
            return ratio(params, pairs, which, refine)

        def failing(params, grid_level):
            raise EstimateAccuracyError("Asympt: injected fault")

        monkeypatch.setattr(estimates, "_bridge_ratio", faulty)
        monkeypatch.setattr(estimates, "_asympt_report", failing)
        for workers in (1, 2):
            with monkeypatch.context() as patch, _deadline(600):
                patch.setattr(estimates, "_sweep_workers", lambda n_tasks: workers)
                with pytest.raises(EstimateAccuracyError, match=f"{lemmas[0]}: injected"):
                    run_estimate_suite(SQUARE, (1, 2), (), lemmas)
            assert not multiprocessing.active_children()

    def test_interrupt_leaves_no_child(self, monkeypatch):
        """A BaseException raised in this process at the suite's first
        kernel check, while the lemma tasks still run in the pool, reaches
        the caller, and no child outlives it."""

        class Interrupt(BaseException):
            pass

        parent, check = os.getpid(), estimates._reproduce_or_raise

        def interrupted(*args):
            if os.getpid() == parent:
                raise Interrupt
            return check(*args)

        monkeypatch.setattr(estimates, "_reproduce_or_raise", interrupted)
        monkeypatch.setattr(estimates, "_sweep_workers", lambda n_tasks: 2)
        with _deadline(600), pytest.raises(Interrupt):
            run_estimate_suite(SQUARE, (1, 2), lemmas=LEMMA_IDS, exact=(1_000_000, 3))
        assert not multiprocessing.active_children()


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas():
    """The thread getter and setter of numpy's OpenBLAS, found through
    numpy's compiled core module, or None where neither pair is."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        get, put = (f"{prefix}{verb}_num_threads{suffix}" for verb in ("get", "set"))
        if hasattr(lib, get) and hasattr(lib, put):
            get, put = getattr(lib, get), getattr(lib, put)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _worker_blas_threads():
    return _openblas()[0]()


class TestPoolBlasThreads:
    """The estimates pool sets one BLAS thread in each worker, whatever the
    thread count of the process that forks it and its environment."""

    def test_worker_runs_one_blas_thread(self):
        """With this process at two BLAS threads, every task of a two-worker
        pool reports one."""
        blas = _openblas()
        if blas is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread getter and setter")
        get, put = blas
        before = get()
        put(2)
        try:
            with _deadline(120), estimates._Tasks(2) as tasks:
                counts = [tasks.submit(_worker_blas_threads)() for _ in range(4)]
        finally:
            put(before)
        assert not multiprocessing.active_children()
        assert counts == [1, 1, 1, 1]

    def test_in_process_task_runs_one_blas_thread(self):
        """With this process at two BLAS threads, a task of a one-worker
        queue runs on one, and the process is back at two after it."""
        blas = _openblas()
        if blas is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread getter and setter")
        get, put = blas
        before = get()
        put(2)
        try:
            with estimates._Tasks(1) as tasks:
                count = tasks.submit(_worker_blas_threads)()
            after = get()
        finally:
            put(before)
        assert (count, after) == (1, 2)

    def test_pooled_ladders_equal_in_process_unpinned(self):
        """In a process whose environment has no BLAS thread variables,
        run_standard_ladders at (8, 7.5), levels 1-2, gives equal ladders
        from the pool and in process; on more than one usable CPU the first
        run takes a pool."""
        script = (
            "from symjacobi import estimates\n"
            "from symjacobi.core import JacobiParams\n"
            "params, free, counts = JacobiParams(8.0, 7.5), estimates._sweep_workers, []\n"
            "estimates._sweep_workers = lambda n: counts.append(free(n)) or counts[-1]\n"
            "pooled = estimates.run_standard_ladders(params, levels=(1, 2))\n"
            "estimates._sweep_workers = lambda n: 1\n"
            "alone = estimates.run_standard_ladders(params, levels=(1, 2))\n"
            "print(pooled == alone, counts[0] > 1 or free(2) == 1)\n"
        )
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
        src = str(Path(estimates.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "True"]


class TestLemmaSamplers:
    def test_trig_bound_and_monotone(self):
        """|d_theta q| / sqrt(q) stays below 1/sqrt(2) on growing samples."""
        sups = [lemma_levels(SKEWED, "Trig", (lv,)).reports[0].empirical_sup for lv in (1, 2)]
        assert sups[1] >= sups[0]
        assert sups[1] <= 2.0 ** -0.5 + 1e-12
        assert sups[1] > 0.69

    def test_comp_bounded(self):
        sups = [lemma_levels(SKEWED, "Comp", (lv,)).reports[0].empirical_sup for lv in (1, 2)]
        assert sups[1] >= sups[0]
        assert 1.0 < sups[1] < 3.0

    def test_asympt_bounded(self):
        sups = [lemma_levels(SKEWED, "Asympt", (lv,)).reports[0].empirical_sup for lv in (1, 2)]
        assert sups[1] >= sups[0]
        assert 0.2 < sups[1] < 0.3

    @pytest.mark.parametrize("which", ["Bridge1", "Bridge2", "L43Star"])
    def test_bridge_family_monotone(self, which):
        r1 = lemma_levels(SQUARE, which, (1,)).reports[0]
        r2 = lemma_levels(SQUARE, which, (2,)).reports[0]
        assert r2.empirical_sup >= r1.empirical_sup * (1 - 1e-12)
        assert r1.estimate_id == which

    def test_asympt_overflow_is_silent(self):
        """From alpha + beta = 10 the Asympt denominator overflows at the
        largest times; the quotient's limit there is 0, and no warning
        reaches the caller."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = lemma_levels(JacobiParams(8.0, 7.5), "Asympt", (1,)).reports[0]
        assert np.isfinite(rep.empirical_sup) and rep.empirical_sup > 0.0

    def test_l43_custom_exponents(self, monkeypatch):
        monkeypatch.setattr(estimates, "L43_EXPONENTS", (0.5, 1.0, 0.5, 0.0, 0.5))
        rep = lemma_levels(SQUARE, "L43Star", (1,)).reports[0]
        assert rep.empirical_sup > 0.0

    def test_unknown_sampler(self):
        with pytest.raises(ValueError):
            lemma_levels(SQUARE, "NoSuchLemma", (1,)).reports[0]

    def test_determinism(self):
        a = lemma_levels(SKEWED, "Trig", (2,)).reports[0]
        b = lemma_levels(SKEWED, "Trig", (2,)).reports[0]
        assert a == b

    @pytest.mark.parametrize("which", ["Bridge1", "Bridge2", "L43Star", "Trig", "Comp", "Asympt"])
    @pytest.mark.parametrize("params", [SQUARE, SKEWED])
    def test_nested_levels_equal_single_levels(self, params, which):
        """Evaluated once on the deepest samples, each level's report is
        bitwise the single-level sampler's: sup, argmax and sample count."""
        levels = lemma_levels(params, which, (1, 2)).reports
        assert [r.grid_level for r in levels] == [1, 2]
        for rep in levels:
            alone = lemma_levels(params, which, (rep.grid_level,)).reports[0]
            assert rep == alone and repr(rep) == repr(alone)

    def test_nested_levels_evaluate_the_union_once(self, monkeypatch):
        """A product lemma's ladder sweeps the union of the level grids once,
        its blocks' refine-1 calls covering each pair exactly once, and
        refines the distinct argmax pairs of its levels in one call."""
        calls = []
        inner = estimates._bridge_ratio

        def counted(params, pairs, which, refine=1):
            calls.append((pairs, refine))
            return inner(params, pairs, which, refine)

        monkeypatch.setattr(estimates, "_bridge_ratio", counted)
        monkeypatch.setattr(estimates, "_sweep_workers", lambda n_tasks: 1)
        lemma_levels(SQUARE, "Bridge1", (1, 2))
        swept = np.vstack([pairs for pairs, refine in calls if refine == 1])
        union = pair_grid(2)
        assert swept.shape == union.shape
        assert np.array_equal(np.unique(swept, axis=0), union)
        refined = [pairs.shape[0] for pairs, refine in calls if refine == 2]
        assert len(refined) == 1 and 1 <= refined[0] <= 2

    @pytest.mark.parametrize("params", [SQUARE, SKEWED])
    def test_bridges_share_one_sweep(self, params, monkeypatch):
        """Bridge1 and Bridge2 take one sweep that builds each pair's rule
        once, as many as either alone, and their ratios are bitwise those of
        each alone, also beside L43Star, which has a shift of its own.  In
        the suite they share each block's call, and their ladders are those
        of each alone."""
        union, _ = estimates._pair_union((1, 2))
        builds, alone = [], []
        for which in (("Bridge1",), ("Bridge2",), ("Bridge1", "Bridge2")):
            product._corner_rule.cache_clear()
            alone += estimates._bridge_ratio(params, union, which=which)
            builds.append(product._corner_rule.cache_info().misses)
        assert builds[0] == builds[1] == builds[2]
        for one, both in zip(alone[:2], alone[2:]):
            assert np.array_equal(one, both)
        (l43,) = estimates._bridge_ratio(params, union, which=("L43Star",))
        mixed = estimates._bridge_ratio(params, union, which=("Bridge2", "L43Star", "Bridge1"))
        for one, got in zip((alone[1], l43, alone[0]), mixed):
            assert np.array_equal(one, got)
        calls, inner = [], estimates._bridge_ratio

        def recorded(params, pairs, which, refine=1):
            calls.append((which, refine))
            return inner(params, pairs, which, refine)

        with monkeypatch.context() as patch:
            patch.setattr(estimates, "_bridge_ratio", recorded)
            patch.setattr(estimates, "_sweep_workers", lambda n_tasks: 1)
            both = run_estimate_suite(params, (1, 2), (), ("Bridge1", "Bridge2"))[1]
        assert {which for which, refine in calls if refine == 1} == {("Bridge1", "Bridge2")}
        assert both == {w: lemma_levels(params, w, (1, 2)) for w in ("Bridge1", "Bridge2")}

    @pytest.mark.parametrize("which", ["Trig", "Comp"])
    def test_chunked_samples_equal_the_whole_set(self, which):
        """Drawn and swept chunk by chunk, the Trig and Comp reports equal
        those of the whole sample set at once: sup, count and argmax.  No
        level's count, 100 000 2^(l - 1), is a multiple of the chunk."""
        assert all(estimates.NESTED_BASE * 2**lv % estimates.EXACT_CHUNK for lv in range(3))
        levels = (1, 2, 3)
        assert lemma_levels(SKEWED, which, levels).reports == nested_lemma_reports(which, levels)

    @pytest.mark.parametrize("which", ["Trig", "Comp"])
    def test_level_ends_inside_a_chunk_sweep(self, which, monkeypatch):
        """Several chunks per level, each level's samples ending inside a
        chunk, and the levels asked out of order: still the whole-set
        reports."""
        monkeypatch.setattr(estimates, "NESTED_BASE", 1000)
        monkeypatch.setattr(estimates, "EXACT_CHUNK", 300)
        levels = (3, 1, 2)
        assert lemma_levels(SKEWED, which, levels).reports == nested_lemma_reports(which, levels)


class TestExactLemmas:
    def test_spot_values(self):
        th, ph = 1.0, 2.0
        denom = (th + ph) ** 2 * (2 * np.pi - th - ph) ** 2
        qa, qb = lemma_estimates_exact(th, ph)
        assert_allclose(qa, abs(th - ph) * ph * (np.pi - ph) / denom, rtol=1e-14)
        assert_allclose(qb, th * ph * (np.pi - th) * (np.pi - ph) / denom, rtol=1e-14)

    def test_moved_point_constraint(self):
        qa, qb = lemma_estimates_exact(1.0, 2.0, theta_tilde=1.4)
        assert qa <= 1.0 and qb <= 1.0
        with pytest.raises(ValueError):
            lemma_estimates_exact(1.0, 2.0, theta_tilde=1.6)
        with pytest.raises(ValueError):
            lemma_estimates_exact(-0.1, 2.0)

    def test_report_bounds(self):
        ra, rb = exact_lemma_report(n_samples=200_000, seed=3)
        assert ra.empirical_sup <= 1.0 + 1e-12
        assert rb.empirical_sup <= 1.0 + 1e-12
        assert ra.empirical_sup > 0.05 and rb.empirical_sup > 0.05

    def test_report_deterministic(self):
        a = exact_lemma_report(n_samples=50_000, seed=11)
        b = exact_lemma_report(n_samples=50_000, seed=11)
        assert a == b

    @pytest.mark.parametrize("n_samples", [1, estimates.EXACT_CHUNK, 200_003])
    def test_chunked_sweep_equals_one_draw(self, n_samples):
        """The chunked sweep is bitwise the sweep of one default_rng(seed)
        drawing theta, phi and the offset of theta~ n_samples at a time,
        first argmax included."""
        rng = np.random.default_rng(7)
        th = rng.uniform(0.0, np.pi, n_samples)
        ph = rng.uniform(0.0, np.pi, n_samples)
        tht = th + rng.uniform(-0.5, 0.5, n_samples) * np.abs(th - ph)
        tht = np.clip(tht, 1e-12, np.pi - 1e-12)
        got = exact_lemma_report(n_samples=n_samples, seed=7)
        for rep, quot in zip(got, estimates._exact_quotients(th, ph, tht)):
            k = int(np.argmax(quot))
            assert rep.empirical_sup == quot[k] and rep.sample_count == n_samples
            assert rep.argmax_point == (th[k], ph[k])


class TestMuckenhoupt:
    def test_constant_weight_is_one(self):
        assert ap_constant(WeightSpec(0.0, 0.0), SQUARE) == 1.0

    def test_power_weight_a1_closed_form(self):
        """At alpha = beta = 0 and w = sin(theta/2)^(-1/2), the A_1 quotient
        on the full interval is avg(w) * sup(1/w) = 4/3."""
        c = ap_constant(WeightSpec(-0.5, 0.0, p=1.0), SQUARE)
        assert_allclose(c, 4.0 / 3.0, rtol=1e-6)

    @pytest.mark.parametrize("r, s", [(0.5, 0.0), (0.0, 0.25), (0.5, 0.25)])
    def test_a1_weight_with_a_zero_is_infinite(self, r, s):
        """A zero of w in a closed interval makes its A_1 quotient +inf, at
        every depth: theta = 0 for r > 0, theta = +-pi for s > 0."""
        for n in (0, 3, 6):
            assert ap_constant(WeightSpec(r, s, p=1.0), SQUARE, n_intervals=n) == np.inf

    def test_a1_interior_maximum(self):
        """For r, s < 0, 1/w peaks inside (0, pi) at 2 arctan(sqrt(r / s)),
        so every A_1 quotient is at least 1 (avg w >= ess inf w), depth 0
        included."""
        w = WeightSpec(-1.0, -0.5, p=1.0)
        consts = [ap_constant(w, SQUARE, n_intervals=n) for n in range(5)]
        assert min(consts) >= 1.0
        # at depth 0: avg w times sup 1/w = sin(x) cos(x)^(1/2), tan(x)^2 = 2
        x = np.arccos(np.arange(-1.0, 1.0, 1e-6) + 5e-7) / 2.0
        avg = np.mean(np.sin(x) ** -1.0 * np.cos(x) ** -0.5)
        assert_allclose(consts[0], avg * (2 / 3) ** 0.5 * (1 / 3) ** 0.25, rtol=1e-3)

    def test_member_window(self):
        assert ap_member(WeightSpec(1.0, -1.0), SQUARE)
        assert not ap_member(WeightSpec(2.5, 0.0), SQUARE)
        assert ap_member(WeightSpec(2.5, 0.0), SKEWED)
        assert ap_member(WeightSpec(-0.5, 0.0, p=1.0), SQUARE)
        assert not ap_member(WeightSpec(0.5, 0.0, p=1.0), SQUARE)
        with pytest.raises(ValueError):
            ap_member(WeightSpec(0.0, 0.0), SQUARE, p=0.8)

    def test_in_range_weight_stable(self):
        cs = [ap_constant(WeightSpec(1.0, -1.0), SQUARE, n_intervals=n) for n in (3, 4, 5, 6)]
        assert_allclose(cs[-1], 2.4674, rtol=1e-3)
        assert cs[-1] / cs[-2] < 1.05

    def test_out_of_range_weight_diverges(self):
        cs = [ap_constant(WeightSpec(2.5, 0.0), SQUARE, n_intervals=n) for n in (3, 4, 5, 6)]
        ratios = [b / a for a, b in zip(cs, cs[1:])]
        assert all(r > 1.3 for r in ratios)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            ap_constant(WeightSpec(0.0, 0.0), SQUARE, p=0.5)

    @pytest.mark.parametrize("p", [np.nan, np.inf])
    def test_nonfinite_exponent_argument_rejected(self, p):
        for fn in (ap_constant, ap_member):
            with pytest.raises(ValueError, match="exponent must be finite"):
                fn(WeightSpec(1.0, 0.0), SQUARE, p)
