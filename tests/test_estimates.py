"""Tests for the estimate harness: grids, product-rule evaluator, ladders,
lemma samplers and Muckenhoupt constants.

The frozen constants were measured with this harness and cross-checked
against the series route where both apply; closed forms (axis-rule moments,
the constant weight, the p = 1 power weight) serve as independent oracles.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symjacobi import product
from symjacobi.core import JacobiParams, total_mass
from symjacobi.estimates import (
    MIN_DISTANCE,
    PROFILE_ONE,
    PROFILE_SIGN,
    EstimateAccuracyError,
    EstimateReport,
    FamilyBatch,
    KERNEL_IDS,
    MultiplierProfile,
    WeightSpec,
    _assert_monotone,
    _dyadic_log,
    _eval_pair_block,
    _FAMILY,
    _nested_samples,
    _reproduce_or_raise,
    _time_panels,
    ap_constant,
    ap_member,
    exact_lemma_report,
    ladder_verdict,
    lemma_estimates_exact,
    lemma_samplers,
    pair_grid,
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

    def test_nested_samples_prefix(self):
        s1 = _nested_samples(7, 1, base=500)
        s2 = _nested_samples(7, 2, base=500)
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
        _eval_pair_block(batch, pairs, {}, ["a", "b"])
        assert len(calls) == 1 + 2


class TestRouteAgreement:
    """The product-rule head and the mode-sum tail are independent routes to
    the same profiles; near the splice both must agree."""

    @pytest.mark.parametrize("params", [SQUARE, SKEWED])
    def test_head_matches_series(self, params):
        t = np.array([0.35, 0.5])
        checks = [
            ("H", ("even", 0, 0, 0)),
            ("H_dth", ("even", 1, 0, 0)),
            ("H_dt_dth", ("even", 1, 0, 1)),
            ("Ht", ("odd", 0, 0, 0)),
            ("Ht_dt_low", ("odd", "low", 0, 1)),
            ("Ht_low_dth", ("odd", "low1", 0, 0)),
        ]
        for th, ph in ((0.9, 1.7), (2.4, 3.0)):
            head = HeadKernels(params, th, ph, t)
            for name, (parity, th_op, ph_op, m_t) in checks:
                hv = getattr(head, name)()[:, 0]
                tv = mode_sum(params, parity, t, th, ph, th_op, ph_op, m_t)[:, 0]
                assert_allclose(hv, tv, rtol=2e-7, atol=1e-12)

    def test_refine_reproduces(self):
        batch = FamilyBatch(SKEWED, ("poisson", "riesz_odd"))
        pairs = np.array([[1.1, 1.9], [2.9, 3.05]])
        for kid in ("poisson", "riesz_odd"):
            n1, _ = batch.norms(pairs)[kid]
            n2, _ = batch.norms(pairs, refine=2)[kid]
            assert_allclose(n1, n2, rtol=1e-6)


class TestReports:
    def test_estimate_report_validation(self):
        with pytest.raises(ValueError):
            EstimateReport("NoSuchEstimate", 1, 1.0, 10, (0.1, 0.2))

    def test_weight_spec_validation(self):
        with pytest.raises(ValueError):
            WeightSpec(1.0, 0.0, p=0.5)

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

    def test_assert_monotone_guard(self):
        """Nested grids can only raise a sup; a drop beyond rounding raises."""
        _assert_monotone([1.0, 1.0, 1.5], "flat then up")
        _assert_monotone([1.0, 1.0 - 1e-13], "rounding")
        with pytest.raises(AssertionError, match="drop: sup decreased"):
            _assert_monotone([1.5, 1.0], "drop")


def single_level(kernel_id, params, level, **kw):
    """estimate_id -> the one report of a single-level ladder run."""
    res = run_standard_ladders(params, (kernel_id,), levels=(level,), **kw)
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

    def test_profile_choice_changes_multiplier(self):
        pairs = np.array([[1.0, 2.1]])
        b1 = FamilyBatch(ATOMIC, ("multiplier_laplace",), profile=PROFILE_SIGN)
        b2 = FamilyBatch(ATOMIC, ("multiplier_laplace",), profile=PROFILE_ONE)
        n1, _ = b1.norms(pairs)["multiplier_laplace"]
        n2, _ = b2.norms(pairs)["multiplier_laplace"]
        assert abs(n1[0] - n2[0]) > 1e-12
        # the constant profile telescopes to H(t_lo) - H(t_hi); at the
        # critical parameters the bottom eigenvalue is zero, so what remains
        # off the diagonal is the stationary mode 1/(2 pi)
        assert_allclose(n2[0], 1.0 / (2.0 * np.pi), rtol=1e-4)

    def test_custom_profile(self):
        prof = MultiplierProfile(fn=lambda t: np.exp(-t), name="exp")
        rep = single_level("multiplier_laplace", ATOMIC, 1, profile=prof)["Growth"]
        assert rep.empirical_sup > 0.0
        stock = single_level("multiplier_laplace", ATOMIC, 1)["Growth"]
        assert rep.empirical_sup != stock.empirical_sup


class TestLemmaSamplers:
    def test_trig_bound_and_monotone(self):
        """|d_theta q| / sqrt(q) stays below 1/sqrt(2) on growing samples."""
        sups = [lemma_samplers(SKEWED, "Trig", lv).empirical_sup for lv in (1, 2)]
        assert sups[1] >= sups[0]
        assert sups[1] <= 2.0 ** -0.5 + 1e-12
        assert sups[1] > 0.69

    def test_comp_bounded(self):
        sups = [lemma_samplers(SKEWED, "Comp", lv).empirical_sup for lv in (1, 2)]
        assert sups[1] >= sups[0]
        assert 1.0 < sups[1] < 3.0

    def test_asympt_bounded(self):
        sups = [lemma_samplers(SKEWED, "Asympt", lv).empirical_sup for lv in (1, 2)]
        assert sups[1] >= sups[0]
        assert 0.2 < sups[1] < 0.3

    @pytest.mark.parametrize("which", ["Bridge1", "Bridge2", "L43Star"])
    def test_bridge_family_monotone(self, which):
        r1 = lemma_samplers(SQUARE, which, 1)
        r2 = lemma_samplers(SQUARE, which, 2)
        assert r2.empirical_sup >= r1.empirical_sup * (1 - 1e-12)
        assert r1.estimate_id == which

    def test_l43_custom_exponents(self):
        rep = lemma_samplers(SQUARE, "L43Star", 1, l43_exponents=(0.5, 1.0, 0.5, 0.0, 0.5))
        assert rep.empirical_sup > 0.0

    def test_unknown_sampler(self):
        with pytest.raises(ValueError):
            lemma_samplers(SQUARE, "NoSuchLemma", 1)

    def test_determinism(self):
        a = lemma_samplers(SKEWED, "Trig", 2)
        b = lemma_samplers(SKEWED, "Trig", 2)
        assert a == b


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


class TestMuckenhoupt:
    def test_constant_weight_is_one(self):
        assert ap_constant(WeightSpec(0.0, 0.0), SQUARE) == 1.0

    def test_power_weight_a1_closed_form(self):
        """At alpha = beta = 0 and w = sin(theta/2)^(-1/2), the A_1 quotient
        on the full interval is avg(w) * sup(1/w) = 4/3."""
        c = ap_constant(WeightSpec(-0.5, 0.0, p=1.0), SQUARE)
        assert_allclose(c, 4.0 / 3.0, rtol=1e-6)

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
