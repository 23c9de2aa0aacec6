"""Tests for the progressive ply-failure simulation.

Frozen rung values come from ``tests/ladder_oracle.py`` (independent scalar
implementation); a sampled cross-check against the oracle runs here too,
with the full sweep living in the acceptance suite.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import ladder_oracle

from plytamper.clt import (
    Laminate,
    LaminateSingularError,
    LoadCase,
    NoLoadedPlyError,
    MaterialProperties,
    Ply,
)
from plytamper.failure import (
    FailureLadder,
    FailureMode,
    FailureRung,
    classify_failure_mode,
    first_ply_failure,
    simulate_progressive_failure,
    ties_at_minimum,
)


@pytest.fixture(scope="module")
def graphite_epoxy():
    return MaterialProperties(
        e1=181e9, e2=10.3e9, g12=7.17e9, nu12=0.28,
        sigma1t_ult=1500e6, sigma1c_ult=1500e6,
        sigma2t_ult=40e6, sigma2c_ult=246e6, tau12_ult=68e6,
    )


ORACLE_MATERIAL = dict(e1=181e9, e2=10.3e9, g12=7.17e9, nu12=0.28,
                       s1t=1500e6, s1c=1500e6, s2t=40e6, s2c=246e6,
                       t12u=68e6)

AXIAL = LoadCase(n=(1.0, 0.0, 0.0))


# =============================================================================
# Tie detection
# =============================================================================

class TestTiesAtMinimum:

    def test_single_minimum(self):
        assert ties_at_minimum([3.0, 1.0, 2.0]) == {1}

    def test_exact_tie(self):
        assert ties_at_minimum([2.0, 1.0, 1.0, 5.0]) == {1, 2}

    def test_tie_within_relative_tolerance(self):
        low = 100.0
        assert ties_at_minimum([low, low * (1.0 + 1e-10), low * 1.01]) == {0, 1}

    def test_just_outside_tolerance_not_tied(self):
        low = 100.0
        assert ties_at_minimum([low, low * (1.0 + 1e-8)]) == {0}

    def test_infinities_skipped(self):
        assert ties_at_minimum([math.inf, 2.0, math.inf]) == {1}

    def test_all_infinite_raises(self):
        with pytest.raises(NoLoadedPlyError):
            ties_at_minimum([math.inf, math.inf])


# =============================================================================
# Ladder simulation
# =============================================================================

@pytest.fixture(scope="module")
def crossply_ladder(graphite_epoxy):
    lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 90, 90, 0])
    return simulate_progressive_failure(lam, AXIAL)


class TestCrossPlyLadder:
    """The classic [0/90/90/0] stack under axial tension."""

    def test_exactly_two_rungs(self, crossply_ladder):
        assert len(crossply_ladder.rungs) == 2

    def test_inner_ninety_plies_fail_first(self, crossply_ladder):
        assert crossply_ladder.rungs[0].failed_plies == (1, 2)
        assert crossply_ladder.rungs[1].failed_plies == (0, 3)

    def test_frozen_multipliers(self, crossply_ladder):
        assert crossply_ladder.rungs[0].force_multiplier == pytest.approx(
            186697.75776186795, rel=1e-9)
        assert crossply_ladder.rungs[1].force_multiplier == pytest.approx(
            375000.0, rel=1e-9)

    def test_nothing_flagged(self, crossply_ladder):
        assert not any(r.flagged for r in crossply_ladder.rungs)

    def test_mode_is_progressive(self, crossply_ladder):
        assert classify_failure_mode(crossply_ladder) is FailureMode.PROGRESSIVE


class TestLadderBehaviour:

    def test_unloaded_survivor_is_a_numerical_failure(self, graphite_epoxy):
        """After 11 rungs only ply 7 survives, and it carries no stress.

        Its system is well conditioned (rcond about 5e-11), but its
        mid-thickness stress is exactly zero, so no strength ratio is
        finite. The independent oracle stops at the same point.
        """
        angles = [90, 15, 60, -30, 60, 90, -90, 0, -30, -90, -75, -45]
        m = (0.7172838643318087, -0.7464900405633892, -0.4064844632211011)
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
        with pytest.raises(NoLoadedPlyError):
            simulate_progressive_failure(lam, LoadCase(n=(0.0, 0.0, 0.0),
                                                       m=m))
        with pytest.raises(ArithmeticError, match="no loaded ply"):
            ladder_oracle.failure_ladder(ORACLE_MATERIAL, [0.125e-3] * 12,
                                         angles, (0.0, 0.0, 0.0), m)

    def test_rungs_need_not_increase(self, graphite_epoxy):
        """Load redistribution can drop the next rung below the last.

        Frozen example: [0/45/90] under biaxial tension loses the 90 ply,
        after which the 45 ply fails at two thirds of that multiplier.
        """
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 45, 90])
        ladder = simulate_progressive_failure(
            lam, LoadCase(n=(1.0, 0.2, 0.0)))
        mults = [r.force_multiplier for r in ladder.rungs]
        plies = [r.failed_plies for r in ladder.rungs]
        assert plies == [(2,), (1,), (0,)]
        assert mults[0] == pytest.approx(20884.256005110237, rel=1e-9)
        assert mults[1] == pytest.approx(13580.937754688925, rel=1e-9)
        assert mults[2] == pytest.approx(25821.788895543188, rel=1e-9)
        assert mults[1] < mults[0]

    def test_every_ply_fails_exactly_once(self, graphite_epoxy):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            angles = rng.uniform(-90.0, 90.0, size=n)
            lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
            load = LoadCase(n=tuple(rng.uniform(-1.0, 1.0, size=3)))
            if load.is_zero:
                continue
            ladder = simulate_progressive_failure(lam, load)
            seen = [i for r in ladder.rungs for i in r.failed_plies]
            assert sorted(seen) == list(range(n))

    def test_load_scaling_divides_multipliers(self, graphite_epoxy):
        """Doubling the reference load halves every rung, same groups."""
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 30, -30, 90])
        base = simulate_progressive_failure(lam, AXIAL)
        doubled = simulate_progressive_failure(lam, AXIAL.scaled(2.0))
        assert len(base.rungs) == len(doubled.rungs)
        for r1, r2 in zip(base.rungs, doubled.rungs):
            assert r1.failed_plies == r2.failed_plies
            assert r2.force_multiplier == pytest.approx(
                r1.force_multiplier / 2.0, rel=1e-9)

    def test_deterministic(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3,
                                   [10, -35, 80, 42, -71])
        load = LoadCase(n=(1.0, 0.3, -0.1))
        a = simulate_progressive_failure(lam, load)
        b = simulate_progressive_failure(lam, load)
        assert a.rungs == b.rungs
        assert a.sr_history == b.sr_history

    def test_sr_history_masks_failed_plies(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 90, 90, 0])
        ladder = simulate_progressive_failure(lam, AXIAL)
        assert len(ladder.sr_history) == 2
        assert all(math.isfinite(v) for v in ladder.sr_history[0])
        second = ladder.sr_history[1]
        assert second[1] == math.inf and second[2] == math.inf
        assert math.isfinite(second[0]) and math.isfinite(second[3])

    def test_zero_load_rejected(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 90])
        with pytest.raises(ValueError):
            simulate_progressive_failure(lam, LoadCase(n=(0.0, 0.0, 0.0)))

    def test_initially_singular_raises(self):
        """An intact laminate with no transverse or shear stiffness is
        singular from the start, so there is no rung to flag."""
        floppy = MaterialProperties(
            e1=1e9, e2=1e-12, g12=1e-12, nu12=0.3,
            sigma1t_ult=1e9, sigma1c_ult=1e9,
            sigma2t_ult=1e8, sigma2c_ult=1e8, tau12_ult=1e8,
        )
        lam = Laminate.from_angles(floppy, 1e-4, [0, 0])
        with pytest.raises(LaminateSingularError):
            simulate_progressive_failure(lam, AXIAL)

    def test_collapse_after_knockout_is_flagged(self, graphite_epoxy):
        """Survivors of a numerically collapsed stack land in a flagged rung.

        A wafer-thin 0 ply far off the mid-plane leaves a system whose
        bending block is linearly dependent on the membrane block once the
        thick 90 ply is gone.
        """
        lam = Laminate((
            Ply(90.0, 0.1, graphite_epoxy),
            Ply(0.0, 1e-9, graphite_epoxy),
        ))
        ladder = simulate_progressive_failure(lam, AXIAL)
        assert ladder.rungs[0].failed_plies == (0,)
        assert not ladder.rungs[0].flagged
        last = ladder.rungs[-1]
        assert last.flagged
        assert last.failed_plies == (1,)
        assert last.force_multiplier == ladder.rungs[0].force_multiplier
        seen = [i for r in ladder.rungs for i in r.failed_plies]
        assert sorted(seen) == [0, 1]

    def test_symmetric_pairs_fail_together(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3,
                                   [45, 0, 0, 45])
        ladder = simulate_progressive_failure(lam, AXIAL)
        for rung in ladder.rungs:
            mirrored = {lam.n_plies - 1 - i for i in rung.failed_plies}
            assert mirrored == set(rung.failed_plies)


class TestFirstPlyFailure:

    def test_matches_first_rung(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 55, -20, 90])
        load = LoadCase(n=(1.0, 0.1, 0.05))
        ladder = simulate_progressive_failure(lam, load)
        mult, sr = first_ply_failure(lam, load)
        assert mult == ladder.rungs[0].force_multiplier
        assert np.array_equal(sr, np.array(ladder.sr_history[0]))

    def test_zero_load_rejected(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0])
        with pytest.raises(ValueError):
            first_ply_failure(lam, LoadCase(n=(0.0, 0.0, 0.0)))

    def test_unstressed_single_ply_raises(self, graphite_epoxy):
        """Pure bending leaves a lone ply's mid-plane exactly unstressed."""
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [30])
        with pytest.raises(NoLoadedPlyError):
            first_ply_failure(lam, LoadCase(n=(0.0, 0.0, 0.0),
                                            m=(1.0, 0.0, 0.0)))


# =============================================================================
# Mode classification
# =============================================================================

class TestClassifyFailureMode:

    def _ladder(self, multipliers):
        rungs = tuple(
            FailureRung(force_multiplier=m, failed_plies=(i,))
            for i, m in enumerate(multipliers)
        )
        return FailureLadder(rungs=rungs, load=AXIAL, sr_history=())

    def test_single_rung_is_catastrophic(self):
        assert classify_failure_mode(self._ladder([1000.0])) \
            is FailureMode.CATASTROPHIC

    def test_tight_ladder_is_catastrophic(self):
        assert classify_failure_mode(self._ladder([1000.0, 1040.0])) \
            is FailureMode.CATASTROPHIC

    def test_spread_ladder_is_progressive(self):
        assert classify_failure_mode(self._ladder([1000.0, 1060.0])) \
            is FailureMode.PROGRESSIVE

    def test_threshold_is_strict(self):
        ladder = self._ladder([1000.0, 1050.0])
        assert classify_failure_mode(ladder) is FailureMode.PROGRESSIVE

    def test_threshold_override(self):
        ladder = self._ladder([1000.0, 1040.0])
        assert classify_failure_mode(ladder, gap_ratio_threshold=0.03) \
            is FailureMode.PROGRESSIVE


# =============================================================================
# Cross-check against the scalar oracle
# =============================================================================

class TestAgainstOracle:

    def test_random_laminates_match_rung_for_rung(self, graphite_epoxy):
        """Sampled comparison on a 5-degree angle grid (full run: acceptance)."""
        rng = np.random.default_rng(71)
        grid = np.arange(-90, 91, 5, dtype=float)
        t = 0.125e-3
        for _ in range(10):
            n = int(rng.integers(1, 5))
            angles = list(rng.choice(grid, size=n))
            load_n = tuple(rng.uniform(-1.0, 1.0, size=3))
            if all(v == 0.0 for v in load_n):
                continue
            lam = Laminate.from_angles(graphite_epoxy, t, angles)
            ladder = simulate_progressive_failure(lam, LoadCase(n=load_n))
            expected = ladder_oracle.failure_ladder(
                ORACLE_MATERIAL, [t] * n, angles, load_n, (0.0, 0.0, 0.0))
            assert len(ladder.rungs) == len(expected)
            for rung, (mult, plies, flagged) in zip(ladder.rungs, expected):
                assert rung.failed_plies == tuple(plies)
                assert rung.flagged == flagged
                assert rung.force_multiplier == pytest.approx(mult, rel=1e-6)


# =============================================================================
# Rotated copies share the stack's angle-independent arrays
# =============================================================================

GLASS_EPOXY = MaterialProperties(
    e1=38.6e9, e2=8.27e9, g12=4.14e9, nu12=0.26,
    sigma1t_ult=1062e6, sigma1c_ult=610e6,
    sigma2t_ult=31e6, sigma2c_ult=118e6, tau12_ult=72e6,
)


class TestRotatedCopies:
    """``with_angles`` must give exactly what a freshly built stack gives."""

    ANGLES = (0.0, 45.0, -30.0, 90.0, -0.0, 15.0, 60.0)
    THICKNESS = (0.1e-3, 0.125e-3, 0.2e-3, 0.125e-3, 0.1e-3, 0.2e-3, 0.15e-3)
    LOAD = LoadCase(n=(1000.0, -300.0, 150.0), m=(0.05, 0.0, -0.02))

    @pytest.fixture
    def lam(self, graphite_epoxy):
        g, e = graphite_epoxy, GLASS_EPOXY
        materials = (g, g, e, g, e, e, g)
        return Laminate(tuple(Ply(a, t, m) for a, t, m in
                              zip(self.ANGLES, self.THICKNESS, materials)))

    @staticmethod
    def fresh(lam, angles):
        return Laminate(tuple(Ply(a, p.thickness, p.material)
                              for a, p in zip(angles, lam.plies)))

    @staticmethod
    def signs(lam):
        return [math.copysign(1.0, a) for a in lam.angles]

    def assert_bitwise_equal(self, got, want):
        mult_got, sr_got = first_ply_failure(got, self.LOAD)
        mult_want, sr_want = first_ply_failure(want, self.LOAD)
        assert mult_got.hex() == mult_want.hex()
        assert sr_got.tobytes() == sr_want.tobytes()
        ladder_got = simulate_progressive_failure(got, self.LOAD)
        ladder_want = simulate_progressive_failure(want, self.LOAD)
        assert ladder_got.rungs == ladder_want.rungs
        assert [r.force_multiplier.hex() for r in ladder_got.rungs] == \
            [r.force_multiplier.hex() for r in ladder_want.rungs]
        assert np.array(ladder_got.sr_history).tobytes() == \
            np.array(ladder_want.sr_history).tobytes()

    @pytest.mark.parametrize("angles", [
        (-0.0, 45.0, -31.0, 90.0, 0.0, 15.0, 61.0),
        (0.0, 225.0, -30.0, -90.0, -0.0, 14.5, 60.0),
    ])
    def test_copy_matches_fresh_stack(self, lam, angles):
        first_ply_failure(lam, self.LOAD)
        copy = lam.with_angles(angles)
        fresh = self.fresh(lam, angles)
        assert copy == fresh
        assert self.signs(copy) == self.signs(fresh)
        assert copy.prepared is lam.prepared
        self.assert_bitwise_equal(copy, fresh)

    def test_chained_copy_matches_fresh_stack(self, lam):
        middle = (5.0, -45.0, -0.0, 90.0, 0.0, 20.0, 60.0)
        final = (0.0, -45.0, 0.0, 89.0, -0.0, 20.0, -60.0)
        chained = lam.with_angles(middle).with_angles(final)
        fresh = self.fresh(lam, final)
        assert chained == fresh
        assert self.signs(chained) == self.signs(fresh)
        self.assert_bitwise_equal(chained, fresh)

    def test_mixed_stack_matches_scalar_chain(self, lam):
        """Per-ply rows of the prepared arrays line up with their plies."""
        _, sr = first_ply_failure(lam, self.LOAD)
        materials = [
            dict(e1=m.e1, e2=m.e2, g12=m.g12, nu12=m.nu12,
                 s1t=m.sigma1t_ult, s1c=m.sigma1c_ult, s2t=m.sigma2t_ult,
                 s2c=m.sigma2c_ult, t12u=m.tau12_ult)
            for m in (p.material for p in lam.plies)]
        expected = ladder_oracle.intact_strength_ratios(
            materials, list(self.THICKNESS), list(lam.angles),
            self.LOAD.n, self.LOAD.m)
        for k in range(lam.n_plies):
            assert sr[k] == pytest.approx(expected[k], rel=1e-9)

    def test_unchanged_plies_are_reused_only_with_equal_zero_sign(self, lam):
        copy = lam.with_angles((-0.0, 45.0, -30.0, 90.0, 0.0, 16.0, 60.0))
        reused = [new is old for new, old in zip(copy.plies, lam.plies)]
        assert reused == [False, True, True, True, False, False, True]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
