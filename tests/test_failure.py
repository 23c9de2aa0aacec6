"""Tests for the progressive ply-failure simulation.

Frozen rung values come from ``tests/ladder_oracle.py`` (independent scalar
implementation); a sampled cross-check against the oracle runs here too,
with the full sweep living in the acceptance suite.
"""

import math
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import ladder_oracle

from plytamper import attack, failure
from plytamper.clt import (
    Laminate,
    LaminateSingularError,
    LoadCase,
    NoLoadedPlyError,
    MaterialProperties,
    Ply,
    RCOND_COLLAPSED,
    StrengthRatioRootError,
    require_nonsingular,
    rules_out_collapse,
    stiffness_stack,
    system_matrix,
    transformation_matrix,
)
from plytamper.designfile import load_bundled_design
from plytamper.failure import (
    FailureLadder,
    FailureMode,
    FailureRung,
    classify_failure_mode,
    first_ply_failure,
    first_ply_failure_batch,
    memo_key,
    ply_stresses,
    simulate_progressive_failure,
    ties_at_minimum,
)


ORACLE_MATERIAL = dict(e1=181e9, e2=10.3e9, g12=7.17e9, nu12=0.28,
                       s1t=1500e6, s1c=1500e6, s2t=40e6, s2c=246e6,
                       t12u=68e6)

AXIAL = LoadCase(n=(1.0, 0.0, 0.0))


# =============================================================================
# Tie detection
# =============================================================================

def ties(values, rel_tol=failure.TIE_REL_TOL):
    """:func:`ties_at_minimum` at the row's first-failure multiplier."""
    low = failure._first_failure(np.asarray(values, dtype=float))
    return ties_at_minimum(values, low, rel_tol)


class TestTiesAtMinimum:

    def test_single_minimum(self):
        assert ties([3.0, 1.0, 2.0]) == {1}

    def test_exact_tie(self):
        assert ties([2.0, 1.0, 1.0, 5.0]) == {1, 2}

    def test_tie_within_relative_tolerance(self):
        low = 100.0
        assert ties([low, low * (1.0 + 1e-10), low * 1.01]) == {0, 1}

    def test_just_outside_tolerance_not_tied(self):
        low = 100.0
        assert ties([low, low * (1.0 + 1e-8)]) == {0}

    def test_infinities_skipped(self):
        assert ties([math.inf, 2.0, math.inf]) == {1}

    @pytest.mark.parametrize("low", [math.inf, math.nan, np.inf,
                                     np.float64(math.nan), -math.inf],
                             ids=["inf", "nan", "np.inf", "np.nan", "-inf"])
    def test_non_finite_low_raises(self, low):
        """A row with no finite entry has no minimum to tie: the function
        names ``low`` and emits no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^low must be finite"):
                ties_at_minimum([math.inf, math.inf], low)

    def test_all_infinite_raises(self, graphite_epoxy):
        """An all-infinite row's first-failure multiplier is +inf, and
        the rung kernel raises on it before ties are taken."""
        assert failure._first_failure(np.array([math.inf, math.inf])) \
            == math.inf
        lone = Laminate.from_angles(graphite_epoxy, 0.125e-3, [30.0])
        with pytest.raises(NoLoadedPlyError):
            failure._rung(*failure._kernel_inputs(
                lone, LoadCase(n=(0.0, 0.0, 0.0), m=(1.0, 0.0, 0.0))),
                np.arange(1))

    @staticmethod
    def numpy_ties(values, rel_tol):
        """The array formulation: finite entries within ``rel_tol`` of
        the finite minimum, or "raise" when no entry is finite (the rung
        kernel raises NoLoadedPlyError on such a row)."""
        finite = np.isfinite(values)
        low = values.min(where=finite, initial=np.inf)
        if low == np.inf:
            return "raise"
        return set(np.flatnonzero(
            finite & (values - low <= rel_tol * low)).tolist())

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9])
    def test_matches_numpy_formulation(self, rel_tol):
        """Random arrays with +-inf and NaN entries and near-ties on both
        sides of 1e-6 and 1e-9, a NaN first entry included."""
        rng = np.random.default_rng(11)
        offsets = [0.0, 1e-9, 1e-6, 0.5e-9, 0.5e-6, 2e-9, 2e-6,
                   1e-6 * (1.0 + 1e-12), 1e-9 * (1.0 - 1e-9)]
        for _ in range(3000):
            n = int(rng.integers(1, 12))
            values = rng.uniform(1.0, 4.0, size=n)
            kind = rng.random(n)
            values[kind < 0.2] = np.inf
            values[(kind >= 0.2) & (kind < 0.23)] = -np.inf
            values[(kind >= 0.23) & (kind < 0.26)] = np.nan
            finite = np.isfinite(values)
            low = values[finite].min() if finite.any() else 1.0
            near = finite & (rng.random(n) < 0.4)
            values[near] = low * (1.0 + rng.choice(offsets, size=near.sum()))
            want = self.numpy_ties(values, rel_tol)
            if want == "raise":
                assert failure._first_failure(values) == np.inf, values
            else:
                assert ties(values, rel_tol) == want, values


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
        doubled = simulate_progressive_failure(
            lam, LoadCase(n=(2.0, 0.0, 0.0)))
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

    def test_multipliers_are_python_floats(self, graphite_epoxy):
        """Reports serialize multipliers: ``first_ply_failure``'s on a
        miss, on a memo hit and from a record the batch filled, and every
        rung's, a memo ladder's and a flagged rung's included, are
        Python floats."""
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3,
                                   [0.0, 45.0, -45.0, 90.0])
        memo = {}
        mults = [first_ply_failure(lam, AXIAL)[0],
                 first_ply_failure(lam, AXIAL, memo)[0],
                 first_ply_failure(lam, AXIAL, memo)[0]]
        first_ply_failure_batch(lam, AXIAL, [1], [30.0], memo)
        copy = lam.with_angles([0.0, 30.0, -45.0, 90.0])
        assert memo[memo_key(copy._angle_bits, AXIAL)].first is not None
        mults.append(first_ply_failure(copy, AXIAL, memo)[0])
        wafer = Laminate((Ply(90.0, 0.1, graphite_epoxy),
                          Ply(0.0, 1e-9, graphite_epoxy),
                          Ply(90.0, 0.1, graphite_epoxy)))
        ladders = [simulate_progressive_failure(lam, AXIAL, memo),
                   simulate_progressive_failure(lam, AXIAL, memo),
                   simulate_progressive_failure(copy, AXIAL),
                   simulate_progressive_failure(wafer, AXIAL)]
        assert ladders[-1].rungs[-1].flagged
        mults += [rung.force_multiplier for ladder in ladders
                  for rung in ladder.rungs]
        assert [type(m) for m in mults] == [float] * len(mults)


class TestMemo:
    """A memo returns exactly what a fresh evaluation of its key gives."""

    LOAD = LoadCase(n=(1000.0, -300.0, 150.0), m=(0.05, 0.0, -0.02))

    @staticmethod
    def assert_same(got, want):
        assert got[0].hex() == want[0].hex()
        assert got[1].tobytes() == want[1].tobytes()

    def test_two_loads_on_one_laminate(self, graphite_epoxy):
        angles = [0.0, 45.0, -45.0, 90.0]
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
        doubled = LoadCase(n=(2000.0, -600.0, 300.0), m=(0.1, 0.0, -0.04))
        for load in (self.LOAD, doubled, self.LOAD):
            fresh = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
            self.assert_same(first_ply_failure(lam, load, lam.memo),
                             first_ply_failure(fresh, load))
            assert simulate_progressive_failure(lam, load, lam.memo) == \
                simulate_progressive_failure(fresh, load)
        counts = memo_counts(lam.memo)
        assert counts["first"] == counts["ladder"] == 2
        states = {key for load in (self.LOAD, doubled)
                  for key in rung_states(angles, simulate_progressive_failure(
                      lam, load))}
        assert counts["tail"] == len(states)
        assert tail_keys(lam.memo) == states
        assert len(lam.memo) == 2 + len(states)

    def test_zero_and_negative_zero_are_separate_entries(self,
                                                         graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0.0, 30.0])
        negative = lam.with_angles([-0.0, 30.0])
        first_ply_failure(lam, self.LOAD, lam.memo)
        self.assert_same(first_ply_failure(negative, self.LOAD, lam.memo),
                         first_ply_failure(
                             Laminate.from_angles(graphite_epoxy, 0.125e-3,
                                                  [-0.0, 30.0]), self.LOAD))
        assert len(lam.memo) == 2

    def test_hits_are_shared_and_read_only(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0.0, 30.0])
        mult, sr = first_ply_failure(lam, self.LOAD, lam.memo)
        hit = first_ply_failure(lam, self.LOAD, lam.memo)
        assert hit[0] == mult and hit[1] is sr
        with pytest.raises(ValueError):
            sr[0] = 1.0
        _, plain = first_ply_failure(lam, self.LOAD)
        assert plain is not sr and plain.flags.writeable
        ladder = simulate_progressive_failure(lam, self.LOAD, lam.memo)
        assert simulate_progressive_failure(lam, self.LOAD, lam.memo) \
            is ladder
        with pytest.raises(AttributeError):
            ladder.rungs = ()

    def test_with_angles_copies_start_without_entries(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0.0, 30.0])
        first_ply_failure(lam, self.LOAD, lam.memo)
        assert lam.with_angles([0.0, 30.0]).memo == {}

    @staticmethod
    def solves(monkeypatch):
        """Count the rung kernel's solves from here on."""
        calls = []
        rung = failure._rung

        def counted(*args):
            calls.append(1)
            return rung(*args)

        monkeypatch.setattr(failure, "_rung", counted)
        return calls

    def test_ladder_takes_its_first_rung_from_the_memo(self, graphite_epoxy,
                                                       monkeypatch):
        """With the state's ``first`` in its memo record the ladder
        solves one rung less, stores itself in the same record, and its
        bits are a fresh ladder's."""
        angles = [0.0, 45.0, -45.0, 90.0, 30.0]
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
        fresh = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
        calls = self.solves(monkeypatch)
        want = simulate_progressive_failure(fresh, self.LOAD)
        fresh_solves = len(calls)
        assert fresh_solves == len(want.rungs) > 1
        first_ply_failure(lam, self.LOAD, lam.memo)
        del calls[:]
        got = simulate_progressive_failure(lam, self.LOAD, lam.memo)
        assert len(calls) == fresh_solves - 1
        assert ladder_hex(got) == ladder_hex(want)
        record = lam.memo[memo_key(lam._angle_bits, self.LOAD)]
        assert record.ladder is got and record.first is not None

    def test_first_rung_from_a_batch_row(self, graphite_epoxy, monkeypatch):
        """The ``first`` may come from a batched row: the ladder is still
        bit for bit a fresh one, on every row, and solves one rung less."""
        g, e = graphite_epoxy, GLASS_EPOXY
        thickness = (0.1e-3, 0.125e-3, 0.2e-3, 0.125e-3, 0.1e-3, 0.2e-3)
        base = (15.0, -0.0, 0.0, 45.0, 0.0, -60.0)
        lam = Laminate(tuple(Ply(a, t, m) for a, t, m in
                             zip(base, thickness, (g, e, e, g, g, e))))
        angles = [float(a) for a in range(-90, 91, 30)]
        assert first_ply_failure_batch(
            lam, self.LOAD, [2] * len(angles), angles, lam.memo) is None
        assert len(lam.memo) == len(angles)
        for angle in angles:
            row = base[:2] + (angle,) + base[3:]
            copy = lam.with_angles(row)
            fresh = Laminate(tuple(Ply(a, p.thickness, p.material)
                                   for a, p in zip(row, lam.plies)))
            counts, tails = memo_counts(lam.memo), tail_keys(lam.memo)
            calls = self.solves(monkeypatch)
            got = simulate_progressive_failure(copy, self.LOAD, lam.memo)
            monkeypatch.undo()
            after = memo_counts(lam.memo)
            assert after["first"] == counts["first"]
            assert after["ladder"] == counts["ladder"] + 1
            # It solves the rung states past its first that no earlier
            # row's ladder solved: all of them on the first row.
            new_tails = set(rung_states(row, got)) - tails
            assert len(calls) == len(new_tails) <= len(got.rungs) - 1
            assert tails or len(calls) == len(got.rungs) - 1
            assert after["tail"] == counts["tail"] + len(new_tails)
            assert tail_keys(lam.memo) == tails | new_tails
            assert ladder_hex(got) == ladder_hex(
                simulate_progressive_failure(fresh, self.LOAD))

    def test_state_that_raises_leaves_no_entry(self, graphite_epoxy):
        """The no-loaded-ply ladder of
        ``test_unloaded_survivor_is_a_numerical_failure`` and the lone
        ply of ``test_unstressed_single_ply_raises``."""
        angles = [90, 15, 60, -30, 60, 90, -90, 0, -30, -90, -75, -45]
        load = LoadCase(n=(0.0, 0.0, 0.0), m=(0.7172838643318087,
                                               -0.7464900405633892,
                                               -0.4064844632211011))
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
        lone = Laminate.from_angles(graphite_epoxy, 0.125e-3, [30])
        bending = LoadCase(n=(0.0, 0.0, 0.0), m=(1.0, 0.0, 0.0))
        for _ in range(2):
            with pytest.raises(NoLoadedPlyError):
                simulate_progressive_failure(lam, load, lam.memo)
            with pytest.raises(NoLoadedPlyError):
                first_ply_failure(lone, bending, lone.memo)
            assert lam.memo == {} and lone.memo == {}


def ladder_hex(ladder):
    """A ladder's rungs and strength-ratio rows, floats as hex."""
    return ([(r.force_multiplier.hex(), r.failed_plies, r.flagged)
             for r in ladder.rungs],
            [[v.hex() for v in row] for row in ladder.sr_history])


def is_tail(key) -> bool:
    """Whether a memo key is a ladder tail's: a rung state with a failed
    ply, whose slot holds a NaN (the load's six values never do)."""
    return any(math.isnan(v)
               for v in struct.unpack(f"{len(key) // 8}d", key))


def tail_keys(memo) -> set:
    """The keys of a memo's ladder tails."""
    return {key for key in memo if is_tail(key)}


def record_fields(record) -> tuple:
    """A memo record's fields, ``first``, ``ladder``, ``copy`` and
    ``critical``, in that order."""
    return tuple(getattr(record, name) for name in record.__slots__)


def memo_counts(memo) -> dict:
    """How many intact states' records hold a ``first`` and a
    ``ladder``, and how many records are ladder tails, which hold their
    ``ladder`` and nothing else."""
    counts = dict.fromkeys(("first", "ladder", "tail"), 0)
    for key, record in memo.items():
        if is_tail(key):
            first, ladder, copy, critical = record_fields(record)
            assert ladder is not None
            assert first is copy is critical is None
            counts["tail"] += 1
        else:
            counts["first"] += record.first is not None
            counts["ladder"] += record.ladder is not None
    return counts


def rung_states(angles, ladder) -> list:
    """The memo keys of ``ladder``'s computed rung states past the first,
    for a ladder of a laminate at ``angles``: their bits with the slot of
    each ply failed so far set to a NaN. A flagged rung's state has
    none."""
    slots = [struct.pack("d", a) for a in angles]
    keys = []
    for before, rung in zip(ladder.rungs, ladder.rungs[1:]):
        for ply in before.failed_plies:
            slots[ply] = struct.pack("d", math.nan)
        if not rung.flagged:
            keys.append(memo_key(b"".join(slots), ladder.load))
    return keys


class TestLadderTails:
    """A ladder takes the rest of its rungs from any ladder of the
    laminate that already passed through the same rung state, and gives
    a fresh ladder's bits."""

    AXIAL = LoadCase(n=(1000.0, 0.0, 0.0))

    @staticmethod
    def fresh(lam):
        return Laminate(tuple(Ply(p.angle, p.thickness, p.material)
                              for p in lam.plies))

    def test_copy_shares_the_state_after_its_first_knockout(
            self, graphite_epoxy, monkeypatch):
        """The 90 ply of [0/45/90/-45/0], and the 80 ply of its copy,
        fail alone in rung 1, so the copy's ladder solves rung 1 and
        takes the rest from the first ladder."""
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3,
                                   [0.0, 45.0, 90.0, -45.0, 0.0])
        copy = lam.with_angles([0.0, 45.0, 80.0, -45.0, 0.0])
        first = simulate_progressive_failure(lam, self.AXIAL, lam.memo)
        calls = TestMemo.solves(monkeypatch)
        got = simulate_progressive_failure(copy, self.AXIAL, lam.memo)
        assert len(calls) == 1
        monkeypatch.undo()
        assert got.rungs[0].failed_plies == first.rungs[0].failed_plies \
            == (2,)
        assert got.rungs[1:] == first.rungs[1:]
        assert ladder_hex(got) == ladder_hex(
            simulate_progressive_failure(self.fresh(copy), self.AXIAL))

    @staticmethod
    def assert_each_state_solved_once(monkeypatch, make, design_sf, loads):
        """Run the six searches under each load on one laminate from
        ``make()``: every result ladder is a fresh one, the ladders
        solve each rung state once, and the memo's tails are exactly
        their states."""
        from test_attack import TestSharedMemo   # it imports this module
        solves, in_ladder = [], []
        rung, ladder = failure._rung, attack.simulate_progressive_failure

        def counted(*args):
            solves.append(bool(in_ladder))
            return rung(*args)

        def traced(*args):
            in_ladder.append(True)
            try:
                return ladder(*args)
            finally:
                in_ladder.pop()

        lam, results = make(), []
        with monkeypatch.context() as patch:
            patch.setattr(failure, "_rung", counted)
            patch.setattr(attack, "simulate_progressive_failure", traced)
            for spec, attack_type in TestSharedMemo.searches(
                    design_sf, [(load, None) for load in loads]):
                results.append(attack.ATTACK_TYPES[attack_type](lam, spec))
        states = set()
        for result in results:
            fresh = make().with_angles(result.new_angles)
            assert ladder_hex(result.ladder) == ladder_hex(
                simulate_progressive_failure(fresh, result.spec.load))
            states.update(rung_states(result.new_angles, result.ladder))
        assert sum(solves) == len(states)
        assert tail_keys(lam.memo) == states
        return len(states)

    @pytest.mark.parametrize("stack", range(10))
    def test_criterion5_stack(self, graphite_epoxy, monkeypatch, stack):
        """Under N and then M, criterion 5's load and a moment-only one."""
        from test_attack import criterion5_stacks
        angles = criterion5_stacks(stack + 1)[stack]
        assert self.assert_each_state_solved_once(
            monkeypatch,
            lambda: Laminate.from_angles(graphite_epoxy, 0.125e-3, angles),
            1.5, [self.AXIAL, LoadCase((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))])

    def test_mixed_stack_with_signed_zeros(self, graphite_epoxy,
                                           monkeypatch):
        from test_attack import TestMemoSoundness
        make = TestMemoSoundness.mixed_stack(graphite_epoxy)
        assert self.assert_each_state_solved_once(
            monkeypatch, make, 1.5,
            [TestMemoSoundness.FORCE, TestMemoSoundness.BENDING])

    def test_spar(self, monkeypatch):
        design = load_bundled_design()
        assert self.assert_each_state_solved_once(
            monkeypatch, design.laminate, design.design_sf, [design.load])

    def test_no_tail_starts_at_a_flagged_rung(self, graphite_epoxy,
                                              monkeypatch):
        """A wafer-thin mid-plane ply between two 90 plies and two
        45 plies: the 90s fail first, then the 45s, and the lone wafer's
        system has collapsed. The copy with the 90s at 85 passes through
        the state after the 45s fail, from the first ladder's tail."""
        def make(outer):
            return Laminate(tuple(
                Ply(a, t, graphite_epoxy) for a, t in zip(
                    (45.0, outer, 0.0, outer, 45.0),
                    (0.01, 0.1, 1e-9, 0.1, 0.01))))

        lam, copy = make(90.0), make(85.0)
        first = simulate_progressive_failure(lam, self.AXIAL, lam.memo)
        assert [(r.failed_plies, r.flagged) for r in first.rungs] == \
            [((1, 3), False), ((0, 4), False), ((2,), True)]
        states = rung_states(lam.angles, first)
        assert tail_keys(lam.memo) == set(states) and len(states) == 1
        failed = struct.pack("d", math.nan)
        assert memo_key(failed * 2 + struct.pack("d", 0.0) + failed * 2,
                        self.AXIAL) not in lam.memo
        calls = TestMemo.solves(monkeypatch)
        got = simulate_progressive_failure(copy, self.AXIAL, lam.memo)
        assert len(calls) == 1
        monkeypatch.undo()
        assert got.rungs[1:] == first.rungs[1:]
        assert ladder_hex(got) == ladder_hex(
            simulate_progressive_failure(make(85.0), self.AXIAL))

    def test_ladder_that_raises_adds_nothing(self, graphite_epoxy,
                                             monkeypatch):
        """The stack of ``test_unloaded_survivor_is_a_numerical_failure``
        stores its tails under N; under its moment it then solves 11
        rungs and raises, and the memo is as it was."""
        angles = [90, 15, 60, -30, 60, 90, -90, 0, -30, -90, -75, -45]
        moment = LoadCase(n=(0.0, 0.0, 0.0), m=(0.7172838643318087,
                                                 -0.7464900405633892,
                                                 -0.4064844632211011))
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
        simulate_progressive_failure(lam, self.AXIAL, lam.memo)
        assert memo_counts(lam.memo)["tail"] > 0
        before = {key: (record, record_fields(record))
                  for key, record in lam.memo.items()}
        calls = TestMemo.solves(monkeypatch)
        with pytest.raises(NoLoadedPlyError):
            simulate_progressive_failure(lam, moment, lam.memo)
        assert len(calls) == 12
        assert lam.memo.keys() == before.keys()
        for key, (record, fields) in before.items():
            assert lam.memo[key] is record
            assert all(a is b for a, b in zip(record_fields(record), fields))


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

    def test_one_ply_copy_matches_with_angles(self, lam):
        """The search's one-ply copy: equal to the ``with_angles`` copy,
        the other plies reused, ``prepared`` shared, ``angles`` and the
        packed angle bits of its memo keys seeded."""
        base = lam.with_angles((0.0, 45.0, -30.0, 90.0, -0.0, 15.0, 61.0))
        for index, angle in ((4, 0.0), (0, -0.0), (6, -90.0), (2, 12.5)):
            angles = list(base.angles)
            angles[index] = angle
            copy = base._with_ply_angle(
                index, angle, struct.pack(f"{lam.n_plies}d", *angles))
            want = base.with_angles(angles)
            assert copy == want
            assert self.signs(copy) == self.signs(want)
            assert "angles" in copy.__dict__
            assert copy.angles == tuple(p.angle for p in copy.plies)
            assert copy.__dict__["_angle_bits"] == struct.pack(
                f"{lam.n_plies}d", *angles) == want._angle_bits
            assert copy.prepared is lam.prepared
            assert [new is old for new, old in zip(copy.plies, base.plies)] \
                == [k != index for k in range(lam.n_plies)]
            self.assert_bitwise_equal(copy, want)


# =============================================================================
# Batched kernel
# =============================================================================

class TestBatchedKernel:
    """``first_ply_failure_batch`` rows against ``first_ply_failure``."""

    FORCE = LoadCase(n=(1000.0, -300.0, 150.0), m=(0.05, 0.0, -0.02))
    BENDING = LoadCase(n=(0.0, 0.0, 0.0), m=(1.0, -0.3, 0.2))

    @staticmethod
    def rows(lam, plies, angles):
        """The angles of each one-ply variation, as ``with_angles`` takes
        them."""
        rows = []
        for k, a in zip(plies, angles):
            row = list(lam.angles)
            row[k] = a
            rows.append(tuple(row))
        return rows

    def assert_rows_match(self, lam, load, plies, angles):
        """The batch returns None and stores only rows, each under the key
        the sequential call looks up; through its memo every row gives
        what that call gives without one, a stored row bit for bit and
        read-only, a row left out the same value or the same error.
        Returns the mask of stored rows."""
        memo = {}
        assert first_ply_failure_batch(lam, load, plies, angles, memo) is None
        batch = dict(memo)
        stored, keys = [], set()
        for row in self.rows(lam, plies, angles):
            copy = lam.with_angles(row)
            key = memo_key(copy._angle_bits, load)
            keys.add(key)
            stored.append(key in batch)
            if stored[-1]:
                assert record_fields(batch[key])[1:] == (None,) * 3
                assert not batch[key].first[1].flags.writeable
            entries = len(memo)
            assert outcome(first_ply_failure, copy, load, memo) == \
                outcome(first_ply_failure, copy, load)
            if stored[-1]:
                assert len(memo) == entries
        assert set(batch) <= keys
        return np.array(stored, dtype=bool)

    def test_spar_full_line_of_one_ply(self):
        """The bundled spar's critical ply 3 at every whole degree."""
        design = load_bundled_design()
        lam = design.laminate()
        angles = [float(a) for a in range(-89, 91)]
        assert self.assert_rows_match(lam, design.load, [3] * len(angles),
                                      angles).all()
        # The empty batch: nothing stored.
        assert self.assert_rows_match(lam, design.load, [], []).size == 0

    @pytest.mark.parametrize("load", [FORCE, BENDING], ids=["N+M", "M"])
    def test_mixed_materials_and_signed_zeros(self, graphite_epoxy, load):
        """Every ply of three mixed stacks at every angle of a grid with
        both zeros, the stacks themselves holding 0.0 and -0.0."""
        g, e = graphite_epoxy, GLASS_EPOXY
        materials = (g, e, e, g, g, e, g)
        thickness = (0.1e-3, 0.125e-3, 0.2e-3, 0.125e-3, 0.1e-3, 0.2e-3,
                     0.15e-3)
        grid = [0.0, -0.0, 15.0, -15.0, 45.0, -45.0, 90.0, -90.0, 30.5]
        rng = np.random.default_rng(3)
        bases = [tuple(float(rng.choice(grid)) for _ in range(7)),
                 (0.0,) * 7, (-0.0,) * 7, (-0.0, 0.0) * 3 + (-0.0,)]
        plies = [k for k in range(7) for _ in grid]
        for base in bases:
            lam = Laminate(tuple(Ply(a, t, m) for a, t, m in
                                 zip(base, thickness, materials)))
            assert self.assert_rows_match(lam, load, plies,
                                          grid * 7).all()

    def test_unstressed_mid_ply_gets_inf(self, graphite_epoxy):
        """Pure bending of a symmetric three-ply stack with exactly
        representable thicknesses: B is exactly zero, so the mid-plane ply
        carries no stress and comes back +inf, in the batch as in the
        sequence."""
        lam = Laminate.from_angles(graphite_epoxy, 2.0 ** -12,
                                   [30.0, 0.0, 30.0])
        angles = [float(a) for a in range(-90, 91, 15)]
        plies = [1] * len(angles)
        load = LoadCase(n=(0.0, 0.0, 0.0), m=(1.0, -0.3, 0.2))
        assert self.assert_rows_match(lam, load, plies, angles).all()
        memo = {}
        first_ply_failure_batch(lam, load, plies, angles, memo)
        sr = np.array([record.first[1] for record in memo.values()])
        assert sr.shape == (len(angles), 3)
        assert np.isinf(sr[:, 1]).all()
        assert np.isfinite(sr[:, [0, 2]]).all()

    def assert_left_out_rows(self, monkeypatch, lam, load, plies, angles,
                             error):
        """:meth:`assert_rows_match` and :meth:`TestCollapseBound.check`;
        returns the mask of stored rows and that of the rows whose
        sequential call raises ``error``."""
        stored = self.assert_rows_match(lam, load, plies, angles)
        TestCollapseBound.check(monkeypatch, lam, load, plies, angles)
        raising = []
        for row in self.rows(lam, plies, angles):
            try:
                first_ply_failure(lam.with_angles(row), load)
            except error:
                raising.append(True)
            else:
                raising.append(False)
        return stored, np.array(raising)

    def test_collapsed_rows_are_not_stored(self, monkeypatch):
        """A near-rank-one material: a third ply at the angle of one of
        the other two leaves the system collapsed."""
        fibre = MaterialProperties(
            e1=1e12, e2=1e-3, g12=1e-3, nu12=0.3, sigma1t_ult=1e9,
            sigma1c_ult=1e9, sigma2t_ult=1e7, sigma2c_ult=1e7,
            tau12_ult=1e7)
        lam = Laminate.from_angles(fibre, 1e-3, [0.0, 30.0, -30.0])
        angles = [float(a) for a in range(-90, 91, 10)]
        stored, raising = self.assert_left_out_rows(
            monkeypatch, lam, LoadCase(n=(1.0, 0.0, 0.0)),
            [2] * len(angles), angles, LaminateSingularError)
        assert [a for a, r in zip(angles, raising) if r] == [0.0, 30.0]
        assert not (stored & raising).any()

    def test_rows_without_a_root_are_not_stored(self, graphite_epoxy,
                                                monkeypatch):
        """A material whose cached Tsai-Wu row is corrupt (h11 < 0): the
        fibre-loaded rows have no positive root."""
        corrupt = MaterialProperties(**{
            f: getattr(graphite_epoxy, f)
            for f in graphite_epoxy.__dataclass_fields__})
        row = graphite_epoxy.tsai_wu.copy()
        row[2] = -row[2]
        corrupt.__dict__["tsai_wu"] = row
        lam = Laminate.from_angles(corrupt, 0.125e-3, [0.0, 90.0, 90.0])
        angles = [float(a) for a in range(-90, 91, 10)]
        stored, raising = self.assert_left_out_rows(
            monkeypatch, lam, LoadCase(n=(1000.0, 0.0, 0.0)),
            [0] * len(angles), angles, StrengthRatioRootError)
        assert stored.any() and raising.any()
        assert (stored == ~raising).all()

    def test_row_without_a_loaded_ply_is_not_stored(self, graphite_epoxy,
                                                    monkeypatch):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [30.0])
        stored, raising = self.assert_left_out_rows(
            monkeypatch, lam, LoadCase(n=(0.0, 0.0, 0.0), m=(1.0, 0.0, 0.0)),
            [0, 0], [30.0, -0.0], NoLoadedPlyError)
        assert raising.all() and not stored.any()

    def test_failed_batched_solve_stores_nothing(self, monkeypatch):
        """A LinAlgError from the batched (4-D) solve leaves the memo
        without a new ``first``; each row's call then solves it, bit for
        bit as a fresh solve."""
        design = load_bundled_design()
        lam, load = design.laminate(), design.load
        angles = [float(a) for a in range(-90, 91, 15)]
        plies = [k for k in (0, 3, 16) for _ in angles]
        memo = {}
        first_ply_failure(lam, load, memo)
        before = {key: record_fields(record)
                  for key, record in memo.items()}
        solve, raised = failure.ply_stresses, []

        def singular_batch(stack, *args):
            if stack.ndim == 4:
                raised.append(len(stack))
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(stack, *args)

        monkeypatch.setattr(failure, "ply_stresses", singular_batch)
        first_ply_failure_batch(lam, load, plies, angles * 3, memo)
        monkeypatch.undo()
        assert raised == [len(plies)]
        assert {key: record_fields(record)
                for key, record in memo.items()} == before
        for row in self.rows(lam, plies, angles * 3):
            copy = lam.with_angles(row)
            assert outcome(first_ply_failure, copy, load, memo) == \
                outcome(first_ply_failure, copy, load)

    def test_rejects_bad_rows_and_zero_load(self, graphite_epoxy):
        """Plies out of range or not integers, angles outside [-90, 90]
        or NaN, unequal lengths and nested lists."""
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0.0, 45.0])
        for plies, angles in (([2], [0.0]), ([-1], [0.0]), ([1.0], [0.0]),
                              ([1], [135.0]), ([1], [-90.5]),
                              ([1], [math.nan]), ([0, 1], [0.0]),
                              ([1], [0.0, 45.0]), ([[0, 1]], [[0.0, 45.0]])):
            with pytest.raises(ValueError):
                first_ply_failure_batch(lam, AXIAL, plies, angles, {})
        with pytest.raises(ValueError):
            first_ply_failure_batch(lam, LoadCase(n=(0.0, 0.0, 0.0)),
                                    [1], [0.0], {})


class TestSolveStage:
    """``ply_stresses`` over a leading batch axis, as the batch kernel
    calls it, against one call per state."""

    @staticmethod
    def assert_batch_matches_states(lam, load, plies, angles):
        """The (B, n, 3, 3) stacks of B one-ply variations of ``lam``,
        solved with the (B, 6, 1) right-hand side, give each state's
        strain, stress and fiber stress float for float."""
        prep, load_vec = lam.prepared, load.as_vector()
        copies = [lam.with_angles(row)
                  for row in TestBatchedKernel.rows(lam, plies, angles)]
        stacks = np.stack([stiffness_stack(copy) for copy in copies])
        t_stacks = np.stack([transformation_matrix(copy.angles)
                             for copy in copies])
        rhs = np.broadcast_to(load_vec[:, None], (len(copies), 6, 1))
        batch = ply_stresses(stacks, prep.weights, prep.z_mid, rhs,
                             t_stacks)
        for output in batch:
            assert output.shape == (len(copies), lam.n_plies, 3)
        for b in range(len(copies)):
            states = ply_stresses(stacks[b], prep.weights, prep.z_mid,
                                  load_vec, t_stacks[b])
            for got, want in zip(batch, states):
                assert [v.hex() for v in got[b].ravel().tolist()] == \
                    [v.hex() for v in want.ravel().tolist()]

    def test_spar_one_ply_variations(self):
        design = load_bundled_design()
        lam = design.laminate()
        angles = [float(a) for a in range(-90, 91, 15)]
        plies = [k for k in (0, 3, 4, 16, 33) for _ in angles]
        for load in (design.load, TestBatchedKernel.FORCE):
            self.assert_batch_matches_states(lam, load, plies,
                                             angles * 5)

    def test_mixed_materials_under_force_and_moment(self, graphite_epoxy):
        g, e = graphite_epoxy, GLASS_EPOXY
        lam = Laminate(tuple(
            Ply(a, t, m) for a, t, m in zip(
                (30.0, -45.0, 0.0, 90.0, -0.0, 60.0, 15.0),
                (0.1e-3, 0.125e-3, 0.2e-3, 0.125e-3, 0.1e-3, 0.2e-3,
                 0.15e-3),
                (g, e, e, g, g, e, g))))
        grid = [0.0, -0.0, 15.0, -15.0, 45.0, -45.0, 90.0, -90.0, 30.5]
        self.assert_batch_matches_states(
            lam, TestBatchedKernel.FORCE,
            [k for k in range(lam.n_plies) for _ in grid],
            grid * lam.n_plies)


# =============================================================================
# The rung kernel: failed plies leave the solve
# =============================================================================

def masked_ladder(lam, load, failed=()):
    """The knockout loop with failed plies kept in the solve at zero
    stiffness: every rung solves and scores all n plies, every collapse
    test runs the SVD, and its errors carry the rung kernel's messages.
    It starts with the plies ``failed`` already failed."""
    intact, prep = stiffness_stack(lam), lam.prepared
    t_stack = transformation_matrix(lam.angles)
    active = np.ones(lam.n_plies, dtype=bool)
    active[list(failed)] = False
    rungs, history = [], []
    while active.any():
        stack = np.where(active[:, None, None], intact, 0.0)
        try:
            require_nonsingular(system_matrix(stack, prep.weights),
                                "laminate system is numerically singular")
        except LaminateSingularError:
            if not rungs:
                raise
            rungs.append(FailureRung(rungs[-1].force_multiplier,
                                     tuple(np.flatnonzero(active).tolist()),
                                     flagged=True))
            break
        _, _, local = ply_stresses(stack, prep.weights, prep.z_mid,
                                   load.as_vector(), t_stack)
        sr, bad = failure._strength_ratios_and_bad(local, prep.tsai_wu)
        if bad is not None and bad.any():
            raise StrengthRatioRootError(
                "no positive strength-ratio root (quadratic term not"
                " positive: underflow, or bad Tsai-Wu parameters) for plies"
                f" {np.flatnonzero(bad)}")
        low = failure._first_failure(sr)
        if low == np.inf:
            raise NoLoadedPlyError(
                "no loaded ply: all strength ratios are infinite")
        history.append(tuple(sr.tolist()))
        group = ties_at_minimum(sr, low)
        rungs.append(FailureRung(min(float(sr[i]) for i in group),
                                 tuple(sorted(group))))
        active[list(group)] = False
    return FailureLadder(tuple(rungs), load, tuple(history))


class TestRungKernel:
    """Ladders that solve only the surviving plies against
    :func:`masked_ladder`, float for float."""

    @staticmethod
    def assert_same_ladder(lam, load):
        try:
            want = ladder_hex(masked_ladder(lam, load))
        except ArithmeticError as error:
            with pytest.raises(type(error)) as raised:
                simulate_progressive_failure(lam, load)
            assert str(raised.value) == str(error)
            return None
        assert ladder_hex(simulate_progressive_failure(lam, load)) == want
        return want

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_deep_stacks_under_mixed_loads(self, graphite_epoxy, seed):
        """Five 48-128-ply stacks per seed on the 5-degree grid, under
        random N and M of similar stress, as in the ladder benchmark."""
        rng = np.random.default_rng(seed)
        grid = [float(a) for a in range(-90, 91, 5)]
        for _ in range(5):
            n = int(rng.integers(48, 129))
            angles = [float(a) for a in rng.choice(grid, size=n)]
            moment = 1000.0 * n * 0.125e-3 / 6.0
            load = LoadCase(tuple(rng.uniform(-1000.0, 1000.0, 3)),
                            tuple(rng.uniform(-1.0, 1.0, 3) * moment))
            lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
            assert self.assert_same_ladder(lam, load) is not None

    def test_criterion_5_stacks(self, graphite_epoxy):
        """Stacks of criterion 5's generator under its axial load and a
        pure moment (which can leave no loaded ply)."""
        rng = np.random.default_rng(55)
        grid = [float(a) for a in range(-20, 21, 5)]
        axial = LoadCase((1000.0, 0.0, 0.0))
        moment = LoadCase((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        for _ in range(10):
            n = int(rng.integers(8, 35))
            lam = Laminate.from_angles(
                graphite_epoxy, 0.125e-3,
                [float(rng.choice(grid)) for _ in range(n)])
            self.assert_same_ladder(lam, axial)
            self.assert_same_ladder(lam, moment)

    def test_spar(self):
        design = load_bundled_design()
        assert self.assert_same_ladder(design.laminate(), design.load)

    @pytest.mark.parametrize("load", [TestBatchedKernel.FORCE,
                                      TestBatchedKernel.BENDING],
                             ids=["N+M", "M"])
    def test_mixed_materials_and_thicknesses(self, graphite_epoxy, load):
        g, e = graphite_epoxy, GLASS_EPOXY
        rng = np.random.default_rng(9)
        grid = [0.0, -0.0, 15.0, -15.0, 45.0, -45.0, 90.0, -90.0, 30.5]
        for n in (3, 7, 12, 25):
            lam = Laminate(tuple(
                Ply(float(rng.choice(grid)), float(t), (g, e)[int(k)])
                for t, k in zip(rng.uniform(0.05e-3, 0.3e-3, size=n),
                                rng.integers(0, 2, size=n))))
            self.assert_same_ladder(lam, load)

    def test_late_root_failure_names_the_original_ply(self, graphite_epoxy):
        """Ply 1 has a corrupt Tsai-Wu row (h11 < 0). Plies 3, 2 and 0
        fail first; ply 1, alone in the fourth solve, has no root and
        the error names it as ply 1."""
        corrupt = MaterialProperties(**{
            f: getattr(graphite_epoxy, f)
            for f in graphite_epoxy.__dataclass_fields__})
        row = graphite_epoxy.tsai_wu.copy()
        row[2] = -row[2] * 0.001
        corrupt.__dict__["tsai_wu"] = row
        lam = Laminate(tuple(
            Ply(a, 0.125e-3, corrupt if k == 1 else graphite_epoxy)
            for k, a in enumerate((15.0, 0.0, -45.0, 75.0))))
        load = LoadCase(n=(1000.0, 0.0, 0.0))
        first_ply_failure(lam, load)
        with pytest.raises(StrengthRatioRootError,
                           match=r"for plies \[1\]$"):
            simulate_progressive_failure(lam, load)
        self.assert_same_ladder(lam, load)

    def test_collapse_after_knockout_names_the_original_plies(
            self, graphite_epoxy):
        """A wafer-thin mid-plane ply between two thick 90 plies: once the
        90s fail together, the lone wafer's system has collapsed, and the
        flagged rung lists it as ply 1."""
        lam = Laminate((Ply(90.0, 0.1, graphite_epoxy),
                        Ply(0.0, 1e-9, graphite_epoxy),
                        Ply(90.0, 0.1, graphite_epoxy)))
        ladder = simulate_progressive_failure(lam, AXIAL)
        assert [(r.failed_plies, r.flagged) for r in ladder.rungs] == \
            [((0, 2), False), ((1,), True)]
        assert ladder.rungs[1].force_multiplier == \
            ladder.rungs[0].force_multiplier
        self.assert_same_ladder(lam, AXIAL)

    def test_odd_stack_under_bending_has_no_loaded_ply_left(self):
        """Symmetric [30/0/30] with exactly representable thicknesses and
        equal tension and compression strengths, under a pure moment: the
        outer plies tie and fail together, and the mid-plane ply left
        alone carries exactly no stress."""
        even = MaterialProperties(
            e1=181e9, e2=10.3e9, g12=7.17e9, nu12=0.28,
            sigma1t_ult=1500e6, sigma1c_ult=1500e6,
            sigma2t_ult=40e6, sigma2c_ult=40e6, tau12_ult=68e6)
        lam = Laminate.from_angles(even, 2.0 ** -12, [30.0, 0.0, 30.0])
        load = LoadCase(n=(0.0, 0.0, 0.0), m=(1.0, -0.3, 0.2))
        _, sr = first_ply_failure(lam, load)
        assert sr[0] == sr[2] and math.isinf(sr[1])
        with pytest.raises(NoLoadedPlyError):
            simulate_progressive_failure(lam, load)
        with pytest.raises(NoLoadedPlyError):
            masked_ladder(lam, load)


# =============================================================================
# The collapse bound: the SVD runs only where the bound cannot decide
# =============================================================================

#: A material whose [Qbar] conditioning moves by a factor of four with the
#: angle: E1 = E2 with nu12 near 1 leaves the normal block soft along
#: (1, -1, 0), and at 45 degrees that direction takes the shear stiffness
#: while the shear direction, halved by the engineering strain, takes the
#: soft one.
SHEAR_STIFF = MaterialProperties(
    e1=1e9, e2=1e9, g12=2e15, nu12=0.999999, sigma1t_ult=1e7,
    sigma1c_ult=1e7, sigma2t_ult=1e7, sigma2c_ult=1e7, tau12_ult=1e7)


def svd_collapsed(lam, plies=None):
    """``require_nonsingular``'s SVD test, written out, on the 6x6 system
    of ``lam``'s plies ``plies`` (all when None)."""
    plies = np.arange(lam.n_plies) if plies is None else np.asarray(plies)
    k6 = system_matrix(stiffness_stack(lam)[plies],
                       lam.prepared.weights[:, plies])
    sv = np.linalg.svd(k6, compute_uv=False)
    return bool(sv[0] == 0.0 or sv[-1] / sv[0] < RCOND_COLLAPSED)


def outcome(function, *args):
    """What ``function(*args)`` returns, floats as hex, or what it raises."""
    try:
        result = function(*args)
    except ArithmeticError as error:
        return type(error).__name__, str(error)
    if isinstance(result, FailureLadder):
        return ladder_hex(result)
    return result[0].hex(), result[1].tobytes()


def bound_spy(decisions):
    """``failure.rules_out_collapse``, recording each decision it makes
    in the list ``decisions``."""
    rule = failure.rules_out_collapse

    def spy(bounds):
        decided = rule(bounds)
        decisions.extend(np.atleast_1d(decided).tolist())
        return decided

    return spy


class TestCollapseBound:
    """Every state the bound of ``clt.rules_out_collapse`` decides is one
    the SVD test calls not collapsed, every ladder and error is what the
    SVD-only kernels give, and the batch stores exactly the rows the
    bound clears that score cleanly, each as the SVD-only
    ``first_ply_failure`` scores it."""

    @staticmethod
    def check(monkeypatch, lam, load, plies=(), angles=()):
        """Run the ladder, ``first_ply_failure`` and the one-ply batch
        (``plies`` at ``angles``) with the bound and SVD-only; assert the
        above. Returns the bound's decisions: one (state, decided) pair
        per rung (state: ply indices) and per batch row (state: angles)."""
        states, decisions = [], []
        rung = failure._rung

        def spy_rung(arrays, load_vec, survivors):
            states.append(survivors)
            return rung(arrays, load_vec, survivors)

        calls = ((simulate_progressive_failure, lam, load),
                 (first_ply_failure, lam, load))
        batch = (lam, load, list(plies), list(angles))
        memo, svd_only = {}, {}
        with monkeypatch.context() as patch:
            patch.setattr(failure, "_rung", spy_rung)
            patch.setattr(failure, "rules_out_collapse",
                          bound_spy(decisions))
            got = [outcome(*call) for call in calls]
            first_ply_failure_batch(*batch, memo)
        rows = TestBatchedKernel.rows(lam, plies, angles)
        copies = [lam.with_angles(row) for row in rows]
        with monkeypatch.context() as patch:
            patch.setattr(failure, "rules_out_collapse",
                          lambda bounds: np.zeros(bounds.shape[1:-1],
                                                  dtype=bool))
            assert [outcome(*call) for call in calls] == got
            first_ply_failure_batch(*batch, svd_only)
            wants = [outcome(first_ply_failure, copy, load)
                     for copy in copies]
        assert not svd_only
        states += rows
        assert len(states) == len(decisions)
        for state, decided in zip(states, decisions):
            if not decided:
                continue
            if isinstance(state, tuple):
                assert not svd_collapsed(lam.with_angles(state))
            else:
                assert not svd_collapsed(lam, state)
        stored = set(memo)
        for copy, decided, want in zip(
                copies, decisions[len(decisions) - len(rows):], wants):
            key = memo_key(copy._angle_bits, load)
            assert (key in stored) == (decided and isinstance(want[1],
                                                              bytes))
            assert outcome(first_ply_failure, copy, load, memo) == want
        return list(zip(states, decisions))

    @pytest.mark.parametrize("m", [1, 34])
    def test_margin_follows_the_ply_count(self, m):
        """The rule reads n from the bounds' last axis: (2, m) bounds with
        U = m are cleared just above L = (2 * RCOND_COLLAPSED + 4 * (m + 8)
        * eps) * U and not just below it, alone and as a batch of two."""
        margin = 2.0 * RCOND_COLLAPSED + 4.0 * (m + 8) * np.finfo(float).eps
        rows = []
        for scale, cleared in ((1.0 + 1e-6, True), (1.0 - 1e-6, False)):
            bounds = np.array([np.full(m, margin * scale), np.ones(m)])
            assert bool(rules_out_collapse(bounds)) is cleared
            rows.append(bounds)
        assert rules_out_collapse(np.stack(rows, axis=1)).tolist() == \
            [True, False]

    @pytest.mark.parametrize("seed", [5, 6])
    def test_every_rung_of_deep_stacks(self, graphite_epoxy, monkeypatch,
                                       seed):
        """Every rung state of three 48-128-ply stacks per seed, built as
        the ladder benchmark builds them."""
        rng = np.random.default_rng(seed)
        grid = [float(a) for a in range(-90, 91, 5)]
        for _ in range(3):
            n = int(rng.integers(48, 129))
            angles = [float(a) for a in rng.choice(grid, size=n)]
            moment = 1000.0 * n * 0.125e-3 / 6.0
            load = LoadCase(tuple(rng.uniform(-1000.0, 1000.0, 3)),
                            tuple(rng.uniform(-1.0, 1.0, 3) * moment))
            lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
            decided = [d for _, d in self.check(monkeypatch, lam, load)]
            assert len(decided) > n // 2 and all(decided)

    def test_one_ply_scans_of_criterion_5_stacks(self, graphite_epoxy,
                                                 monkeypatch):
        """Every ply of criterion 5's stacks at 30-degree steps and both
        zeros, under its axial load and a pure moment."""
        rng = np.random.default_rng(55)
        grid = [float(a) for a in range(-20, 21, 5)]
        scan = [float(a) for a in range(-90, 91, 30)] + [-0.0]
        for _ in range(8):
            n = int(rng.integers(8, 35))
            lam = Laminate.from_angles(
                graphite_epoxy, 0.125e-3,
                [float(rng.choice(grid)) for _ in range(n)])
            for load in (LoadCase((1000.0, 0.0, 0.0)),
                         LoadCase((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))):
                decisions = self.check(
                    monkeypatch, lam, load,
                    [k for k in range(n) for _ in scan], scan * n)
                # The bound clears every row: none falls back to a
                # sequential solve.
                assert all(d for _, d in decisions[-n * len(scan):])

    def test_bound_clears_the_spars_full_scan(self, monkeypatch):
        """Every ply of the bundled spar at every whole degree, the scan a
        fewest-plies search runs: the bound clears all 34 x 180 rows, and
        the batch stores every one."""
        design = load_bundled_design()
        lam = design.laminate()
        angles = [float(a) for a in range(-89, 91)]
        plies = [k for k in range(lam.n_plies) for _ in angles]
        angles = angles * lam.n_plies
        decisions = []
        monkeypatch.setattr(failure, "rules_out_collapse",
                            bound_spy(decisions))
        memo = {}
        first_ply_failure_batch(lam, design.load, plies, angles, memo)
        assert len(decisions) == len(plies) == 34 * 180
        assert all(decisions)
        assert set(memo) == {
            memo_key(struct.pack(f"{lam.n_plies}d", *lam.angles[:k], a,
                                 *lam.angles[k + 1:]), design.load)
            for k, a in zip(plies, angles)}

    @pytest.mark.parametrize("load", [TestBatchedKernel.FORCE,
                                      TestBatchedKernel.BENDING],
                             ids=["N+M", "M"])
    def test_mixed_materials_thicknesses_and_zeros(self, graphite_epoxy,
                                                   monkeypatch, load):
        g, e = graphite_epoxy, GLASS_EPOXY
        rng = np.random.default_rng(15)
        grid = [0.0, -0.0, 15.0, -15.0, 45.0, -45.0, 90.0, -90.0, 30.5]
        for n in (1, 2, 5, 9, 16):
            lam = Laminate(tuple(
                Ply(float(rng.choice(grid)), float(t), (g, e)[int(k)])
                for t, k in zip(rng.uniform(0.02e-3, 0.3e-3, size=n),
                                rng.integers(0, 2, size=n))))
            self.check(monkeypatch, lam, load,
                       [k for k in range(n) for _ in grid], grid * n)

    def test_wafer_thin_survivor(self, graphite_epoxy, monkeypatch):
        """A thick 90 ply over a thin 0 ply under Nx: the 90 fails
        first, and the thin ply's thickness is swept so that its lone
        system's SVD reciprocal condition crosses 1e-12."""
        flagged, lone = [], []
        for t in np.geomspace(5e-6, 5e-5, 150).tolist():
            lam = Laminate((Ply(90.0, 0.125e-3, graphite_epoxy),
                            Ply(0.0, t, graphite_epoxy)))
            decisions = self.check(monkeypatch, lam, AXIAL, [1, 1],
                                   [0.0, 45.0])
            ladder = simulate_progressive_failure(lam, AXIAL)
            assert ladder.rungs[0].failed_plies == (0,)
            flagged.append(ladder.rungs[-1].flagged)
            lone.append(decisions[1][1])
        assert True in flagged and False in flagged
        # The lone thin ply is decided by the bound in the thick half of
        # the sweep and by the SVD elsewhere.
        assert True in lone and False in lone
        assert not any(f and d for f, d in zip(flagged, lone))

    def test_batch_swaps_the_replaced_plys_bound(self, monkeypatch):
        """One ply of :data:`SHEAR_STIFF` whose 0-degree state the bound
        decides, while its system has collapsed near 45 degrees: each
        row must be bounded with its own angle's terms."""
        lam = Laminate.from_angles(SHEAR_STIFF, 0.012, [0.0])
        angles = [float(a) for a in range(-90, 91, 5)]
        decisions = self.check(monkeypatch, lam, AXIAL,
                               [0] * len(angles), angles)
        assert decisions[0][1]   # the 0-degree ply alone: bounded
        cleared = [d for _, d in decisions[-len(angles):]]
        collapsed = [svd_collapsed(lam.with_angles([a])) for a in angles]
        assert collapsed[angles.index(45.0)]
        assert not collapsed[angles.index(0.0)]
        assert cleared[angles.index(0.0)]

    @staticmethod
    def assert_rows_bounded_as_their_states(monkeypatch, lam, loads, plies,
                                            angles):
        """Run the batch under each load with ``rules_out_collapse``
        spied on: each row's per-ply bounds are, bit for bit, those
        ``_rung`` takes for the row's state, and each row's decision is
        the rule's on them. Returns the decisions of the last load."""
        calls = []
        rule = failure.rules_out_collapse

        def spy(bounds):
            decided = rule(bounds)
            calls.append((bounds.copy(), decided))
            return decided

        monkeypatch.setattr(failure, "rules_out_collapse", spy)
        for load in loads:
            first_ply_failure_batch(lam, load, plies, angles, {})
        monkeypatch.undo()
        assert len(calls) == len(loads)
        states = {}
        for row in TestBatchedKernel.rows(lam, plies, angles):
            if row not in states:
                bounds = failure._kernel_inputs(
                    lam.with_angles(row), loads[0])[0][3][3:]
                states[row] = (bounds.tobytes(),
                               bool(rule(bounds)))
        want = [states[row]
                for row in TestBatchedKernel.rows(lam, plies, angles)]
        for bounds, decided in calls:
            assert bounds.shape == (2, len(plies), lam.n_plies)
            got = [(bounds[:, b].tobytes(), d)
                   for b, d in enumerate(decided.tolist())]
            assert got == want
        return decided

    def test_batch_rows_carry_their_states_bounds(self, graphite_epoxy,
                                                  monkeypatch):
        """The spar's full 34 x 180 scan, and every ply of eight random
        stacks of 1-129 plies (two materials, random thicknesses, both
        zeros) at 30-degree steps under N+M and M: a batch row is
        cleared exactly when the rung kernel would clear its state by
        the bound."""
        design = load_bundled_design()
        lam = design.laminate()
        angles = [float(a) for a in range(-89, 91)]
        decided = self.assert_rows_bounded_as_their_states(
            monkeypatch, lam, [design.load],
            [k for k in range(lam.n_plies) for _ in angles],
            angles * lam.n_plies)
        assert decided.all()
        g, e = graphite_epoxy, GLASS_EPOXY
        grid = [float(a) for a in range(-90, 91, 30)] + [-0.0]
        rng = np.random.default_rng(27)
        for _ in range(8):
            n = int(rng.integers(1, 130))
            lam = Laminate(tuple(
                Ply(float(rng.choice(grid)), float(t), (g, e)[int(k)])
                for t, k in zip(rng.uniform(0.02e-3, 0.3e-3, size=n),
                                rng.integers(0, 2, size=n))))
            self.assert_rows_bounded_as_their_states(
                monkeypatch, lam,
                [TestBatchedKernel.FORCE, TestBatchedKernel.BENDING],
                [k for k in range(n) for _ in grid], grid * n)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
