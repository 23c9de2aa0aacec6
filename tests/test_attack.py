"""Tests for the two ply-orientation tamper searches.

The binding checks are hand-rolled replays of both search loops built on
``tests/ladder_oracle.py`` primitives: same visit order, same rules, but a
completely separate evaluation path. The package's searches must land on
the same plies with the same deltas.
"""

import dataclasses
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import ladder_oracle
from test_acceptance import gap_of
from test_failure import (
    masked_ladder,
    memo_counts,
    record_fields,
    rung_states,
    tail_keys,
)

from plytamper.clt import (
    Laminate,
    LoadCase,
    MaterialProperties,
    Ply,
    angle_bits_with,
)
from plytamper.attack import (
    ATTACK_TYPES,
    AttackResult,
    AttackSpec,
    AttackStatus,
    focused_attack,
    middle_out_order,
    spread_attack,
    target_force,
)
from plytamper.attack import _FIRST_BATCH, _MAX_BATCH, _Search
from plytamper.designfile import load_bundled_design
from plytamper.clt import NoLoadedPlyError
from plytamper.failure import (
    first_ply_failure,
    first_ply_failure_batch,
    memo_key,
    simulate_progressive_failure,
    ties_at_minimum,
)
from plytamper.report import attack_block, render_report_text


ORACLE_MATERIAL = dict(e1=181e9, e2=10.3e9, g12=7.17e9, nu12=0.28,
                       s1t=1500e6, s1c=1500e6, s2t=40e6, s2c=246e6,
                       t12u=68e6)

AXIAL = LoadCase(n=(1.0, 0.0, 0.0))
PLY_T = 0.125e-3
CRIT_TOL = 1e-6


def make_spec(target_sf=1.0, **kwargs):
    return AttackSpec(load=AXIAL, target_sf=target_sf, design_sf=1.5,
                      **kwargs)


def rounded_up_spec(lam, design_sf):
    """The public spec one ulp below ``design_sf``, checked to round its
    target up to the original multiplier, so the search must be a no-op."""
    spec = AttackSpec(load=AXIAL, target_sf=math.nextafter(design_sf, 0.0),
                      design_sf=design_sf)
    mult, _ = first_ply_failure(lam, AXIAL)
    assert target_force(mult, design_sf, spec.target_sf) >= mult
    return spec


# =============================================================================
# Search-loop replays on oracle arithmetic
# =============================================================================

def _oracle_ratios(angles):
    return ladder_oracle.intact_strength_ratios(
        [ORACLE_MATERIAL] * len(angles), [PLY_T] * len(angles), list(angles),
        (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _visit_order(n):
    """Middle-out order, derived here by hand for independence."""
    if n % 2:
        seq = [n // 2]
        left, right = n // 2 - 1, n // 2 + 1
    else:
        seq = []
        left, right = n // 2 - 1, n // 2
    while left >= 0 or right < n:
        if left >= 0:
            seq.append(left)
            left -= 1
        if right < n:
            seq.append(right)
            right += 1
    return seq


def _critical(ratios, idx):
    low = min(r for r in ratios if math.isfinite(r))
    return math.isfinite(ratios[idx]) and ratios[idx] - low <= CRIT_TOL * low


def replay_spread(angles0, target_mult, max_sweeps=90):
    """Hand replay of the type-1 loop on oracle arithmetic.

    Returns the deltas the search should report: the state that met the
    target on success, the best state seen when the budget runs out.
    """
    n = len(angles0)
    signs = [-1.0 if a < 0.0 else 1.0 for a in angles0]
    deltas = [0.0] * n
    angles = list(angles0)
    ratios = _oracle_ratios(angles)
    mult = min(r for r in ratios if math.isfinite(r))
    if mult <= target_mult:
        return deltas, "no_op"
    best_mult, best_deltas = mult, list(deltas)
    for _ in range(max_sweeps):
        for p in _visit_order(n):
            if not _critical(ratios, p):
                continue
            deltas[p] += signs[p]
            angles[p] = angles0[p] + deltas[p]
            ratios = _oracle_ratios(angles)
            mult = min(r for r in ratios if math.isfinite(r))
            if mult < best_mult:
                best_mult, best_deltas = mult, list(deltas)
            if mult <= target_mult:
                return deltas, "success"
    return best_deltas, "budget_exhausted"


def replay_focused(angles0, target_mult, max_evals=20000):
    """Hand replay of the type-2 loop on oracle arithmetic."""
    n = len(angles0)
    deltas = [0.0] * n
    angles = list(angles0)
    ratios = _oracle_ratios(angles)
    mult = min(r for r in ratios if math.isfinite(r))
    evals = 1
    if mult <= target_mult:
        return deltas, "no_op"
    processed = set()
    while True:
        ply = next((p for p in _visit_order(n)
                    if p not in processed and _critical(ratios, p)), None)
        if ply is None:
            return deltas, "no_solution"
        direction = 0.0
        for trial_dir in (1.0, -1.0):
            if evals >= max_evals:
                return deltas, "budget_exhausted"
            trial = list(angles)
            trial[ply] = angles0[ply] + deltas[ply] + trial_dir
            trial_ratios = _oracle_ratios(trial)
            trial_mult = min(r for r in trial_ratios if math.isfinite(r))
            evals += 1
            if trial_mult < mult:
                direction = trial_dir
                deltas[ply] += trial_dir
                angles, ratios, mult = trial, trial_ratios, trial_mult
                break
        if direction != 0.0:
            while True:
                if evals >= max_evals:
                    return deltas, "budget_exhausted"
                trial = list(angles)
                trial[ply] = angles0[ply] + deltas[ply] + direction
                trial_ratios = _oracle_ratios(trial)
                trial_mult = min(r for r in trial_ratios if math.isfinite(r))
                evals += 1
                if trial_mult >= mult:
                    break
                deltas[ply] += direction
                angles, ratios, mult = trial, trial_ratios, trial_mult
        processed.add(ply)
        if mult <= target_mult:
            return deltas, "success"


# =============================================================================
# Plumbing
# =============================================================================

class TestMiddleOutOrder:

    def test_even_count(self):
        assert middle_out_order(8) == (3, 4, 2, 5, 1, 6, 0, 7)

    def test_odd_count(self):
        assert middle_out_order(5) == (2, 1, 3, 0, 4)

    def test_tiny(self):
        assert middle_out_order(1) == (0,)
        assert middle_out_order(2) == (0, 1)

    def test_visits_every_ply_once(self):
        for n in range(1, 40):
            assert sorted(middle_out_order(n)) == list(range(n))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            middle_out_order(0)


class TestAttackSpec:

    def test_valid(self):
        spec = make_spec(0.9)
        assert spec.target_sf == 0.9

    @pytest.mark.parametrize("target_sf", [0.0, -1.0, 1.5, 2.0])
    def test_target_sf_range_enforced(self, target_sf):
        with pytest.raises(ValueError):
            make_spec(target_sf)

    def test_zero_load_rejected(self):
        with pytest.raises(ValueError):
            AttackSpec(load=LoadCase(n=(0.0, 0.0, 0.0)), target_sf=1.0)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match=r"budget=0\)"):
            make_spec(1.0, budget=0)
        with pytest.raises(ValueError, match=r"budget=-3\)"):
            make_spec(1.0, budget=-3)
        assert make_spec(1.0, budget=1).budget == 1

    @pytest.mark.parametrize("budget", [2.5, 3.0, True, False, "7"])
    def test_budget_must_be_an_integer(self, budget):
        """A float budget would run 2.5 evaluations of type 2 and crash
        type 1's sweep range; a bool would run as 1 or 0."""
        with pytest.raises(ValueError, match=r"budget must be an integer "
                                             r"\(got budget="):
            make_spec(1.0, budget=budget)

    def test_fields_are_pinned(self):
        assert [f.name for f in dataclasses.fields(AttackSpec)] == [
            "load", "target_sf", "design_sf", "budget"]

    @pytest.mark.parametrize("knob", ["step_deg", "critical_rel_tol",
                                      "max_sweeps", "max_iterations",
                                      "target_multiplier"])
    def test_step_and_tolerance_are_not_settable(self, knob, graphite_epoxy):
        """Both searches step one degree, share one critical tolerance,
        read one budget field and take their target from the spec."""
        with pytest.raises(TypeError, match=knob):
            make_spec(1.0, **{knob: 1.0})
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0] * 8)
        for attack in (spread_attack, focused_attack):
            with pytest.raises(TypeError, match=knob):
                attack(lam, make_spec(1.0), **{knob: 1.0})


class TestTargetForce:

    def test_ratio(self):
        assert target_force(3000.0, 1.5, 1.0) == pytest.approx(2000.0)

    def test_identity(self):
        assert target_force(3000.0, 1.5, 1.5) == pytest.approx(3000.0)

    def test_linear_in_original(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = rng.uniform(100.0, 1e6)
            assert target_force(2.0 * f, 1.5, 0.8) == pytest.approx(
                2.0 * target_force(f, 1.5, 0.8), rel=1e-12)

    def test_invalid_design_sf(self):
        with pytest.raises(ValueError):
            target_force(1000.0, 0.0, 1.0)

    @pytest.mark.parametrize("target_sf", [1.0, 0.9, 0.8])
    def test_is_the_search_target_bit_for_bit(self, target_sf):
        """The reported target is exactly this function's value on the
        result's original multiplier and safety factors."""
        design = load_bundled_design()
        result = focused_attack(
            design.laminate(),
            AttackSpec(design.load, target_sf, design_sf=design.design_sf,
                       budget=1))
        assert target_force(result.original_multiplier, design.design_sf,
                            target_sf) == result.target_multiplier


class TestDominantLoadComponent:
    """``LoadCase.dominant_axis`` converts multipliers into reported forces."""

    def test_picks_largest_force_magnitude(self):
        assert LoadCase(n=(1.0, -3.0, 2.0)).dominant_axis() == ("Ny", -3.0)

    def test_tie_goes_to_first_axis(self):
        assert LoadCase(n=(2.0, -2.0, 0.0)).dominant_axis() == ("Nx", 2.0)

    def test_falls_back_to_moments(self):
        load = LoadCase(n=(0.0, 0.0, 0.0), m=(0.0, 0.5, -0.2))
        assert load.dominant_axis() == ("My", 0.5)


# =============================================================================
# Type 1: spread attack
# =============================================================================

class TestSpreadAttack:

    def test_uniform_stack_matches_replay(self, graphite_epoxy):
        """The package search must walk exactly like the oracle replay."""
        angles = [0.0] * 8
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, angles)
        result = spread_attack(lam, make_spec(1.0))
        expected_deltas, expected_status = replay_spread(
            angles, result.target_multiplier)
        assert result.status.value == expected_status == "success"
        assert list(result.deltas) == expected_deltas

    def test_mixed_stack_matches_replay(self, graphite_epoxy):
        angles = [0.0, 20.0, -20.0, 0.0, 20.0, -20.0, 0.0, 0.0]
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, angles)
        result = spread_attack(lam, make_spec(0.8))
        expected_deltas, expected_status = replay_spread(
            angles, result.target_multiplier)
        assert result.status.value == expected_status == "success"
        assert list(result.deltas) == expected_deltas

    def test_exhausted_budget_matches_replay(self, graphite_epoxy):
        """Best-found bookkeeping must agree with the replay too."""
        angles = [0.0, 30.0, -30.0, 0.0, 30.0, -30.0, 0.0]
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, angles)
        result = spread_attack(lam, make_spec(0.8))
        expected_deltas, expected_status = replay_spread(
            angles, result.target_multiplier)
        assert result.status.value == expected_status == "budget_exhausted"
        assert list(result.deltas) == expected_deltas

    @pytest.mark.parametrize("base_angle, expected_sign", [
        (20.0, 1.0), (-20.0, -1.0), (0.0, 1.0),
    ])
    def test_sign_rule(self, graphite_epoxy, base_angle, expected_sign):
        """Deltas push away from zero; zero-angle plies go positive."""
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [base_angle] * 6)
        result = spread_attack(lam, make_spec(1.0))
        assert result.altered_count >= 1
        for delta in result.deltas:
            if delta != 0.0:
                assert math.copysign(1.0, delta) == expected_sign

    def test_mirrored_stack_gives_mirrored_deltas(self, graphite_epoxy):
        """Flipping every angle flips every delta, step for step."""
        pos = spread_attack(
            Laminate.from_angles(graphite_epoxy, PLY_T, [20.0] * 6),
            make_spec(1.0))
        neg = spread_attack(
            Laminate.from_angles(graphite_epoxy, PLY_T, [-20.0] * 6),
            make_spec(1.0))
        assert pos.status == neg.status
        assert list(neg.deltas) == [-d for d in pos.deltas]

    def test_achieved_force_reproducible(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0] * 8)
        result = spread_attack(lam, make_spec(1.0))
        mult, _ = first_ply_failure(lam.with_angles(result.new_angles), AXIAL)
        assert mult == result.achieved_multiplier
        assert result.achieved_multiplier <= result.target_multiplier

    def test_angles_only(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0] * 8)
        result = spread_attack(lam, make_spec(1.0))
        tampered = lam.with_angles(result.new_angles)
        assert tampered.n_plies == lam.n_plies
        for old, new in zip(lam.plies, tampered.plies):
            assert new.thickness == old.thickness
            assert new.material is old.material

    def test_no_op_when_target_rounds_up(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0] * 8)
        result = spread_attack(lam, rounded_up_spec(lam, 1.5))
        assert result.status is AttackStatus.NO_OP
        assert result.altered_count == 0
        assert set(result.deltas) == {0.0}
        assert result.achieved_multiplier == result.original_multiplier

    def test_budget_exhausted_returns_best_state(self, graphite_epoxy):
        """With one sweep the target is unreachable; best state comes back."""
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0] * 8)
        result = spread_attack(lam, make_spec(1.0, budget=1))
        assert result.status is AttackStatus.BUDGET_EXHAUSTED
        assert result.achieved_multiplier > result.target_multiplier
        assert result.achieved_multiplier <= result.original_multiplier
        mult, _ = first_ply_failure(lam.with_angles(result.new_angles), AXIAL)
        assert mult == result.achieved_multiplier

    def test_deterministic(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T,
                                   [0.0, 30.0, -30.0, 0.0, 30.0, -30.0, 0.0])
        assert spread_attack(lam, make_spec(0.8)) == \
            spread_attack(lam, make_spec(0.8))

    def test_can_leave_progressive_design_catastrophic(self, graphite_epoxy):
        """A progressive original does not stay progressive under type 1.

        [30/-30/0_5]s under 100 kN/m fails progressively (gap ratio 0.14).
        Fifteen 1° steps on ply 1 meet the target, and the tampered ladder
        is a catastrophic 14-rung collapse.
        """
        def gap(ladder):
            return (ladder[-1][0] - ladder[0][0]) / ladder[0][0]

        angles = [30.0, -30.0] + [0.0] * 10 + [-30.0, 30.0]
        load = LoadCase(n=(1e5, 0.0, 0.0))
        thicknesses = [PLY_T] * len(angles)
        original = ladder_oracle.failure_ladder(
            ORACLE_MATERIAL, thicknesses, angles, load.n, load.m)
        assert gap(original) > 0.05

        lam = Laminate.from_angles(graphite_epoxy, PLY_T, angles)
        result = spread_attack(
            lam, AttackSpec(load=load, target_sf=1.0, design_sf=1.3))
        assert result.status is AttackStatus.SUCCESS
        assert list(result.deltas) == [0.0, -15.0] + [0.0] * 12

        expected = ladder_oracle.failure_ladder(
            ORACLE_MATERIAL, thicknesses, list(result.new_angles),
            load.n, load.m)
        assert len(result.ladder.rungs) == len(expected) == 14
        for rung, (mult, plies, flagged) in zip(result.ladder.rungs,
                                                expected):
            assert sorted(rung.failed_plies) == plies
            assert rung.flagged == flagged
            assert math.isclose(rung.force_multiplier, mult, rel_tol=1e-6)
        assert gap(expected) < 0.05


# =============================================================================
# Type 2: focused attack
# =============================================================================

class TestFocusedAttack:

    def test_uniform_stack_matches_replay(self, graphite_epoxy):
        angles = [0.0] * 8
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, angles)
        result = focused_attack(lam, make_spec(1.0))
        expected_deltas, expected_status = replay_focused(
            angles, result.target_multiplier)
        assert result.status.value == expected_status == "success"
        assert list(result.deltas) == expected_deltas

    def test_mixed_stack_matches_replay(self, graphite_epoxy):
        angles = [0.0, 20.0, -20.0, 0.0, 20.0, -20.0, 0.0, 0.0]
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, angles)
        result = focused_attack(lam, make_spec(0.8))
        expected_deltas, expected_status = replay_focused(
            angles, result.target_multiplier)
        assert result.status.value == expected_status == "success"
        assert list(result.deltas) == expected_deltas

    def test_dead_end_matches_replay(self, graphite_epoxy):
        """No-solution states must agree with the replay as well."""
        angles = [0.0, 45.0, -45.0, 0.0, 0.0, 45.0, -45.0, 0.0, 0.0, 0.0]
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, angles)
        result = focused_attack(lam, make_spec(1.0))
        expected_deltas, expected_status = replay_focused(
            angles, result.target_multiplier)
        assert result.status.value == expected_status == "no_solution"
        assert list(result.deltas) == expected_deltas

    def test_single_ply_worked_on_uniform_stack(self, graphite_epoxy):
        """One middle ply descends to its grid minimum; others untouched."""
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0] * 8)
        result = focused_attack(lam, make_spec(1.0))
        assert result.status is AttackStatus.SUCCESS
        assert result.altered_count == 1
        assert result.deltas[3] != 0.0

    def test_altered_plies_sit_at_grid_local_minimum(self, graphite_epoxy):
        """±1° on any altered ply must not beat the achieved force."""
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0] * 8)
        result = focused_attack(lam, make_spec(1.0))
        assert result.status is AttackStatus.SUCCESS
        for i, delta in enumerate(result.deltas):
            if delta == 0.0:
                continue
            for offset in (1.0, -1.0):
                perturbed = list(result.new_angles)
                perturbed[i] = result.original_angles[i] + delta + offset
                mult, _ = first_ply_failure(lam.with_angles(perturbed), AXIAL)
                assert mult >= result.achieved_multiplier * (1.0 - 1e-6)

    def test_no_solution_on_stuck_symmetric_stack(self, graphite_epoxy):
        """Weakest-ply descent on a symmetric stack leaves no second target."""
        angles = [45, -45, 0, 90, 0, 30, -30, 0, 90, 0, -45, 45]
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, angles)
        result = focused_attack(lam, make_spec(1.0))
        assert result.status is AttackStatus.NO_SOLUTION
        assert result.achieved_multiplier > result.target_multiplier
        mult, _ = first_ply_failure(lam.with_angles(result.new_angles), AXIAL)
        assert mult == result.achieved_multiplier

    def test_budget_exhausted_midway(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0] * 8)
        result = focused_attack(lam, make_spec(1.0, budget=10))
        assert result.status is AttackStatus.BUDGET_EXHAUSTED
        assert result.evaluations == 10
        mult, _ = first_ply_failure(lam.with_angles(result.new_angles), AXIAL)
        assert mult == result.achieved_multiplier

    def test_no_op_when_target_rounds_up(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0] * 8)
        result = focused_attack(lam, rounded_up_spec(lam, 1.5))
        assert result.status is AttackStatus.NO_OP
        assert result.altered_count == 0
        assert result.evaluations == 1

    def test_deterministic(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T,
                                   [0.0, 30.0, -30.0, 0.0, 30.0, -30.0, 0.0])
        assert focused_attack(lam, make_spec(0.8)) == \
            focused_attack(lam, make_spec(0.8))


# =============================================================================
# Result bookkeeping and rendering
# =============================================================================

class TestAttackResult:

    def test_fields_are_pinned(self):
        """Forces are not stored: the report derives them from the spec."""
        assert [f.name for f in dataclasses.fields(AttackResult)] == [
            "attack_type", "status", "spec", "original_angles", "new_angles",
            "deltas", "original_multiplier", "achieved_multiplier", "ladder",
            "evaluations", "sweeps"]

    def test_carries_its_spec(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0] * 8)
        spec = make_spec(0.9)
        for attack in (spread_attack, focused_attack):
            result = attack(lam, spec)
            assert result.spec is spec
            assert result.target_multiplier == target_force(
                result.original_multiplier, 1.5, 0.9)

    def test_registry_maps_cli_numbers(self):
        assert ATTACK_TYPES[1] is spread_attack
        assert ATTACK_TYPES[2] is focused_attack

    @pytest.mark.parametrize("attack_type, status, evaluations, sweeps", [
        (1, "budget_exhausted", 92, 90),
        (2, "success", 91, 0),
    ])
    def test_bundled_evaluation_accounting(self, attack_type, status,
                                           evaluations, sweeps):
        """Reports carry these counts; the focused search probes the
        second direction only when the first one did not move the ply."""
        design = load_bundled_design()
        result = ATTACK_TYPES[attack_type](
            design.laminate(),
            AttackSpec(design.load, 1.0, design_sf=design.design_sf))
        assert (result.status.value, result.evaluations,
                result.sweeps) == (status, evaluations, sweeps)

    def test_deviation_bookkeeping(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0, 0, 0])
        base = focused_attack(lam, make_spec(1.0))
        synthetic = dataclasses.replace(
            base, original_angles=(0.0, 0.0, 0.0),
            new_angles=(5.0, 0.0, -3.0), deltas=(5.0, 0.0, -3.0))
        assert synthetic.altered_count == 2
        assert synthetic.max_pos_dev == 5.0
        assert synthetic.max_neg_dev == -3.0

    def test_summary_round_trips(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0] * 8)
        result = focused_attack(lam, make_spec(1.0))
        text = render_attack_text(result)
        fields = {}
        rows = []
        for line in text.splitlines():
            if line == "tampered-design failure ladder:":
                break
            if ":" in line and not line.lstrip().startswith("ply"):
                key, value = line.split(":", 1)
                fields[key.strip()] = value.strip()
            elif line and line.split()[0].isdigit():
                rows.append(line.split())
        assert int(fields["plies"]) == 8
        assert int(fields["altered"]) == result.altered_count
        assert int(fields["unaltered"]) == 8 - result.altered_count
        assert float(fields["max pos deviation"]) == result.max_pos_dev
        assert float(fields["max neg deviation"]) == result.max_neg_dev
        assert fields["status"] == result.status.value
        assert len(rows) == 8
        for row in rows:
            i = int(row[0])
            assert float(row[1]) == result.original_angles[i]
            assert float(row[2]) == result.new_angles[i]
            assert float(row[3]) == result.deltas[i]

    def test_zero_delta_summary(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0, 45.0])
        result = spread_attack(lam, rounded_up_spec(lam, 1.91))
        assert result.status is AttackStatus.NO_OP
        text = render_attack_text(result)
        assert "altered          : 0" in text
        assert "unaltered        : 2" in text

    def test_text_reports_the_results_own_safety_factors(
            self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T, [0.0, 45.0])
        result = spread_attack(lam, rounded_up_spec(lam, 1.91))
        text = render_attack_text(result)
        assert "design sf        : 1.91\n" in text
        assert f"target sf        : {result.spec.target_sf:g}\n" in text


class TestAttackBlock:
    """The report is where multipliers become forces."""

    @pytest.mark.parametrize("attack", [spread_attack, focused_attack])
    def test_moment_only_load_reports_my_forces(self, attack,
                                                graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, PLY_T,
                                   [0.0, 30.0, -30.0, 90.0, 0.0])
        load = LoadCase(n=(0.0, 0.0, 0.0), m=(0.2, -2.5, 0.7))
        spec = AttackSpec(load, 0.9, design_sf=1.5)
        result = attack(lam, spec)
        block = attack_block(result)
        my = spec.load.m[1]
        assert block["design_sf"] == 1.5 and block["target_sf"] == 0.9
        assert block["original_critical_force"] == (
            result.original_multiplier * my)
        assert block["target_critical_force"] == (
            result.target_multiplier * my)
        assert block["achieved_critical_force"] == (
            result.achieved_multiplier * my)
        ladder = block["tampered_ladder"]
        assert ladder["dominant_axis"] == "My"
        for rung, computed in zip(ladder["rungs"], result.ladder.rungs):
            assert rung["force"] == computed.force_multiplier * my


def exact(value):
    """``value`` with every float replaced by its hex string, recursively
    through tuples and dataclasses, so ``==`` compares bits (0.0 != -0.0)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(exact(v) for v in value)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            exact(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


def outcome(attack_type, lam, spec):
    """A search's result as :func:`exact` bits, or the error it raised."""
    try:
        return exact(ATTACK_TYPES[attack_type](lam, spec))
    except ArithmeticError as error:
        return type(error).__name__, str(error)


def criterion5_stacks(count):
    """The first ``count`` stacks of acceptance criterion 5's suite."""
    rng = np.random.default_rng(55)
    grid = [float(a) for a in range(-20, 21, 5)]
    stacks = []
    for _ in range(count):
        n = int(rng.integers(8, 35))
        stacks.append([float(rng.choice(grid)) for _ in range(n)])
    return stacks


class TestSharedMemo:
    """Searches on one laminate share its memo and give fresh-run bits."""

    BENDING = LoadCase((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))

    @staticmethod
    def searches(design_sf, variants):
        """All six (target, type) searches per (load, budget), in suite
        order."""
        return [(AttackSpec(load, sf, design_sf=design_sf, budget=budget),
                 attack_type)
                for load, budget in variants
                for sf in (1.0, 0.9, 0.8) for attack_type in (1, 2)]

    @staticmethod
    def assert_shared_matches_fresh(make, searches) -> int:
        """Run ``searches`` on one laminate from ``make()``, in order and
        reversed, each result bit-equal to the same search on its own
        fresh laminate. Returns how many searches raised."""
        fresh = {(spec, t): outcome(t, make(), spec) for spec, t in searches}
        for order in (searches, searches[::-1]):
            shared = make()
            for spec, t in order:
                assert outcome(t, shared, spec) == fresh[(spec, t)], (spec, t)
        return sum(r[0] != "AttackResult" for r in fresh.values())

    @pytest.mark.parametrize("stack, bending",
                             [(i, False) for i in range(10)] + [(13, True)])
    def test_criterion5_stack(self, graphite_epoxy, stack, bending):
        """Criterion 5's load; its 14th stack also under a moment-only
        load, two loads on one laminate, where some ladders are left
        without a loaded ply."""
        angles = criterion5_stacks(stack + 1)[stack]
        loads = [LoadCase((1000.0, 0.0, 0.0))] + [self.BENDING] * bending
        raised = self.assert_shared_matches_fresh(
            lambda: Laminate.from_angles(graphite_epoxy, PLY_T, angles),
            self.searches(1.5, [(load, None) for load in loads]))
        assert bool(raised) == bending

    def test_bundled_spar(self):
        """The spar under its own load, whole and with a budget that
        stops both strategies early."""
        design = load_bundled_design()
        self.assert_shared_matches_fresh(design.laminate, self.searches(
            design.design_sf, [(design.load, None), (design.load, 40)]))

    def test_every_evaluation_calls_the_kernel(self, monkeypatch):
        """One ``first_ply_failure`` call per counted evaluation, memo
        hits included, across the targets and strategies of one design."""
        calls = []

        def counted(lam, load, memo=None):
            calls.append(memo)
            return first_ply_failure(lam, load, memo)

        monkeypatch.setattr("plytamper.attack.first_ply_failure", counted)
        design = load_bundled_design()
        lam, results = design.laminate(), []
        for spec, attack_type in self.searches(
                design.design_sf, [(design.load, None)]):
            before = len(calls)
            results.append(ATTACK_TYPES[attack_type](lam, spec))
            assert len(calls) - before == results[-1].evaluations
        assert all(memo is lam.memo for memo in calls)
        # Records: one per distinct state, whose ladder (if any) sits in
        # the same record, and one tail per distinct rung state past a
        # ladder's first.
        counts = memo_counts(lam.memo)
        assert counts["first"] + counts["ladder"] < len(calls) / 2
        states = {key for result in results
                  for key in rung_states(result.new_angles,
                                         result.ladder)}
        assert counts["tail"] == len(states)
        assert tail_keys(lam.memo) == states


class TestLinePrefetch:
    """Solving a line's next states ahead changes only the memo."""

    @staticmethod
    def six_searches(lam, design_sf, load):
        """The (target, type) searches of one design on one laminate,
        as bits, and the laminate's memo size afterwards."""
        results = [outcome(attack_type, lam, spec)
                   for spec, attack_type in TestSharedMemo.searches(
                       design_sf, [(load, None)])]
        return results, len(lam.memo)

    def assert_prefetch_changes_only_the_memo(self, monkeypatch, make,
                                              design_sf, load):
        lines, batches = [], []
        prefetch = _Search._prefetch

        def traced(search, ply, step, delta):
            lines.append((search, (ply, step)))
            prefetch(search, ply, step, delta)

        def counted(*args):
            batches.append(len(args[2]))
            return first_ply_failure_batch(*args)

        monkeypatch.setattr(_Search, "_prefetch", traced)
        monkeypatch.setattr("plytamper.attack.first_ply_failure_batch",
                            counted)
        prefetched, prefetched_size = self.six_searches(make(), design_sf,
                                                        load)
        # A miss on a new line solves _FIRST_BATCH states; each further
        # miss on the same line of the same search doubles the batch.
        expected, last = [], {}
        for search, line in lines:
            previous = last.get(search)
            size = (min(2 * previous[1], _MAX_BATCH)
                    if previous and previous[0] == line else _FIRST_BATCH)
            last[search] = (line, size)
            expected.append(size)
        assert batches and batches == expected
        monkeypatch.setattr(_Search, "_prefetch", lambda *args: None)
        sequential, sequential_size = self.six_searches(make(), design_sf,
                                                        load)
        assert prefetched == sequential
        assert prefetched_size > sequential_size

    @pytest.mark.parametrize("stack", range(3))
    def test_criterion5_stack(self, graphite_epoxy, monkeypatch, stack):
        angles = criterion5_stacks(stack + 1)[stack]
        self.assert_prefetch_changes_only_the_memo(
            monkeypatch,
            lambda: Laminate.from_angles(graphite_epoxy, PLY_T, angles),
            1.5, LoadCase((1000.0, 0.0, 0.0)))

    def test_criterion5_stack_bending(self, graphite_epoxy, monkeypatch):
        # Under a moment only, the searches rotate the outer plies in
        # turn, so lines interleave and most misses start a new line.
        angles = criterion5_stacks(1)[0]
        self.assert_prefetch_changes_only_the_memo(
            monkeypatch,
            lambda: Laminate.from_angles(graphite_epoxy, PLY_T, angles),
            1.5, LoadCase((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)))

    def test_bundled_spar(self, monkeypatch):
        design = load_bundled_design()
        self.assert_prefetch_changes_only_the_memo(
            monkeypatch, design.laminate, design.design_sf, design.load)


class TestMemoSoundness:
    """Every ``first`` and ``ladder`` the six searches leave in a
    laminate's memo records is what a fresh laminate at the record's
    angles gives, float for float. They come from the sequential calls,
    the batched lines and the ladders, so a key spliced at the wrong ply
    or stored for the wrong row shows here. A ladder tail's key marks its
    failed plies, and its ``ladder`` is the knockout loop started with
    those plies failed."""

    FORCE = LoadCase((1000.0, -300.0, 150.0), (0.05, 0.0, -0.02))
    BENDING = LoadCase((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    GLASS = MaterialProperties(
        e1=38.6e9, e2=8.27e9, g12=4.14e9, nu12=0.26,
        sigma1t_ult=1062e6, sigma1c_ult=610e6,
        sigma2t_ult=31e6, sigma2c_ult=118e6, tau12_ult=72e6)

    @staticmethod
    def assert_memo_sound(make, design_sf, loads) -> None:
        """Run the six searches under each load on one laminate from
        ``make()``, then check every memo record against a fresh one."""
        lam = make()
        for spec, attack_type in TestSharedMemo.searches(
                design_sf, [(load, None) for load in loads]):
            outcome(attack_type, lam, spec)
        assert len(lam.memo) > 50
        fresh, n = make(), lam.n_plies
        by_bits = {load._bits: load for load in loads}
        for bits, record in lam.memo.items():
            angles = struct.unpack(f"{n}d", bits[:8 * n])
            failed = [k for k, a in enumerate(angles) if math.isnan(a)]
            assert all(bits[8 * k:8 * k + 8] == struct.pack("d", math.nan)
                       for k in failed)
            # A failed ply's angle is not in the key: any angle will do.
            state = fresh.with_angles(
                [fresh.angles[k] if k in failed else a
                 for k, a in enumerate(angles)])
            load = by_bits[bits[8 * n:]]
            assert record.first is not None or record.ladder is not None
            if record.first is not None:
                assert not failed
                mult, sr = first_ply_failure(state, load)
                got, ratios = record.first
                assert exact((got, tuple(ratios.tolist()))) == \
                    exact((mult, tuple(sr.tolist()))), state.angles
            if record.ladder is not None:
                assert exact(record.ladder) == exact(
                    masked_ladder(state, load, failed)), \
                    (state.angles, failed)

    @pytest.mark.parametrize("stack", range(3))
    def test_criterion5_stack(self, graphite_epoxy, stack):
        angles = criterion5_stacks(stack + 1)[stack]
        self.assert_memo_sound(
            lambda: Laminate.from_angles(graphite_epoxy, PLY_T, angles),
            1.5, [LoadCase((1000.0, 0.0, 0.0))])

    def test_bundled_spar(self):
        """The spar under its own load and under a moment-only one."""
        design = load_bundled_design()
        self.assert_memo_sound(design.laminate, design.design_sf,
                               [design.load, self.BENDING])

    @classmethod
    def mixed_stack(cls, graphite_epoxy):
        """A maker of a stack of two materials, four thicknesses and
        both zeros."""
        g, e = graphite_epoxy, cls.GLASS
        angles = (0.0, -0.0, 15.0, -30.0, -0.0, 45.0, 0.0, -15.0, 10.0)
        thickness = (0.1e-3, 0.125e-3, 0.2e-3, 0.125e-3, 0.1e-3, 0.2e-3,
                     0.15e-3, 0.125e-3, 0.1e-3)
        materials = (g, e, g, g, e, e, g, e, g)
        return lambda: Laminate(tuple(Ply(a, t, m) for a, t, m in
                                      zip(angles, thickness, materials)))

    def test_mixed_stack_with_signed_zeros(self, graphite_epoxy):
        """The mixed stack under N+M and a moment-only load."""
        self.assert_memo_sound(self.mixed_stack(graphite_epoxy), 1.5,
                               [self.FORCE, self.BENDING])


class TestSearchStates:
    """A laminate's memo record of each state its searches evaluated
    keeps the rotated copy, built once, and the critical set, reused on
    every revisit."""

    FORCE = LoadCase((1000.0, 0.0, 0.0))
    BENDING = LoadCase((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))

    @staticmethod
    def traced_searches(monkeypatch, lam, design_sf, loads, fail=None):
        """Run the six searches under each load on ``lam``, in suite
        order. Returns the copies :meth:`Laminate._with_ply_angle` built
        and each kernel call's (state, memo key, raised). A kernel call
        whose key is ``fail`` raises instead of returning."""
        built, calls = [], []
        with_ply_angle = Laminate._with_ply_angle

        def build(self, index, angle, angle_bits):
            built.append(with_ply_angle(self, index, angle, angle_bits))
            return built[-1]

        def kernel(state, load, memo=None):
            key = memo_key(state._angle_bits, load)
            calls.append((state, key, key == fail))
            if key == fail:
                raise NoLoadedPlyError("no loaded ply: injected")
            return first_ply_failure(state, load, memo)

        with monkeypatch.context() as patch:
            patch.setattr(Laminate, "_with_ply_angle", build)
            patch.setattr("plytamper.attack.first_ply_failure", kernel)
            for spec, attack_type in TestSharedMemo.searches(
                    design_sf, [(load, None) for load in loads]):
                outcome(attack_type, lam, spec)
        return built, calls

    @staticmethod
    def searched(lam) -> dict:
        """The memo records of ``lam`` that hold a search's copy."""
        return {key: record for key, record in lam.memo.items()
                if record.copy is not None}

    def assert_states_reused(self, monkeypatch, make, design_sf, loads,
                             fail=None) -> Laminate:
        """Check the records the searches leave on a laminate from
        ``make()`` against the calls they made; returns the laminate."""
        lam = make()
        built, calls = self.traced_searches(monkeypatch, lam, design_sf,
                                            loads, fail)
        table = self.searched(lam)
        trials = [call for call in calls if call[0] is not lam]
        raised = [key for _, key, failed in trials if failed]
        assert bool(raised) == (fail is not None)
        assert not table.keys() & set(raised)
        # Each stored state's copy was built once, and every call on
        # the state was passed that one object.
        assert len(built) == len(table) + len(raised)
        for state, key, failed in trials:
            assert failed or state is table[key].copy, state.angles
        assert len(trials) - len(raised) > 2 * len(table)
        assert all(record.first is not None and record.critical is not None
                   for record in table.values())
        fresh, n = make(), lam.n_plies
        by_bits = {load._bits: load for load in loads}
        for bits, record in table.items():
            copy, critical = record.copy, record.critical
            assert copy._angle_bits == bits[:8 * n]
            state = fresh.with_angles(struct.unpack(f"{n}d", bits[:8 * n]))
            mult, sr = first_ply_failure(state, by_bits[bits[8 * n:]])
            assert critical == ties_at_minimum(sr, mult, CRIT_TOL), \
                state.angles
        return lam

    @pytest.mark.parametrize("stack", range(3))
    def test_criterion5_stack(self, graphite_epoxy, monkeypatch, stack):
        angles = criterion5_stacks(stack + 1)[stack]
        self.assert_states_reused(
            monkeypatch,
            lambda: Laminate.from_angles(graphite_epoxy, PLY_T, angles),
            1.5, [self.FORCE])

    def test_bundled_spar(self, monkeypatch):
        """The spar under its own load and a moment-only one."""
        design = load_bundled_design()
        self.assert_states_reused(monkeypatch, design.laminate,
                                  design.design_sf,
                                  [design.load, self.BENDING])

    @pytest.mark.parametrize("stack", [0, 2])
    def test_two_loads_keep_their_own_states(self, graphite_epoxy, stack):
        """Under N and then M these stacks come back to angle states of
        the other load whose critical sets differ; every search still
        gives a fresh run's bits, in either order."""
        angles = criterion5_stacks(stack + 1)[stack]

        def make():
            return Laminate.from_angles(graphite_epoxy, PLY_T, angles)

        searches = TestSharedMemo.searches(
            1.5, [(self.FORCE, None), (self.BENDING, None)])
        TestSharedMemo.assert_shared_matches_fresh(make, searches)
        lam = make()
        for spec, attack_type in searches:
            outcome(attack_type, lam, spec)
        by_angles = {}
        for bits, record in self.searched(lam).items():
            by_angles.setdefault(bits[:8 * lam.n_plies], []).append(
                record.critical)
        assert any(len(sets) == 2 and sets[0] != sets[1]
                   for sets in by_angles.values())

    def test_raising_evaluation_stores_nothing(self, graphite_epoxy,
                                               monkeypatch):
        """Criterion 5's 14th stack under N, then M, where searches
        raise. One state revisited under M is made to raise on every
        visit: it is never stored, its copy is rebuilt per visit, and the
        laminate then runs every search as a fresh one does."""
        angles = criterion5_stacks(14)[13]

        def make():
            return Laminate.from_angles(graphite_epoxy, PLY_T, angles)

        lam = make()
        _, calls = self.traced_searches(monkeypatch, lam, 1.5,
                                        [self.FORCE, self.BENDING])
        under_m = [key for state, key, _ in calls if state is not lam
                   and key.endswith(self.BENDING._bits)]
        fail = next(key for key in under_m if under_m.count(key) > 1)
        lam = self.assert_states_reused(monkeypatch, make, 1.5,
                                        [self.FORCE, self.BENDING], fail)
        searches = TestSharedMemo.searches(
            1.5, [(self.FORCE, None), (self.BENDING, None)])
        results = [outcome(t, lam, spec) for spec, t in searches]
        assert lam.memo[fail].copy is not None
        assert results == [outcome(t, make(), spec) for spec, t in searches]
        assert any(r[0] != "AttackResult" for r in results)


class StoreLog(dict):
    """A memo that logs each record stored under a key, in order."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, record):
        self.stored.append((key, record))
        super().__setitem__(key, record)

    def setdefault(self, key, record):
        if key not in self:
            self.stored.append((key, record))
        return super().setdefault(key, record)


class TestOneRecordPerState:
    """The spar's six searches under its load and under a moment-only
    one leave one record per state in the laminate's memo: each stored
    once and never replaced, none empty, and each result ladder in the
    record of its intact state, beside that state's ``first``."""

    BENDING = LoadCase((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))

    def test_bundled_spar(self):
        design = load_bundled_design()
        lam = design.laminate()
        memo = lam.__dict__["memo"] = StoreLog()
        results = []
        for spec, attack_type in TestSharedMemo.searches(
                design.design_sf, [(design.load, None),
                                   (self.BENDING, None)]):
            try:
                results.append(ATTACK_TYPES[attack_type](lam, spec))
            except ArithmeticError:
                pass
        assert len(results) > 6
        keys = [key for key, _ in memo.stored]
        assert len(memo) == len(set(keys)) == len(keys)
        assert all(memo[key] is record for key, record in memo.stored)
        for record in memo.values():
            first, ladder, copy, critical = record_fields(record)
            assert first is not None or ladder is not None
            assert (copy is None) == (critical is None)
            assert copy is None or first is not None
        for result in results:
            record = memo[memo_key(struct.pack(
                f"{lam.n_plies}d", *result.new_angles), result.spec.load)]
            assert record.ladder is result.ladder
            assert record.first[0] == result.achieved_multiplier


class TestTargetIndependentPath:
    """A search's path does not depend on its target: with the same load,
    budget and strategy, the states a higher target evaluates are the
    first states a lower target evaluates, in order. Each search runs on
    a fresh laminate, so no memo links them; a laminate's memo serves
    its searches at several targets because of this."""

    BENDING = LoadCase((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))

    @staticmethod
    def assert_paths_nest(monkeypatch, make, design_sf, load,
                          budget=None) -> int:
        """Check both strategies at sf 1.0, 0.9 and 0.8; returns how
        many of the six searches raised."""
        keys = []

        def kernel(state, load, memo=None):
            keys.append(memo_key(state._angle_bits, load))
            return first_ply_failure(state, load, memo)

        monkeypatch.setattr("plytamper.attack.first_ply_failure", kernel)
        raised = 0
        for attack_type in (1, 2):
            paths = []
            for sf in (1.0, 0.9, 0.8):
                keys.clear()
                spec = AttackSpec(load, sf, design_sf=design_sf,
                                  budget=budget)
                failed = outcome(attack_type, make(), spec)[0] \
                    != "AttackResult"
                paths.append((list(keys), failed))
                raised += failed
            for (high, high_failed), (low, low_failed) in zip(paths,
                                                              paths[1:]):
                assert high and low[:len(high)] == high, attack_type
                assert low_failed or not high_failed, attack_type
        return raised

    @pytest.mark.parametrize("stack", range(5))
    def test_criterion5_stack(self, graphite_epoxy, monkeypatch, stack):
        angles = criterion5_stacks(stack + 1)[stack]
        assert not self.assert_paths_nest(
            monkeypatch,
            lambda: Laminate.from_angles(graphite_epoxy, PLY_T, angles),
            1.5, LoadCase((1000.0, 0.0, 0.0)))

    def test_criterion5_stack_bending(self, graphite_epoxy, monkeypatch):
        """Criterion 5's 14th stack under a moment only, where some
        searches raise."""
        angles = criterion5_stacks(14)[13]
        assert self.assert_paths_nest(
            monkeypatch,
            lambda: Laminate.from_angles(graphite_epoxy, PLY_T, angles),
            1.5, self.BENDING)

    @pytest.mark.parametrize("budget", [None, 40])
    def test_bundled_spar(self, monkeypatch, budget):
        design = load_bundled_design()
        assert not self.assert_paths_nest(monkeypatch, design.laminate,
                                          design.design_sf, design.load,
                                          budget)


class TestFirstFailureRule:
    """A result's first rung is the first-failure rule of a fresh
    laminate at its new angles: the multiplier the search reports, and
    the plies tied at it."""

    BENDING = LoadCase((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))

    @staticmethod
    def assert_first_rung_is_the_rule(lam, design_sf, loads) -> None:
        """Run the six searches under each load on ``lam``, skipping
        those that raise, and check each result's first rung."""
        checked = 0
        for spec, attack_type in TestSharedMemo.searches(
                design_sf, [(load, None) for load in loads]):
            try:
                result = ATTACK_TYPES[attack_type](lam, spec)
            except ArithmeticError:
                continue
            state = lam.with_angles(result.new_angles)
            mult, sr = first_ply_failure(state, spec.load)
            first = result.ladder.rungs[0]
            assert first.force_multiplier == result.achieved_multiplier \
                == mult, (attack_type, spec)
            assert set(first.failed_plies) == ties_at_minimum(sr, mult)
            checked += 1
        assert checked

    @pytest.mark.parametrize("stack", range(10))
    def test_criterion5_stack(self, graphite_epoxy, stack):
        angles = criterion5_stacks(stack + 1)[stack]
        self.assert_first_rung_is_the_rule(
            Laminate.from_angles(graphite_epoxy, PLY_T, angles), 1.5,
            [LoadCase((1000.0, 0.0, 0.0)), self.BENDING])

    def test_bundled_spar(self):
        design = load_bundled_design()
        self.assert_first_rung_is_the_rule(
            design.laminate(), design.design_sf, [design.load])


def searched(attack_type, lam, design, target_sf):
    """One search of the bundled design at ``target_sf``."""
    return ATTACK_TYPES[attack_type](
        lam, AttackSpec(design.load, target_sf, design_sf=design.design_sf))


class TestBundledLadders:
    """The quick start's ladders, in multiples of the design file's
    100 kN/m reference load. The service load is first failure over
    design_sf, 23.73 times the reference."""

    def test_original_ladder(self):
        design = load_bundled_design()
        lam = design.laminate()
        ladder = simulate_progressive_failure(lam, design.load)
        assert [(r.force_multiplier, len(r.failed_plies))
                for r in ladder.rungs] == [
            (pytest.approx(30.849017055, rel=1e-9), 8),
            (pytest.approx(48.75, rel=1e-9), 26)]
        service = target_force(ladder.first_multiplier, design.design_sf,
                               1.0)
        assert service == pytest.approx(23.730013120, rel=1e-9)
        assert service * design.load.n[0] == pytest.approx(
            2373001.312, rel=1e-9)
        assert ladder.first_multiplier / service == pytest.approx(1.3)
        assert ladder.last_multiplier / ladder.first_multiplier \
            == pytest.approx(1.58, abs=0.005)

    def test_type2_ladder_at_sf1(self):
        """The tampered part first fails at 23.09x; under a rising load
        its last plies let go at rung 7, 45.60x, and every later rung is
        lower, down to a last rung of one ply at 1.875x."""
        design = load_bundled_design()
        result = searched(2, design.laminate(), design, 1.0)
        rungs = result.ladder.rungs
        mults = [r.force_multiplier for r in rungs]
        assert len(rungs) == 34
        assert mults[0] == pytest.approx(23.089923942, rel=1e-9)
        assert max(mults) == mults[7] == pytest.approx(45.601685217,
                                                       rel=1e-9)
        assert all(m < mults[7] for m in mults[8:])
        assert mults[7] / mults[0] == pytest.approx(1.97, abs=0.005)
        assert len(rungs[-1].failed_plies) == 1
        assert mults[-1] == pytest.approx(1.875, rel=1e-9)


@pytest.fixture(scope="module")
def spar_one_ply_scan():
    """Every whole-degree one-ply variation of the bundled design, each
    ply at -89..90 except its own angle, solved one by one on a
    ``with_angles`` copy without a memo: {(ply, angle): (mult, sr)}."""
    design = load_bundled_design()
    lam = design.laminate()
    scan = {}
    for k, own in enumerate(lam.angles):
        for angle in range(-89, 91):
            if angle != own:
                angles = list(lam.angles)
                angles[k] = float(angle)
                scan[k, float(angle)] = first_ply_failure(
                    lam.with_angles(angles), design.load)
    return design, lam, scan


class TestOnePlyFloor:
    """The lowest first failure one whole-degree ply change can give
    the bundled design: a 0 deg core ply next to the faces turned to 90.
    """

    FLOOR = 22.329013955

    def test_floor(self, spar_one_ply_scan):
        design, lam, scan = spar_one_ply_scan
        assert len(scan) == 6086
        ranked = sorted(scan, key=lambda row: scan[row][0])
        # plies 4 and 29 mirror each other and tie to round-off, so the
        # order of the two is not part of the result
        assert set(ranked[:2]) == {(4, 90.0), (29, 90.0)}
        low, second = (scan[row][0] for row in ranked[:2])
        assert low == pytest.approx(self.FLOOR, rel=1e-9)
        assert second == pytest.approx(low, rel=1e-12)

    def test_floor_against_the_targets(self, spar_one_ply_scan):
        """One ply meets sf 1.0, where the focused search alters two;
        no single whole-degree change reaches sf 0.9."""
        design, lam, scan = spar_one_ply_scan
        original = first_ply_failure(lam, design.load)[0]
        low = min(mult for mult, _ in scan.values())
        assert low < target_force(original, design.design_sf, 1.0)
        assert low > target_force(original, design.design_sf, 0.9)

    def test_batch_stores_every_row_as_the_sequential_call(
            self, spar_one_ply_scan):
        design, lam, scan = spar_one_ply_scan
        rows = list(scan)
        memo = {}
        first_ply_failure_batch(lam, design.load, [k for k, _ in rows],
                                [a for _, a in rows], memo)
        for k, angle in rows:
            record = memo[memo_key(angle_bits_with(lam._angle_bits, k, angle),
                                   design.load)]
            mult, sr = record.first
            want_mult, want_sr = scan[k, angle]
            assert (mult.hex(), sr.tobytes()) == (want_mult.hex(),
                                                  want_sr.tobytes())


class TestKnownLimitation:
    """The README's "Known limitation" section on the bundled design,
    number for number, at each of the design file's targets."""

    def test_spread_search(self):
        design = load_bundled_design()
        lam = design.laminate()
        original = simulate_progressive_failure(lam, design.load)
        assert gap_of(original) == pytest.approx(0.580, abs=5e-4)
        for target_sf in (1.0, 0.9, 0.8):
            result = searched(1, lam, design, target_sf)
            assert result.status is AttackStatus.BUDGET_EXHAUSTED
            assert result.sweeps == 90
            assert result.achieved_multiplier == pytest.approx(
                24.737281385, rel=1e-9)
            assert [(i, d) for i, d in enumerate(result.deltas) if d] \
                == [(3, -47.0)]
            assert result.new_angles[3] == 88.0
            drop = 1.0 - (result.achieved_multiplier
                          / result.original_multiplier)
            assert round(100.0 * drop) == 20
            assert len(result.ladder.rungs) == 9
            assert gap_of(result.ladder) == pytest.approx(0.971,
                                                             abs=5e-4)

    def test_focused_search(self):
        design = load_bundled_design()
        lam = design.laminate()
        for target_sf, status in ((1.0, AttackStatus.SUCCESS),
                                  (0.9, AttackStatus.NO_SOLUTION),
                                  (0.8, AttackStatus.NO_SOLUTION)):
            result = searched(2, lam, design, target_sf)
            assert result.status is status
            assert result.achieved_multiplier == pytest.approx(
                23.089923942, rel=1e-9)
            assert {i for i, d in enumerate(result.deltas) if d} == {3, 33}

    def test_neither_search_moves_the_cheapest_ply(self, spar_one_ply_scan):
        """Both searches move only plies of the first-failure group, the
        eight +-45 face plies; the cheapest single lever is core ply 4 or
        29, and ply 3 alone gets no lower than 24.74x, at 88 deg."""
        design, lam, scan = spar_one_ply_scan
        original = simulate_progressive_failure(lam, design.load)
        face = set(original.rungs[0].failed_plies)
        assert face == {0, 1, 2, 3, 30, 31, 32, 33}
        assert {abs(lam.angles[k]) for k in face} == {45.0}
        moved = set()
        for attack_type in (1, 2):
            for target_sf in design.target_sf:
                result = searched(attack_type, lam, design, target_sf)
                moved |= {i for i, d in enumerate(result.deltas) if d}
        assert moved <= face
        low = min(scan, key=lambda row: scan[row][0])
        assert low[0] in (4, 29) and lam.angles[low[0]] == 0.0
        assert not {4, 29} & moved
        ply3 = min((scan[row][0], row[1]) for row in scan if row[0] == 3)
        assert ply3 == (pytest.approx(24.737281385, rel=1e-9), 88.0)
        assert ply3[0] > target_force(original.first_multiplier,
                                      design.design_sf, 1.0)


def render_attack_text(result):
    """The text report of one attack run, as the CLI prints it."""
    report = {"command": "attack", "tool_version": "test", "inputs": {},
              "attacks": [attack_block(result)]}
    return render_report_text(report)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
