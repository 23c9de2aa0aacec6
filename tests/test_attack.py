"""Tests for the two ply-orientation tamper searches.

The binding checks are hand-rolled replays of both search loops built on
``tests/ladder_oracle.py`` primitives: same visit order, same rules, but a
completely separate evaluation path. The package's searches must land on
the same plies with the same deltas.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import ladder_oracle

from plytamper.clt import Laminate, LoadCase, MaterialProperties
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
from plytamper.designfile import load_bundled_design
from plytamper.failure import first_ply_failure
from plytamper.report import attack_block, render_report_text


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


def render_attack_text(result):
    """The text report of one attack run, as the CLI prints it."""
    report = {"command": "attack", "tool_version": "test", "inputs": {},
              "attacks": [attack_block(result)]}
    return render_report_text(report)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
