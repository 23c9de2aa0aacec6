"""Ply-orientation tamper searches that degrade a laminate's failure load.

Both searches change *only* ply angles — thickness, material and ply count
are untouched — and both drive the same objective: push the laminate's
first-rung critical force down to a prescribed target, derived from the
design safety factor and the safety factor the tamperer wants the part to
actually have.

Two strategies are implemented:

* ``spread_attack`` (type 1) nudges every load-critical ply by one degree
  per visit, sweeping from the middle of the stack outward and restarting
  the sweep until the target is met or the sweep budget runs out. It tends
  to spread small deviations over many plies.
* ``focused_attack`` (type 2) walks the stack middle-out once per ply,
  descending each load-critical ply to a one-degree-grid local minimum of
  the critical force before touching the next one. It tends to alter few
  plies, each by a lot.

Searches compare *multipliers* of the reference load internally (always
positive); reported forces are the multiplier times the load's dominant
component, so a laminate loaded with N = (1, 0, 0) N/m reports its
critical force directly in N/m.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from plytamper.clt import Laminate, LoadCase, normalize_angle
from plytamper.failure import (
    FailureLadder,
    first_ply_failure,
    simulate_progressive_failure,
    ties_at_minimum,
)

#: A ply counts as load-critical when its strength ratio is within this
#: relative distance of the stack minimum (the first-failure group).
CRITICAL_REL_TOL = 1e-6

DEFAULT_MAX_SWEEPS = 90
DEFAULT_MAX_ITERATIONS = 20000


class AttackStatus(Enum):
    """Terminal state of a tamper search."""

    SUCCESS = "success"
    NO_OP = "no_op"
    NO_SOLUTION = "no_solution"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class AttackSpec:
    """What the tamperer wants and how hard the search may try.

    ``design_sf`` is the safety factor the part was designed with: the
    first-rung critical force is ``design_sf`` times the expected service
    force. ``target_sf`` is the safety factor the tampered part should end
    up with; the search aims at ``original * target_sf / design_sf``.
    """

    load: LoadCase
    target_sf: float
    design_sf: float = 1.5
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    step_deg: float = 1.0
    critical_rel_tol: float = CRITICAL_REL_TOL

    def __post_init__(self) -> None:
        if not self.design_sf > 0.0:
            raise ValueError("design_sf must be strictly positive")
        if not 0.0 < self.target_sf < self.design_sf:
            raise ValueError(
                "target_sf must satisfy 0 < target_sf < design_sf "
                f"(got target_sf={self.target_sf}, design_sf={self.design_sf})"
            )
        if self.load.is_zero:
            raise ValueError("attack load must be nonzero")
        if self.max_sweeps < 1 or self.max_iterations < 1:
            raise ValueError("search budgets must be at least 1")
        if not self.step_deg > 0.0:
            raise ValueError("step_deg must be strictly positive")


@dataclass(frozen=True)
class AttackResult:
    """Outcome of a tamper search, always carrying a concrete design.

    On success the fields describe the tampered design that met the
    target; on ``BUDGET_EXHAUSTED`` the best (lowest critical force) state
    seen; on ``NO_SOLUTION``/``NO_OP`` the state the search ended in.
    Re-simulating ``new_angles`` under the same load reproduces
    ``achieved_multiplier`` exactly.
    """

    attack_type: int
    status: AttackStatus
    original_angles: tuple[float, ...]
    new_angles: tuple[float, ...]
    deltas: tuple[float, ...]
    original_multiplier: float
    target_multiplier: float
    achieved_multiplier: float
    original_critical_force: float
    target_critical_force: float
    achieved_critical_force: float
    ladder: FailureLadder
    evaluations: int
    sweeps: int

    @property
    def altered_count(self) -> int:
        """Number of plies whose orientation was changed."""
        return sum(1 for d in self.deltas if d != 0.0)

    @property
    def max_pos_dev(self) -> float:
        """Largest positive angle deviation (0 if none)."""
        return max((d for d in self.deltas if d > 0.0), default=0.0)

    @property
    def max_neg_dev(self) -> float:
        """Most negative angle deviation (0 if none)."""
        return min((d for d in self.deltas if d < 0.0), default=0.0)


def target_force(original_first_rung_force: float, design_sf: float,
                 target_sf: float) -> float:
    """Critical force a tampered part must not exceed.

    The expected service force is ``original / design_sf``; the tampered
    part should fail at ``target_sf`` times that, i.e. the original force
    scaled by ``target_sf / design_sf``.
    """
    if not design_sf > 0.0:
        raise ValueError("design_sf must be strictly positive")
    return original_first_rung_force * (target_sf / design_sf)


def middle_out_order(n_plies: int) -> tuple[int, ...]:
    """Visit order from the mid-plane outward.

    Even counts start on the two middle plies (upper first), odd counts on
    the single middle ply; then alternate outward on both sides.
    """
    if n_plies < 1:
        raise ValueError("need at least one ply")
    order = []
    if n_plies % 2:
        mid = n_plies // 2
        order.append(mid)
        left, right = mid - 1, mid + 1
    else:
        left, right = n_plies // 2 - 1, n_plies // 2
    while left >= 0 or right < n_plies:
        if left >= 0:
            order.append(left)
            left -= 1
        if right < n_plies:
            order.append(right)
            right += 1
    return tuple(order)


def dominant_load_component(load: LoadCase) -> float:
    """Signed value of the load's largest-magnitude component.

    Force resultants take precedence; moment components are consulted only
    for a pure bending load. Ties go to the earlier axis. This is the
    scalar that converts multipliers into reported forces.
    """
    n_abs = [abs(v) for v in load.n]
    if any(v > 0.0 for v in n_abs):
        return load.n[n_abs.index(max(n_abs))]
    m_abs = [abs(v) for v in load.m]
    return load.m[m_abs.index(max(m_abs))]


def _result(attack_type: int, status: AttackStatus, lam: Laminate,
            spec: AttackSpec, original_angles, angles, deltas,
            original_mult: float, target_mult: float, achieved_mult: float,
            evaluations: int, sweeps: int) -> AttackResult:
    scalar = dominant_load_component(spec.load)
    final = lam.with_angles(angles)
    ladder = simulate_progressive_failure(final, spec.load)
    return AttackResult(
        attack_type=attack_type,
        status=status,
        original_angles=tuple(original_angles),
        new_angles=final.angles,
        deltas=tuple(deltas),
        original_multiplier=original_mult,
        target_multiplier=target_mult,
        achieved_multiplier=achieved_mult,
        original_critical_force=original_mult * scalar,
        target_critical_force=target_mult * scalar,
        achieved_critical_force=achieved_mult * scalar,
        ladder=ladder,
        evaluations=evaluations,
        sweeps=sweeps,
    )


def spread_attack(lam: Laminate, spec: AttackSpec, *,
                  target_multiplier: float | None = None) -> AttackResult:
    """Type 1: one-degree nudges spread over every load-critical ply.

    Sweeps the stack from the middle outward. Whenever the visited ply is
    in the current first-failure group it is rotated one step — away from
    zero: positive-angle (and zero-angle) plies rotate positive, negative
    plies negative, judged on the *original* orientation. The critical
    force is recomputed after every single rotation and the search stops
    the moment it reaches the target. A finished sweep restarts from the
    middle, up to ``spec.max_sweeps`` sweeps.

    Parameters
    ----------
    lam : Laminate
        Original design.
    spec : AttackSpec
        Load, safety factors and budget.
    target_multiplier : float, optional
        Override the target (as a multiplier of ``spec.load``) instead of
        deriving it from the safety factors. Mainly for calibration runs;
        an override at or above the original multiplier makes the search
        a no-op.

    Returns
    -------
    AttackResult
        ``SUCCESS`` with the tampered design, ``NO_OP`` if the original
        already meets the target, or ``BUDGET_EXHAUSTED`` carrying the
        best state found.
    """
    n = lam.n_plies
    original_angles = lam.angles
    signs = tuple(-1.0 if a < 0.0 else 1.0 for a in original_angles)
    order = middle_out_order(n)

    mult, sr = first_ply_failure(lam, spec.load)
    evaluations = 1
    original_mult = mult
    target_mult = (target_multiplier if target_multiplier is not None
                   else original_mult * spec.target_sf / spec.design_sf)

    deltas = [0.0] * n
    angles = list(original_angles)

    if mult <= target_mult:
        return _result(1, AttackStatus.NO_OP, lam, spec, original_angles,
                       angles, deltas, original_mult, target_mult, mult,
                       evaluations, 0)

    best_mult = mult
    best_angles = tuple(angles)
    best_deltas = tuple(deltas)

    for sweep in range(1, spec.max_sweeps + 1):
        critical = ties_at_minimum(sr, spec.critical_rel_tol)
        for ply in order:
            if ply not in critical:
                continue
            deltas[ply] += spec.step_deg * signs[ply]
            angles[ply] = normalize_angle(original_angles[ply] + deltas[ply])
            mult, sr = first_ply_failure(lam.with_angles(angles), spec.load)
            evaluations += 1
            critical = ties_at_minimum(sr, spec.critical_rel_tol)
            if mult < best_mult:
                best_mult = mult
                best_angles = tuple(angles)
                best_deltas = tuple(deltas)
            if mult <= target_mult:
                return _result(1, AttackStatus.SUCCESS, lam, spec,
                               original_angles, angles, deltas,
                               original_mult, target_mult, mult,
                               evaluations, sweep)

    return _result(1, AttackStatus.BUDGET_EXHAUSTED, lam, spec,
                   original_angles, best_angles, best_deltas, original_mult,
                   target_mult, best_mult, evaluations, spec.max_sweeps)


def focused_attack(lam: Laminate, spec: AttackSpec, *,
                   target_multiplier: float | None = None) -> AttackResult:
    """Type 2: few plies, each descended to a local minimum.

    Repeatedly takes the first not-yet-processed ply (middle-out order)
    that currently sits in the first-failure group and works it alone:
    probe one degree positive — if that does not strictly lower the
    critical force, probe one degree negative instead; if neither helps,
    the ply is left untouched. An accepted direction is followed step by
    step while the force keeps strictly decreasing, leaving the ply at a
    one-degree-grid local minimum. Only then is the target checked. When
    no workable ply remains the search reports ``NO_SOLUTION``.

    Every critical-force evaluation (probes included) counts against
    ``spec.max_iterations``.

    Parameters are as for :func:`spread_attack`.
    """
    n = lam.n_plies
    original_angles = lam.angles
    order = middle_out_order(n)

    mult, sr = first_ply_failure(lam, spec.load)
    evaluations = 1
    original_mult = mult
    target_mult = (target_multiplier if target_multiplier is not None
                   else original_mult * spec.target_sf / spec.design_sf)

    deltas = [0.0] * n
    angles = list(original_angles)

    if mult <= target_mult:
        return _result(2, AttackStatus.NO_OP, lam, spec, original_angles,
                       angles, deltas, original_mult, target_mult, mult,
                       evaluations, 0)

    processed: set[int] = set()

    def evaluate(ply: int, delta: float):
        trial = list(angles)
        trial[ply] = normalize_angle(original_angles[ply] + delta)
        return first_ply_failure(lam.with_angles(trial), spec.load), trial

    while True:
        critical = ties_at_minimum(sr, spec.critical_rel_tol)
        ply = next((p for p in order
                    if p not in processed and p in critical), None)
        if ply is None:
            return _result(2, AttackStatus.NO_SOLUTION, lam, spec,
                           original_angles, angles, deltas, original_mult,
                           target_mult, mult, evaluations, 0)

        direction = 0.0
        for trial_dir in (spec.step_deg, -spec.step_deg):
            if evaluations >= spec.max_iterations:
                return _result(2, AttackStatus.BUDGET_EXHAUSTED, lam, spec,
                               original_angles, angles, deltas,
                               original_mult, target_mult, mult,
                               evaluations, 0)
            (trial_mult, trial_sr), trial_angles = evaluate(
                ply, deltas[ply] + trial_dir)
            evaluations += 1
            if trial_mult < mult:
                direction = trial_dir
                deltas[ply] += trial_dir
                angles = trial_angles
                mult, sr = trial_mult, trial_sr
                break

        if direction != 0.0:
            while True:
                if evaluations >= spec.max_iterations:
                    return _result(2, AttackStatus.BUDGET_EXHAUSTED, lam,
                                   spec, original_angles, angles, deltas,
                                   original_mult, target_mult, mult,
                                   evaluations, 0)
                (trial_mult, trial_sr), trial_angles = evaluate(
                    ply, deltas[ply] + direction)
                evaluations += 1
                if trial_mult >= mult:
                    break
                deltas[ply] += direction
                angles = trial_angles
                mult, sr = trial_mult, trial_sr

        processed.add(ply)
        if mult <= target_mult:
            return _result(2, AttackStatus.SUCCESS, lam, spec,
                           original_angles, angles, deltas, original_mult,
                           target_mult, mult, evaluations, 0)


#: CLI-facing numbering of the two strategies.
ATTACK_TYPES = {1: spread_attack, 2: focused_attack}


def summarize_attack(original: Laminate, result: AttackResult) -> str:
    """Render an attack result as a deterministic, re-parseable table."""
    lines = [
        f"attack type      : {result.attack_type}",
        f"status           : {result.status.value}",
        f"plies            : {len(result.deltas)}",
        f"altered          : {result.altered_count}",
        f"unaltered        : {len(result.deltas) - result.altered_count}",
        f"max pos deviation: {result.max_pos_dev:.10g}",
        f"max neg deviation: {result.max_neg_dev:.10g}",
        f"original force   : {result.original_critical_force:.10g}",
        f"target force     : {result.target_critical_force:.10g}",
        f"achieved force   : {result.achieved_critical_force:.10g}",
        "",
        f"{'ply':>4} {'original':>12} {'new':>12} {'delta':>12}",
    ]
    for i, (old, new, d) in enumerate(zip(result.original_angles,
                                          result.new_angles, result.deltas)):
        lines.append(f"{i:>4} {old:>12.10g} {new:>12.10g} {d:>+12.10g}")
    return "\n".join(lines)
