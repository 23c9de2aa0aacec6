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

Searches compare *multipliers* of the reference load (always positive).
The report turns them into forces, the multiplier times the load's
dominant component, so a laminate loaded with N = (1, 0, 0) N/m reports
its critical force directly in N/m.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from plytamper.clt import Laminate, LoadCase, angle_bits_with, normalize_angle
from plytamper.failure import (
    FailureLadder,
    first_ply_failure,
    first_ply_failure_batch,
    memo_key,
    simulate_progressive_failure,
    ties_at_minimum,
)

#: A ply counts as load-critical when its strength ratio is within this
#: relative distance of the stack minimum (the first-failure group).
CRITICAL_REL_TOL = 1e-6

#: Rotation of one search step, in degrees.
STEP_DEG = 1.0

#: States solved ahead along a ply's line by the first memo miss on it,
#: and the most solved ahead once it keeps missing.
_FIRST_BATCH = 8
_MAX_BATCH = 64

#: Budget of a type 1 search when the spec sets none: sweeps.
DEFAULT_MAX_SWEEPS = 90

#: Budget of a type 2 search when the spec sets none: evaluations.
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

    ``budget`` bounds the search in the strategy's own unit: sweeps for
    type 1 (default :data:`DEFAULT_MAX_SWEEPS`), counted evaluations for
    type 2 (default :data:`DEFAULT_MAX_ITERATIONS`). ``None`` takes the
    strategy's default.
    """

    load: LoadCase
    target_sf: float
    design_sf: float = 1.5
    budget: int | None = None

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
        if self.budget is None:
            return
        # bool is an int subclass; budget=True is not a budget of 1
        if isinstance(self.budget, bool) or not isinstance(self.budget, int):
            raise ValueError(
                f"budget must be an integer (got budget={self.budget!r})")
        if self.budget < 1:
            raise ValueError(
                f"budget must be at least 1 (got budget={self.budget})")


@dataclass(frozen=True)
class AttackResult:
    """Outcome of a tamper search, always carrying a concrete design.

    Every status reports the best (lowest critical force) state the
    search saw; on ``SUCCESS``, ``NO_OP`` and ``NO_SOLUTION`` that is also
    the state it ended in. Re-simulating ``new_angles`` under
    ``spec.load`` reproduces ``achieved_multiplier`` exactly.
    """

    attack_type: int
    status: AttackStatus
    spec: AttackSpec
    original_angles: tuple[float, ...]
    new_angles: tuple[float, ...]
    deltas: tuple[float, ...]
    original_multiplier: float
    achieved_multiplier: float
    ladder: FailureLadder
    evaluations: int
    sweeps: int

    @property
    def target_multiplier(self) -> float:
        """The multiplier the search aimed at; see :func:`target_force`."""
        return target_force(self.original_multiplier, self.spec.design_sf,
                            self.spec.target_sf)

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
    part should fail at ``target_sf`` times that, i.e.
    ``original * target_sf / design_sf``. The searches take their target
    multiplier from this function.
    """
    if not design_sf > 0.0:
        raise ValueError("design_sf must be strictly positive")
    return original_first_rung_force * target_sf / design_sf


def middle_out_order(n_plies: int) -> tuple[int, ...]:
    """Visit order from the mid-plane outward.

    Plies are sorted by the distance of their centre from the mid-plane,
    the upper ply first on a tie: even counts start on the two middle
    plies, odd counts on the single middle ply.
    """
    if n_plies < 1:
        raise ValueError("need at least one ply")
    return tuple(sorted(range(n_plies),
                        key=lambda i: (abs(2 * i - n_plies + 1), i)))


class _Search:
    """One search's state: the current design and the best one seen.

    Makes the first evaluation, derives the target, counts evaluations and
    builds the :class:`AttackResult`. The strategies only choose which
    trial rotations to evaluate and which to move to.

    Every evaluation and the result's ladder go through the laminate's
    :attr:`~Laminate.memo`, so searches on one laminate (the same design
    at several targets, or both strategies) solve each state once. Each
    counted evaluation is still one ``first_ply_failure`` call, hit or
    miss. A trial whose state has no ``first`` yet first solves the
    states further along its line (the same ply, rotated on by the same
    step) in one batch, so the steps after it hit; see
    :meth:`_prefetch`. A state's record keeps the rotated copy and
    critical set of its first trial, so a revisit builds neither.
    """

    def __init__(self, attack_type: int, lam: Laminate, spec: AttackSpec):
        self.attack_type = attack_type
        self.memo = lam.memo
        self.spec = spec
        self.original_angles = lam.angles
        self.mult, sr = first_ply_failure(lam, spec.load, self.memo)
        self.critical = ties_at_minimum(sr, self.mult, CRITICAL_REL_TOL)
        self.evaluations = 1
        self.sweeps = 0
        self.original_mult = self.mult
        self.target_mult = target_force(self.mult, spec.design_sf,
                                        spec.target_sf)
        self.current = lam
        self.deltas = [0.0] * lam.n_plies
        self.best = (self.mult, lam, tuple(self.deltas))
        self.prefetch_line = None
        self.prefetch_size = _FIRST_BATCH

    def trial(self, ply: int, step: float):
        """Evaluate the design with ``ply`` rotated ``step`` degrees further.

        Returns the candidate's multiplier and the state :meth:`move` takes.
        The state's record is looked up once; a copy and critical set it
        lacks are stored only once the evaluation has returned.
        """
        delta = self.deltas[ply] + step
        angle = normalize_angle(self.original_angles[ply] + delta)
        bits = angle_bits_with(self.current._angle_bits, ply, angle)
        key = memo_key(bits, self.spec.load)
        record = self.memo.get(key)
        if record is None or record.first is None:
            self._prefetch(ply, step, delta)
        copy = None if record is None else record.copy
        if copy is None:
            copy = self.current._with_ply_angle(ply, angle, bits)
        mult, sr = first_ply_failure(copy, self.spec.load, self.memo)
        self.evaluations += 1
        record = self.memo[key]
        if record.copy is None:
            record.copy = copy
            record.critical = ties_at_minimum(sr, mult, CRITICAL_REL_TOL)
        return mult, (ply, delta, record.copy, record.critical)

    def _prefetch(self, ply: int, step: float, delta: float) -> None:
        """Solve the current design with ``ply`` at ``delta``, ``delta +
        step``, ... into the memo, in one batch.

        The deltas are accumulated by the additions :meth:`trial` makes.
        The batch starts at :data:`_FIRST_BATCH` states and doubles, up to
        :data:`_MAX_BATCH`, while the same ``(ply, step)`` line keeps
        missing. Only the memo changes, so no decision and no count does.
        """
        line = (ply, step)
        self.prefetch_size = (
            min(2 * self.prefetch_size, _MAX_BATCH)
            if line == self.prefetch_line else _FIRST_BATCH)
        self.prefetch_line = line
        angles = []
        for _ in range(self.prefetch_size):
            angles.append(normalize_angle(self.original_angles[ply] + delta))
            delta += step
        first_ply_failure_batch(self.current, self.spec.load,
                                [ply] * self.prefetch_size, angles,
                                self.memo)

    def move(self, mult: float, state) -> None:
        """Make a candidate from :meth:`trial` the current design."""
        ply, delta, self.current, self.critical = state
        self.deltas[ply] = delta
        self.mult = mult
        if mult < self.best[0]:
            self.best = (mult, self.current, tuple(self.deltas))

    def result(self, status: AttackStatus) -> AttackResult:
        """The best state seen, with its ladder, as the search's result."""
        mult, final, deltas = self.best
        return AttackResult(
            attack_type=self.attack_type,
            status=status,
            spec=self.spec,
            original_angles=self.original_angles,
            new_angles=final.angles,
            deltas=deltas,
            original_multiplier=self.original_mult,
            achieved_multiplier=mult,
            ladder=simulate_progressive_failure(final, self.spec.load,
                                                self.memo),
            evaluations=self.evaluations,
            sweeps=self.sweeps,
        )


def spread_attack(lam: Laminate, spec: AttackSpec) -> AttackResult:
    """Type 1: one-degree nudges spread over every load-critical ply.

    Sweeps the stack from the middle outward. Whenever the visited ply is
    in the current first-failure group it is rotated one step — away from
    zero: positive-angle (and zero-angle) plies rotate positive, negative
    plies negative, judged on the *original* orientation. The critical
    force is recomputed after every single rotation and the search stops
    the moment it reaches the target. A finished sweep restarts from the
    middle, up to ``spec.budget`` sweeps (default
    :data:`DEFAULT_MAX_SWEEPS`).

    Parameters
    ----------
    lam : Laminate
        Original design.
    spec : AttackSpec
        Load, safety factors and budget.

    Returns
    -------
    AttackResult
        ``SUCCESS`` with the tampered design, ``NO_OP`` if the original
        already meets the target (a ``target_sf`` just below
        ``design_sf`` can round the target up to the original), or
        ``BUDGET_EXHAUSTED`` carrying the best state found.
    """
    max_sweeps = DEFAULT_MAX_SWEEPS if spec.budget is None else spec.budget
    search = _Search(1, lam, spec)
    if search.mult <= search.target_mult:
        return search.result(AttackStatus.NO_OP)
    signs = tuple(-1.0 if a < 0.0 else 1.0 for a in search.original_angles)
    order = middle_out_order(lam.n_plies)

    for sweep in range(1, max_sweeps + 1):
        search.sweeps = sweep
        for ply in order:
            if ply not in search.critical:
                continue
            search.move(*search.trial(ply, STEP_DEG * signs[ply]))
            # Every earlier state was above the target, so this one is
            # also the best.
            if search.mult <= search.target_mult:
                return search.result(AttackStatus.SUCCESS)
    return search.result(AttackStatus.BUDGET_EXHAUSTED)


def focused_attack(lam: Laminate, spec: AttackSpec) -> AttackResult:
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
    ``spec.budget`` (default :data:`DEFAULT_MAX_ITERATIONS`). The search
    moves only on a strict improvement, so its current state is always
    its best.

    Parameters are as for :func:`spread_attack`.
    """
    max_evaluations = (DEFAULT_MAX_ITERATIONS if spec.budget is None
                       else spec.budget)
    search = _Search(2, lam, spec)
    if search.mult <= search.target_mult:
        return search.result(AttackStatus.NO_OP)
    order = middle_out_order(lam.n_plies)
    processed: set[int] = set()

    while True:
        ply = next((p for p in order
                    if p not in processed and p in search.critical), None)
        if ply is None:
            return search.result(AttackStatus.NO_SOLUTION)

        for step in (STEP_DEG, -STEP_DEG):
            moved = False
            while True:
                if search.evaluations >= max_evaluations:
                    return search.result(AttackStatus.BUDGET_EXHAUSTED)
                mult, state = search.trial(ply, step)
                if not mult < search.mult:
                    break
                search.move(mult, state)
                moved = True
            if moved:
                break

        processed.add(ply)
        if search.mult <= search.target_mult:
            return search.result(AttackStatus.SUCCESS)


#: CLI-facing numbering of the two strategies.
ATTACK_TYPES = {1: spread_attack, 2: focused_attack}

