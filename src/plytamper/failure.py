"""Progressive ply-failure simulation (first-ply failure and beyond).

Repeatedly: solve the laminate under the reference load, get one Tsai-Wu
strength ratio per surviving ply (at the ply mid-thickness), knock out the
plies tied at the minimum and go again on the survivors. A failed ply
keeps its z band but leaves the solve, which gives exactly the numbers
that zeroing its stiffness would.
Each knockout records a "rung": the load multiplier at which that group
fails, measured against the *original* load. The resulting ladder is the
laminate's failure fingerprint: widely spaced rungs mean progressive
failure (survivors give warning), tightly packed rungs mean the stack lets
go essentially at once.

Rung multipliers are not guaranteed to increase monotonically — load
redistribution after a knockout can make the next group fail at a lower
multiplier than the one before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from plytamper.clt import (
    Laminate,
    LaminateSingularError,
    LoadCase,
    NoLoadedPlyError,
    StrengthRatioRootError,
    angle_bits_with,
    nonsingular_rows,
    require_nonsingular,
    stiffness_rows,
    stiffness_stack,
    system_matrix,
    transformation_matrix,
)

#: Relative tolerance for "tied at the minimum strength ratio". Symmetric
#: ply pairs tie exactly in theory; floating point needs a window.
TIE_REL_TOL = 1e-9

#: Default ladder-gap threshold separating catastrophic from progressive.
GAP_RATIO_THRESHOLD = 0.05


class FailureMode(Enum):
    """Shape of a failure ladder."""

    PROGRESSIVE = "progressive"
    CATASTROPHIC = "catastrophic"


@dataclass(frozen=True)
class FailureRung:
    """One step of the ladder: a ply group and the multiplier killing it.

    ``force_multiplier`` scales the reference load; the actual failure
    force is ``force_multiplier * load``. ``flagged`` marks a terminal rung
    forced by a singular post-knockout system rather than computed — its
    plies never got a strength ratio of their own.
    """

    force_multiplier: float
    failed_plies: tuple[int, ...]
    flagged: bool = False


@dataclass(frozen=True)
class FailureLadder:
    """Ordered failure rungs of a laminate under a fixed reference load."""

    rungs: tuple[FailureRung, ...]
    load: LoadCase
    sr_history: tuple[tuple[float, ...], ...]  # one row per iteration

    @property
    def first_multiplier(self) -> float:
        return self.rungs[0].force_multiplier

    @property
    def last_multiplier(self) -> float:
        return self.rungs[-1].force_multiplier


def _first_failure(sr: np.ndarray) -> np.ndarray:
    """The first-failure multiplier of strength-ratio rows: each row's
    smallest finite entry along the last axis, or +inf where it has none
    (no ply carries load), for any shape. Deciding whether that fails an
    evaluation is :func:`_rung`'s."""
    return sr.min(axis=-1, where=np.isfinite(sr), initial=np.inf)


def ties_at_minimum(sr_values, low: float,
                    rel_tol: float = TIE_REL_TOL) -> set[int]:
    """Indices whose strength ratio ties ``low``, the row's
    :func:`_first_failure`, within ``rel_tol``: ``v - low <= rel_tol * low``.
    inf - low and NaN - low never pass the test; -inf is excluded.
    ``low`` must be finite (a row with no finite entry has no minimum to
    tie): an infinite or NaN ``low`` raises ValueError."""
    if not math.isfinite(low):
        raise ValueError(f"low must be finite, got {low}")
    values = np.asarray(sr_values, dtype=float).tolist()
    bound = rel_tol * low
    return {i for i, v in enumerate(values)
            if v - low <= bound and v > -math.inf}


def classify_failure_mode(
    ladder: FailureLadder,
    gap_ratio_threshold: float = GAP_RATIO_THRESHOLD,
) -> FailureMode:
    """Label a ladder catastrophic or progressive by its force spread.

    The gap ratio is (last rung - first rung) / first rung, measured on
    multipliers (equivalently on forces — the reference load cancels).
    Below the threshold the whole stack fails almost at once. A single-rung
    ladder is catastrophic by definition.
    """
    first = ladder.first_multiplier
    last = ladder.last_multiplier
    gap_ratio = (last - first) / first
    if gap_ratio < gap_ratio_threshold:
        return FailureMode.CATASTROPHIC
    return FailureMode.PROGRESSIVE


# =============================================================================
# The rung kernel
# =============================================================================
#
# One laminate state is solved and scored in two stages, each written once
# and used with or without a leading batch axis: :func:`ply_stresses`
# (the solve of the 6x6 system and the per-ply stress recovery) and the
# Tsai-Wu ratios. Every per-ply array they read, the [Qbar] stack of one
# stiffness-row gather, the system matrix and the Tsai-Wu term
# coefficients, is laid out by :mod:`plytamper.clt`. :func:`_rung` chains
# them for one state, on its surviving plies only, and alone decides
# whether an evaluation fails: collapse, by
# :func:`~plytamper.clt.require_nonsingular`, roots and a loaded ply.
# :func:`first_ply_failure_batch` chains them for many states at once,
# keeping the rows that :func:`~plytamper.clt.nonsingular_rows`, the
# collapse rule behind both, keeps.

#: The stress factors of the Tsai-Wu terms h1*s1, h2*s2, h11*s1, h22*s2,
#: h66*t12 and 2*h12*s1, then those of the quadratic terms' second factors.
_FIRST_FACTORS = np.array([0, 1, 0, 1, 2, 0])
_SECOND_FACTORS = np.array([0, 1, 2, 1])


def _strength_ratios_and_bad(local_stress: np.ndarray, coef: np.ndarray):
    """Tsai-Wu strength ratios of (..., n, 3) fiber-axis stresses, and
    their root mask.

    ``coef`` holds (n, 6) rows h1, h2, h11, h22, h66, 2*h12, as
    :attr:`~plytamper.clt.PreparedStack.tsai_wu` stacks them. SR is
    the positive root of a*SR + b*SR**2 = 1 with a = h1*s1 + h2*s2 and
    b = h11*s1**2 + h22*s2**2 + h66*t12**2 + 2*h12*s1*s2 (some printed
    sources misprint H11 on the s2**2 term). Returns the (..., n) ratios,
    +inf for an exactly unloaded entry, and a mask of the loaded entries
    without a positive root (``None`` when no entry needs a mask). A
    masked entry holds a meaningless finite value instead of raising,
    and no entry emits a warning. The six products of a and b are formed
    in one pass and the quadratic ones completed in a second: the float
    operations of the formula, in its order.
    """
    terms = coef * local_stress.take(_FIRST_FACTORS, axis=-1)
    squares = terms[..., 2:] * local_stress.take(_SECOND_FACTORS, axis=-1)
    a = terms[..., 0] + terms[..., 1]
    b = squares[..., 0] + squares[..., 1] + squares[..., 2] + squares[..., 3]
    disc = a * a + 4.0 * b
    if b.min(initial=np.inf) > 0.0:
        # No zero-stress entry (its b is exactly 0) and no bad root (b > 0
        # makes disc positive or NaN): the common case needs no masks.
        # sqrt(disc) - a is -a + sqrt(disc), bit for bit.
        return (np.sqrt(disc) - a) / (2.0 * b), None
    zero = (local_stress == 0.0).all(axis=-1)
    bad = ~zero & ((b <= 0.0) | (disc < 0.0))
    skip = zero | bad
    safe_b = np.where(skip, 1.0, b)
    sr = (np.sqrt(np.where(skip, 0.0, disc)) - a) / (2.0 * safe_b)
    return np.where(zero, np.inf, sr), bad


def ply_stresses(k6: np.ndarray, stack: np.ndarray, z_mid: np.ndarray,
                 rhs: np.ndarray, t_stack: np.ndarray):
    """Solve the laminate and recover each ply's mid-thickness state: the
    one solve stage of every evaluation.

    ``k6`` is the plies' :func:`~plytamper.clt.system_matrix`, (6, 6) or
    (B, 6, 6) for a batch; ``stack`` holds each ply's [Qbar] and
    ``t_stack`` its [T], as (n, 3, 3) arrays or (B, n, 3, 3) batches of
    them, and ``z_mid`` the plies' mid-planes. ``rhs`` is the (6,) load
    vector of one state, or (B, 6, 1) for a batch. Returns the (..., n, 3)
    global strain (eps_x, eps_y, gamma_xy), global stress and fiber-axis
    stress (sigma_1, sigma_2, tau_12), with eps(z) = eps0 + z*k. It runs
    no collapse test: a collapsed system gives meaningless numbers, or a
    LinAlgError from the solve when it is exactly singular.
    """
    solution = np.linalg.solve(k6, rhs).reshape(k6.shape[:-1])
    eps0, kappa = solution[..., None, :3], solution[..., None, 3:]
    global_strain = eps0 + z_mid[:, None] * kappa
    global_stress = np.einsum("...kij,...kj->...ki", stack, global_strain)
    local_stress = np.einsum("...kij,...kj->...ki", t_stack, global_stress)
    return global_strain, global_stress, local_stress


def _kernel_inputs(lam: Laminate, load: LoadCase):
    """The per-ply arrays :func:`_rung` takes, and the load vector."""
    if load.is_zero:
        raise ValueError("failure analysis needs a nonzero load")
    prep = lam.prepared
    arrays = (stiffness_stack(lam), transformation_matrix(lam.angles),
              prep.z_mid, prep.weights, prep.tsai_wu)
    return arrays, load.as_vector()


def _rung(arrays: tuple, load_vec: np.ndarray,
          plies: np.ndarray) -> tuple[float, np.ndarray]:
    """First-failure multiplier and strength ratios of one laminate
    state: the one rung kernel.

    ``arrays`` are every ply's [Qbar], [T] and mid-plane, the (3, n) z
    weights w1, w2, w3 of its ply sums and its term coefficients, from
    :func:`_kernel_inputs`; ``plies`` lists the surviving plies in order,
    every ply for the intact state. Failed plies are left out of the
    solve: with zeroed stiffness their terms of every ply sum would be
    exact zeros, so the bits are the same. The state's system is built
    once, for the collapse test and the solve. Returns the smallest
    finite ratio, as a float, and the survivors' ratios. It alone raises
    on a state: what :func:`~plytamper.clt.require_nonsingular` raises
    (LaminateSingularError for a collapsed system, FloatingPointError
    for stiffness sums that are not finite), StrengthRatioRootError
    naming the original indices of loaded plies without a positive root,
    and NoLoadedPlyError.
    """
    stack, t_stack, z_mid, weights, coef = arrays
    stack, t_stack, z_mid, coef = (
        a.take(plies, axis=0) for a in (stack, t_stack, z_mid, coef))
    k6 = system_matrix(stack, weights.take(plies, axis=1))
    require_nonsingular(k6, "laminate system is numerically singular")
    _, _, local_stress = ply_stresses(k6, stack, z_mid, load_vec, t_stack)
    sr, bad = _strength_ratios_and_bad(local_stress, coef)
    if bad is not None and bad.any():
        raise StrengthRatioRootError(
            "no positive strength-ratio root (quadratic term not positive:"
            " underflow, or bad Tsai-Wu parameters) for plies"
            f" {plies[bad]}")
    low = _first_failure(sr)
    if low == np.inf:
        raise NoLoadedPlyError(
            "no loaded ply: all strength ratios are infinite")
    return float(low), sr


@dataclass(slots=True, eq=False)
class _State:
    """A memo's record of one state or ladder rung state, stored under
    its :func:`memo_key`, each field ``None`` until first computed: the
    ``(mult, sr)`` that :func:`first_ply_failure` returns, the ladder
    from the state on, and the rotated copy and critical ply set a
    tamper search keeps. A rung state's record never holds ``first``,
    since only the intact state's evaluation stores one."""

    first: tuple | None = None
    ladder: FailureLadder | None = None
    copy: Laminate | None = None
    critical: set | None = None


def memo_key(angle_bits: bytes, load: LoadCase) -> bytes:
    """The memo key of a state's :class:`_State` record under ``load``.

    ``angle_bits`` are the state's packed ply angles (a laminate's are
    packed once, on first use), one 8-byte slot per ply. A one-ply
    variation's bits, a search trial's or a batch row's, are its
    laminate's with that ply's slot spliced by
    :func:`~plytamper.clt.angle_bits_with`. A ladder's rung state, the
    survivors of its earlier knockouts, is spliced the same way, with a
    NaN in each failed ply's slot; the intact state has none. The key
    holds the exact bits of the angles and the load, so 0.0 and -0.0 are
    separate records. Materials and thicknesses are not part of it: a
    memo serves one laminate and its rotated copies, which share them.
    """
    return angle_bits + load._bits


def first_ply_failure(lam: Laminate, load: LoadCase, memo: dict | None = None):
    """Multiplier of the first failure plus the per-ply strength ratios.

    The cheap entry point for search loops that only monitor the first
    rung: one :func:`_rung` evaluation of the intact state, no knockout
    iteration.

    ``memo`` (for example :attr:`Laminate.memo`) is a dict of
    :func:`memo_key` records shared by evaluations of one laminate and
    its rotated copies. A state whose record holds ``first`` returns it
    without solving; a new state is solved and stored. Through a memo the
    strength-ratio array is read-only, since every hit returns the same
    one. An evaluation that raises stores nothing. Without a memo every
    call solves and returns a fresh, writable array. An all-zero load
    raises ValueError; a state raises what :func:`_rung` raises.

    Returns
    -------
    (float, ndarray)
        Minimum strength ratio (= first-rung force multiplier against the
        given load, a Python float) and the full per-ply strength-ratio
        array.
    """
    if memo is not None:
        key = memo_key(lam._angle_bits, load)
        record = memo.get(key)
        if record is not None and record.first is not None:
            return record.first
    result = _rung(*_kernel_inputs(lam, load), np.arange(lam.n_plies))
    if memo is not None:
        result[1].setflags(write=False)
        memo.setdefault(key, _State()).first = result
    return result


def first_ply_failure_batch(lam: Laminate, load: LoadCase, plies, angles,
                            memo: dict) -> None:
    """Store :func:`first_ply_failure` of B one-ply variations of ``lam``
    in ``memo``, from one batched solve.

    Row b is ``lam`` with ply ``plies[b]`` at ``angles[b]``, in [-90, 90]
    as :func:`~plytamper.clt.normalize_angle` gives it: ``lam``'s [Qbar]
    and [T] stacks, copied with one column replaced. One call of the
    collapse rule, :func:`~plytamper.clt.nonsingular_rows`, on the B
    systems keeps the rows to solve. A solved row with a loaded ply and
    a positive root on every ply is stored as its record's ``first``,
    unless one is there, bit for bit what :func:`first_ply_failure`
    returns. Every other row is left to that call, which solves it or
    raises; a NaN system that makes the rule keep no row leaves every
    row to it. Nothing is returned.
    """
    (stack, t_stack, z_mid, weights, coef), load_vec = _kernel_inputs(
        lam, load)
    plies, angles = np.asarray(plies), np.asarray(angles, dtype=float)
    if plies.ndim != 1 or angles.shape != plies.shape:
        raise ValueError(f"need one angle per ply index, got shapes "
                         f"{plies.shape} and {angles.shape}")
    if plies.size and not (plies.dtype.kind in "iu" and plies.min() >= 0
                           and plies.max() < lam.n_plies):
        raise ValueError(f"ply indices must lie in 0..{lam.n_plies - 1}")
    if not (np.abs(angles) <= 90.0).all():
        raise ValueError("angles must lie in [-90, 90]")
    prep, ply_list = lam.prepared, plies.tolist()
    stacks = np.repeat(stack[None], len(ply_list), axis=0)
    stacks[np.arange(len(ply_list)), ply_list] = stiffness_rows(
        [prep.materials[k] for k in ply_list], angles.tolist())
    k6 = system_matrix(stacks, weights)
    kept = nonsingular_rows(k6)
    if len(kept) < len(ply_list):
        k6, stacks, angles = k6[kept], stacks[kept], angles[kept]
        ply_list = [ply_list[b] for b in kept]
    count = len(ply_list)
    t_stacks = np.repeat(t_stack[None], count, axis=0)
    t_stacks[np.arange(count), ply_list] = transformation_matrix(angles)
    rhs = np.broadcast_to(load_vec[:, None], (count, 6, 1))
    try:
        _, _, local_stress = ply_stresses(k6, stacks, z_mid, rhs, t_stacks)
    except np.linalg.LinAlgError:
        return   # first_ply_failure solves the rows one by one
    sr, bad = _strength_ratios_and_bad(local_stress, coef)
    lows = _first_failure(sr)
    clean = lows < np.inf
    if bad is not None:
        clean &= ~bad.any(axis=1)
    sr.setflags(write=False)
    angle_list = angles.tolist()
    for b in np.flatnonzero(clean).tolist():
        bits = angle_bits_with(lam._angle_bits, ply_list[b], angle_list[b])
        record = memo.setdefault(memo_key(bits, load), _State())
        if record.first is None:
            record.first = float(lows[b]), sr[b]


def simulate_progressive_failure(lam: Laminate, load: LoadCase,
                                 memo: dict | None = None) -> FailureLadder:
    """Knock plies out group by group until the whole stack has failed.

    Parameters
    ----------
    lam : Laminate
        The intact laminate.
    load : LoadCase
        Reference load; must be nonzero. Rung multipliers scale this load.
    memo : dict, optional
        As for :func:`first_ply_failure`, keyed by rung state: the
        survivors of the knockouts so far, at their angles (see
        :func:`memo_key`), the intact state being rung state 0. Each
        rung state is looked up once. A stored ladder ends the ladder;
        otherwise the rung is solved, or at rung 0 read from the
        record's ``first``. A ladder that returns stores, in the record
        of each rung state it solved, the ladder from that state on,
        except at a flagged rung, whose multiplier is the rung's before
        it. A ladder that raises stores nothing. ``None`` always
        simulates. Everything after a rung state depends only on its
        survivors, their angles and the load, so a tail from another
        ladder is bit for bit what the simulation would give.

    Returns
    -------
    FailureLadder
        One rung per knockout group. If a knockout leaves a numerically
        singular system, the survivors are reported together in a final
        rung flagged ``flagged=True`` at the previous rung's multiplier.

    Raises
    ------
    ValueError
        For an all-zero load.
    LaminateSingularError
        If the intact laminate is already singular.
    StrengthRatioRootError
        If a loaded ply has no positive root; the message names it.
    NoLoadedPlyError
        If an iteration leaves surviving plies that carry no stress.
    """
    arrays = None
    if memo is not None:
        state = lam._angle_bits   # the rung state's angle bits
        solved = []   # (rung index, key) of each rung state solved

    plies = np.arange(lam.n_plies)   # the survivors, in order
    rungs: list[FailureRung] = []
    history: list[tuple[float, ...]] = []

    while plies.size:
        first = None
        if memo is not None:
            key = memo_key(state, load)
            record = memo.get(key) or _State()   # a lookup stores nothing
            if record.ladder is not None:
                if not rungs:
                    return record.ladder
                rungs += record.ladder.rungs
                history += record.ladder.sr_history
                break
            solved.append((len(rungs), key))
            first = record.first   # only the intact state can hold one
        if first is not None:
            low, sr = first
        else:
            if arrays is None:
                arrays, load_vec = _kernel_inputs(lam, load)
            try:
                low, sr = _rung(arrays, load_vec, plies)
            except LaminateSingularError:
                if not rungs:
                    raise
                rungs.append(FailureRung(
                    force_multiplier=rungs[-1].force_multiplier,
                    failed_plies=tuple(plies.tolist()),
                    flagged=True,
                ))
                break
        row = np.full(lam.n_plies, np.inf)   # a failed ply's entry is inf
        row[plies] = sr
        history.append(tuple(row.tolist()))
        tied = sorted(ties_at_minimum(sr, low))
        failed = plies[tied].tolist()
        rungs.append(FailureRung(
            force_multiplier=low,
            failed_plies=tuple(failed),
        ))
        keep = np.ones(plies.size, dtype=bool)
        keep[tied] = False
        plies = plies[keep]
        if memo is not None:
            for ply in failed:
                state = angle_bits_with(state, ply, math.nan)

    ladder = FailureLadder(rungs=tuple(rungs), load=load,
                           sr_history=tuple(history))
    if memo is not None:
        for i, key in solved:
            if not ladder.rungs[i].flagged:
                memo.setdefault(key, _State()).ladder = (
                    ladder if i == 0 else FailureLadder(
                        ladder.rungs[i:], load, ladder.sr_history[i:]))
    return ladder
