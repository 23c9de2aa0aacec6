"""Progressive ply-failure simulation (first-ply failure and beyond).

Repeatedly: solve the laminate under the reference load, get one Tsai-Wu
strength ratio per surviving ply (at the ply mid-thickness), knock out the
plies tied at the minimum, zero their stiffness contribution and go again.
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
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from plytamper.clt import (
    Laminate,
    LaminateSingularError,
    LoadCase,
    NoLoadedPlyError,
    PreparedStack,
    StrengthRatioRootError,
    abd_blocks,
    collapsed_rows,
    require_nonsingular,
    stiffness_stack,
    stiffness_stacks,
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


def ties_at_minimum(sr_values, rel_tol: float = TIE_REL_TOL) -> set[int]:
    """Indices whose strength ratio ties the minimum within ``rel_tol``.

    An entry ties when ``v - low <= rel_tol * low`` for the finite minimum
    ``low``. Infinite entries (unloaded or failed plies) are skipped.
    Raises NoLoadedPlyError when every entry is infinite — nothing carries
    load.
    """
    values = np.asarray(sr_values, dtype=float).tolist()
    low = min(values, default=math.inf)
    # Python's min skips a NaN after the first entry, and -inf or an
    # all-infinite list would come out non-finite: then look again at the
    # finite entries only.
    if not -math.inf < low < math.inf:
        low = min([v for v in values if -math.inf < v < math.inf],
                  default=math.inf)
        if low == math.inf:
            raise NoLoadedPlyError(
                "no loaded ply: all strength ratios are infinite")
    bound = rel_tol * low
    # inf - low and NaN - low never pass the test; -inf is excluded.
    return {i for i, v in enumerate(values)
            if v - low <= bound and v > -math.inf}


def _finite_minimum(values: np.ndarray) -> float:
    """Smallest finite entry; NoLoadedPlyError if none is finite."""
    low = values.min(where=np.isfinite(values), initial=np.inf)
    if low == np.inf:
        raise NoLoadedPlyError(
            "no loaded ply: all strength ratios are infinite")
    return float(low)


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
# Vectorized per-iteration core
# =============================================================================

def _system_matrix(stack: np.ndarray, prep: PreparedStack) -> np.ndarray:
    """The (..., 6, 6) laminate matrix [[A, B], [B, D]] of a [Qbar] stack."""
    a, b, d = abd_blocks(stack, prep)
    k6 = np.empty(a.shape[:-2] + (6, 6))
    k6[..., :3, :3] = a
    k6[..., :3, 3:] = b
    k6[..., 3:, :3] = b
    k6[..., 3:, 3:] = d
    return k6


def strength_ratios(local_stress: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """Tsai-Wu strength ratios of (n, 3) fiber-axis stresses.

    ``tw`` is a (6, n) array with rows h1, h2, h11, h22, h66, h12. SR is
    the positive root of a*SR + b*SR**2 = 1 with a = h1*s1 + h2*s2 and
    b = h11*s1**2 + h22*s2**2 + h66*t12**2 + 2*h12*s1*s2 (some printed
    sources misprint H11 on the s2**2 term). Exactly unloaded rows get
    +inf; a loaded row without a positive root raises
    StrengthRatioRootError.
    """
    sr, bad = _strength_ratios_and_bad(local_stress, tw)
    if bad is not None and bad.any():
        raise StrengthRatioRootError(
            f"no positive strength-ratio root for plies {np.where(bad)[0]}"
        )
    return sr


def _strength_ratios_and_bad(local_stress: np.ndarray, tw: np.ndarray):
    """:func:`strength_ratios` of (..., n, 3) stresses, and its root mask.

    Returns the (..., n) ratios and a mask of the entries without a
    positive root (``None`` when no entry needs a mask). A masked entry
    holds a meaningless finite value instead of raising, and no entry
    emits a warning.
    """
    s1, s2, t12 = (local_stress[..., k] for k in range(3))
    h1, h2, h11, h22, h66, h12 = tw
    a = h1 * s1 + h2 * s2
    b = h11 * s1 * s1 + h22 * s2 * s2 + h66 * t12 * t12 + 2.0 * h12 * s1 * s2
    disc = a * a + 4.0 * b
    if (b > 0.0).all():
        # No zero-stress entry (its b is exactly 0) and no bad root (b > 0
        # makes disc positive or NaN): the common case needs no masks.
        return (-a + np.sqrt(disc)) / (2.0 * b), None
    zero = (s1 == 0.0) & (s2 == 0.0) & (t12 == 0.0)
    bad = ~zero & ((b <= 0.0) | (disc < 0.0))
    skip = zero | bad
    safe_b = np.where(skip, 1.0, b)
    sr = (-a + np.sqrt(np.where(skip, 0.0, disc))) / (2.0 * safe_b)
    return np.where(zero, np.inf, sr), bad


def _recover_stresses(stack: np.ndarray, prep: PreparedStack,
                      t_stack: np.ndarray, solution: np.ndarray):
    """Per-ply mid-thickness strain and stresses from (..., 6) solutions
    (eps0, kappa) of (..., n, 3, 3) stacks; see :func:`ply_stresses`."""
    eps0, kappa = solution[..., None, :3], solution[..., None, 3:]
    global_strain = eps0 + prep.z_mid[:, None] * kappa
    global_stress = np.einsum("...kij,...kj->...ki", stack, global_strain)
    local_stress = np.einsum("...kij,...kj->...ki", t_stack, global_stress)
    return global_strain, global_stress, local_stress


def ply_stresses(stack: np.ndarray, prep: PreparedStack,
                 load_vec: np.ndarray, t_stack: np.ndarray):
    """Solve the laminate and recover each ply's mid-thickness state.

    Returns the (n, 3) global strain (eps_x, eps_y, gamma_xy), global
    stress and fiber-axis stress (sigma_1, sigma_2, tau_12), with
    eps(z) = eps0 + z*k, and ``t_stack`` holds each ply's [T]. Raises
    LaminateSingularError when the 6x6 system has collapsed.
    """
    k6 = _system_matrix(stack, prep)
    require_nonsingular(k6, "laminate system is numerically singular")
    return _recover_stresses(stack, prep, t_stack,
                             np.linalg.solve(k6, load_vec))


def _iteration_sr(stack: np.ndarray, prep: PreparedStack,
                  load_vec: np.ndarray, t_stack: np.ndarray) -> np.ndarray:
    """Strength ratios of every ply for one knockout iteration.

    Failed plies have a zeroed stiffness, so their recovered stress is
    exactly zero and they come back as +inf — which the tie search skips.
    """
    _, _, local_stress = ply_stresses(stack, prep, load_vec, t_stack)
    return strength_ratios(local_stress, prep.tsai_wu)


def _kernel_inputs(lam: Laminate, load: LoadCase):
    """The intact [Qbar] stack, prepared arrays, load vector and [T] stack."""
    if load.is_zero:
        raise ValueError("failure analysis needs a nonzero load")
    return (stiffness_stack(lam), lam.prepared, load.as_vector(),
            transformation_matrix(lam.angles))


def memo_key(kind: str, angles: tuple, load: LoadCase) -> tuple:
    """The memo key of a ``kind`` evaluation of ``angles`` under ``load``.

    ``kind`` is ``"first_ply_failure"`` or
    ``"simulate_progressive_failure"``. The key holds the exact bits of
    the angles and the load, so 0.0 and -0.0 are separate entries.
    Materials and thicknesses are not part of it: a memo serves one
    laminate and its rotated copies, which share them.
    """
    return kind, struct.pack(f"{len(angles)}d", *angles) + load._bits


def first_ply_failure(lam: Laminate, load: LoadCase, memo: dict | None = None):
    """Multiplier of the first failure plus the per-ply strength ratios.

    The cheap entry point for search loops that only monitor the first
    rung: one system solve, no knockout iteration.

    ``memo`` (for example :attr:`Laminate.memo`) is a dict shared by
    evaluations of one laminate and its rotated copies. A state whose
    exact angles and load are already in it returns the stored result
    without solving; a new state is solved and stored. Through a memo the
    strength-ratio array is read-only, since every hit returns the same
    one. An evaluation that raises stores nothing. Without a memo every
    call solves and returns a fresh, writable array.

    Returns
    -------
    (float, ndarray)
        Minimum strength ratio (= first-rung force multiplier against the
        given load) and the full per-ply strength-ratio array.
    """
    if memo is not None:
        key = memo_key("first_ply_failure", lam.angles, load)
        hit = memo.get(key)
        if hit is not None:
            return hit
    sr = _iteration_sr(*_kernel_inputs(lam, load))
    result = _finite_minimum(sr), sr
    if memo is not None:
        sr.setflags(write=False)
        memo[key] = result
    return result


def first_ply_failure_batch(lam: Laminate, load: LoadCase, angle_rows,
                            memo: dict | None = None):
    """:func:`first_ply_failure` of ``lam`` at each of B angle rows at once.

    ``angle_rows`` holds B rows of ``lam.n_plies`` angles in [-90, 90], as
    :func:`~plytamper.clt.normalize_angle` gives them. Row b is evaluated
    as ``lam.with_angles(angle_rows[b])``: one [Qbar] gather, one batched
    SVD and one batched solve for all rows.

    Returns ``(multipliers, sr, usable)``: (B,) multipliers, (B, n)
    strength ratios and a (B,) mask. A usable row is bit for bit what
    :func:`first_ply_failure` returns for it. A row is unusable where
    that call would raise: a collapsed system, a ply without a positive
    root or no loaded ply. Its entries are NaN, and nothing is raised.

    With a ``memo``, every usable row not yet in it is stored under the
    key :func:`first_ply_failure` looks up, so that call then hits. An
    unusable row is not stored, and the sequential call solves and raises
    it as before.
    """
    if load.is_zero:
        raise ValueError("failure analysis needs a nonzero load")
    rows = np.array(angle_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != lam.n_plies:
        raise ValueError(f"need rows of {lam.n_plies} angles, got an array "
                         f"of shape {rows.shape}")
    if not (np.abs(rows) <= 90.0).all():
        raise ValueError("angle rows must lie in [-90, 90]")
    prep = lam.prepared
    multipliers = np.full(len(rows), np.nan)
    sr = np.full(rows.shape, np.nan)
    usable = np.zeros(len(rows), dtype=bool)
    stacks = stiffness_stacks(lam, rows)
    k6 = _system_matrix(stacks, prep)
    try:
        solved = ~collapsed_rows(k6)
        rhs = np.broadcast_to(load.as_vector()[:, None],
                              (int(solved.sum()), 6, 1))
        solution = np.linalg.solve(k6[solved], rhs)[..., 0]
    except np.linalg.LinAlgError:
        # The sequential calls raise the same error row by row.
        solved = np.zeros(len(rows), dtype=bool)
    if solved.any():
        _, _, local_stress = _recover_stresses(
            stacks[solved], prep, transformation_matrix(rows[solved]),
            solution)
        ratios, bad = _strength_ratios_and_bad(local_stress, prep.tsai_wu)
        lows = ratios.min(axis=1, where=np.isfinite(ratios),
                          initial=np.inf)
        good = lows < np.inf
        if bad is not None:
            good &= ~bad.any(axis=1)
        index = np.flatnonzero(solved)[good]
        multipliers[index] = lows[good]
        sr[index] = ratios[good]
        usable[index] = True
    if memo is not None:
        sr.setflags(write=False)
        for b in np.flatnonzero(usable).tolist():
            memo.setdefault(memo_key("first_ply_failure", rows[b].tolist(),
                                     load),
                            (float(multipliers[b]), sr[b]))
    return multipliers, sr, usable


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
        As for :func:`first_ply_failure`: a state already in it returns
        the stored (immutable) ladder, a new one is simulated and stored,
        and a state that raises stores nothing. ``None`` always simulates.

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
    NoLoadedPlyError
        If an iteration leaves surviving plies that carry no stress.
    """
    if memo is not None:
        key = memo_key("simulate_progressive_failure", lam.angles, load)
        hit = memo.get(key)
        if hit is not None:
            return hit
    intact, prep, load_vec, t_stack = _kernel_inputs(lam, load)

    active = np.ones(lam.n_plies, dtype=bool)
    rungs: list[FailureRung] = []
    history: list[tuple[float, ...]] = []

    while active.any():
        stack = np.where(active[:, None, None], intact, 0.0)
        try:
            sr = _iteration_sr(stack, prep, load_vec, t_stack)
        except LaminateSingularError:
            if not rungs:
                raise
            rungs.append(FailureRung(
                force_multiplier=rungs[-1].force_multiplier,
                failed_plies=tuple(int(i) for i in np.where(active)[0]),
                flagged=True,
            ))
            active[:] = False
            break

        history.append(tuple(sr.tolist()))
        group = ties_at_minimum(sr)
        multiplier = min(float(sr[i]) for i in group)
        rungs.append(FailureRung(
            force_multiplier=multiplier,
            failed_plies=tuple(sorted(group)),
        ))
        for i in group:
            active[i] = False

    ladder = FailureLadder(rungs=tuple(rungs), load=load,
                           sr_history=tuple(history))
    if memo is not None:
        memo[key] = ladder
    return ladder
