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
    require_nonsingular,
    stiffness_stack,
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
    values = np.asarray(sr_values, dtype=float)
    finite, low = _finite_minimum(values)
    ties = finite & (values - low <= rel_tol * low)
    return set(np.flatnonzero(ties).tolist())


def _finite_minimum(values: np.ndarray):
    """Finite-entry mask and minimum; NoLoadedPlyError if none is finite."""
    finite = np.isfinite(values)
    low = values.min(where=finite, initial=np.inf)
    if low == np.inf:
        raise NoLoadedPlyError(
            "no loaded ply: all strength ratios are infinite")
    return finite, low


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

def _solve_system(stack: np.ndarray, prep: PreparedStack,
                  load_vec: np.ndarray):
    """Assemble and solve the 6x6 laminate system for one iteration."""
    a, b, d = abd_blocks(stack, prep)
    k6 = np.empty((6, 6))
    k6[:3, :3] = a
    k6[:3, 3:] = b
    k6[3:, :3] = b
    k6[3:, 3:] = d
    require_nonsingular(k6, "laminate system is numerically singular")
    solution = np.linalg.solve(k6, load_vec)
    return solution[:3], solution[3:]


def strength_ratios(local_stress: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """Tsai-Wu strength ratios of (n, 3) fiber-axis stresses.

    ``tw`` is a (6, n) array with rows h1, h2, h11, h22, h66, h12. SR is
    the positive root of a*SR + b*SR**2 = 1 with a = h1*s1 + h2*s2 and
    b = h11*s1**2 + h22*s2**2 + h66*t12**2 + 2*h12*s1*s2 (some printed
    sources misprint H11 on the s2**2 term). Exactly unloaded rows get
    +inf; a loaded row without a positive root raises
    StrengthRatioRootError.
    """
    s1, s2, t12 = local_stress[:, 0], local_stress[:, 1], local_stress[:, 2]
    h1, h2, h11, h22, h66, h12 = tw
    a = h1 * s1 + h2 * s2
    b = h11 * s1 * s1 + h22 * s2 * s2 + h66 * t12 * t12 + 2.0 * h12 * s1 * s2
    disc = a * a + 4.0 * b
    if (b > 0.0).all():
        # No zero-stress row (its b is exactly 0) and no bad root (b > 0
        # makes disc positive or NaN): the common case needs no masks.
        return (-a + np.sqrt(disc)) / (2.0 * b)
    zero = (s1 == 0.0) & (s2 == 0.0) & (t12 == 0.0)
    bad = ~zero & ((b <= 0.0) | (disc < 0.0))
    if np.any(bad):
        raise StrengthRatioRootError(
            f"no positive strength-ratio root for plies {np.where(bad)[0]}"
        )
    safe_b = np.where(zero, 1.0, b)
    sr = (-a + np.sqrt(np.where(zero, 0.0, disc))) / (2.0 * safe_b)
    return np.where(zero, np.inf, sr)


def ply_stresses(stack: np.ndarray, prep: PreparedStack,
                 load_vec: np.ndarray, t_stack: np.ndarray):
    """Solve the laminate and recover each ply's mid-thickness state.

    Returns the (n, 3) global strain (eps_x, eps_y, gamma_xy), global
    stress and fiber-axis stress (sigma_1, sigma_2, tau_12), with
    eps(z) = eps0 + z*k, and ``t_stack`` holds each ply's [T]. Raises
    LaminateSingularError when the 6x6 system has collapsed.
    """
    eps0, kappa = _solve_system(stack, prep, load_vec)
    global_strain = eps0[None, :] + prep.z_mid[:, None] * kappa[None, :]
    global_stress = np.einsum("kij,kj->ki", stack, global_strain)
    local_stress = np.einsum("kij,kj->ki", t_stack, global_stress)
    return global_strain, global_stress, local_stress


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


def first_ply_failure(lam: Laminate, load: LoadCase):
    """Multiplier of the first failure plus the per-ply strength ratios.

    The cheap entry point for search loops that only monitor the first
    rung: one system solve, no knockout iteration.

    Returns
    -------
    (float, ndarray)
        Minimum strength ratio (= first-rung force multiplier against the
        given load) and the full per-ply strength-ratio array.
    """
    sr = _iteration_sr(*_kernel_inputs(lam, load))
    return float(_finite_minimum(sr)[1]), sr


def simulate_progressive_failure(lam: Laminate,
                                 load: LoadCase) -> FailureLadder:
    """Knock plies out group by group until the whole stack has failed.

    Parameters
    ----------
    lam : Laminate
        The intact laminate.
    load : LoadCase
        Reference load; must be nonzero. Rung multipliers scale this load.

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

    return FailureLadder(rungs=tuple(rungs), load=load,
                         sr_history=tuple(history))
