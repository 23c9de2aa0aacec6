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
    _entry_rows,
    _split_rows,
    _stacked_abd,
    ply_bounds,
    require_nonsingular,
    rules_out_collapse,
    stiffness_stack_and_bounds,
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
# The rung kernel
# =============================================================================
#
# One laminate state is solved and scored in two stages, each written once
# and used with or without a leading batch axis: :func:`ply_stresses`
# (the 6x6 system, the collapse test, the solve and the per-ply stress
# recovery) and the Tsai-Wu ratios. The stiffness rows they start from
# are gathered and split by :mod:`plytamper.clt`. The
# collapse test is decided by the per-ply bound of
# :func:`~plytamper.clt.rules_out_collapse` where it can be, and by the
# SVD only where it cannot.
# :func:`_rung` chains them for one state, on its surviving plies only;
# :func:`first_ply_failure_batch` chains them for many states at once,
# the ones the bound clears.

#: Where each entry of the 6x6 system, row by row, sits in the flattened
#: (3, 3, 3) A, B, D array: block 0, 1 or 2, then row and column in it.
_K6_FLAT = (9 * (np.arange(6)[:, None] // 3 + np.arange(6) // 3)
            + 3 * (np.arange(6)[:, None] % 3) + np.arange(6) % 3).ravel()

#: The stress factors of the Tsai-Wu terms h1*s1, h2*s2, h11*s1, h22*s2,
#: h66*t12 and 2*h12*s1, then those of the quadratic terms' second factors.
_FIRST_FACTORS = np.array([0, 1, 0, 1, 2, 0])
_SECOND_FACTORS = np.array([0, 1, 2, 1])

#: Scales (h1, h2, h11, h22, h66, h12) to the coefficients of the terms.
_TERM_SCALE = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0])


def _term_coefficients(tw: np.ndarray) -> np.ndarray:
    """The (n, 6) coefficients h1, h2, h11, h22, h66, 2*h12 of (6, n)
    Tsai-Wu rows, as :func:`_strength_ratios_and_bad` takes them."""
    return tw.T * _TERM_SCALE


def _system_matrix(stack: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The (..., 6, 6) laminate matrix [[A, B], [B, D]] of a [Qbar] stack
    over (3, n) z weights."""
    abd = _stacked_abd(stack, weights)
    batch = abd.shape[:-3]
    return abd.reshape(batch + (27,)).take(_K6_FLAT, axis=-1).reshape(
        batch + (6, 6))


def strength_ratios(local_stress: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """Tsai-Wu strength ratios of (n, 3) fiber-axis stresses.

    ``tw`` is a (6, n) array with rows h1, h2, h11, h22, h66, h12. SR is
    the positive root of a*SR + b*SR**2 = 1 with a = h1*s1 + h2*s2 and
    b = h11*s1**2 + h22*s2**2 + h66*t12**2 + 2*h12*s1*s2 (some printed
    sources misprint H11 on the s2**2 term). Exactly unloaded rows get
    +inf; a loaded row without a positive root raises
    StrengthRatioRootError.
    """
    sr, bad = _strength_ratios_and_bad(local_stress, _term_coefficients(tw))
    _require_roots(bad)
    return sr


def _strength_ratios_and_bad(local_stress: np.ndarray, coef: np.ndarray):
    """:func:`strength_ratios` of (..., n, 3) stresses, and its root mask.

    ``coef`` holds the (n, 6) :func:`_term_coefficients`. Returns the
    (..., n) ratios and a mask of the entries without a positive root
    (``None`` when no entry needs a mask). A masked entry holds a
    meaningless finite value instead of raising, and no entry emits a
    warning. The six products of a and b are formed in one pass and the
    quadratic ones completed in a second: the float operations of the
    formula, in its order.
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


def _require_roots(bad, plies: np.ndarray | None = None) -> None:
    """Raise StrengthRatioRootError naming the plies that ``bad`` (from
    :func:`_strength_ratios_and_bad`) marks: entries of ``plies``, or
    their own indices when it is None."""
    if bad is not None and bad.any():
        named = np.where(bad)[0] if plies is None else plies[bad]
        raise StrengthRatioRootError(
            f"no positive strength-ratio root for plies {named}")


def ply_stresses(stack: np.ndarray, weights: np.ndarray, z_mid: np.ndarray,
                 rhs: np.ndarray, t_stack: np.ndarray, bounded: bool = False):
    """Solve the laminate and recover each ply's mid-thickness state: the
    one solve stage of every evaluation.

    ``stack`` holds each ply's [Qbar] and ``t_stack`` its [T], as
    (n, 3, 3) arrays or (B, n, 3, 3) batches of them; ``weights`` are the
    plies' (3, n) z weights and ``z_mid`` their mid-planes. ``rhs`` is the
    (6,) load vector of one state, or (B, 6, 1) for a batch. Returns the
    (..., n, 3) global strain (eps_x, eps_y, gamma_xy), global stress and
    fiber-axis stress (sigma_1, sigma_2, tau_12), with eps(z) = eps0 + z*k.
    Raises LaminateSingularError when one state's 6x6 system has
    collapsed; ``bounded`` skips that test, for states that
    :func:`~plytamper.clt.rules_out_collapse` has decided.
    """
    k6 = _system_matrix(stack, weights)
    if not bounded:
        require_nonsingular(k6, "laminate system is numerically singular")
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
    stack, bounds = stiffness_stack_and_bounds(lam)
    arrays = (stack, transformation_matrix(lam.angles), prep.z_mid,
              np.concatenate([prep.weights, bounds]),
              _term_coefficients(prep.tsai_wu))
    return arrays, load.as_vector()


def _rung(arrays: tuple, load_vec: np.ndarray,
          plies: np.ndarray | None = None) -> np.ndarray:
    """Strength ratios of one laminate state: the one rung kernel.

    ``arrays`` are every ply's [Qbar], [T] and mid-plane, the (5, n)
    summands of its ply sums (z weights w1, w2, w3, then collapse bounds
    l and u) and its term coefficients, from :func:`_kernel_inputs`, so
    that one take gives a state's weights and bounds; ``plies`` lists the
    surviving plies in order (all when None). Failed plies are left out
    of the solve: with zeroed stiffness their terms of every ply sum
    would be exact zeros, so the bits are the same. The survivors' bounds
    decide the collapse test where they can. Returns the survivors'
    ratios; an error names the original ply indices.
    """
    stack, t_stack, z_mid, summands, coef = arrays
    if plies is not None:
        stack, t_stack, z_mid, coef = (
            a.take(plies, axis=0) for a in (stack, t_stack, z_mid, coef))
        summands = summands.take(plies, axis=1)
    lower, upper = summands[3:].sum(axis=1).tolist()
    _, _, local_stress = ply_stresses(
        stack, summands[:3], z_mid, load_vec, t_stack,
        rules_out_collapse(lower, upper, len(z_mid)))
    sr, bad = _strength_ratios_and_bad(local_stress, coef)
    _require_roots(bad, plies)
    return sr


def memo_key(kind: str, angle_bits: bytes, load: LoadCase) -> tuple:
    """The memo key of a ``kind`` evaluation of a state under ``load``.

    ``kind`` is ``"first_ply_failure"`` or
    ``"simulate_progressive_failure"``, and ``angle_bits`` the state's
    packed ply angles (a laminate's are packed once, on first use). The
    key holds the exact bits of the angles and the load, so 0.0 and -0.0
    are separate entries. Materials and thicknesses are not part of it:
    a memo serves one laminate and its rotated copies, which share them.
    """
    return kind, angle_bits + load._bits


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
        key = memo_key("first_ply_failure", lam._angle_bits, load)
        hit = memo.get(key)
        if hit is not None:
            return hit
    sr = _rung(*_kernel_inputs(lam, load))
    result = _finite_minimum(sr), sr
    if memo is not None:
        sr.setflags(write=False)
        memo[key] = result
    return result


def first_ply_failure_batch(lam: Laminate, load: LoadCase, plies, angles,
                            memo: dict) -> None:
    """Store :func:`first_ply_failure` of B one-ply variations of ``lam``
    in ``memo``, from one batched solve.

    Row b is ``lam`` with ply ``plies[b]`` at ``angles[b]``, in [-90, 90]
    as :func:`~plytamper.clt.normalize_angle` gives it: ``lam``'s [Qbar]
    and [T] stacks, copied with one column replaced. Each row's collapse
    bounds are ``lam``'s with the replaced ply's terms swapped, and only
    the rows that :func:`~plytamper.clt.rules_out_collapse` clears are
    solved. A solved row with a loaded ply and a positive root on every
    ply is stored, unless already there, under the key
    :func:`first_ply_failure` looks up, bit for bit what that call
    returns. Every other row is left to that call, which solves it or
    raises. Nothing is returned.
    """
    (stack, t_stack, z_mid, summands, coef), load_vec = _kernel_inputs(
        lam, load)
    weights, bounds = summands[:3], summands[3:]
    plies, angles = np.asarray(plies), np.asarray(angles, dtype=float)
    if plies.ndim != 1 or angles.shape != plies.shape:
        raise ValueError(f"need one angle per ply index, got shapes "
                         f"{plies.shape} and {angles.shape}")
    if plies.size and not (plies.dtype.kind in "iu" and plies.min() >= 0
                           and plies.max() < lam.n_plies):
        raise ValueError(f"ply indices must lie in 0..{lam.n_plies - 1}")
    if not (np.abs(angles) <= 90.0).all():
        raise ValueError("angles must lie in [-90, 90]")
    ply_list = plies.tolist()
    qbars, tails = _split_rows(_entry_rows(
        [lam.plies[k].material for k in ply_list], angles.tolist()))
    # Each row's bound sums: lam's, with the replaced ply's terms swapped.
    lower, upper = (bounds.sum(axis=1)[:, None] - bounds[:, ply_list]
                    + ply_bounds(lam.prepared.weight_spectra[ply_list],
                                 tails))
    cleared = np.flatnonzero(
        rules_out_collapse(lower, upper, lam.n_plies)).tolist()
    ply_list = [ply_list[b] for b in cleared]
    angles = angles[cleared]
    count = len(ply_list)
    rows = np.arange(count)
    stacks = np.repeat(stack[None], count, axis=0)
    stacks[rows, ply_list] = qbars[cleared]
    t_stacks = np.repeat(t_stack[None], count, axis=0)
    t_stacks[rows, ply_list] = transformation_matrix(angles)
    rhs = np.broadcast_to(load_vec[:, None], (count, 6, 1))
    try:
        _, _, local_stress = ply_stresses(stacks, weights, z_mid, rhs,
                                          t_stacks, bounded=True)
    except np.linalg.LinAlgError:
        return   # first_ply_failure solves the rows one by one
    sr, bad = _strength_ratios_and_bad(local_stress, coef)
    lows = sr.min(axis=1, where=np.isfinite(sr), initial=np.inf)
    clean = lows < np.inf
    if bad is not None:
        clean &= ~bad.any(axis=1)
    sr.setflags(write=False)
    angle_list = angles.tolist()
    for b in np.flatnonzero(clean).tolist():
        bits = lam._angle_bits_with(ply_list[b], angle_list[b])
        memo.setdefault(memo_key("first_ply_failure", bits, load),
                        (float(lows[b]), sr[b]))


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
    first = None
    if memo is not None:
        key = memo_key("simulate_progressive_failure", lam._angle_bits, load)
        hit = memo.get(key)
        if hit is not None:
            return hit
        # The first rung solves the state first_ply_failure solved.
        first = memo.get(memo_key("first_ply_failure", lam._angle_bits, load))
    arrays, load_vec = _kernel_inputs(lam, load)

    alive = np.ones(lam.n_plies, dtype=bool)
    unscored = np.full(lam.n_plies, np.inf)   # a failed ply's row entry
    plies = np.arange(lam.n_plies)   # the survivors, in order
    rungs: list[FailureRung] = []
    history: list[tuple[float, ...]] = []

    while plies.size:
        if first is not None:
            sr, first = first[1], None
        else:
            try:
                sr = _rung(arrays, load_vec, plies)
            except LaminateSingularError:
                if not rungs:
                    raise
                rungs.append(FailureRung(
                    force_multiplier=rungs[-1].force_multiplier,
                    failed_plies=tuple(plies.tolist()),
                    flagged=True,
                ))
                break
        row = unscored.copy()
        row[plies] = sr
        history.append(tuple(row.tolist()))
        failed = plies[sorted(ties_at_minimum(sr))]
        alive[failed] = False
        plies = alive.nonzero()[0]
        failed = failed.tolist()
        rungs.append(FailureRung(
            force_multiplier=min(history[-1][i] for i in failed),
            failed_plies=tuple(failed),
        ))

    ladder = FailureLadder(rungs=tuple(rungs), load=load,
                           sr_history=tuple(history))
    if memo is not None:
        memo[key] = ladder
    return ladder
