"""Would a tampered layup show up in a stiffness or vibration check?

Angle-only tampering leaves mass, geometry and ply count untouched, so the
cheapest fingerprints of an attacked part are its effective elastic
constants and — through them — its fundamental resonance frequency: the
frequency scales with the square root of the effective modulus when
everything else is held constant. This module computes laminate
engineering constants from the extensional stiffness, collapses them into
a single effective orthotropic modulus, and turns an original/attacked
modulus pair into a frequency ratio and percent change.

Absolute frequencies are out of reach on purpose: they would need the
part's mass, span and boundary conditions. Only the original-to-attacked
*ratio* is computed, where all of those cancel.

Engineering constants are derived from the membrane (A) block alone. For
an unsymmetric laminate (nonzero extension/bending coupling) they are
still well-defined numbers but describe pure in-plane behavior;
``EngineeringConstants.has_coupling`` flags that caveat for reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from plytamper.clt import (
    Laminate,
    LaminateSingularError,
    RCOND_COLLAPSED,
    assemble_abd,
)

#: Relative size below which the coupling block counts as zero.
COUPLING_REL_TOL = 1e-9


@dataclass(frozen=True)
class EngineeringConstants:
    """Effective in-plane elastic constants of a laminate.

    ``nu_yx`` is the contraction in x per unit strain in y under uniaxial
    y load. ``has_coupling`` is True when the laminate's B block is not
    (numerically) zero, in which case the constants describe membrane
    behavior only.
    """

    exx: float
    eyy: float
    gxy: float
    nu_yx: float
    thickness: float
    has_coupling: bool


@dataclass(frozen=True)
class DetectabilityReport:
    """Stiffness and frequency fingerprint of an original/attacked pair."""

    original: EngineeringConstants
    attacked: EngineeringConstants
    e_effective_original: float
    e_effective_attacked: float
    frequency_ratio: float
    frequency_change_percent: float


def engineering_constants(lam: Laminate) -> EngineeringConstants:
    """Effective moduli from the inverse of the extensional stiffness.

    With ``a* = inv(A)`` and total thickness H:
    Exx = 1/(H a*11), Eyy = 1/(H a*22), Gxy = 1/(H a*66),
    nu_yx = -a*12/a*22.

    Raises
    ------
    LaminateSingularError
        If A is numerically singular (degenerate laminate).
    """
    abd = assemble_abd(lam)
    sv = np.linalg.svd(abd.a, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < RCOND_COLLAPSED:
        raise LaminateSingularError(
            "degenerate laminate: extensional stiffness is singular")
    a_star = np.linalg.inv(abd.a)
    h = lam.total_thickness
    b_scale = np.abs(abd.b).max()
    coupled = b_scale > COUPLING_REL_TOL * np.abs(abd.a).max() * h
    return EngineeringConstants(
        exx=1.0 / (h * a_star[0, 0]),
        eyy=1.0 / (h * a_star[1, 1]),
        gxy=1.0 / (h * a_star[2, 2]),
        nu_yx=-a_star[0, 1] / a_star[1, 1],
        thickness=h,
        has_coupling=bool(coupled),
    )


def effective_modulus(ec: EngineeringConstants) -> float:
    """Collapse the in-plane constants into one orthotropic modulus.

    Evaluates::

        1/E = sqrt(1 / (2 Exx Eyy))
              * sqrt( sqrt(Eyy/Exx) - nu_yx + Eyy / (2 Gxy) )

    For an in-plane-isotropic laminate (Exx = Eyy = E0 and
    Gxy = E0 / (2 (1 + nu))) the bracket evaluates to 2 and E collapses
    to E0 exactly.

    Raises
    ------
    ValueError
        On nonpositive moduli, or when the bracketed term is negative
        (pathological constants) — reported, never masked.
    """
    if ec.exx <= 0.0 or ec.eyy <= 0.0 or ec.gxy <= 0.0:
        raise ValueError("effective modulus needs positive Exx, Eyy, Gxy")
    bracket = math.sqrt(ec.eyy / ec.exx) - ec.nu_yx + ec.eyy / (2.0 * ec.gxy)
    if bracket < 0.0:
        raise ValueError(
            f"negative bracket ({bracket!r}) in the effective-modulus "
            "expression; constants are not physical")
    inv_e = math.sqrt(1.0 / (2.0 * ec.exx * ec.eyy)) * math.sqrt(bracket)
    if inv_e == 0.0:
        raise ValueError("effective modulus diverges (zero bracket)")
    return 1.0 / inv_e


def frequency_ratio(e_original: float, e_attacked: float) -> float:
    """Fundamental-frequency ratio f_original / f_attacked.

    The frequency is proportional to the square root of the effective
    modulus with all mass and geometry terms fixed, so the ratio is
    sqrt(E / E'). Identical moduli give exactly 1.0.
    """
    if e_original <= 0.0 or e_attacked <= 0.0:
        raise ValueError("moduli must be strictly positive")
    return math.sqrt(e_original / e_attacked)


def frequency_change_percent(e_original: float, e_attacked: float) -> float:
    """Percent drop of the fundamental frequency caused by tampering.

    100 * (1 - sqrt(E'/E)): a modulus knocked down to 0.81 E moves the
    frequency by 10%, 0.9216 E by 4%.
    """
    if e_original <= 0.0 or e_attacked <= 0.0:
        raise ValueError("moduli must be strictly positive")
    return 100.0 * (1.0 - math.sqrt(e_attacked / e_original))


def detectability_report(original: Laminate,
                         attacked: Laminate) -> DetectabilityReport:
    """Full stiffness/frequency comparison of two laminates."""
    ec_orig = engineering_constants(original)
    ec_att = engineering_constants(attacked)
    e_orig = effective_modulus(ec_orig)
    e_att = effective_modulus(ec_att)
    return DetectabilityReport(
        original=ec_orig,
        attacked=ec_att,
        e_effective_original=e_orig,
        e_effective_attacked=e_att,
        frequency_ratio=frequency_ratio(e_orig, e_att),
        frequency_change_percent=frequency_change_percent(e_orig, e_att),
    )
