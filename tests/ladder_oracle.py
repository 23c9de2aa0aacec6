"""Brute-force reference implementation for ply-failure ladders.

This is an intentionally independent re-derivation used only by the test
suite: it shares no code with the package under test, rebuilds every
quantity from scratch on every iteration, and uses different numerical
routes on purpose (expanded rotation formulas for the rotated stiffness
instead of matrix conjugation, polynomial root extraction for the strength
ratio instead of the closed-form quadratic). Slow and simple by design.

Keep this file boring. If it disagrees with the package, the package is
wrong until proven otherwise.
"""

from __future__ import annotations

import math

import numpy as np

# Semantics shared with the implementation under test (these are contract
# constants, not shared code): ties on the minimum strength ratio within
# 1e-9 relative; a 6x6 system with reciprocal condition below 1e-12 is
# collapsed.
TIE_REL_TOL = 1e-9
RCOND_LIMIT = 1e-12


def q_matrix(e1, e2, g12, nu12):
    """Fiber-axis reduced stiffness, returned as a plain 3x3 nested list."""
    nu21 = nu12 * e2 / e1
    d = 1.0 - nu12 * nu21
    return [
        [e1 / d, nu12 * e2 / d, 0.0],
        [nu12 * e2 / d, e2 / d, 0.0],
        [0.0, 0.0, g12],
    ]


def qbar_matrix(q, theta_deg):
    """Rotated stiffness via the expanded angle formulas.

    Uses the textbook closed-form entries in powers of cos/sin rather than
    the T/R matrix product, so the arithmetic path differs from any
    conjugation-based implementation.
    """
    c = math.cos(math.radians(theta_deg))
    s = math.sin(math.radians(theta_deg))
    q11, q12, q22, q66 = q[0][0], q[0][1], q[1][1], q[2][2]
    qb11 = (q11 * c**4 + 2.0 * (q12 + 2.0 * q66) * s**2 * c**2 + q22 * s**4)
    qb22 = (q11 * s**4 + 2.0 * (q12 + 2.0 * q66) * s**2 * c**2 + q22 * c**4)
    qb12 = ((q11 + q22 - 4.0 * q66) * s**2 * c**2 + q12 * (s**4 + c**4))
    qb66 = ((q11 + q22 - 2.0 * q12 - 2.0 * q66) * s**2 * c**2
            + q66 * (s**4 + c**4))
    qb16 = ((q11 - q12 - 2.0 * q66) * s * c**3
            + (q12 - q22 + 2.0 * q66) * s**3 * c)
    qb26 = ((q11 - q12 - 2.0 * q66) * s**3 * c
            + (q12 - q22 + 2.0 * q66) * s * c**3)
    return [
        [qb11, qb12, qb16],
        [qb12, qb22, qb26],
        [qb16, qb26, qb66],
    ]


def end_planes(thicknesses):
    """z of the n+1 ply boundaries, top surface negative, bottom positive."""
    total = sum(thicknesses)
    planes = [-total / 2.0]
    for t in thicknesses:
        planes.append(planes[-1] + t)
    return planes


def local_stress_of_ply(qbar, theta_deg, eps0, kappa, z):
    """Global strain -> global stress -> fiber-axis stress, all by hand."""
    eps = [eps0[i] + z * kappa[i] for i in range(3)]
    sig = [sum(qbar[i][j] * eps[j] for j in range(3)) for i in range(3)]
    c = math.cos(math.radians(theta_deg))
    s = math.sin(math.radians(theta_deg))
    s1 = c * c * sig[0] + s * s * sig[1] + 2.0 * c * s * sig[2]
    s2 = s * s * sig[0] + c * c * sig[1] - 2.0 * c * s * sig[2]
    t12 = -s * c * sig[0] + s * c * sig[1] + (c * c - s * s) * sig[2]
    return s1, s2, t12


def strength_ratio_of_stress(s1, s2, t12, strengths):
    """Positive root of the scaled Tsai-Wu polynomial, via np.roots."""
    s1t, s1c, s2t, s2c, t12u = strengths
    if s1 == 0.0 and s2 == 0.0 and t12 == 0.0:
        return math.inf
    lin = (1.0 / s1t - 1.0 / s1c) * s1 + (1.0 / s2t - 1.0 / s2c) * s2
    quad = (s1 * s1 / (s1t * s1c) + s2 * s2 / (s2t * s2c)
            + t12 * t12 / (t12u * t12u)
            - math.sqrt(1.0 / (s1t * s1c * s2t * s2c)) * s1 * s2)
    roots = np.roots([quad, lin, -1.0])
    positive = [r.real for r in roots
                if abs(r.imag) < 1e-9 * max(1.0, abs(r.real)) and r.real > 0.0]
    if not positive:
        raise ArithmeticError("no positive strength-ratio root")
    return min(positive)


def strengths_of(material):
    """The five ultimate strengths of a material dict, as a tuple."""
    return (material["s1t"], material["s1c"], material["s2t"],
            material["s2c"], material["t12u"])


def qbar_of(material, theta_deg):
    """Rotated stiffness of a material dict at ``theta_deg``."""
    q = q_matrix(material["e1"], material["e2"], material["g12"],
                 material["nu12"])
    return qbar_matrix(q, theta_deg)


def solve_stack(qbars, planes, n_load, m_load):
    """Assemble A, B, D by hand and solve for the mid-plane state.

    Returns (eps0, kappa), or None when the 6x6 system's reciprocal
    condition is below RCOND_LIMIT (collapsed laminate).
    """
    a = [[0.0] * 3 for _ in range(3)]
    b = [[0.0] * 3 for _ in range(3)]
    d = [[0.0] * 3 for _ in range(3)]
    for k, qb in enumerate(qbars):
        lo, hi = planes[k], planes[k + 1]
        for i in range(3):
            for j in range(3):
                a[i][j] += qb[i][j] * (hi - lo)
                b[i][j] += qb[i][j] * (hi * hi - lo * lo) / 2.0
                d[i][j] += qb[i][j] * (hi**3 - lo**3) / 3.0

    system = np.zeros((6, 6))
    for i in range(3):
        for j in range(3):
            system[i][j] = a[i][j]
            system[i][j + 3] = b[i][j]
            system[i + 3][j] = b[i][j]
            system[i + 3][j + 3] = d[i][j]

    singular_values = np.linalg.svd(system, compute_uv=False)
    if singular_values[0] == 0.0 or \
            singular_values[-1] / singular_values[0] < RCOND_LIMIT:
        return None
    rhs = np.array(list(n_load) + list(m_load), dtype=float)
    sol = np.linalg.solve(system, rhs)
    return sol[:3], sol[3:]


def failure_ladder(material, thicknesses, angles, n_load, m_load):
    """Full knockout ladder by re-deriving everything every iteration.

    material: dict with e1, e2, g12, nu12, s1t, s1c, s2t, s2c, t12u.
    Returns a list of rungs: (multiplier, sorted ply list, flagged_bool).
    """
    n = len(angles)
    strengths = strengths_of(material)
    alive = [True] * n
    rungs = []
    last_multiplier = None

    while any(alive):
        # Rebuild the whole system from raw inputs (no incremental state).
        planes = end_planes(thicknesses)
        qbars = [qbar_of(material, angles[k]) if alive[k]
                 else [[0.0] * 3 for _ in range(3)] for k in range(n)]
        state = solve_stack(qbars, planes, n_load, m_load)
        if state is None:
            if last_multiplier is None:
                raise ArithmeticError("singular laminate at the first step")
            rungs.append((last_multiplier,
                          sorted(k for k in range(n) if alive[k]), True))
            return rungs
        eps0, kappa = state

        ratios = []
        for k in range(n):
            if not alive[k]:
                ratios.append(math.inf)
                continue
            z = (planes[k] + planes[k + 1]) / 2.0
            s1, s2, t12 = local_stress_of_ply(qbars[k], angles[k],
                                              eps0, kappa, z)
            ratios.append(strength_ratio_of_stress(s1, s2, t12, strengths))

        finite = [r for r in ratios if math.isfinite(r)]
        if not finite:
            raise ArithmeticError("no loaded ply left")
        low = min(finite)
        group = sorted(
            k for k in range(n)
            if math.isfinite(ratios[k]) and ratios[k] - low <= TIE_REL_TOL * low
        )
        rungs.append((low, group, False))
        for k in group:
            alive[k] = False
        last_multiplier = low

    return rungs


def first_rung(material, thicknesses, angles, n_load, m_load):
    """Multiplier and ply group of the first failure only."""
    mult, group, _ = failure_ladder(material, thicknesses, angles,
                                    n_load, m_load)[0]
    return mult, group


def intact_strength_ratios(materials, thicknesses, angles, n_load, m_load):
    """Per-ply strength ratios of the intact stack (no knockouts).

    ``materials`` holds one material dict per ply, so mixed stacks can be
    checked too. Same scalar path as failure_ladder's first iteration;
    used by tests that need the full ratio list, not just the minimum.
    """
    planes = end_planes(thicknesses)
    qbars = [qbar_of(m, a) for m, a in zip(materials, angles)]
    state = solve_stack(qbars, planes, n_load, m_load)
    if state is None:
        raise ArithmeticError("singular laminate")
    eps0, kappa = state

    ratios = []
    for k, material in enumerate(materials):
        z = (planes[k] + planes[k + 1]) / 2.0
        s1, s2, t12 = local_stress_of_ply(qbars[k], angles[k],
                                          eps0, kappa, z)
        ratios.append(strength_ratio_of_stress(s1, s2, t12,
                                               strengths_of(material)))
    return ratios
