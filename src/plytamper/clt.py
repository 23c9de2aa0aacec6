"""Classical laminate theory for thin composite stacks under in-plane loads.

Builds the stiffness side of the CLT chain for a laminate of
unidirectional plies: reduced stiffness [Q] of a lamina in its fiber axes,
rotation into laminate axes [Qbar], the one assembly of the 6x6 system
[[A, B], [B, D]] over the stack, and the Tsai-Wu strength parameters of
each material. Every per-ply array the rung kernel reads is laid out here: the
[Qbar] stack of :func:`stiffness_rows`, the :func:`system_matrix` and the
Tsai-Wu coefficients of :attr:`PreparedStack.tsai_wu`. So is the one
collapse rule, :func:`nonsingular_rows`, over a stack of systems, and
its one-system entry point :func:`require_nonsingular`: a symmetric
system's singular values are the magnitudes of its eigenvalues, so one
``eigvalsh`` gives the reciprocal condition an SVD would. The mid-plane
solve, the per-ply stress recovery and the Tsai-Wu strength ratios live
in :mod:`plytamper.failure`, the one evaluation chain behind every
report.

Formulation follows the usual textbook treatment (e.g. A. K. Kaw,
*Mechanics of Composite Materials*, 2nd ed., CRC Press, 2006).

Conventions used throughout:

* Plies are listed **top to bottom**. The through-thickness coordinate z is
  **positive downward**, so the first end-plane sits at z = -H/2 and the
  last at z = +H/2 for total thickness H.
* Angles are in **degrees** at every public interface and are normalized to
  [-90, 90] (a fiber direction is a line, so theta and theta +/- 180 deg are
  the same ply).
* Units are SI: Pa, m, N/m for force resultants, N*m/m for moment
  resultants. File loaders are responsible for unit conversion.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np


class LaminateSingularError(ArithmeticError):
    """The assembled laminate system is singular (laminate has collapsed)."""


class NoLoadedPlyError(ArithmeticError):
    """No surviving ply carries stress: every strength ratio is infinite."""


class StrengthRatioRootError(ArithmeticError):
    """The strength-ratio quadratic has no positive real root.

    Valid Tsai-Wu parameters make the quadratic term a positive-definite
    form of the stress, so either that term underflowed to 0 (as under a
    1e-300 N/m load, with valid materials) or the parameters are corrupt.
    """


def normalize_angle(angle_deg: float) -> float:
    """Map a finite angle in degrees onto the canonical [-90, 90] fiber
    range, exactly.

    The result is the IEEE remainder of the angle by 180: the angle less
    the nearest multiple of 180, ties to the even multiple, so that +90
    and -90 are both fixed points: 91 -> -89, 135 -> -45, -135 -> 45,
    90 -> 90, -90 -> -90, 270 -> -90. The remainder is exact, so a huge
    angle keeps its true direction (-1e18 -> 80). A zero result is +0.0,
    except that a zero angle is returned as given (-0.0 stays -0.0).
    """
    angle = float(angle_deg)
    folded = math.remainder(angle, 180.0)
    if folded == 0.0 and angle != 0.0:
        return 0.0
    return folded


def angle_bits_with(bits: bytes, index: int, angle: float) -> bytes:
    """Packed ply angles ``bits`` with ply ``index``'s 8-byte slot
    replaced by ``angle``'s exact bits; the length is unchanged.

    It is the only code that writes a slot of the key bits of a memo
    state (see ``failure.memo_key``), for two kinds of state: a one-ply
    variation of a laminate, with ``angle`` already normalized as
    :func:`normalize_angle` gives it, and a ladder's rung state, where
    each failed ply's slot holds a NaN, which no :class:`Ply` angle
    can be.
    """
    return bits[:8 * index] + struct.pack("d", angle) + bits[8 * index + 8:]


# =============================================================================
# Domain records
# =============================================================================

@dataclass(frozen=True)
class MaterialProperties:
    """Elastic constants and ultimate strengths of a unidirectional lamina.

    Parameters
    ----------
    e1, e2 : float
        Young's moduli along (1) and across (2) the fiber direction [Pa].
    g12 : float
        In-plane shear modulus [Pa].
    nu12 : float
        Major Poisson's ratio (loading along 1, contraction along 2).
    sigma1t_ult, sigma1c_ult : float
        Ultimate tensile/compressive stress in the fiber direction [Pa].
        Compressive strengths are magnitudes (positive numbers).
    sigma2t_ult, sigma2c_ult : float
        Ultimate tensile/compressive stress transverse to the fiber [Pa].
    tau12_ult : float
        Ultimate in-plane shear stress [Pa].
    """

    e1: float
    e2: float
    g12: float
    nu12: float
    sigma1t_ult: float
    sigma1c_ult: float
    sigma2t_ult: float
    sigma2c_ult: float
    tau12_ult: float

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
            if field.name != "nu12" and not value > 0.0:
                raise ValueError(f"{field.name} must be strictly positive")
        if 1.0 - self.nu12 * self.nu21 <= 0.0:
            raise ValueError(
                "unstable material: 1 - nu12*nu21 must be positive "
                f"(nu12={self.nu12}, nu21={self.nu21})"
            )
        terms = self._tsai_wu_terms()
        if not (all(map(math.isfinite, terms)) and min(terms[2:5]) > 0.0):
            raise ValueError(
                "strengths out of range: the Tsai-Wu parameters "
                f"{list(terms)} must be finite, with h11, h22 and h66 "
                "positive")

    @property
    def nu21(self) -> float:
        """Minor Poisson's ratio, from the reciprocity relation."""
        return self.nu12 * self.e2 / self.e1

    @cached_property
    def _qbar_by_angle(self) -> dict:
        """This material's stiffness rows by angle; see
        :func:`ply_stiffness_entry`."""
        return {}

    @cached_property
    def tsai_wu(self) -> np.ndarray:
        """Tsai-Wu parameters (h1, h2, h11, h22, h66, h12), read-only.

        There is no linear shear term: shear strength is
        direction-independent in the 1-2 plane. h11, h22 and h66 are
        positive; h12 is the usual interaction term -0.5*sqrt(h11*h22).
        """
        row = np.array(self._tsai_wu_terms())
        row.setflags(write=False)
        return row

    def _tsai_wu_terms(self) -> tuple:
        """:attr:`tsai_wu` as floats. Float products never raise, and one
        that underflows to 0.0 gives an infinite term, which
        :meth:`__post_init__` rejects."""
        h11, h22, h66 = (
            1.0 / p if p else math.inf
            for p in (self.sigma1t_ult * self.sigma1c_ult,
                      self.sigma2t_ult * self.sigma2c_ult,
                      self.tau12_ult * self.tau12_ult))
        return (1.0 / self.sigma1t_ult - 1.0 / self.sigma1c_ult,
                1.0 / self.sigma2t_ult - 1.0 / self.sigma2c_ult,
                h11, h22, h66, -0.5 * math.sqrt(h11 * h22))


@dataclass(frozen=True)
class Ply:
    """A single unidirectional layer: orientation, thickness, material.

    The angle is normalized into [-90, 90] on construction.
    """

    angle: float
    thickness: float
    material: MaterialProperties

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"ply angle must be finite, got {self.angle!r}")
        if not math.isfinite(self.thickness):
            raise ValueError(
                f"ply thickness must be finite, got {self.thickness!r}")
        if not self.thickness > 0.0:
            raise ValueError("ply thickness must be strictly positive")
        object.__setattr__(self, "angle", normalize_angle(self.angle))


@dataclass(frozen=True)
class Laminate:
    """An ordered stack of plies, listed top to bottom."""

    plies: tuple[Ply, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "plies", tuple(self.plies))
        if len(self.plies) == 0:
            raise ValueError("laminate needs at least one ply")

    @classmethod
    def from_angles(cls, material: MaterialProperties, thickness: float,
                    angles_deg) -> "Laminate":
        """Build a uniform-thickness single-material stack from angles."""
        return cls(tuple(Ply(a, thickness, material) for a in angles_deg))

    def with_angles(self, angles_deg) -> "Laminate":
        """Copy of this laminate with new ply angles, all else unchanged.

        A ply whose angle is unchanged (sign of zero included) is reused,
        and the copy shares this laminate's :attr:`prepared` arrays, which
        depend only on thicknesses and materials.
        """
        angles = tuple(angles_deg)
        if len(angles) != len(self.plies):
            raise ValueError("angle count does not match ply count")
        return self._copy(tuple(
            p if a == p.angle and (a != 0.0 or math.copysign(1.0, a)
                                   == math.copysign(1.0, p.angle))
            else Ply(a, p.thickness, p.material)
            for a, p in zip(angles, self.plies)
        ))

    def _with_ply_angle(self, index: int, angle: float,
                        angle_bits: bytes) -> "Laminate":
        """Copy with ply ``index`` at ``angle`` and every other ply reused.

        The one-ply form of :meth:`with_angles` for search loops: it skips
        the per-ply comparison and slices :attr:`angles` instead of
        rebuilding them. The changed ply is always a new :class:`Ply`.
        ``angle`` must already be normalized, and ``angle_bits`` must be
        ``angle_bits_with(self._angle_bits, index, angle)`` (see
        :func:`angle_bits_with`), which the caller has packed for its
        memo key: the copy takes them as its own.
        """
        old = self.plies[index]
        ply = Ply(angle, old.thickness, old.material)
        angles = self.angles
        return self._copy(
            self.plies[:index] + (ply,) + self.plies[index + 1:],
            angles=angles[:index] + (ply.angle,) + angles[index + 1:],
            _angle_bits=angle_bits)

    def _copy(self, plies: tuple, **cached) -> "Laminate":
        """A laminate of ``plies`` sharing this one's :attr:`prepared`.

        Seeds the copy's cached properties (the instance ``__dict__`` of a
        frozen dataclass stays writable) with ``cached``, whose values
        must be what the copy would compute itself.
        """
        copy = Laminate(plies)
        copy.__dict__["prepared"] = self.prepared
        copy.__dict__.update(cached)
        return copy

    @cached_property
    def prepared(self) -> "PreparedStack":
        """The stack's angle-independent arrays, computed once."""
        return PreparedStack.of(self)

    @cached_property
    def memo(self) -> dict:
        """Exact results of the tamper searches run on this laminate.

        The searches pass it to :func:`~plytamper.failure.first_ply_failure`
        and :func:`~plytamper.failure.simulate_progressive_failure`, so
        every search on this object reuses the states the others solved,
        and every ladder the tail of any ladder that passed through one
        of its rung states. It holds one record per state (see
        :func:`~plytamper.failure.memo_key`); :meth:`with_angles` copies
        do not share it, and a fresh laminate starts empty.
        """
        return {}

    @property
    def n_plies(self) -> int:
        return len(self.plies)

    @cached_property
    def angles(self) -> tuple[float, ...]:
        """The ply angles, top to bottom, computed once."""
        return tuple(p.angle for p in self.plies)

    @cached_property
    def _angle_bits(self) -> bytes:
        """The exact bits of :attr:`angles`, packed once for memo keys."""
        return struct.pack(f"{len(self.plies)}d", *self.angles)

    @property
    def total_thickness(self) -> float:
        return sum(p.thickness for p in self.plies)


#: Scales (h1, h2, h11, h22, h66, h12) to the coefficients of the Tsai-Wu
#: terms h1*s1, h2*s2, h11*s1**2, h22*s2**2, h66*t12**2 and 2*h12*s1*s2.
_TERM_SCALE = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0])


@dataclass(frozen=True, eq=False)
class PreparedStack:
    """Angle-independent arrays of a stack, shared by its rotated copies.

    ``h`` holds the end-plane z coordinates h_0..h_n, strictly increasing
    from -H/2 to +H/2 (ply k occupies [h_{k-1}, h_k]), ``z_mid`` the ply
    mid-planes, ``weights`` the (3, n) A, B and D weights
    h_k^p - h_{k-1}^p for p = 1, 2, 3, and ``materials`` each ply's
    material. All arrays are read-only; :attr:`tsai_wu` is built on
    first use, since stiffness-only callers never read it.
    """

    h: np.ndarray
    z_mid: np.ndarray
    weights: np.ndarray
    materials: tuple[MaterialProperties, ...]

    @classmethod
    def of(cls, lam: "Laminate") -> "PreparedStack":
        thicknesses = np.array([p.thickness for p in lam.plies])
        h = np.concatenate([[0.0], np.cumsum(thicknesses)])
        h = h - h[-1] / 2.0
        arrays = (h, (h[:-1] + h[1:]) / 2.0,
                  np.array([h[1:] - h[:-1], h[1:] ** 2 - h[:-1] ** 2,
                            h[1:] ** 3 - h[:-1] ** 3]))
        for array in arrays:
            array.setflags(write=False)
        return cls(*arrays, materials=tuple(p.material for p in lam.plies))

    @cached_property
    def tsai_wu(self) -> np.ndarray:
        """The coefficients h1, h2, h11, h22, h66, 2*h12 of each ply's
        Tsai-Wu terms, from its :attr:`MaterialProperties.tsai_wu`, as a
        read-only (n, 6) array."""
        rows = np.array([m.tsai_wu for m in self.materials]) * _TERM_SCALE
        rows.setflags(write=False)
        return rows


@dataclass(frozen=True)
class LoadCase:
    """Force and moment resultants per unit width.

    ``n`` is (Nx, Ny, Nxy) in N/m, ``m`` is (Mx, My, Mxy) in N*m/m.
    An all-zero load is a legal value (it solves to the trivial state);
    failure analysis rejects it separately.
    """

    n: tuple[float, float, float]
    m: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", tuple(float(v) for v in self.n))
        object.__setattr__(self, "m", tuple(float(v) for v in self.m))
        if len(self.n) != 3 or len(self.m) != 3:
            raise ValueError("n and m must each have three components")
        for name in ("n", "m"):
            values = getattr(self, name)
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"load {name} must be finite, got {values}")

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.n) and all(v == 0.0 for v in self.m)

    def dominant_axis(self) -> tuple[str, float]:
        """Label and signed value of the largest-magnitude component.

        Force resultants take precedence; moments are consulted only for a
        pure bending load. Ties go to the earlier axis. The value converts
        search multipliers into reported forces.
        """
        if any(self.n):
            labels, values = ("Nx", "Ny", "Nxy"), self.n
        else:
            labels, values = ("Mx", "My", "Mxy"), self.m
        magnitudes = [abs(v) for v in values]
        i = magnitudes.index(max(magnitudes))
        return labels[i], values[i]

    def as_vector(self) -> np.ndarray:
        """The stacked (N, M) right-hand side of the laminate system."""
        return np.array(self.n + self.m, dtype=float)

    @cached_property
    def _bits(self) -> bytes:
        """The exact bits of (n, m), packed once for memo keys."""
        return struct.pack("6d", *self.n, *self.m)


# =============================================================================
# Lamina constants and rotation
# =============================================================================

#: Reuter matrix: converts engineering shear strain to tensor form and back.
REUTER = np.diag([1.0, 1.0, 2.0])
_REUTER_INV = np.diag([1.0, 1.0, 0.5])


def reduced_stiffness(mat: MaterialProperties) -> np.ndarray:
    """Reduced stiffness matrix [Q] of a lamina in its fiber axes.

    Parameters
    ----------
    mat : MaterialProperties
        Lamina elastic constants.

    Returns
    -------
    ndarray, shape (3, 3)
        [[Q11, Q12, 0], [Q12, Q22, 0], [0, 0, Q66]] in Pa, with
        Q11 = E1/(1 - nu12*nu21), Q12 = nu12*E2/(1 - nu12*nu21),
        Q22 = E2/(1 - nu12*nu21) and Q66 = G12.
    """
    denom = 1.0 - mat.nu12 * mat.nu21
    q11 = mat.e1 / denom
    q12 = mat.nu12 * mat.e2 / denom
    q22 = mat.e2 / denom
    return np.array([
        [q11, q12, 0.0],
        [q12, q22, 0.0],
        [0.0, 0.0, mat.g12],
    ])


def transformation_matrix(angle_deg) -> np.ndarray:
    """Stress transformation matrix [T] for a rotation of ``angle_deg``.

    Maps laminate-axis stress to fiber-axis stress:
    (sigma_1, sigma_2, tau_12) = [T] (sigma_x, sigma_y, tau_xy).
    ``angle_deg`` is one angle or an array of them; the result has shape
    ``(..., 3, 3)``, one [T] per angle.
    """
    theta = np.radians(angle_deg)
    c, s = np.cos(theta), np.sin(theta)
    t = np.empty(np.shape(theta) + (3, 3))
    t[..., 0, 0] = t[..., 1, 1] = c * c
    t[..., 0, 1] = t[..., 1, 0] = s * s
    t[..., 0, 2] = 2.0 * c * s
    t[..., 1, 2] = -2.0 * s * c
    t[..., 2, 0] = -s * c
    t[..., 2, 1] = s * c
    t[..., 2, 2] = c * c - s * s
    return t


def transform_stiffness(q: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate a reduced stiffness matrix into laminate axes.

    Computes [Qbar] = [T]^-1 [Q] [R] [T] [R]^-1 for a ply whose fibers run
    at ``angle_deg`` to the laminate x axis. The result is symmetric and
    generally has nonzero normal/shear coupling entries (1,3) and (2,3).
    """
    t = transformation_matrix(angle_deg)
    return np.linalg.multi_dot(
        [np.linalg.inv(t), q, REUTER, t, _REUTER_INV]
    )


def ply_stiffness_entry(mat: MaterialProperties, angle_deg: float):
    """The cached stiffness row of a (material, angle) pair.

    Each material keeps its own table keyed by angle, so the table lives
    only as long as the material and a lookup never hashes the material.
    The row is a read-only (9,) array, the entries of the ply's [Qbar]
    row by row; :func:`stiffness_rows` gathers them into a stack.
    """
    table = mat._qbar_by_angle
    row = table.get(angle_deg)
    if row is None:
        row = table[angle_deg] = transform_stiffness(
            reduced_stiffness(mat), angle_deg).reshape(9)
        row.setflags(write=False)
    return row


# =============================================================================
# Laminate assembly
# =============================================================================

def stiffness_rows(materials, angles):
    """The contiguous (m, 3, 3) [Qbar] stack of m plies, given their
    materials and angles: one :func:`ply_stiffness_entry` lookup per
    ply."""
    stack = np.array([ply_stiffness_entry(mat, angle)
                      for mat, angle in zip(materials, angles)])
    return stack.reshape(-1, 3, 3)


def stiffness_stack(lam: Laminate) -> np.ndarray:
    """Per-ply [Qbar] as an (n, 3, 3) array, top to bottom."""
    return stiffness_rows(lam.prepared.materials, lam.angles)


#: The 1, 1/2 and 1/3 of A, B and D, as divisors of the weighted sums.
_ABD_DIVISORS = np.array([1.0, 2.0, 3.0])[:, None, None]

#: Where each entry of the 6x6 system, row by row, sits in the flattened
#: (3, 3, 3) stack of A, B and D: block 0, 1 or 2, then row and column in
#: it.
_K6_FLAT = (9 * (np.arange(6)[:, None] // 3 + np.arange(6) // 3)
            + 3 * (np.arange(6)[:, None] % 3) + np.arange(6) % 3).ravel()


def system_matrix(stack: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The (..., 6, 6) laminate matrix [[A, B], [B, D]] of an
    (..., n, 3, 3) [Qbar] stack over (3, n) z weights: the one assembly
    of a laminate's stiffness.

    Its [:3, :3], [:3, 3:] and [3:, 3:] blocks are
    A = sum Qbar_k (h_k - h_{k-1}),
    B = 1/2 sum Qbar_k (h_k^2 - h_{k-1}^2) and
    D = 1/3 sum Qbar_k (h_k^3 - h_{k-1}^3), from one sum over the plies
    for all three. Dividing by 2 is bit-equal to halving.
    """
    abd = np.einsum("...kij,pk->...pij", stack, weights) / _ABD_DIVISORS
    batch = abd.shape[:-3]
    return abd.reshape(batch + (27,)).take(_K6_FLAT, axis=-1).reshape(
        batch + (6, 6))


#: Reciprocal-condition threshold below which a laminate stiffness matrix
#: is treated as collapsed. No physical laminate with surviving plies gets
#: anywhere near this.
RCOND_COLLAPSED = 1e-12


def nonsingular_rows(systems: np.ndarray) -> list[int]:
    """The indices of the (B, m, m) symmetric ``systems`` that have not
    collapsed: the one collapse rule.

    A system is kept when its largest eigenvalue magnitude is positive
    and its smallest is at least :data:`RCOND_COLLAPSED` times it. The
    singular values of a symmetric matrix are the magnitudes of its
    eigenvalues, so this is the reciprocal-condition test of an SVD,
    from one batched ``eigvalsh`` on the lower triangles. A system whose
    eigenvalues are NaN is not kept; when ``eigvalsh`` raises on a NaN
    entry, no row is.
    """
    try:
        magnitudes = np.abs(np.linalg.eigvalsh(systems))
    except np.linalg.LinAlgError:
        return []
    high = magnitudes.max(axis=-1)
    return np.flatnonzero((high > 0.0) & (
        magnitudes.min(axis=-1) >= RCOND_COLLAPSED * high)).tolist()


def require_nonsingular(matrix: np.ndarray, message: str) -> None:
    """Raise LaminateSingularError(message) if the symmetric ``matrix``
    has collapsed by the rule of :func:`nonsingular_rows`.

    It is the one-system entry point of that rule:
    :mod:`plytamper.detect` calls it on the A block and the rung kernel
    ``failure._rung`` on each state's :func:`system_matrix`. A positive
    definite matrix within the bound returns after one ``eigvalsh``,
    whose ascending values give the extreme magnitudes; any other is
    decided by :func:`nonsingular_rows`. Stiffness sums that are not
    finite (the sums of :func:`system_matrix` overflow silently) raise
    FloatingPointError.
    """
    try:
        values = np.linalg.eigvalsh(matrix).tolist()   # ascending
    except np.linalg.LinAlgError:
        values = [math.nan]
    low, high = values[0], values[-1]
    if (0.0 < low and RCOND_COLLAPSED * high <= low
            and math.isfinite(sum(values))):
        return   # positive definite: low and high are the extreme |values|
    if not all(map(math.isfinite, values)):
        raise FloatingPointError(
            "the laminate stiffness sums (A, B, D) are not finite")
    if not nonsingular_rows(matrix[None]):
        raise LaminateSingularError(message)
