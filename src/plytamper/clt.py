"""Classical laminate theory for thin composite stacks under in-plane loads.

Builds the stiffness side of the CLT chain for a laminate of
unidirectional plies: reduced stiffness [Q] of a lamina in its fiber axes,
rotation into laminate axes [Qbar], and A/B/D assembly over the stack,
plus the Tsai-Wu strength parameters of each material. The mid-plane
solve, the per-ply stress recovery and the Tsai-Wu strength ratios live
in :mod:`plytamper.failure`, the one evaluation chain behind every report.

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
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np


class LaminateSingularError(ArithmeticError):
    """The assembled laminate system is singular (laminate has collapsed)."""


class NoLoadedPlyError(ArithmeticError):
    """No surviving ply carries stress: every strength ratio is infinite."""


class StrengthRatioRootError(ArithmeticError):
    """The strength-ratio quadratic has no positive real root.

    This cannot happen for valid Tsai-Wu parameters (the quadratic
    coefficient is a positive-definite form of the stress), so it indicates
    corrupt inputs rather than a physical state.
    """


def normalize_angle(angle_deg: float) -> float:
    """Map an angle in degrees onto the canonical [-90, 90] fiber range.

    Uses round-half-to-even so that +90 and -90 are both fixed points:
    91 -> -89, 135 -> -45, -135 -> 45, 90 -> 90, -90 -> -90.
    """
    return float(angle_deg) - 180.0 * round(float(angle_deg) / 180.0)


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

    @property
    def nu21(self) -> float:
        """Minor Poisson's ratio, from the reciprocity relation."""
        return self.nu12 * self.e2 / self.e1

    @cached_property
    def _qbar_by_angle(self) -> dict:
        """This material's [Qbar] by angle; see :func:`ply_stiffness`."""
        return {}

    @cached_property
    def tsai_wu(self) -> np.ndarray:
        """Tsai-Wu parameters (h1, h2, h11, h22, h66, h12), read-only.

        There is no linear shear term: shear strength is
        direction-independent in the 1-2 plane. h11, h22 and h66 are
        positive; h12 is the usual interaction term -0.5*sqrt(h11*h22).
        """
        h11 = 1.0 / (self.sigma1t_ult * self.sigma1c_ult)
        h22 = 1.0 / (self.sigma2t_ult * self.sigma2c_ult)
        row = np.array([
            1.0 / self.sigma1t_ult - 1.0 / self.sigma1c_ult,
            1.0 / self.sigma2t_ult - 1.0 / self.sigma2c_ult,
            h11,
            h22,
            1.0 / self.tau12_ult ** 2,
            -0.5 * math.sqrt(h11 * h22),
        ])
        row.setflags(write=False)
        return row


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
        copy = Laminate(tuple(
            p if a == p.angle and (a != 0.0 or math.copysign(1.0, a)
                                   == math.copysign(1.0, p.angle))
            else Ply(a, p.thickness, p.material)
            for a, p in zip(angles, self.plies)
        ))
        # Seeds the copy's cached property; the instance __dict__ of a
        # frozen dataclass stays writable.
        copy.__dict__["prepared"] = self.prepared
        return copy

    @cached_property
    def prepared(self) -> "PreparedStack":
        """The stack's angle-independent arrays, computed once."""
        return PreparedStack.of(self)

    @property
    def n_plies(self) -> int:
        return len(self.plies)

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(p.angle for p in self.plies)

    @property
    def total_thickness(self) -> float:
        return sum(p.thickness for p in self.plies)

    @property
    def is_symmetric(self) -> bool:
        """True when (angle, thickness, material) mirror about the mid-plane."""
        return self.plies == self.plies[::-1]


@dataclass(frozen=True, eq=False)
class PreparedStack:
    """Angle-independent arrays of a stack, shared by its rotated copies.

    ``h`` holds the end-plane z coordinates h_0..h_n, strictly increasing
    from -H/2 to +H/2 (ply k occupies [h_{k-1}, h_k]), ``z_mid`` the ply
    mid-planes, ``w1``, ``w2`` and ``w3`` the A, B and D weights
    h_k^p - h_{k-1}^p for p = 1, 2, 3, and ``tsai_wu`` the plies'
    :attr:`MaterialProperties.tsai_wu` rows stacked into a (6, n) array.
    All arrays are read-only.
    """

    h: np.ndarray
    z_mid: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    tsai_wu: np.ndarray

    @classmethod
    def of(cls, lam: "Laminate") -> "PreparedStack":
        thicknesses = np.array([p.thickness for p in lam.plies])
        h = np.concatenate([[0.0], np.cumsum(thicknesses)])
        h = h - h[-1] / 2.0
        tsai_wu = np.array([p.material.tsai_wu for p in lam.plies])
        arrays = cls(
            h=h,
            z_mid=(h[:-1] + h[1:]) / 2.0,
            w1=h[1:] - h[:-1],
            w2=h[1:] ** 2 - h[:-1] ** 2,
            w3=h[1:] ** 3 - h[:-1] ** 3,
            tsai_wu=tsai_wu.T.copy(),
        )
        for array in vars(arrays).values():
            array.setflags(write=False)
        return arrays


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

    def scaled(self, factor: float) -> "LoadCase":
        return LoadCase(tuple(factor * v for v in self.n),
                        tuple(factor * v for v in self.m))


@dataclass(frozen=True)
class AbdMatrices:
    """Extensional (A), coupling (B) and bending (D) stiffness matrices."""

    a: np.ndarray   # 3x3, N/m
    b: np.ndarray   # 3x3, N
    d: np.ndarray   # 3x3, N*m


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


def ply_stiffness(mat: MaterialProperties, angle_deg: float) -> np.ndarray:
    """Cached [Qbar] for a (material, angle) pair.

    The returned array is marked read-only; callers that need to modify it
    must copy. Each material keeps its own table keyed by angle, so the
    table lives only as long as the material and a lookup never hashes the
    material. The cache makes repeated re-assembly over rotated stacks
    (failure iteration, tamper searches) cheap.
    """
    table = mat._qbar_by_angle
    qbar = table.get(angle_deg)
    if qbar is None:
        qbar = transform_stiffness(reduced_stiffness(mat), angle_deg)
        qbar.setflags(write=False)
        table[angle_deg] = qbar
    return qbar


# =============================================================================
# Laminate assembly
# =============================================================================

def stiffness_stack(lam: Laminate) -> np.ndarray:
    """Per-ply [Qbar] as an (n, 3, 3) array, top to bottom."""
    return np.array([ply_stiffness(p.material, p.angle) for p in lam.plies])


def assemble_abd(lam: Laminate) -> AbdMatrices:
    """Assemble the A, B, D stiffness matrices of a laminate.

    Returns
    -------
    AbdMatrices
        A = sum Qbar_k (h_k - h_{k-1}),
        B = 1/2 sum Qbar_k (h_k^2 - h_{k-1}^2),
        D = 1/3 sum Qbar_k (h_k^3 - h_{k-1}^3).
    """
    return AbdMatrices(*abd_blocks(stiffness_stack(lam), lam.prepared))


def abd_blocks(stack: np.ndarray, prep: PreparedStack):
    """A, B and D of an (n, 3, 3) [Qbar] stack over ``prep``'s z weights."""
    a = np.einsum("kij,k->ij", stack, prep.w1)
    b = 0.5 * np.einsum("kij,k->ij", stack, prep.w2)
    d = np.einsum("kij,k->ij", stack, prep.w3) / 3.0
    return a, b, d


#: Reciprocal-condition threshold below which a laminate stiffness matrix
#: is treated as collapsed. No physical laminate with surviving plies gets
#: anywhere near this.
RCOND_COLLAPSED = 1e-12


def require_nonsingular(matrix: np.ndarray, message: str) -> None:
    """Raise LaminateSingularError(message) if ``matrix`` has collapsed:
    its largest singular value is zero, or its reciprocal condition is
    below :data:`RCOND_COLLAPSED`."""
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < RCOND_COLLAPSED:
        raise LaminateSingularError(message)
