"""Unit tests for the classical-laminate-theory core.

Frozen reference numbers come from ``tests/ladder_oracle.py``, a scalar
brute-force implementation that shares no code with the package (expanded
trig formulas instead of matrix conjugation, polynomial root finding
instead of the closed-form quadratic).

Stress recovery and strength ratios are checked on the stages of
``plytamper.failure`` that produce every report: ``ply_stresses`` and
``_strength_ratios_and_bad``. The rung kernel ``_rung`` chains them and
decides which states fail.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from plytamper.clt import (
    Laminate,
    LaminateSingularError,
    LoadCase,
    MaterialProperties,
    Ply,
    angle_bits_with,
    normalize_angle,
    ply_stiffness_entry,
    reduced_stiffness,
    stiffness_rows,
    stiffness_stack,
    system_matrix,
    transform_stiffness,
    transformation_matrix,
)
from plytamper.failure import (
    _kernel_inputs,
    _rung,
    _strength_ratios_and_bad,
    ply_stresses,
)

RTOL = 1e-9


def solve(lam, load, stack=None):
    """Per-ply global strain, global stress and fiber-axis stress."""
    prep = lam.prepared
    stack = stiffness_stack(lam) if stack is None else stack
    return ply_stresses(system_matrix(stack, prep.weights), stack,
                        prep.z_mid, load.as_vector(),
                        transformation_matrix(lam.angles))


def abd_blocks(lam):
    """A, B and D of ``lam``: the [:3, :3], [:3, 3:] and [3:, 3:]
    blocks of its system matrix."""
    k6 = system_matrix(stiffness_stack(lam), lam.prepared.weights)
    return k6[:3, :3], k6[:3, 3:], k6[3:, 3:]


def separate_sums(stack, weights):
    """A, B and D of a [Qbar] stack as three separate sums over the
    plies, B halved and D divided by 3."""
    return (np.einsum("...kij,k->...ij", stack, weights[0]),
            0.5 * np.einsum("...kij,k->...ij", stack, weights[1]),
            np.einsum("...kij,k->...ij", stack, weights[2]) / 3.0)


def ratios(stress, mat):
    """Strength ratios of one or more fiber-axis stresses of ``mat``,
    every loaded one with a positive root."""
    stress = np.atleast_2d(np.asarray(stress, dtype=float))
    lam = Laminate.from_angles(mat, 1e-4, [0.0] * len(stress))
    sr, bad = _strength_ratios_and_bad(stress, lam.prepared.tsai_wu)
    assert bad is None or not bad.any()
    return sr


def tsai_wu_safe(stress, mat):
    """The failure polynomial itself: safe while a + b < 1, so a state
    exactly on the envelope counts as failed."""
    s1, s2, t12 = (float(v) for v in stress)
    h1, h2, h11, h22, h66, h12 = mat.tsai_wu.tolist()
    a = h1 * s1 + h2 * s2
    b = (h11 * s1 * s1 + h22 * s2 * s2 + h66 * t12 * t12
         + 2.0 * h12 * s1 * s2)
    return a + b < 1.0


def fiber_strain(angle_deg, strain):
    """Engineering strain in fiber axes, [R][T][R]^-1 times ``strain``."""
    return np.linalg.multi_dot([np.diag([1.0, 1.0, 2.0]),
                                transformation_matrix(angle_deg),
                                np.diag([1.0, 1.0, 0.5]), strain])


# Frozen by the scalar oracle for the material above.
Q_FROZEN = np.array([
    [181811138844.4179, 2896924444.3497314, 0.0],
    [2896924444.3497314, 10346158729.820467, 0.0],
    [0.0, 0.0, 7.17e9],
])

QBAR45_FROZEN = np.array([
    [56657786615.73447, 42317786615.73446, 42866245028.64937],
    [42317786615.73446, 56657786615.73444, 42866245028.64935],
    [42866245028.64937, 42866245028.64935, 46590862171.38473],
])

QBAR30_FROZEN = np.array([
    [109379247187.23003, 32462571072.888275, 54192991199.41083],
    [32462571072.888275, 23646757129.93128, 20053523119.906662],
    [54192991199.41083, 20053523119.906662, 36735646628.53854],
])

# ((sigma1, sigma2, tau12) [Pa], strength ratio) pairs from the oracle's
# polynomial-root path.
SR_FROZEN = [
    ((100e6, 5e6, 10e6), 4.552897885469468),
    ((-200e6, -30e6, 0.0), 10.4955792652316),
    ((0.0, 20e6, 40e6), 1.155437042778829),
    ((60e6, -10e6, 25e6), 3.3589364986129593),
    ((1500e6, 0.0, 0.0), 1.0),
    ((0.0, 40e6, 0.0), 1.0),
]


# =============================================================================
# Angle normalization
# =============================================================================

class TestNormalizeAngle:

    @pytest.mark.parametrize("raw, expected", [
        (0.0, 0.0),
        (45.0, 45.0),
        (90.0, 90.0),
        (-90.0, -90.0),
        (91.0, -89.0),
        (-91.0, 89.0),
        (135.0, -45.0),
        (-135.0, 45.0),
        (180.0, 0.0),
        (-180.0, 0.0),
        (270.0, -90.0),
        (360.0, 0.0),
        (-360.0, 0.0),
        (449.0, 89.0),
        (-0.0, -0.0),
        (-1e18, 80.0),
        (1e300, 0.0),
    ])
    def test_canonical_values(self, raw, expected):
        """Exact bits: huge angles keep their true direction, and a zero
        result is +0.0 unless the angle itself is a zero."""
        assert normalize_angle(raw).hex() == expected.hex()

    def test_idempotent(self):
        """Normalizing twice changes nothing."""
        rng = np.random.default_rng(77)
        for raw in rng.uniform(-1000.0, 1000.0, size=200):
            once = normalize_angle(raw)
            assert normalize_angle(once) == once

    def test_range(self):
        rng = np.random.default_rng(78)
        for raw in rng.uniform(-1000.0, 1000.0, size=200):
            assert -90.0 <= normalize_angle(raw) <= 90.0

    def test_huge_angles_fold_exactly(self):
        """Log-uniform magnitudes from 1e17 to 1e300 degrees, against
        the exact rational remainder (no tie at 90 is possible there:
        every such double is a multiple of 4)."""
        rng = np.random.default_rng(80)
        signs = rng.choice((-1.0, 1.0), size=2000)
        for raw in (signs * 10.0 ** rng.uniform(17.0, 300.0, size=2000)):
            rest = Fraction(float(raw)) % 180
            want = float(rest - 180 if rest > 90 else rest)
            assert normalize_angle(raw) == want

    @staticmethod
    def rounding_fold(angle):
        """The former fold, angle - 180 * round(angle / 180): exact while
        the quotient rounds to the right multiple, which fails for huge
        angles (-1e18 gave 128.0)."""
        return angle - 180.0 * round(angle / 180.0)

    def test_same_bits_as_the_rounding_fold_where_it_was_in_range(self):
        """Multiples of 90 and their neighbours up to 4 ULPs away,
        magnitudes from 1e-3 to 1e16, integers and halves."""
        rng = np.random.default_rng(81)
        angles = [90.0 * m for m in range(-2000, 2001)]
        for step in (math.inf, -math.inf):
            near = [90.0 * m for m in range(-2000, 2001)]
            for _ in range(4):
                near = [math.nextafter(a, step) for a in near]
                angles += near
        angles += (rng.choice((-1.0, 1.0), size=20000)
                   * 10.0 ** rng.uniform(-3.0, 16.0, size=20000)).tolist()
        whole = rng.integers(-10 ** 6, 10 ** 6, size=5000).astype(float)
        angles += whole.tolist() + (whole + 0.5).tolist()
        compared = 0
        for raw in angles:
            old = self.rounding_fold(raw)
            if -90.0 <= old <= 90.0:
                assert normalize_angle(raw).hex() == old.hex(), raw
                compared += 1
        assert compared > 0.99 * len(angles)


class TestAngleBitsWith:
    """The splice behind every memo key: one ply's 8-byte slot replaced,
    checked against a fresh pack of the edited angles."""

    ANGLES = (15.0, -45.0, 0.0, 90.0, -30.0)

    @pytest.mark.parametrize("index", [0, 2, 4], ids=["first", "middle",
                                                      "last"])
    @pytest.mark.parametrize("angle", [0.0, -0.0, 90.0, -90.0, math.nan])
    def test_one_slot_replaced(self, index, angle):
        n = len(self.ANGLES)
        bits = struct.pack(f"{n}d", *self.ANGLES)
        edited = list(self.ANGLES)
        edited[index] = angle
        got = angle_bits_with(bits, index, angle)
        assert got == struct.pack(f"{n}d", *edited)
        assert len(got) == len(bits)


# =============================================================================
# Domain records and validation
# =============================================================================

class TestMaterialProperties:

    def test_nu21_reciprocity(self, graphite_epoxy):
        assert graphite_epoxy.nu21 == pytest.approx(0.28 * 10.3 / 181.0,
                                                    rel=1e-12)

    @pytest.mark.parametrize("field", [
        "e1", "e2", "g12", "sigma1t_ult", "sigma1c_ult",
        "sigma2t_ult", "sigma2c_ult", "tau12_ult",
    ])
    def test_nonpositive_rejected(self, graphite_epoxy, field):
        kwargs = {
            "e1": 181e9, "e2": 10.3e9, "g12": 7.17e9, "nu12": 0.28,
            "sigma1t_ult": 1500e6, "sigma1c_ult": 1500e6,
            "sigma2t_ult": 40e6, "sigma2c_ult": 246e6, "tau12_ult": 68e6,
        }
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            MaterialProperties(**kwargs)

    def test_unstable_poisson_rejected(self):
        """nu12*nu21 >= 1 has no positive-definite stiffness."""
        with pytest.raises(ValueError):
            MaterialProperties(
                e1=10e9, e2=10e9, g12=5e9, nu12=1.0,
                sigma1t_ult=1e9, sigma1c_ult=1e9,
                sigma2t_ult=1e8, sigma2c_ult=1e8, tau12_ult=1e8,
            )

    @pytest.mark.parametrize("strength", [1e156, 1e-194, 1e-154])
    def test_strengths_out_of_float_range_rejected(self, strength):
        """Strengths whose Tsai-Wu terms overflow, underflow to zero or
        come out infinite: a ValueError, never an arithmetic error."""
        with pytest.raises(ValueError, match="Tsai-Wu parameters"):
            MaterialProperties(
                e1=181e9, e2=10.3e9, g12=7.17e9, nu12=0.28,
                sigma1t_ult=strength, sigma1c_ult=strength,
                sigma2t_ult=strength, sigma2c_ult=strength,
                tau12_ult=strength)

    def test_hashable(self, graphite_epoxy):
        """Materials key stiffness caches, so they must hash."""
        assert hash(graphite_epoxy) == hash(graphite_epoxy)


class TestPlyAndLaminate:

    def test_ply_angle_normalized_on_construction(self, graphite_epoxy):
        assert Ply(135.0, 1e-4, graphite_epoxy).angle == -45.0

    def test_nonpositive_thickness_rejected(self, graphite_epoxy):
        with pytest.raises(ValueError):
            Ply(0.0, 0.0, graphite_epoxy)

    def test_empty_laminate_rejected(self):
        with pytest.raises(ValueError):
            Laminate(())

    def test_from_angles(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 45, -45, 90])
        assert lam.n_plies == 4
        assert lam.angles == (0.0, 45.0, -45.0, 90.0)
        assert lam.total_thickness == pytest.approx(0.5e-3, rel=1e-12)

    def test_with_angles_preserves_geometry(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 45])
        rotated = lam.with_angles([10, 55])
        assert rotated.angles == (10.0, 55.0)
        assert rotated.plies[0].thickness == lam.plies[0].thickness
        assert rotated.plies[1].material is lam.plies[1].material

    def test_with_angles_length_mismatch(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 45])
        with pytest.raises(ValueError):
            lam.with_angles([0, 45, 90])


class TestLoadCase:

    def test_vector_layout(self):
        load = LoadCase(n=(1.0, 2.0, 3.0), m=(4.0, 5.0, 6.0))
        assert np.array_equal(load.as_vector(),
                              np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))

    def test_is_zero(self):
        assert LoadCase(n=(0.0, 0.0, 0.0)).is_zero
        assert not LoadCase(n=(0.0, 0.0, 0.0), m=(0.0, 1e-9, 0.0)).is_zero

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            LoadCase(n=(1.0, 0.0))


# Each case builds one domain record with a single non-finite field.
_MATERIAL = dict(e1=181e9, e2=10.3e9, g12=7.17e9, nu12=0.28,
                 sigma1t_ult=1500e6, sigma1c_ult=1500e6,
                 sigma2t_ult=40e6, sigma2c_ult=246e6, tau12_ult=68e6)


@pytest.mark.parametrize("build, field", [
    (lambda: MaterialProperties(**dict(_MATERIAL, e1=math.inf)), "e1"),
    (lambda: MaterialProperties(**dict(_MATERIAL, nu12=math.nan)), "nu12"),
    (lambda: MaterialProperties(**dict(_MATERIAL, sigma1t_ult=math.inf)),
     "sigma1t_ult"),
    (lambda: Ply(0.0, math.inf, MaterialProperties(**_MATERIAL)),
     "thickness"),
    (lambda: Ply(math.nan, 1e-4, MaterialProperties(**_MATERIAL)), "angle"),
    (lambda: Ply(math.inf, 1e-4, MaterialProperties(**_MATERIAL)), "angle"),
    (lambda: LoadCase(n=(math.nan, 0.0, 0.0)), "load n"),
    (lambda: LoadCase(n=(1.0, 0.0, 0.0), m=(0.0, -math.inf, 0.0)),
     "load m"),
])
def test_non_finite_value_rejected_naming_field(build, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        build()


# =============================================================================
# Stiffness construction and rotation
# =============================================================================

class TestReducedStiffness:

    def test_frozen_values(self, graphite_epoxy):
        np.testing.assert_allclose(reduced_stiffness(graphite_epoxy),
                                   Q_FROZEN, rtol=RTOL)

    def test_no_shear_coupling_in_fiber_axes(self, graphite_epoxy):
        q = reduced_stiffness(graphite_epoxy)
        assert q[0, 2] == 0.0 and q[1, 2] == 0.0


class TestTransformedStiffness:

    def test_frozen_45(self, graphite_epoxy):
        q = reduced_stiffness(graphite_epoxy)
        np.testing.assert_allclose(transform_stiffness(q, 45.0),
                                   QBAR45_FROZEN, rtol=RTOL)

    def test_frozen_30(self, graphite_epoxy):
        q = reduced_stiffness(graphite_epoxy)
        np.testing.assert_allclose(transform_stiffness(q, 30.0),
                                   QBAR30_FROZEN, rtol=RTOL)

    def test_zero_rotation_is_identity(self, graphite_epoxy):
        q = reduced_stiffness(graphite_epoxy)
        np.testing.assert_allclose(transform_stiffness(q, 0.0), q,
                                   rtol=RTOL, atol=0.0)

    def test_symmetric_result(self, graphite_epoxy):
        q = reduced_stiffness(graphite_epoxy)
        rng = np.random.default_rng(11)
        for angle in rng.uniform(-90.0, 90.0, size=50):
            qbar = transform_stiffness(q, angle)
            np.testing.assert_allclose(qbar, qbar.T, rtol=RTOL)

    def test_periodicity(self, graphite_epoxy):
        """A fiber direction is a line: theta and theta+180 coincide."""
        q = reduced_stiffness(graphite_epoxy)
        rng = np.random.default_rng(12)
        scale = np.abs(Q_FROZEN).max()
        for angle in rng.uniform(-90.0, 90.0, size=50):
            np.testing.assert_allclose(
                transform_stiffness(q, angle),
                transform_stiffness(q, angle + 180.0),
                rtol=RTOL, atol=RTOL * scale,
            )

    def test_sign_parity(self, graphite_epoxy):
        """Plain entries are even in theta, coupling entries are odd."""
        q = reduced_stiffness(graphite_epoxy)
        rng = np.random.default_rng(13)
        scale = np.abs(Q_FROZEN).max()
        for angle in rng.uniform(-90.0, 90.0, size=50):
            plus = transform_stiffness(q, angle)
            minus = transform_stiffness(q, -angle)
            for i, j in [(0, 0), (1, 1), (0, 1), (2, 2)]:
                assert minus[i, j] == pytest.approx(plus[i, j], rel=RTOL,
                                                    abs=RTOL * scale)
            for i, j in [(0, 2), (1, 2)]:
                assert minus[i, j] == pytest.approx(-plus[i, j], rel=RTOL,
                                                    abs=RTOL * scale)

    def test_transformation_of_angle_array_matches_each_angle(self):
        """One [T] per angle, bit for bit: the kernel's [T] stack and the
        [T] behind [Qbar] come from the same formula."""
        angles = np.concatenate([np.arange(-180.0, 180.5, 0.5),
                                 np.random.default_rng(14).uniform(
                                     -90.0, 90.0, size=200)])
        stack = transformation_matrix(angles)
        assert stack.shape == (len(angles), 3, 3)
        for angle, t in zip(angles.tolist(), stack):
            assert np.array_equal(t, transformation_matrix(angle))
        assert transformation_matrix(30.0).shape == (3, 3)
        assert transformation_matrix(np.zeros((2, 4))).shape == (2, 4, 3, 3)

    def test_cache_returns_readonly(self, graphite_epoxy):
        row = ply_stiffness_entry(graphite_epoxy, 30.0)
        assert row is ply_stiffness_entry(graphite_epoxy, 30.0)
        with pytest.raises(ValueError):
            row[0] = 0.0

    def test_gather_splits_each_entry(self, graphite_epoxy):
        """``stiffness_rows`` stacks each ply's cached row, the nine
        entries of its [Qbar], and an empty gather gives an empty stack
        of the same layout."""
        other = MaterialProperties(**dict(_MATERIAL, e1=38.6e9, e2=8.27e9))
        materials = [graphite_epoxy, other, graphite_epoxy]
        angles = [30.0, -45.0, 0.0]
        stack = stiffness_rows(materials, angles)
        assert stack.shape == (3, 3, 3)
        assert stack.flags.c_contiguous
        for k, (mat, angle) in enumerate(zip(materials, angles)):
            row = ply_stiffness_entry(mat, angle)
            assert row.shape == (9,)
            assert stack[k].tobytes() == row.tobytes() == transform_stiffness(
                reduced_stiffness(mat), angle).tobytes()
        assert stiffness_rows([], []).shape == (0, 3, 3)


# =============================================================================
# Laminate assembly and solution
# =============================================================================

class TestZPlanes:

    def test_single_ply(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 2e-4, [0])
        np.testing.assert_allclose(lam.prepared.h, [-1e-4, 1e-4])

    def test_uniform_stack_centered(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 1e-4, [0, 45, 90, 0])
        np.testing.assert_allclose(
            lam.prepared.h, [-2e-4, -1e-4, 0.0, 1e-4, 2e-4])

    def test_mixed_thickness(self, graphite_epoxy):
        lam = Laminate((
            Ply(0.0, 3e-4, graphite_epoxy),
            Ply(90.0, 1e-4, graphite_epoxy),
        ))
        np.testing.assert_allclose(lam.prepared.h, [-2e-4, 1e-4, 2e-4])


class TestAbdAssembly:

    def test_single_ply_closed_form(self, graphite_epoxy):
        """One ply: A = Qbar*t, B = 0, D = Qbar*t^3/12."""
        t = 0.125e-3
        lam = Laminate.from_angles(graphite_epoxy, t, [30])
        qbar = transform_stiffness(reduced_stiffness(graphite_epoxy), 30.0)
        a, b, d = abd_blocks(lam)
        np.testing.assert_allclose(a, qbar * t, rtol=RTOL)
        np.testing.assert_allclose(b, np.zeros((3, 3)),
                                   atol=RTOL * np.abs(a).max() * t)
        np.testing.assert_allclose(d, qbar * t ** 3 / 12.0, rtol=RTOL)

    def test_symmetric_layup_decouples(self, graphite_epoxy):
        rng = np.random.default_rng(21)
        for _ in range(20):
            half = list(rng.uniform(-90.0, 90.0, size=rng.integers(1, 5)))
            lam = Laminate.from_angles(graphite_epoxy, 0.125e-3,
                                       half + half[::-1])
            a, b, _ = abd_blocks(lam)
            scale = np.abs(a).max() * lam.total_thickness
            np.testing.assert_allclose(b, np.zeros((3, 3)),
                                       atol=RTOL * scale)

    def test_stack_reversal_flips_coupling(self, graphite_epoxy):
        """Reversing the stacking order keeps A and D, negates B."""
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 30, 90])
        rev = Laminate.from_angles(graphite_epoxy, 0.125e-3, [90, 30, 0])
        (a, b, d), (a_rev, b_rev, d_rev) = abd_blocks(lam), abd_blocks(rev)
        np.testing.assert_allclose(a_rev, a, rtol=RTOL)
        np.testing.assert_allclose(d_rev, d, rtol=RTOL)
        np.testing.assert_allclose(b_rev, -b, rtol=RTOL)

    def test_a_is_permutation_invariant(self, graphite_epoxy):
        """A only sums Qbar*t, so shuffling plies cannot change it."""
        rng = np.random.default_rng(22)
        angles = list(rng.uniform(-90.0, 90.0, size=6))
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
        ref = abd_blocks(lam)[0]
        for _ in range(10):
            rng.shuffle(angles)
            shuffled = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
            np.testing.assert_allclose(abd_blocks(shuffled)[0], ref,
                                       rtol=RTOL)

    def test_inactive_ply_contributes_nothing(self, graphite_epoxy):
        """A failed ply keeps its z band but adds zero stiffness."""
        lam = Laminate.from_angles(graphite_epoxy, 1e-4, [0, 45, 90])
        active = np.array([True, False, True])
        a = system_matrix(
            np.where(active[:, None, None], stiffness_stack(lam), 0.0),
            lam.prepared.weights)[:3, :3]
        h = lam.prepared.h
        q = reduced_stiffness(graphite_epoxy)
        q0, q90 = transform_stiffness(q, 0.0), transform_stiffness(q, 90.0)
        expected_a = q0 * (h[1] - h[0]) + q90 * (h[3] - h[2])
        np.testing.assert_allclose(a, expected_a, rtol=RTOL)

    @pytest.mark.parametrize("batch", [(), (1,), (5,), (2, 3)])
    def test_one_sum_equals_the_three_block_sums(self, graphite_epoxy,
                                                 batch):
        """The blocks of the 6x6 system, from one einsum over the stacked
        weights divided by (1, 2, 3), are bit for bit the three separate
        sums, B halved and D divided by 3."""
        rng = np.random.default_rng(41)
        for n in (1, 2, 7, 34, 97):
            thickness = rng.uniform(0.05e-3, 0.3e-3, size=n)
            lam = Laminate(tuple(Ply(0.0, t, graphite_epoxy)
                                 for t in thickness))
            prep = lam.prepared
            stack = rng.normal(size=batch + (n, 3, 3)) * 1e10
            want = separate_sums(stack, prep.weights)
            k6 = system_matrix(stack, prep.weights)
            assert k6.shape == batch + (6, 6)
            for (rows, cols), block in zip(
                    (((0, 3), (0, 3)), ((0, 3), (3, 6)), ((3, 6), (0, 3)),
                     ((3, 6), (3, 6))), (want[0], want[1], want[1], want[2])):
                got = k6[..., slice(*rows), slice(*cols)]
                assert np.ascontiguousarray(got).tobytes() == block.tobytes()


class TestSolveMidplane:
    """The laminate solve inside ``failure.ply_stresses``."""

    def test_zero_load_zero_state(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 1e-4, [0, 45, 45, 0])
        strain, _, _ = solve(lam, LoadCase(n=(0.0, 0.0, 0.0)))
        assert np.all(strain == 0.0)

    def test_single_ply_axial_strain(self, graphite_epoxy):
        """A 0 deg ply under Nx stretches by Nx/(E1*t)."""
        t = 0.125e-3
        lam = Laminate.from_angles(graphite_epoxy, t, [0])
        strain, _, _ = solve(lam, LoadCase(n=(100.0, 0.0, 0.0)))
        assert strain[0, 0] == pytest.approx(100.0 / (181e9 * t), rel=RTOL)

    def test_symmetric_membrane_load_gives_no_curvature(self, graphite_epoxy):
        rng = np.random.default_rng(31)
        for _ in range(20):
            half = list(rng.uniform(-90.0, 90.0, size=3))
            lam = Laminate.from_angles(graphite_epoxy, 0.125e-3,
                                       half + half[::-1])
            load = LoadCase(n=tuple(rng.uniform(-1e4, 1e4, size=3)))
            strain, _, _ = solve(lam, load)
            z = lam.prepared.z_mid
            curvature = (strain[-1] - strain[0]) / (z[-1] - z[0])
            strain_scale = np.abs(strain).max() or 1.0
            np.testing.assert_allclose(
                curvature, np.zeros(3),
                atol=1e-6 * strain_scale / lam.total_thickness)

    def test_linearity(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 1e-4, [0, 25, -40])
        load = LoadCase(n=(5.0, -2.0, 1.0), m=(0.1, 0.0, -0.3))
        one, _, _ = solve(lam, load)
        five, _, _ = solve(lam, LoadCase(n=(25.0, -10.0, 5.0),
                                         m=(0.5, 0.0, -1.5)))
        np.testing.assert_allclose(five, 5.0 * one, rtol=1e-9)

    def test_collapsed_system_raises(self, graphite_epoxy):
        """The rung kernel, which runs the collapse test, on a stack of
        zero stiffness: every eigenvalue of its system is zero."""
        lam = Laminate.from_angles(graphite_epoxy, 1e-4, [0, 90])
        (stack, t_stack, z_mid, weights, coef), load_vec = _kernel_inputs(
            lam, LoadCase(n=(1.0, 0.0, 0.0)))
        with pytest.raises(LaminateSingularError):
            _rung((np.zeros_like(stack), t_stack, z_mid, weights, coef),
                  load_vec, np.arange(2))


class TestPlyStressState:
    """The per-ply stress recovery of ``failure.ply_stresses``."""

    def test_zero_degree_ply_local_equals_global(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 1e-4, [0, 45])
        _, stress, local = solve(lam, LoadCase(n=(50.0, 5.0, 2.0)))
        np.testing.assert_allclose(local[0], stress[0], rtol=RTOL)

    def test_ninety_degree_ply_swaps_axes(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 1e-4, [90, 0, 90])
        _, stress, local = solve(lam, LoadCase(n=(40.0, -3.0, 0.0)))
        gx, gy, gxy = stress[0]
        assert local[0, 0] == pytest.approx(gy, rel=RTOL)
        assert local[0, 1] == pytest.approx(gx, rel=RTOL)
        assert local[0, 2] == pytest.approx(-gxy, rel=RTOL, abs=1e-9)

    def test_evaluated_at_ply_midthickness(self, graphite_epoxy):
        """Strains match eps0 + z*k of a separate solve at z = mid-ply."""
        lam = Laminate.from_angles(graphite_epoxy, 1e-4, [0, 45, 90, -45])
        load = LoadCase(n=(10.0, 0.0, 0.0))
        strain, _, _ = solve(lam, load)
        a, b, d = separate_sums(stiffness_stack(lam), lam.prepared.weights)
        state = np.linalg.solve(np.block([[a, b], [b, d]]),
                                load.as_vector())
        h = lam.prepared.h
        for k in range(lam.n_plies):
            z = 0.5 * (h[k] + h[k + 1])
            np.testing.assert_allclose(
                strain[k], state[:3] + z * state[3:],
                rtol=RTOL, atol=RTOL * np.abs(strain).max())

    def test_local_constitutive_consistency(self, graphite_epoxy):
        """Fiber-axis stress and strain must satisfy sigma = Q eps."""
        q = reduced_stiffness(graphite_epoxy)
        rng = np.random.default_rng(41)
        for _ in range(20):
            angles = rng.uniform(-90.0, 90.0, size=4)
            lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, angles)
            load = LoadCase(n=tuple(rng.uniform(-1e3, 1e3, size=3)),
                            m=tuple(rng.uniform(-1.0, 1.0, size=3)))
            strain, _, local = solve(lam, load)
            for k, angle in enumerate(lam.angles):
                np.testing.assert_allclose(
                    local[k], q @ fiber_strain(angle, strain[k]),
                    rtol=1e-8, atol=1e-8 * np.abs(local[k]).max())

    def test_membrane_equilibrium(self, graphite_epoxy):
        """With zero curvature, mid-ply stresses integrate back to N."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            half = list(rng.uniform(-90.0, 90.0, size=3))
            lam = Laminate.from_angles(graphite_epoxy, 0.125e-3,
                                       half + half[::-1])
            n_applied = rng.uniform(-1e4, 1e4, size=3)
            _, stress, _ = solve(lam, LoadCase(n=tuple(n_applied)))
            total = np.zeros(3)
            for k in range(lam.n_plies):
                total += stress[k] * lam.plies[k].thickness
            np.testing.assert_allclose(total, n_applied, rtol=1e-8,
                                       atol=1e-8 * np.abs(n_applied).max())


# =============================================================================
# Tsai-Wu strength
# =============================================================================

class TestTsaiWuParams:
    """``MaterialProperties.tsai_wu``: rows h1, h2, h11, h22, h66, h12."""

    def test_frozen_values(self, graphite_epoxy):
        h1, h2, h11, h22, h66, h12 = graphite_epoxy.tsai_wu
        assert h1 == pytest.approx(0.0, abs=1e-30)
        assert h2 == pytest.approx(2.0934959349593495e-08, rel=RTOL)
        assert h11 == pytest.approx(4.444444444444444e-19, rel=RTOL)
        assert h22 == pytest.approx(1.016260162601626e-16, rel=RTOL)
        assert h66 == pytest.approx(2.1626297577854672e-16, rel=RTOL)
        assert h12 == pytest.approx(-3.3603243272729657e-18, rel=RTOL)

    def test_interaction_term_sign(self, graphite_epoxy):
        _, _, h11, h22, _, h12 = graphite_epoxy.tsai_wu
        assert h12 < 0.0
        assert h12 ** 2 < h11 * h22

    def test_row_is_cached_read_only_and_stacked(self, graphite_epoxy):
        row = graphite_epoxy.tsai_wu
        assert row.shape == (6,) and graphite_epoxy.tsai_wu is row
        with pytest.raises(ValueError):
            row[0] = 1.0
        lam = Laminate.from_angles(graphite_epoxy, 1e-4, [0.0, 45.0, 90.0])
        stacked = lam.prepared.tsai_wu
        h1, h2, h11, h22, h66, h12 = row.tolist()
        coefficients = [h1, h2, h11, h22, h66, 2.0 * h12]
        assert stacked.shape == (3, 6)
        assert stacked.tolist() == [coefficients] * 3
        assert lam.with_angles([5.0, 45.0, 90.0]).prepared.tsai_wu is stacked
        with pytest.raises(ValueError):
            stacked[0, 0] = 1.0


class TestStrengthRatio:

    @pytest.mark.parametrize("stress, expected", SR_FROZEN)
    def test_frozen_samples(self, graphite_epoxy, stress, expected):
        sr = ratios(stress, graphite_epoxy)[0]
        assert sr == pytest.approx(expected, rel=1e-9)
        # No linear shear term: the sign of tau12 cannot matter.
        s1, s2, t12 = stress
        assert ratios((s1, s2, -t12), graphite_epoxy)[0] == sr

    def test_unloaded_ply_never_fails(self, graphite_epoxy):
        assert ratios((0.0, 0.0, 0.0), graphite_epoxy)[0] == math.inf

    def test_homogeneity(self, graphite_epoxy):
        """Scaling the stress by lambda divides the ratio by lambda."""
        rng = np.random.default_rng(51)
        for _ in range(100):
            stress = rng.uniform(-300e6, 300e6, size=3)
            base = ratios(stress, graphite_epoxy)[0]
            for lam_factor in (0.5, 2.0, 10.0):
                scaled = ratios(stress * lam_factor, graphite_epoxy)[0]
                assert scaled == pytest.approx(base / lam_factor, rel=RTOL)

    def test_same_float_operations_as_the_formula(self, graphite_epoxy):
        """Bit for bit the formula evaluated term by term in its written
        order, (-a + sqrt(a*a + 4*b)) / (2*b), on a batch that takes the
        fast path and on one with unloaded rows (+inf), which takes the
        masked path."""
        h1, h2, h11, h22, h66, h12 = graphite_epoxy.tsai_wu.tolist()
        rng = np.random.default_rng(53)
        stress = (rng.uniform(-1.0, 1.0, size=(400, 3))
                  * 10.0 ** rng.uniform(3.0, 9.0, size=(400, 3)))
        stress[200::7] = 0.0
        stress[201::9, :2] = 0.0
        stress[202::9, 1:] = 0.0
        for rows in (stress[:200], stress[200:]):
            want = []
            for s1, s2, t12 in rows.tolist():
                a = h1 * s1 + h2 * s2
                b = (h11 * s1 * s1 + h22 * s2 * s2 + h66 * t12 * t12
                     + 2.0 * h12 * s1 * s2)
                want.append(math.inf if s1 == s2 == t12 == 0.0 else
                            (-a + math.sqrt(a * a + 4.0 * b)) / (2.0 * b))
            got = ratios(rows, graphite_epoxy)
            assert [v.hex() for v in got.tolist()] == \
                [v.hex() for v in want]

    def test_corrupt_parameters_raise(self):
        """A loaded ply without a positive root is masked; the rung
        kernel raises StrengthRatioRootError on the mask (see
        ``test_late_root_failure_names_the_original_ply``)."""
        # coefficients h1, h2, h11, h22, h66, 2*h12 of one ply
        coef = np.array([[0.0, 0.0, -1e-18, -1e-16, -1e-16, 0.0]])
        _, bad = _strength_ratios_and_bad(np.array([[1e6, 0.0, 0.0]]), coef)
        assert bad.tolist() == [True]


class TestTsaiWuCheck:
    """The strength ratio against the failure polynomial evaluated inline."""

    def test_boundary_counts_as_failed(self, graphite_epoxy):
        """SR exactly 1 means the polynomial hits 1: not safe."""
        assert not tsai_wu_safe((0.0, 40e6, 0.0), graphite_epoxy)
        assert not tsai_wu_safe((1500e6, 0.0, 0.0), graphite_epoxy)

    def test_consistent_with_strength_ratio(self, graphite_epoxy):
        """Safe exactly when the stress could still be scaled up (SR > 1)."""
        rng = np.random.default_rng(52)
        for _ in range(200):
            stress = rng.uniform(-1.0, 1.0, size=3) * [2000e6, 150e6, 100e6]
            sr = ratios(stress, graphite_epoxy)[0]
            assert tsai_wu_safe(stress, graphite_epoxy) == (sr > 1.0)

    def test_scaling_past_the_envelope_fails(self, graphite_epoxy):
        stress = np.array([120e6, 8e6, 15e6])
        sr = ratios(stress, graphite_epoxy)[0]
        assert tsai_wu_safe(stress * (0.99 * sr), graphite_epoxy)
        assert not tsai_wu_safe(stress * (1.01 * sr), graphite_epoxy)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
