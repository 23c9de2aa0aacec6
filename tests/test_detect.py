"""Tests for the stiffness/frequency detectability measures."""

import math

import numpy as np
import pytest

from plytamper.clt import Laminate, LaminateSingularError, MaterialProperties
from plytamper.designfile import load_bundled_design
from plytamper.detect import (
    DetectabilityReport,
    EngineeringConstants,
    detectability_report,
    effective_modulus,
    engineering_constants,
    frequency_change_percent,
    frequency_ratio,
)
from plytamper.failure import first_ply_failure
from test_clt import abd_blocks


# =============================================================================
# Engineering constants
# =============================================================================

class TestEngineeringConstants:

    def test_single_zero_ply_recovers_lamina_moduli(self, graphite_epoxy):
        """For one 0° ply the compliance inversion undoes the stiffness."""
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0])
        ec = engineering_constants(lam)
        assert ec.exx == pytest.approx(181e9, rel=1e-9)
        assert ec.eyy == pytest.approx(10.3e9, rel=1e-9)
        assert ec.gxy == pytest.approx(7.17e9, rel=1e-9)
        assert ec.nu_yx == pytest.approx(graphite_epoxy.nu21, rel=1e-9)
        assert not ec.has_coupling

    def test_single_ninety_ply_swaps_axes(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [90])
        ec = engineering_constants(lam)
        assert ec.exx == pytest.approx(10.3e9, rel=1e-9)
        assert ec.eyy == pytest.approx(181e9, rel=1e-9)
        assert ec.gxy == pytest.approx(7.17e9, rel=1e-9)
        assert ec.nu_yx == pytest.approx(0.28, rel=1e-9)

    def test_balanced_symmetric_angle_pair_is_square(self, graphite_epoxy):
        """[±45]s loads x and y identically."""
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3,
                                   [45, -45, -45, 45])
        ec = engineering_constants(lam)
        assert ec.exx == pytest.approx(ec.eyy, rel=1e-9)

    def test_quasi_isotropic_frozen_values(self, graphite_epoxy):
        """[0/45/-45/90]s constants frozen from the scalar oracle path."""
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3,
                                   [0, 45, -45, 90, 90, -45, 45, 0])
        ec = engineering_constants(lam)
        assert ec.exx == pytest.approx(69675740916.64813, rel=1e-9)
        assert ec.eyy == pytest.approx(69675740916.64812, rel=1e-9)
        assert ec.gxy == pytest.approx(26880431085.69236, rel=1e-9)
        assert ec.nu_yx == pytest.approx(0.2960309433752794, rel=1e-9)
        assert ec.thickness == pytest.approx(1e-3, rel=1e-12)

    def test_coupling_flag(self, graphite_epoxy):
        sym = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 90, 90, 0])
        asym = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 90])
        assert not engineering_constants(sym).has_coupling
        assert engineering_constants(asym).has_coupling

    def test_degenerate_laminate_rejected(self):
        """A material with no transverse or shear stiffness collapses A."""
        floppy = MaterialProperties(
            e1=1e9, e2=1e-12, g12=1e-12, nu12=0.3,
            sigma1t_ult=1e9, sigma1c_ult=1e9,
            sigma2t_ult=1e8, sigma2c_ult=1e8, tau12_ult=1e8,
        )
        lam = Laminate.from_angles(floppy, 1e-4, [0, 0])
        with pytest.raises(LaminateSingularError):
            engineering_constants(lam)

    def test_moduli_positive_for_random_laminates(self, graphite_epoxy):
        rng = np.random.default_rng(81)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            angles = rng.uniform(-90.0, 90.0, size=n)
            ec = engineering_constants(
                Laminate.from_angles(graphite_epoxy, 0.125e-3, angles))
            assert ec.exx > 0.0 and ec.eyy > 0.0 and ec.gxy > 0.0


# =============================================================================
# Effective modulus
# =============================================================================

class TestEffectiveModulus:

    @staticmethod
    def _constants(exx, eyy, gxy, nu_yx):
        return EngineeringConstants(exx=exx, eyy=eyy, gxy=gxy, nu_yx=nu_yx,
                                    thickness=1e-3, has_coupling=False)

    def test_isotropic_collapse(self):
        """Exx = Eyy = E0, nu = 0, G = E0/2 gives back exactly E0."""
        e0 = 70e9
        assert effective_modulus(self._constants(e0, e0, e0 / 2.0, 0.0)) \
            == pytest.approx(e0, rel=1e-12)

    def test_quasi_isotropic_equals_in_plane_modulus(self, graphite_epoxy):
        """For an in-plane-isotropic layup the bracket is 2 and E = Exx."""
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3,
                                   [0, 45, -45, 90, 90, -45, 45, 0])
        ec = engineering_constants(lam)
        e_eff = effective_modulus(ec)
        assert e_eff == pytest.approx(69675740916.64812, rel=1e-9)
        assert e_eff == pytest.approx(ec.exx, rel=1e-9)

    def test_homogeneous_in_the_moduli(self):
        """Scaling all moduli by λ scales E by λ; nu is untouched."""
        rng = np.random.default_rng(82)
        for _ in range(50):
            exx = rng.uniform(1e9, 2e11)
            eyy = rng.uniform(1e9, 2e11)
            gxy = rng.uniform(1e9, 1e11)
            nu = rng.uniform(0.0, 0.45)
            lam_factor = rng.uniform(0.1, 10.0)
            base = effective_modulus(self._constants(exx, eyy, gxy, nu))
            scaled = effective_modulus(self._constants(
                lam_factor * exx, lam_factor * eyy, lam_factor * gxy, nu))
            assert scaled == pytest.approx(lam_factor * base, rel=1e-9)

    def test_negative_bracket_reported(self):
        with pytest.raises(ValueError):
            effective_modulus(self._constants(1e9, 1e9, 1e13, 1.5))

    def test_nonpositive_moduli_rejected(self):
        with pytest.raises(ValueError):
            effective_modulus(self._constants(-1e9, 1e9, 1e9, 0.3))


# =============================================================================
# Frequency ratio
# =============================================================================

class TestFrequencyRatio:

    def test_identity_is_exact(self):
        assert frequency_ratio(70e9, 70e9) == 1.0
        assert frequency_change_percent(70e9, 70e9) == 0.0

    def test_ten_percent_pair(self):
        """A modulus at 0.81 E moves the frequency by 10%."""
        e = 123.4e9
        assert frequency_ratio(e, 0.81 * e) == pytest.approx(1.0 / 0.9,
                                                             rel=1e-12)
        assert frequency_change_percent(e, 0.81 * e) == pytest.approx(
            10.0, rel=1e-12)

    def test_four_percent_pair(self):
        e = 70e9
        assert frequency_change_percent(e, 0.9216 * e) == pytest.approx(
            4.0, rel=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            e1 = rng.uniform(1e9, 2e11)
            e2 = rng.uniform(1e9, 2e11)
            lam_factor = rng.uniform(0.01, 100.0)
            assert frequency_ratio(lam_factor * e1, lam_factor * e2) == \
                pytest.approx(frequency_ratio(e1, e2), rel=1e-12)

    def test_consistency_with_change_percent(self):
        e, e_att = 70e9, 50e9
        ratio = frequency_ratio(e, e_att)
        change = frequency_change_percent(e, e_att)
        assert change == pytest.approx(100.0 * (1.0 - 1.0 / ratio), rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            frequency_ratio(0.0, 1e9)
        with pytest.raises(ValueError):
            frequency_change_percent(1e9, -1.0)


# =============================================================================
# Full report
# =============================================================================

class TestDetectabilityReport:

    def test_report_fields_consistent(self, graphite_epoxy):
        original = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0.0] * 8)
        attacked = original.with_angles([0, 0, 0, 19, 0, 0, 0, 0])
        report = detectability_report(original, attacked)
        assert isinstance(report, DetectabilityReport)
        assert report.frequency_ratio == pytest.approx(
            math.sqrt(report.e_effective_original
                      / report.e_effective_attacked), rel=1e-12)
        assert report.frequency_change_percent == pytest.approx(
            100.0 * (1.0 - 1.0 / report.frequency_ratio), rel=1e-9)

    def test_rotated_plies_reduce_load_axis_stiffness(self, graphite_epoxy):
        """The axial modulus always drops when 0-degree plies rotate away."""
        original = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0.0] * 8)
        attacked = original.with_angles([0, 0, 0, 19, 0, 0, 0, 0])
        ec_orig = engineering_constants(original)
        ec_att = engineering_constants(attacked)
        assert ec_att.exx < ec_orig.exx

    def test_widespread_rotation_softens_vibration(self, graphite_epoxy):
        original = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0.0] * 8)
        attacked = original.with_angles([0, 19, 0, 19, 19, 0, 19, 0])
        report = detectability_report(original, attacked)
        assert report.e_effective_attacked < report.e_effective_original
        assert report.frequency_ratio > 1.0
        assert report.frequency_change_percent > 0.0

    def test_single_ply_rotation_may_stiffen(self, graphite_epoxy):
        # Counterintuitive but real: one 0 -> 19 rotation trades a small
        # axial-stiffness loss for a large shear-stiffness gain, and the
        # flexural blend comes out higher.  The report must carry the sign
        # honestly instead of clamping it.
        original = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0.0] * 8)
        attacked = original.with_angles([0, 0, 0, 19, 0, 0, 0, 0])
        report = detectability_report(original, attacked)
        assert report.e_effective_attacked > report.e_effective_original
        assert report.frequency_ratio < 1.0
        assert report.frequency_change_percent < 0.0

    def test_self_comparison_is_silent(self, graphite_epoxy):
        lam = Laminate.from_angles(graphite_epoxy, 0.125e-3, [0, 45, -45, 90])
        report = detectability_report(lam, lam)
        assert report.frequency_ratio == 1.0
        assert report.frequency_change_percent == 0.0

    def test_builds_no_tsai_wu_rows(self):
        """Detection reads stiffness only: neither the stack's nor the
        material's Tsai-Wu rows get built."""
        mat = MaterialProperties(
            e1=181e9, e2=10.3e9, g12=7.17e9, nu12=0.28,
            sigma1t_ult=1500e6, sigma1c_ult=1500e6,
            sigma2t_ult=40e6, sigma2c_ult=246e6, tau12_ult=68e6,
        )
        lam = Laminate.from_angles(mat, 0.125e-3, [0, 45, -45, 90])
        detectability_report(lam, lam.with_angles([0, 50, -45, 90]))
        assert "tsai_wu" not in vars(lam.prepared)
        assert "tsai_wu" not in vars(mat)


# =============================================================================
# Blind spot: ply order
# =============================================================================

def swapped(lam, i, j):
    """``lam`` with the angles of plies i and j swapped."""
    angles = list(lam.angles)
    angles[i], angles[j] = angles[j], angles[i]
    return lam.with_angles(angles)


class TestPlyOrderBlindSpot:
    """Swapping two plies' angles keeps A, the only block ``detect``
    reads, so it reports no change while first failure drops and B
    appears. Pinned as an open gap: a flexural or coupling fingerprint
    has to close it."""

    def test_face_core_swap(self):
        """Spar plies 3 and 29 (-45 and 0 deg, same material and
        thickness): A moves by round-off only, not bit for bit."""
        design = load_bundled_design()
        lam = design.laminate()
        assert (lam.angles[3], lam.angles[29]) == (-45.0, 0.0)
        swap = swapped(lam, 3, 29)
        (a, b, _), (a_swap, b_swap, _) = abd_blocks(lam), abd_blocks(swap)
        change = np.abs(a_swap - a).max() / np.abs(a).max()
        assert 0.0 < change <= 1e-15
        report = detectability_report(lam, swap)
        assert abs(report.frequency_change_percent) < 1e-12
        assert first_ply_failure(lam, design.load)[0] == pytest.approx(
            30.849017055, rel=1e-9)
        assert first_ply_failure(swap, design.load)[0] == pytest.approx(
            25.028014644, rel=1e-9)
        assert np.abs(b).max() < 1e-9
        assert np.abs(b_swap).max() == pytest.approx(5.08e4, rel=1e-3)
        assert report.attacked.has_coupling
        assert not report.original.has_coupling

    def test_face_core_swap_with_bit_equal_a(self):
        """Spar plies 0 and 16 (45 and 0 deg): A is bit-equal, so the
        report reads exactly no change."""
        design = load_bundled_design()
        lam = design.laminate()
        assert (lam.angles[0], lam.angles[16]) == (45.0, 0.0)
        swap = swapped(lam, 0, 16)
        a, a_swap = abd_blocks(lam)[0], abd_blocks(swap)[0]
        assert a_swap.tobytes() == a.tobytes()
        report = detectability_report(lam, swap)
        assert report.frequency_change_percent == 0.0
        assert first_ply_failure(swap, design.load)[0] == pytest.approx(
            27.182665772, rel=1e-9)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
