"""Acceptance gate: eight behavioral criteria, one printed line each.

Each test prints ``ACCEPTANCE criterion N (...): PASS|FAIL`` straight to
the terminal (bypassing capture) so a plain ``pytest -v`` run shows the
scoreboard.  The ladder and attack criteria check the package against
the independent brute-force reimplementation in ``ladder_oracle`` —
different formulas, no shared code.

Criterion 6 checks what the two attacks do to the bundled 34-ply design
at target safety factor 1.0.  The focused (type 2) attack succeeds and
leaves a catastrophic ladder.  The spread (type 1) attack exhausts its
budget with a progressive ladder.  That is a property of this design, not
of the strategy: its first 1° step on ply 3 breaks the eight-ply tie, ply
3 stays the only critical ply, and no whole-degree angle of ply 3 alone
reaches the target.  On other progressive designs the spread attack can
succeed and leave a catastrophic ladder (``tests/test_attack.py`` pins
one).
"""

import math
import time

import numpy as np
import pytest

from plytamper.attack import AttackSpec, focused_attack, spread_attack
from plytamper.cli import main as cli_main
from plytamper.clt import (
    Laminate,
    LoadCase,
    MaterialProperties,
    Ply,
    assemble_abd,
    normalize_angle,
    reduced_stiffness,
    transform_stiffness,
)
from plytamper.designfile import load_bundled_design
from plytamper.detect import (
    effective_modulus,
    engineering_constants,
    frequency_change_percent,
    frequency_ratio,
)
from plytamper.failure import (
    _strength_ratios_and_bad,
    simulate_progressive_failure,
)

import ladder_oracle

MAT = MaterialProperties(
    e1=181e9, e2=10.3e9, g12=7.17e9, nu12=0.28,
    sigma1t_ult=1500e6, sigma1c_ult=1500e6,
    sigma2t_ult=40e6, sigma2c_ult=246e6, tau12_ult=68e6,
)
ORACLE_MAT = {
    "e1": 181e9, "e2": 10.3e9, "g12": 7.17e9, "nu12": 0.28,
    "s1t": 1500e6, "s1c": 1500e6, "s2t": 40e6, "s2c": 246e6,
    "t12u": 68e6,
}
PLY_T = 0.125e-3
ANGLE_GRID = [float(a) for a in range(-90, 91, 5)]


def gate(capsys, label, body):
    """Run one criterion and print its verdict on the real terminal."""
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: PASS")


def rel_close(a, b, rel=1e-9):
    return np.allclose(a, b, rtol=rel, atol=0.0)


def gap_of(ladder) -> float:
    first = ladder.first_multiplier
    return (ladder.last_multiplier - first) / first


def assert_ladder_matches_oracle(ladder, lam, load):
    """Compare a ladder rung for rung with the brute-force oracle's."""
    expected = ladder_oracle.failure_ladder(
        ORACLE_MAT, [ply.thickness for ply in lam.plies], list(lam.angles),
        load.n, load.m)
    assert len(ladder.rungs) == len(expected)
    for rung, (mult, plies, flagged) in zip(ladder.rungs, expected):
        assert sorted(rung.failed_plies) == plies
        assert rung.flagged == flagged
        assert math.isclose(rung.force_multiplier, mult, rel_tol=1e-6)


# =============================================================================
# 1. stiffness-transform identities
# =============================================================================

def test_criterion_1_stiffness_identities(capsys):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(20260822)
        q = reduced_stiffness(MAT)

        # zero rotation is the identity
        assert rel_close(transform_stiffness(q, 0.0), q)

        for theta in rng.uniform(-360.0, 360.0, size=200):
            qbar = transform_stiffness(q, theta)
            # rotating the fiber direction by a half turn changes nothing
            assert rel_close(transform_stiffness(q, theta + 180.0), qbar)
            # direct entries are even in the angle, coupling entries odd
            qneg = transform_stiffness(q, -theta)
            for i, j in ((0, 0), (0, 1), (1, 1), (2, 2)):
                assert math.isclose(qneg[i, j], qbar[i, j], rel_tol=1e-9)
            for i, j in ((0, 2), (1, 2)):
                assert math.isclose(qneg[i, j], -qbar[i, j], rel_tol=1e-9,
                                    abs_tol=1e-9 * abs(qbar[0, 0]))

        # mirror-symmetric stacks have no extension-bending coupling
        for _ in range(200):
            half_n = int(rng.integers(1, 6))
            half_angles = rng.choice(ANGLE_GRID, size=half_n)
            half_t = rng.uniform(0.05e-3, 0.3e-3, size=half_n)
            plies = [Ply(float(a), float(t), MAT)
                     for a, t in zip(half_angles, half_t)]
            lam = Laminate(tuple(plies + plies[::-1]))
            abd = assemble_abd(lam)
            scale = np.abs(abd.a).max() * lam.total_thickness
            assert np.abs(abd.b).max() <= 1e-9 * scale

        # extensional stiffness ignores stacking order
        for _ in range(200):
            n = int(rng.integers(2, 9))
            angles = rng.choice(ANGLE_GRID, size=n)
            lam = Laminate.from_angles(MAT, PLY_T, angles)
            perm = rng.permutation(n)
            shuffled = Laminate.from_angles(MAT, PLY_T,
                                            [angles[i] for i in perm])
            assert rel_close(assemble_abd(shuffled).a, assemble_abd(lam).a)

        assert time.perf_counter() - start < 10.0

    gate(capsys, "criterion 1 (stiffness-transform identity suite)", body)


# =============================================================================
# 2. strength-ratio scaling
# =============================================================================

def test_criterion_2_strength_ratio_homogeneity(capsys):
    def body():
        rng = np.random.default_rng(7)
        states = np.array([
            rng.uniform(-1.0, 1.0, size=3) * 10.0 ** rng.uniform(3, 9, size=3)
            for _ in range(1000)])
        # The ratios come from the kernel behind every report.
        tw = Laminate.from_angles(MAT, PLY_T,
                                  [0.0] * len(states)).prepared.tsai_wu
        srs, bad = _strength_ratios_and_bad(states, tw)
        assert bad is None or not bad.any()
        h1, h2, h11, h22, h66, h12 = MAT.tsai_wu.tolist()
        for lam_scale in (0.5, 2.0, 10.0):
            scaled, bad = _strength_ratios_and_bad(states * lam_scale, tw)
            assert bad is None or not bad.any()
            for sr, scaled_sr in zip(srs, scaled):
                assert math.isclose(scaled_sr, sr / lam_scale, rel_tol=1e-9)
        for (s1, s2, t12), sr in zip(states, srs):
            # the Tsai-Wu polynomial and the ratio must tell the same story
            a = h1 * s1 + h2 * s2
            b = (h11 * s1 * s1 + h22 * s2 * s2 + h66 * t12 * t12
                 + 2.0 * h12 * s1 * s2)
            assert (a + b < 1.0) == (sr > 1.0)

    gate(capsys, "criterion 2 (strength-ratio homogeneity, 1000 states)",
         body)


# =============================================================================
# 3. ladder equivalence against the brute-force reimplementation
# =============================================================================

def test_criterion_3_ladder_matches_oracle(capsys):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            angles = [float(rng.choice(ANGLE_GRID)) for _ in range(n)]
            n_load = tuple(float(v) for v in
                           rng.uniform(-1000.0, 1000.0, size=3))
            m_load = tuple(float(v) for v in rng.uniform(-5.0, 5.0, size=3))
            lam = Laminate.from_angles(MAT, PLY_T, angles)
            load = LoadCase(n_load, m_load)
            assert_ladder_matches_oracle(
                simulate_progressive_failure(lam, load), lam, load)
        assert time.perf_counter() - start < 60.0

    gate(capsys, "criterion 3 (ladder oracle, 100 random laminates)", body)


# =============================================================================
# 4. cross-ply ordering
# =============================================================================

def test_criterion_4_cross_ply_two_rungs(capsys):
    def body():
        lam = Laminate.from_angles(MAT, PLY_T, [0, 90, 90, 0])
        ladder = simulate_progressive_failure(
            lam, LoadCase((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
        assert len(ladder.rungs) == 2
        assert sorted(ladder.rungs[0].failed_plies) == [1, 2]
        assert sorted(ladder.rungs[1].failed_plies) == [0, 3]

    gate(capsys, "criterion 4 (cross-ply fails 90s then 0s, two rungs)",
         body)


# =============================================================================
# 5. tamper-search contract on random laminates
# =============================================================================

def _check_success_contract(result, angles, load, attack_type):
    n = len(angles)
    scalar = load.n[0]
    assert len(result.new_angles) == n

    # angle-only modification, consistent bookkeeping (new angles are
    # normalized back into [-90, 90], deltas accumulate raw rotation)
    assert tuple(result.original_angles) == tuple(angles)
    for orig, new, delta in zip(result.original_angles, result.new_angles,
                                result.deltas):
        assert math.isclose(new, normalize_angle(orig + delta),
                            rel_tol=0.0, abs_tol=1e-9)

    # independent re-simulation of the achieved state
    mult, _ = ladder_oracle.first_rung(
        ORACLE_MAT, [PLY_T] * n, list(result.new_angles),
        load.n, load.m)
    assert math.isclose(mult, result.achieved_multiplier, rel_tol=1e-6)
    assert mult * scalar <= (result.target_multiplier * scalar
                             * (1.0 + 1e-9))

    if attack_type == 1:
        # every rotation follows the sign rule and stays within a half turn
        for orig, delta in zip(result.original_angles, result.deltas):
            if delta == 0.0:
                continue
            if orig < 0.0:
                assert delta < 0.0
            else:
                assert delta > 0.0
            assert abs(delta) <= 90.0
    else:
        # each altered ply sits at a 1-degree-grid local minimum
        for i, delta in enumerate(result.deltas):
            if delta == 0.0:
                continue
            here = result.achieved_multiplier
            for step in (-1.0, 1.0):
                probe = list(result.new_angles)
                probe[i] += step
                neighbor, _ = ladder_oracle.first_rung(
                    ORACLE_MAT, [PLY_T] * n, probe, load.n, load.m)
                assert neighbor >= here * (1.0 - 1e-6)


def test_criterion_5_attack_contract_suite(capsys):
    """Contract checks on every successful search over 50 random stacks.

    Angles are drawn near the load axis (±20°): fiber-dominated stacks
    leave headroom for a tamper to remove.  Stacks that already contain
    near-transverse plies sit at the first-failure floor, admit no
    successful tamper, and would make the suite vacuous.
    """
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(55)
        grid = [float(a) for a in range(-20, 21, 5)]
        load = LoadCase((1000.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        successes = 0
        for _ in range(50):
            n = int(rng.integers(8, 35))
            angles = [float(rng.choice(grid)) for _ in range(n)]
            lam = Laminate.from_angles(MAT, PLY_T, angles)
            for target_sf in (1.0, 0.9, 0.8):
                spec = AttackSpec(load, target_sf, design_sf=1.5)
                for attack_type, attack in ((1, spread_attack),
                                            (2, focused_attack)):
                    result = attack(lam, spec)
                    if result.status.value != "success":
                        continue
                    successes += 1
                    _check_success_contract(result, angles, load,
                                            attack_type)
        assert successes > 0  # the contract must not pass vacuously
        assert time.perf_counter() - start < 300.0

    gate(capsys, "criterion 5 (attack contract, 50 random laminates)", body)


# =============================================================================
# 6. bundled design: focused attack catastrophic, spread attack stalls
# =============================================================================

def test_criterion_6_bundled_design_attacks(capsys):
    def body():
        design = load_bundled_design()
        lam = design.laminate()
        spec = AttackSpec(design.load, 1.0, design_sf=design.design_sf)
        original = simulate_progressive_failure(lam, design.load)
        spread = spread_attack(lam, spec)
        focused = focused_attack(lam, spec)
        assert gap_of(original) > 0.5, "original design must be progressive"

        def check_spread():
            # the budget runs out on a best state that moved only plies of
            # the original first-failure group; its ladder is the oracle's
            # and is at least as progressive as the original's
            assert spread.status.value == "budget_exhausted"
            assert spread.achieved_multiplier > spread.target_multiplier
            first_group = set(original.rungs[0].failed_plies)
            altered = {i for i, d in enumerate(spread.deltas) if d != 0.0}
            assert altered and altered <= first_group
            assert_ladder_matches_oracle(
                spread.ladder, lam.with_angles(spread.new_angles),
                design.load)
            assert gap_of(spread.ladder) >= gap_of(original)

        def check_focused():
            # meets the target and leaves a catastrophic ladder
            assert focused.status.value == "success"
            assert gap_of(focused.ladder) < 0.05

        # both halves always run, so a failure in one cannot hide the other
        failures = []
        for name, check in (("type 1", check_spread),
                            ("type 2", check_focused)):
            try:
                check()
            except AssertionError as exc:
                failures.append(f"{name}: {exc}")
        assert not failures, "\n".join(failures)

    gate(capsys,
         "criterion 6 (bundled 34-ply: type 2 catastrophic, type 1 "
         "budget-exhausted and progressive)", body)


# =============================================================================
# 7. detectability arithmetic
# =============================================================================

def test_criterion_7_detectability_arithmetic(capsys):
    def body():
        rng = np.random.default_rng(77)
        for _ in range(100):
            e = 10.0 ** rng.uniform(9, 12)
            ratio = rng.uniform(0.3, 1.5)
            assert math.isclose(frequency_ratio(e, ratio * e),
                                math.sqrt(1.0 / ratio), rel_tol=1e-9)
        e = 70e9
        assert math.isclose(frequency_change_percent(e, 0.81 * e), 10.0,
                            rel_tol=1e-9)
        assert math.isclose(frequency_change_percent(e, 0.9216 * e), 4.0,
                            rel_tol=1e-9)

        ec0 = engineering_constants(Laminate.from_angles(MAT, PLY_T, [0]))
        ec90 = engineering_constants(Laminate.from_angles(MAT, PLY_T, [90]))
        assert math.isclose(ec0.exx, MAT.e1, rel_tol=1e-9)
        assert math.isclose(ec90.exx, MAT.e2, rel_tol=1e-9)

    gate(capsys, "criterion 7 (stiffness/frequency arithmetic)", body)


# =============================================================================
# 8. byte-level determinism of the command line
# =============================================================================

def _strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if '"generated_at"' not in line)


def test_criterion_8_deterministic_reports(capsys, tmp_path):
    def body():
        import yaml
        doc = {
            "schema_version": 1,
            "materials": {"graphite_epoxy": {
                "e1": {"value": 181e9, "unit": "Pa"},
                "e2": {"value": 10.3e9, "unit": "Pa"},
                "g12": {"value": 7.17e9, "unit": "Pa"},
                "nu12": {"value": 0.28, "unit": "-"},
                "sigma1t_ult": {"value": 1500e6, "unit": "Pa"},
                "sigma1c_ult": {"value": 1500e6, "unit": "Pa"},
                "sigma2t_ult": {"value": 40e6, "unit": "Pa"},
                "sigma2c_ult": {"value": 246e6, "unit": "Pa"},
                "tau12_ult": {"value": 68e6, "unit": "Pa"},
            }},
            "layup": [
                {"angle": {"value": a, "unit": "deg"},
                 "thickness": {"value": 0.000125, "unit": "m"},
                 "material": "graphite_epoxy"}
                for a in (0.0, 90.0, 90.0, 0.0)
            ],
            "load": {"n": {"value": [1000.0, 0.0, 0.0], "unit": "N/m"}},
            "safety": {"design_sf": 1.5, "target_sf": [1.0]},
        }
        design = tmp_path / "design.yaml"
        with open(design, "w", encoding="utf-8") as handle:
            yaml.safe_dump(doc, handle, sort_keys=False)

        def run_all(tag):
            base = tmp_path / tag
            base.mkdir()
            outputs = {}
            assert cli_main(["analyze", str(design),
                             "-o", str(base / "analysis.json")]) == 0
            cli_main(["attack", str(design), "--type", "2",
                      "-o", str(base / "attack.json")])
            assert cli_main(["detect", str(design), str(design),
                             "-o", str(base / "detect.json")]) == 0
            assert cli_main(["export-ladder", str(base / "analysis.json"),
                             "-o", str(base / "ladder.csv")]) == 0
            for name in ("analysis.json", "attack.json", "detect.json",
                         "attack.tampered-type2-sf1.yaml"):
                outputs[name] = _strip_timestamp(
                    (base / name).read_text(encoding="utf-8"))
            outputs["ladder.csv"] = (base / "ladder.csv").read_text(
                encoding="utf-8")
            return outputs

        first = run_all("run1")
        second = run_all("run2")
        capsys.readouterr()
        assert first == second

    gate(capsys, "criterion 8 (re-runs byte-identical minus timestamp)",
         body)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
