"""The package's public names: a change to this list is a change to the API."""

import plytamper

PUBLIC_NAMES = [
    "ATTACK_TYPES", "AbdMatrices", "AttackResult", "AttackSpec",
    "AttackStatus", "DesignError", "DesignFile", "DetectabilityReport",
    "EngineeringConstants", "FailureLadder", "FailureMode", "FailureRung",
    "Laminate", "LaminateSingularError", "LoadCase", "MaterialProperties",
    "Ply", "PlyRecord", "StrengthRatioRootError", "TsaiWuParams",
    "assemble_abd", "bundled_design_path", "classify_failure_mode",
    "design_to_mapping", "detectability_report", "effective_modulus",
    "engineering_constants", "first_ply_failure", "focused_attack",
    "frequency_ratio", "load_bundled_design", "load_design",
    "middle_out_order", "normalize_angle", "parse_design", "save_design",
    "ply_z_planes", "reduced_stiffness", "simulate_progressive_failure",
    "spread_attack", "target_force", "transform_stiffness",
    "tsai_wu_params",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 43
    assert sorted(plytamper.__all__) == sorted(PUBLIC_NAMES + ["__version__"])
    for name in plytamper.__all__:
        assert getattr(plytamper, name) is not None, name
