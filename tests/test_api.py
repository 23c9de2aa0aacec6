"""The package's public API: its pinned names, and the README example.

A change to the name list is a change to the API.
"""

import re
from pathlib import Path

import plytamper

PUBLIC_NAMES = [
    "ATTACK_TYPES", "AbdMatrices", "AttackResult", "AttackSpec",
    "AttackStatus", "DesignError", "DesignFile", "DetectabilityReport",
    "EngineeringConstants", "FailureLadder", "FailureMode", "FailureRung",
    "Laminate", "LaminateSingularError", "LoadCase", "MaterialProperties",
    "Ply", "PlyRecord", "StrengthRatioRootError", "assemble_abd",
    "bundled_design_path", "classify_failure_mode", "design_to_mapping",
    "detectability_report", "effective_modulus", "engineering_constants",
    "first_ply_failure", "focused_attack", "frequency_ratio",
    "load_bundled_design", "load_design", "middle_out_order",
    "normalize_angle", "parse_design", "save_design", "reduced_stiffness",
    "simulate_progressive_failure", "spread_attack", "target_force",
    "transform_stiffness",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 40
    assert sorted(plytamper.__all__) == sorted(PUBLIC_NAMES + ["__version__"])
    for name in plytamper.__all__:
        assert getattr(plytamper, name) is not None, name


def test_readme_python_example_runs(capsys):
    """The README's ``python`` block runs as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```", readme,
                            re.MULTILINE | re.DOTALL)
    exec(compile(example, "README.md", "exec"), {})
    assert "AttackStatus" in capsys.readouterr().out
