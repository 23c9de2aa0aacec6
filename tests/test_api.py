"""The package's public API: its pinned names, and the README examples.

A change to the name list is a change to the API.
"""

import re
import shlex
import shutil
from pathlib import Path

import plytamper
from plytamper.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "ATTACK_TYPES", "AttackResult", "AttackSpec", "AttackStatus",
    "DesignError", "DesignFile", "DetectabilityReport",
    "EngineeringConstants", "FailureLadder", "FailureMode", "FailureRung",
    "Laminate", "LaminateSingularError", "LoadCase", "MaterialProperties",
    "Ply", "PlyRecord", "StrengthRatioRootError",
    "bundled_design_path", "classify_failure_mode", "design_to_mapping",
    "detectability_report", "effective_modulus", "engineering_constants",
    "first_ply_failure", "focused_attack", "frequency_ratio",
    "load_bundled_design", "load_design", "middle_out_order",
    "normalize_angle", "parse_design", "save_design", "reduced_stiffness",
    "simulate_progressive_failure", "spread_attack", "target_force",
    "transform_stiffness",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 38
    assert sorted(plytamper.__all__) == sorted(PUBLIC_NAMES + ["__version__"])
    for name in plytamper.__all__:
        assert getattr(plytamper, name) is not None, name


def test_readme_python_example_runs(capsys):
    """The README's ``python`` block runs as written."""
    (example,) = re.findall(r"^```python\n(.*?)^```",
                            README.read_text(encoding="utf-8"),
                            re.MULTILINE | re.DOTALL)
    exec(compile(example, "README.md", "exec"), {})
    assert "AttackStatus" in capsys.readouterr().out


def test_readme_console_transcripts(tmp_path, monkeypatch, capsys):
    """The README's ``console`` blocks, run in order on a copy of the
    bundled design (``detect`` reads the attack's tampered file): each
    command exits 0 and prints every shown line that does not elide
    with ``...``, surrounding whitespace stripped."""
    blocks = re.findall(r"^```console\n(.*?)^```",
                        README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    shutil.copy(plytamper.bundled_design_path(), tmp_path / "spar34.yaml")
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        command, *shown = block.splitlines()
        assert command.startswith("$ plytamper ")
        assert main(shlex.split(command)[2:]) == 0, command
        printed = {line.strip()
                   for line in capsys.readouterr().out.splitlines()}
        for line in shown:
            if "..." not in line:
                assert line.strip() in printed, (command, line)
