"""Laminate failure analysis and ply-orientation tamper search.

The package answers three questions about a fiber-composite layup:

1. How does it fail? (``plytamper.failure`` — progressive ply-failure
   ladders built on classical laminate theory and Tsai-Wu.)
2. How could someone degrade it by re-orienting plies during layup, and
   what is the smallest such change? (``plytamper.attack`` — two greedy
   search strategies with different footprints.)
3. Would the tampering show up in stiffness or resonance measurements?
   (``plytamper.detect``.)

The ``plytamper`` command-line tool drives all three from YAML design
files; see the README for the file formats.
"""

from plytamper.attack import (
    ATTACK_TYPES,
    AttackResult,
    AttackSpec,
    AttackStatus,
    focused_attack,
    middle_out_order,
    spread_attack,
    target_force,
)
from plytamper.clt import (
    AbdMatrices,
    Laminate,
    LaminateSingularError,
    LoadCase,
    MaterialProperties,
    Ply,
    StrengthRatioRootError,
    TsaiWuParams,
    assemble_abd,
    normalize_angle,
    ply_z_planes,
    reduced_stiffness,
    transform_stiffness,
    tsai_wu_params,
)
from plytamper.designfile import (
    DesignError,
    DesignFile,
    PlyRecord,
    bundled_design_path,
    design_to_mapping,
    load_bundled_design,
    load_design,
    parse_design,
    save_design,
)
from plytamper.detect import (
    DetectabilityReport,
    EngineeringConstants,
    detectability_report,
    effective_modulus,
    engineering_constants,
    frequency_ratio,
)
from plytamper.failure import (
    FailureLadder,
    FailureMode,
    FailureRung,
    classify_failure_mode,
    first_ply_failure,
    simulate_progressive_failure,
)

__version__ = "0.1.0"

__all__ = [
    "ATTACK_TYPES",
    "AbdMatrices",
    "AttackResult",
    "AttackSpec",
    "AttackStatus",
    "DesignError",
    "DesignFile",
    "DetectabilityReport",
    "EngineeringConstants",
    "FailureLadder",
    "FailureMode",
    "FailureRung",
    "Laminate",
    "LaminateSingularError",
    "LoadCase",
    "MaterialProperties",
    "Ply",
    "PlyRecord",
    "StrengthRatioRootError",
    "TsaiWuParams",
    "assemble_abd",
    "bundled_design_path",
    "classify_failure_mode",
    "design_to_mapping",
    "detectability_report",
    "effective_modulus",
    "engineering_constants",
    "first_ply_failure",
    "focused_attack",
    "frequency_ratio",
    "load_bundled_design",
    "load_design",
    "middle_out_order",
    "normalize_angle",
    "parse_design",
    "save_design",
    "ply_z_planes",
    "reduced_stiffness",
    "simulate_progressive_failure",
    "spread_attack",
    "target_force",
    "transform_stiffness",
    "tsai_wu_params",
    "__version__",
]
