"""Reading and writing laminate design files.

A design file is a YAML document that names its materials, lists the
layup top to bottom, and states the applied load and the safety factors
the design was sized for.  Every physical quantity is a ``{value, unit}``
pair and units are converted to SI on load; material datasheets mix GPa
and MPa freely, and making the unit explicit per field is the cheapest
insurance against silent order-of-magnitude bugs.

The schema is versioned through a required top-level ``schema_version``
key.  Version 1 looks like::

    schema_version: 1
    materials:
      graphite_epoxy:
        e1:  {value: 181.0, unit: GPa}
        e2:  {value: 10.3, unit: GPa}
        g12: {value: 7.17, unit: GPa}
        nu12: {value: 0.28, unit: "-"}
        sigma1t_ult: {value: 1500.0, unit: MPa}
        sigma1c_ult: {value: 1500.0, unit: MPa}
        sigma2t_ult: {value: 40.0, unit: MPa}
        sigma2c_ult: {value: 246.0, unit: MPa}
        tau12_ult:   {value: 68.0, unit: MPa}
    layup:
      - {angle: {value: 0.0, unit: deg},
         thickness: {value: 0.125, unit: mm},
         material: graphite_epoxy}
    load:
      n: {value: [1.0, 0.0, 0.0], unit: N/m}
      m: {value: [0.0, 0.0, 0.0], unit: N}
    safety:
      design_sf: 1.5
      target_sf: [1.0, 0.9, 0.8]

Safety factors are dimensionless ratios and are written as plain
numbers.  ``load.m`` may be omitted and defaults to zero.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path

import yaml

from plytamper.clt import Laminate, LoadCase, MaterialProperties, Ply

SCHEMA_VERSION = 1


class DesignError(ValueError):
    """A design file is malformed or violates a schema invariant."""


# Unit tables: unit string -> multiplier into the SI base unit used
# internally (Pa, m, deg, N/m, N).  Angles are kept in degrees because
# every interface of the package speaks degrees.
_STRESS_UNITS = {"Pa": 1.0, "kPa": 1e3, "MPa": 1e6, "GPa": 1e9}
_LENGTH_UNITS = {"m": 1.0, "mm": 1e-3}
_ANGLE_UNITS = {"deg": 1.0, "rad": 180.0 / math.pi}
_LINE_FORCE_UNITS = {"N/m": 1.0, "N/mm": 1e3, "kN/m": 1e3}
_LINE_MOMENT_UNITS = {"N": 1.0, "N*m/m": 1.0, "kN": 1e3}
_RATIO_UNITS = {"-": 1.0, "1": 1.0}

_MATERIAL_FIELDS = (
    ("e1", _STRESS_UNITS),
    ("e2", _STRESS_UNITS),
    ("g12", _STRESS_UNITS),
    ("nu12", _RATIO_UNITS),
    ("sigma1t_ult", _STRESS_UNITS),
    ("sigma1c_ult", _STRESS_UNITS),
    ("sigma2t_ult", _STRESS_UNITS),
    ("sigma2c_ult", _STRESS_UNITS),
    ("tau12_ult", _STRESS_UNITS),
)


@dataclass(frozen=True)
class PlyRecord:
    """One layup line: orientation, thickness (m), material name."""

    angle_deg: float
    thickness: float
    material: str


@dataclass(frozen=True)
class DesignFile:
    """A fully validated design: everything needed to run an analysis.

    All quantities are SI (Pa, m, N/m, N) with angles in degrees.
    ``materials`` maps names to properties; each layup record references
    one of those names.
    """

    materials: dict[str, MaterialProperties]
    layup: tuple[PlyRecord, ...]
    load: LoadCase
    design_sf: float
    target_sf: tuple[float, ...]

    def laminate(self) -> Laminate:
        """Materialize the layup as a :class:`Laminate`."""
        return Laminate(tuple(
            Ply(rec.angle_deg, rec.thickness, self.materials[rec.material])
            for rec in self.layup))

    def angles(self) -> tuple[float, ...]:
        return tuple(rec.angle_deg for rec in self.layup)

    def with_layup_angles(self, angles_deg) -> "DesignFile":
        """Copy of this design with ply angles replaced, all else kept."""
        angles = tuple(float(a) for a in angles_deg)
        if len(angles) != len(self.layup):
            raise ValueError(
                f"expected {len(self.layup)} angles, got {len(angles)}")
        layup = tuple(PlyRecord(a, rec.thickness, rec.material)
                      for a, rec in zip(angles, self.layup))
        return DesignFile(dict(self.materials), layup, self.load,
                          self.design_sf, self.target_sf)


# =====================================================================
# Parsing
# =====================================================================

def _mapping(node, path: str, allowed=None, required=(),
             extra_label="unexpected key(s)") -> dict:
    """``node`` checked to be a mapping, to hold no key outside
    ``allowed`` (any key if ``None``) and to hold every ``required`` key,
    in that order."""
    if not isinstance(node, dict):
        raise DesignError(f"{path}: expected a mapping, got "
                          f"{type(node).__name__}")
    extra = set() if allowed is None else set(node) - set(allowed)
    if extra:
        raise DesignError(f"{path}: {extra_label}: "
                          f"{', '.join(sorted(map(str, extra)))}")
    for key in required:
        if key not in node:
            raise DesignError(f"{path}.{key}: missing")
    return node


def _exponent_hint(node) -> str:
    """Advice for an exponent float that YAML 1.1 resolved as a string.

    The resolver wants a dot in the mantissa and a sign in the exponent:
    ``1.25e-4`` is a float, ``125e-6`` and ``1.0e3`` are strings.
    """
    if not isinstance(node, str) or "e" not in node.lower():
        return ""
    try:
        float(node)
    except ValueError:
        return ""
    return (f" ({node!r}); write exponent floats with a dot in the "
            f"mantissa and a sign in the exponent, e.g. 1.25e-4")


def _number(node, path: str) -> float:
    # bool is an int subclass; a bare "true" in a numeric slot is a typo
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise DesignError(f"{path}: expected a number, got "
                          f"{type(node).__name__}{_exponent_hint(node)}")
    try:
        value = float(node)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise DesignError(f"{path}: expected a finite number, got {node!r}")
    return value


def _scaled(node, factor: float, path: str) -> float:
    """A finite number converted to SI by ``factor``."""
    value = _number(node, path) * factor
    if not math.isfinite(value):
        raise DesignError(f"{path}: {node!r} is out of range in SI units")
    return value


def _unit_factor(node, units: dict, path: str) -> float:
    unit = node.get("unit")
    if not isinstance(unit, str):
        raise DesignError(f"{path}.unit: expected a unit string")
    if unit not in units:
        allowed = ", ".join(sorted(units))
        raise DesignError(f"{path}.unit: unknown unit {unit!r} "
                          f"(expected one of: {allowed})")
    return units[unit]


def _quantity(node, units: dict, path: str) -> float:
    """Parse a ``{value, unit}`` node into the SI base unit."""
    node = _mapping(node, path, ("value", "unit"), required=("value",))
    return _scaled(node["value"], _unit_factor(node, units, path),
                   f"{path}.value")


def _vector_quantity(node, units: dict, path: str) -> tuple[float, ...]:
    """Parse a ``{value: [..3 numbers..], unit}`` node."""
    node = _mapping(node, path, ("value", "unit"))
    value = node.get("value")
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise DesignError(f"{path}.value: expected a list of 3 numbers")
    factor = _unit_factor(node, units, path)
    return tuple(_scaled(v, factor, f"{path}.value[{i}]")
                 for i, v in enumerate(value))


def _parse_material(node, path: str) -> MaterialProperties:
    # No required=: a missing field is reported in field order, after
    # the faults of the fields parsed before it.
    node = _mapping(node, path, [name for name, _ in _MATERIAL_FIELDS],
                    extra_label="unknown field(s)")
    values = {}
    for name, units in _MATERIAL_FIELDS:
        if name not in node:
            raise DesignError(f"{path}.{name}: missing")
        values[name] = _quantity(node[name], units, f"{path}.{name}")
    try:
        return MaterialProperties(**values)
    except ValueError as exc:
        raise DesignError(f"{path}: {exc}") from exc


def _parse_ply(node, materials: dict, index: int) -> PlyRecord:
    path = f"layup[{index}]"
    keys = ("angle", "thickness", "material")
    node = _mapping(node, path, keys, required=keys)
    name = node["material"]
    if not isinstance(name, str):
        raise DesignError(f"{path}.material: expected a material name")
    if name not in materials:
        raise DesignError(f"{path}.material: unknown material {name!r}")
    angle = _quantity(node["angle"], _ANGLE_UNITS, f"{path}.angle")
    thickness = _quantity(node["thickness"], _LENGTH_UNITS,
                          f"{path}.thickness")
    if not thickness > 0.0:
        raise DesignError(f"{path}.thickness: must be positive")
    return PlyRecord(angle, thickness, name)


def parse_design(doc) -> DesignFile:
    """Validate a loaded YAML document and build a :class:`DesignFile`.

    Raises
    ------
    DesignError
        On any structural or semantic problem; the message names the
        offending field path (e.g. ``layup[3].material``).
    """
    doc = _mapping(doc, "design", ("schema_version", "materials", "layup",
                                   "load", "safety"))

    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DesignError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    materials_node = _mapping(doc.get("materials"), "materials")
    if not materials_node:
        raise DesignError("materials: at least one material is required")
    materials = {}
    for name, node in materials_node.items():
        if not isinstance(name, str):
            raise DesignError(f"materials: material names must be "
                              f"strings, got {name!r}")
        materials[name] = _parse_material(node, f"materials.{name}")

    layup_node = doc.get("layup")
    if not isinstance(layup_node, list) or not layup_node:
        raise DesignError("layup: expected a non-empty list of plies")
    layup = tuple(_parse_ply(node, materials, i)
                  for i, node in enumerate(layup_node))

    load_node = _mapping(doc.get("load"), "load", ("n", "m"),
                         required=("n",))
    n = _vector_quantity(load_node["n"], _LINE_FORCE_UNITS, "load.n")
    if "m" in load_node:
        m = _vector_quantity(load_node["m"], _LINE_MOMENT_UNITS, "load.m")
    else:
        m = (0.0, 0.0, 0.0)

    safety_node = _mapping(doc.get("safety"), "safety",
                           ("design_sf", "target_sf"), required=("design_sf",))
    design_sf = _number(safety_node["design_sf"], "safety.design_sf")
    if not design_sf > 0.0:
        raise DesignError("safety.design_sf: must be positive")
    targets_node = safety_node.get("target_sf", [])
    if not isinstance(targets_node, list):
        raise DesignError("safety.target_sf: expected a list of numbers")
    target_sf = tuple(_number(v, f"safety.target_sf[{i}]")
                      for i, v in enumerate(targets_node))
    for i, value in enumerate(target_sf):
        if not value > 0.0:
            raise DesignError(f"safety.target_sf[{i}]: must be positive")

    return DesignFile(materials, layup, LoadCase(n, m), design_sf,
                      target_sf)


def load_design(path) -> DesignFile:
    """Read and validate a design file.

    YAML syntax errors are re-raised as :class:`DesignError` with the
    parser's line/column diagnostics; missing files raise ``OSError``.
    The libyaml-backed loader is used when PyYAML was built with it; it
    shares the pure-Python loader's resolver and constructor, so both
    give the same values.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        doc = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise DesignError(f"{path}: invalid YAML: {exc}") from exc
    return parse_design(doc)


# =====================================================================
# Serialization
# =====================================================================

def _si_quantity(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def design_to_mapping(design: DesignFile) -> dict:
    """Render a design back to the schema-v1 mapping, in SI units.

    Values are written in the base units (Pa, m, deg, N/m, N) so a
    round trip through :func:`parse_design` reproduces the exact same
    floats: every conversion factor on the way back in is 1.0.
    """
    materials = {}
    for name, mat in design.materials.items():
        fields = {}
        for field_name, units in _MATERIAL_FIELDS:
            unit = "-" if units is _RATIO_UNITS else "Pa"
            fields[field_name] = _si_quantity(getattr(mat, field_name),
                                              unit)
        materials[name] = fields
    layup = [{"angle": _si_quantity(rec.angle_deg, "deg"),
              "thickness": _si_quantity(rec.thickness, "m"),
              "material": rec.material}
             for rec in design.layup]
    return {
        "schema_version": SCHEMA_VERSION,
        "materials": materials,
        "layup": layup,
        "load": {
            "n": {"value": list(design.load.n), "unit": "N/m"},
            "m": {"value": list(design.load.m), "unit": "N"},
        },
        "safety": {
            "design_sf": design.design_sf,
            "target_sf": list(design.target_sf),
        },
    }


def save_design(design: DesignFile, path) -> None:
    """Write a design file that :func:`load_design` reads back equal;
    the text is serialized before the file is opened."""
    text = yaml.safe_dump(design_to_mapping(design), sort_keys=False,
                          default_flow_style=False)
    write_text(path, text)


def write_text(path, text: str, newline: str | None = None) -> None:
    """Write ``text`` (UTF-8) to ``path`` as :func:`open` would, but a
    regular file (a symlink's target) is replaced in one step: the text
    goes to a new file beside it, with the mode ``open`` gives, which an
    error removes, leaving ``path`` as it was. ``/dev/null``, a FIFO and
    other non-regular targets are written through, as ``open`` does."""
    path = Path(os.path.realpath(path))
    mode = path.stat().st_mode if path.exists() else None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline=newline) as handle:
            handle.write(text)
        return
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as handle:
            handle.write(text)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# =====================================================================
# Bundled example design
# =====================================================================

def bundled_design_path() -> Path:
    """Path to the bundled 34-ply demonstration design.

    A ``[45/-45/45/-45/0_13]s`` graphite/epoxy stack under a 100 kN/m
    axial running load, sized to a design safety factor of 1.3.  It is
    an illustrative wing-spar-style layup assembled for the examples
    and tests — not a published or flight-certified design.
    """
    return Path(__file__).resolve().parent / "data" / "spar34.yaml"


def load_bundled_design() -> DesignFile:
    """Load the bundled demonstration design (see :func:`bundled_design_path`)."""
    return load_design(bundled_design_path())
