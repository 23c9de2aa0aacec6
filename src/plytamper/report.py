"""Run reports: deterministic JSON, aligned text tables, ladder CSV.

Every command writes one JSON report (sorted keys, two-space indent) and
prints an aligned plain-text rendering of the same content.  The JSON
carries a ``generated_at`` timestamp on its own line; with that single
line ignored, re-running a command on the same inputs reproduces the
file byte for byte.  Plotting is delegated to a CSV export with one row
per (rung, failed ply).
"""

from __future__ import annotations

import csv
import io
import json
import math
from datetime import datetime, timezone

from plytamper import __version__
from plytamper.attack import AttackResult
from plytamper.designfile import write_text
from plytamper.detect import DetectabilityReport, EngineeringConstants
from plytamper.failure import (
    GAP_RATIO_THRESHOLD,
    FailureLadder,
    classify_failure_mode,
)

REPORT_SCHEMA_VERSION = 1


def _finite_or_none(value: float):
    return value if math.isfinite(value) else None


# =====================================================================
# JSON blocks
# =====================================================================

def ladder_block(ladder: FailureLadder,
                 gap_ratio_threshold: float = GAP_RATIO_THRESHOLD) -> dict:
    """Render a failure ladder as a JSON-ready mapping.

    Forces are reported along the load's dominant axis; plies with no
    stress (and therefore an unbounded strength ratio) appear as null in
    ``initial_strength_ratios``.
    """
    axis, scalar = ladder.load.dominant_axis()
    mode = classify_failure_mode(ladder, gap_ratio_threshold)
    rungs = []
    cumulative = 0
    for rung in ladder.rungs:
        cumulative += len(rung.failed_plies)
        rungs.append({
            "force_multiplier": rung.force_multiplier,
            "force": rung.force_multiplier * scalar,
            "failed_plies": sorted(rung.failed_plies),
            "cumulative_failed": cumulative,
            "flagged": rung.flagged,
        })
    return {
        "load": {"n": list(ladder.load.n), "m": list(ladder.load.m)},
        "dominant_axis": axis,
        "failure_mode": mode.value,
        "gap_ratio_threshold": gap_ratio_threshold,
        "initial_strength_ratios": [
            _finite_or_none(v) for v in ladder.sr_history[0]],
        "rungs": rungs,
    }


def attack_block(result: AttackResult,
                 gap_ratio_threshold: float = GAP_RATIO_THRESHOLD) -> dict:
    """Render one attack run (one strategy, one target) for the report.

    Safety factors come from ``result.spec``; forces are multipliers
    times the load's dominant component, as in :func:`ladder_block`.
    """
    spec = result.spec
    _, scalar = spec.load.dominant_axis()
    return {
        "attack_type": result.attack_type,
        "status": result.status.value,
        "design_sf": spec.design_sf,
        "target_sf": spec.target_sf,
        "original_angles_deg": list(result.original_angles),
        "new_angles_deg": list(result.new_angles),
        "deltas_deg": list(result.deltas),
        "altered_plies": result.altered_count,
        "unaltered_plies": len(result.deltas) - result.altered_count,
        "max_positive_deviation_deg": result.max_pos_dev,
        "max_negative_deviation_deg": result.max_neg_dev,
        "original_multiplier": result.original_multiplier,
        "target_multiplier": result.target_multiplier,
        "achieved_multiplier": result.achieved_multiplier,
        "original_critical_force": result.original_multiplier * scalar,
        "target_critical_force": result.target_multiplier * scalar,
        "achieved_critical_force": result.achieved_multiplier * scalar,
        "evaluations": result.evaluations,
        "sweeps": result.sweeps,
        "tampered_ladder": ladder_block(result.ladder,
                                        gap_ratio_threshold),
    }


def _constants_block(ec: EngineeringConstants) -> dict:
    return {
        "exx": ec.exx,
        "eyy": ec.eyy,
        "gxy": ec.gxy,
        "nu_yx": ec.nu_yx,
        "thickness": ec.thickness,
        "has_coupling": ec.has_coupling,
    }


def detect_block(report: DetectabilityReport) -> dict:
    return {
        "original_constants": _constants_block(report.original),
        "attacked_constants": _constants_block(report.attacked),
        "e_effective_original": report.e_effective_original,
        "e_effective_attacked": report.e_effective_attacked,
        "frequency_ratio": report.frequency_ratio,
        "frequency_change_percent": report.frequency_change_percent,
    }


def make_report(command: str, inputs: dict, body: dict) -> dict:
    """Assemble the full report envelope around a command's body.

    ``inputs`` echoes the parsed design file(s) (already unit-normalized
    to SI) so a report is self-contained.
    """
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": "plytamper",
        "tool_version": __version__,
        "generated_at": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "command": command,
        "inputs": inputs,
    }
    report.update(body)
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_report(report: dict, path) -> None:
    """Write the report as JSON; an unserializable one writes nothing."""
    write_text(path, report_to_json(report))


def load_report(path) -> dict:
    """Read a report written by :func:`write_report`.

    Text that is not UTF-8 or not JSON raises ``OSError`` naming the
    file, as a missing file does.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise OSError(f"{path}: invalid JSON: {exc}") from exc


# =====================================================================
# Text rendering
# =====================================================================

def _ladder_lines(block: dict, indent: str = "") -> list[str]:
    axis = block["dominant_axis"]
    lines = [
        f"{indent}{'rung':>4} {'multiplier':>16} {f'force ({axis})':>16} "
        f"{'cumulative':>10}  plies failed",
    ]
    for i, rung in enumerate(block["rungs"]):
        plies = ",".join(str(p) for p in rung["failed_plies"])
        flag = "  [stack collapsed]" if rung["flagged"] else ""
        lines.append(
            f"{indent}{i:>4} {rung['force_multiplier']:>16.10g} "
            f"{rung['force']:>16.10g} {rung['cumulative_failed']:>10}  "
            f"{plies}{flag}")
    lines.append(f"{indent}failure mode : {block['failure_mode']} "
                 f"(gap ratio threshold "
                 f"{block['gap_ratio_threshold']:g})")
    return lines


def _design_echo_lines(design_map: dict, label: str) -> list[str]:
    layup = design_map["layup"]
    total = sum(p["thickness"]["value"] for p in layup)
    angles = ", ".join(f"{p['angle']['value']:g}" for p in layup)
    n = design_map["load"]["n"]["value"]
    m = design_map["load"]["m"]["value"]
    return [
        f"{label} : {len(layup)} plies, total thickness {total:.10g} m",
        f"  angles (deg) : [{angles}]",
        f"  load n (N/m) : ({n[0]:g}, {n[1]:g}, {n[2]:g})   "
        f"m (N) : ({m[0]:g}, {m[1]:g}, {m[2]:g})",
    ]


def _attack_lines(block: dict) -> list[str]:
    lines = [
        f"attack type      : {block['attack_type']}",
        f"status           : {block['status']}",
        f"design sf        : {block['design_sf']:g}",
        f"target sf        : {block['target_sf']:g}",
        f"plies            : {len(block['deltas_deg'])}",
        f"altered          : {block['altered_plies']}",
        f"unaltered        : {block['unaltered_plies']}",
        f"max pos deviation: {block['max_positive_deviation_deg']:.10g}",
        f"max neg deviation: {block['max_negative_deviation_deg']:.10g}",
        f"original force   : {block['original_critical_force']:.10g}",
        f"target force     : {block['target_critical_force']:.10g}",
        f"achieved force   : {block['achieved_critical_force']:.10g}",
        f"{'ply':>4} {'original':>12} {'new':>12} {'delta':>12}",
    ]
    rows = zip(block["original_angles_deg"], block["new_angles_deg"],
               block["deltas_deg"])
    for i, (old, new, delta) in enumerate(rows):
        lines.append(f"{i:>4} {old:>12.10g} {new:>12.10g} "
                     f"{delta:>+12.10g}")
    lines.append("tampered-design failure ladder:")
    lines.extend(_ladder_lines(block["tampered_ladder"], indent="  "))
    return lines


def _constants_lines(block: dict, label: str) -> list[str]:
    coupling = "yes" if block["has_coupling"] else "no"
    return [
        f"{label}:",
        f"  Exx   : {block['exx']:.10g} Pa",
        f"  Eyy   : {block['eyy']:.10g} Pa",
        f"  Gxy   : {block['gxy']:.10g} Pa",
        f"  nu_yx : {block['nu_yx']:.10g}",
        f"  extension-bending coupling : {coupling}",
    ]


def render_report_text(report: dict) -> str:
    """Aligned plain-text rendering of a report (no timestamp)."""
    command = report["command"]
    lines = [f"plytamper {report['tool_version']} — {command}"]
    for label, design_map in report["inputs"].items():
        lines.extend(_design_echo_lines(design_map, label))
    if command == "analyze":
        lines.append("failure ladder:")
        lines.extend(_ladder_lines(report["analysis"]["ladder"]))
    elif command == "attack":
        for i, block in enumerate(report["attacks"]):
            lines.append(f"--- attack run {i + 1} of "
                         f"{len(report['attacks'])} ---")
            lines.extend(_attack_lines(block))
    elif command == "detect":
        block = report["detectability"]
        lines.extend(_constants_lines(block["original_constants"],
                                      "original laminate"))
        lines.extend(_constants_lines(block["attacked_constants"],
                                      "attacked laminate"))
        lines.append(f"effective membrane modulus : "
                     f"{block['e_effective_original']:.10g} -> "
                     f"{block['e_effective_attacked']:.10g} Pa")
        lines.append(f"frequency ratio (orig/attacked) : "
                     f"{block['frequency_ratio']:.10g}")
        lines.append(f"frequency change : "
                     f"{block['frequency_change_percent']:.10g} %")
    return "\n".join(lines) + "\n"


# =====================================================================
# CSV export
# =====================================================================

CSV_COLUMNS = ("source", "rung", "force_multiplier", "force",
               "failed_ply", "cumulative_failed", "flagged")

#: The scalar fields of a rung that the CSV copies, with their kinds.
_RUNG_FIELDS = (("force_multiplier", "a finite number"),
                ("force", "a finite number"),
                ("cumulative_failed", "an integer"), ("flagged", "a boolean"))

#: Report field checks, keyed by the phrase their error message uses.
#: JSON values have exact types, so ``type`` keeps booleans out of numbers.
_KINDS = {"an object": (dict,), "an array": (list,),
          "a finite number": (int, float), "an integer": (int,),
          "a boolean": (bool,)}


def _check(value, field: str, kind: str):
    """``value``; ValueError naming ``field`` unless it is ``kind``.

    ``json.load`` reads ``NaN`` and ``Infinity``, which no report field
    may hold, so a float must also be finite.
    """
    if type(value) not in _KINDS[kind] or (
            type(value) is float and not math.isfinite(value)):
        raise ValueError(f"report field {field} must be {kind}")
    return value


def _get(block, where: str, key: str, kind: str):
    """``block[key]`` checked as :func:`_check`; absent fails the check."""
    value = block.get(key) if isinstance(block, dict) else None
    return _check(value, where + key, kind)


def _report_ladders(report) -> list[tuple[str, dict, str]]:
    """All (source label, ladder block, field path) triples of a report."""
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    ladders = []
    if "analysis" in report:
        ladder = _get(report["analysis"], "analysis.", "ladder", "an object")
        ladders.append(("analysis", ladder, "analysis.ladder"))
    attacks = ([] if "attacks" not in report
               else _get(report, "", "attacks", "an array"))
    for i, block in enumerate(attacks):
        at = f"attacks[{i}]."
        label = (f"attack_type{_get(block, at, 'attack_type', 'an integer')}"
                 f"_sf{_get(block, at, 'target_sf', 'a finite number'):g}")
        ladder = _get(block, at, "tampered_ladder", "an object")
        ladders.append((label, ladder, at + "tampered_ladder"))
    return ladders


def export_ladder_csv(report: dict, path) -> None:
    """Write every ladder in the report as plot-ready rows.

    One row per (rung, failed ply); stable column order; RFC-style
    quoting with dot decimals.  Raises ``ValueError``, before opening
    ``path``, for a report with no ladder (e.g. a detect report) or
    naming the first field it reads that is missing or mistyped.
    """
    ladders = _report_ladders(report)
    if not ladders:
        raise ValueError("report contains no failure ladders")
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_COLUMNS)
    for source, block, where in ladders:
        rungs = _get(block, where + ".", "rungs", "an array")
        for i, rung in enumerate(rungs):
            at = f"{where}.rungs[{i}]."
            mult, force, cumulative, flagged = (
                _get(rung, at, key, kind) for key, kind in _RUNG_FIELDS)
            plies = _get(rung, at, "failed_plies", "an array")
            for j, ply in enumerate(plies):
                _check(ply, f"{at}failed_plies[{j}]", "an integer")
                writer.writerow([source, i, repr(mult), repr(force), ply,
                                 cumulative, str(flagged).lower()])
    write_text(path, text.getvalue(), newline="")
