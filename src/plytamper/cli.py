"""Command-line front end.

Four subcommands cover the workflow:

``analyze``
    Progressive-failure ladder of a design, with mode classification.
``attack``
    Run a tamper search (type 1 or 2) against one or more target safety
    factors; writes the report plus one tampered design file per run.
``detect``
    Compare an original and a (possibly tampered) design through their
    apparent stiffness and first-resonance shift.
``export-ladder``
    Flatten the ladders of a previously written report into CSV.

Every command writes a JSON report and prints the same content as an
aligned text table.  Exit codes: 0 success, 1 usage or validation
error, 2 numerical failure or no solution found, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from plytamper import __version__
from plytamper.attack import (
    ATTACK_TYPES,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_MAX_SWEEPS,
    AttackSpec,
    AttackStatus,
)
from plytamper.designfile import (
    DesignError,
    DesignFile,
    design_to_mapping,
    load_design,
    save_design,
)
from plytamper.detect import detectability_report
from plytamper.failure import GAP_RATIO_THRESHOLD, simulate_progressive_failure
from plytamper.report import (
    attack_block,
    detect_block,
    export_ladder_csv,
    ladder_block,
    load_report,
    make_report,
    render_report_text,
    write_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_OK_STATUSES = (AttackStatus.SUCCESS, AttackStatus.NO_OP)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    numerical failures, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="plytamper",
        description="Laminate failure analysis, ply-angle tamper search, "
                    "and tamper detectability estimates.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze",
                       help="progressive-failure ladder of a design")
    p.add_argument("design", help="design file (YAML)")
    p.add_argument("-o", "--output", required=True,
                   help="report file to write (JSON)")
    p.add_argument("--gap-threshold", type=_finite_float,
                   default=GAP_RATIO_THRESHOLD,
                   help="relative first-to-last force gap below which a "
                        "ladder is classified catastrophic "
                        "(default: %(default)s)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("attack", help="search for a ply-angle tamper")
    p.add_argument("design", help="design file (YAML)")
    p.add_argument("--type", dest="attack_type", type=int, required=True,
                   choices=sorted(ATTACK_TYPES),
                   help="1: small rotations spread over many plies; "
                        "2: larger rotations focused on few plies")
    p.add_argument("--target-sf", type=float, nargs="+", default=None,
                   help="target safety factor(s); defaults to the design "
                        "file's safety.target_sf list")
    p.add_argument("--budget", type=int, default=None,
                   help=f"search budget: sweeps for type 1 (default "
                        f"{DEFAULT_MAX_SWEEPS}), counted evaluations for "
                        f"type 2 (default {DEFAULT_MAX_ITERATIONS})")
    p.add_argument("--gap-threshold", type=_finite_float,
                   default=GAP_RATIO_THRESHOLD,
                   help="classification threshold for the tampered "
                        "ladder (default: %(default)s)")
    p.add_argument("-o", "--output", required=True,
                   help="report file to write (JSON); tampered designs "
                        "are written next to it")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("detect",
                       help="stiffness/resonance comparison of two designs")
    p.add_argument("original", help="original design file (YAML)")
    p.add_argument("attacked", help="attacked design file (YAML)")
    p.add_argument("-o", "--output", required=True,
                   help="report file to write (JSON)")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("export-ladder",
                       help="flatten a report's ladders into CSV")
    p.add_argument("report", help="report file written by analyze/attack")
    p.add_argument("-o", "--output", required=True,
                   help="CSV file to write")
    p.set_defaults(func=_cmd_export_ladder)

    return parser


def _cmd_analyze(args) -> int:
    design = load_design(args.design)
    ladder = simulate_progressive_failure(design.laminate(), design.load)
    report = make_report(
        "analyze",
        {"design": design_to_mapping(design)},
        {"analysis": {"ladder": ladder_block(ladder, args.gap_threshold)}})
    write_report(report, args.output)
    sys.stdout.write(render_report_text(report))
    return EXIT_OK


def _tampered_design_path(output, attack_type: int, target_sf: float) -> Path:
    out = Path(output)
    return out.with_name(
        f"{out.stem}.tampered-type{attack_type}-sf{target_sf:g}.yaml")


def _cmd_attack(args) -> int:
    design = load_design(args.design)
    lam = design.laminate()
    targets = (tuple(args.target_sf) if args.target_sf is not None
               else design.target_sf)
    if not targets:
        raise DesignError("no target safety factors: give --target-sf or "
                          "set safety.target_sf in the design file")

    paths = {}
    for target_sf in targets:
        path = _tampered_design_path(args.output, args.attack_type,
                                     target_sf)
        if path in paths:
            raise DesignError(
                f"target safety factors {paths[path]!r} and {target_sf!r} "
                f"would both write {path.name}")
        paths[path] = target_sf

    # Search every target before writing: one that raises leaves no files.
    blocks, tampered = [], []
    for tampered_path, target_sf in paths.items():
        spec = AttackSpec(design.load, target_sf,
                          design_sf=design.design_sf, budget=args.budget)
        result = ATTACK_TYPES[args.attack_type](lam, spec)
        block = attack_block(result, args.gap_threshold)
        block["tampered_design_file"] = tampered_path.name
        blocks.append(block)
        tampered.append((design.with_layup_angles(result.new_angles),
                         tampered_path))

    report = make_report("attack",
                         {"design": design_to_mapping(design)},
                         {"attacks": blocks})
    write_report(report, args.output)
    for tampered_design, tampered_path in tampered:
        save_design(tampered_design, tampered_path)
    sys.stdout.write(render_report_text(report))
    ok = all(AttackStatus(b["status"]) in _OK_STATUSES for b in blocks)
    return EXIT_OK if ok else EXIT_NUMERICAL


def _ensure_angle_only_diff(original: DesignFile,
                            attacked: DesignFile) -> None:
    """Reject comparisons that differ in anything but ply angles."""
    if len(original.layup) != len(attacked.layup):
        raise DesignError(
            f"structural difference: ply counts differ "
            f"({len(original.layup)} vs {len(attacked.layup)})")
    for i, (a, b) in enumerate(zip(original.layup, attacked.layup)):
        if a.thickness != b.thickness:
            raise DesignError(f"structural difference: layup[{i}] "
                              f"thicknesses differ")
        if original.materials[a.material] != attacked.materials[b.material]:
            raise DesignError(f"structural difference: layup[{i}] "
                              f"materials differ")


def _cmd_detect(args) -> int:
    original = load_design(args.original)
    attacked = load_design(args.attacked)
    _ensure_angle_only_diff(original, attacked)
    comparison = detectability_report(original.laminate(),
                                      attacked.laminate())
    report = make_report(
        "detect",
        {"original_design": design_to_mapping(original),
         "attacked_design": design_to_mapping(attacked)},
        {"detectability": detect_block(comparison)})
    write_report(report, args.output)
    sys.stdout.write(render_report_text(report))
    return EXIT_OK


def _cmd_export_ladder(args) -> int:
    report = load_report(args.report)
    export_ladder_csv(report, args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # An overflow raises FloatingPointError instead of passing an inf
        # on, to end as a wrong cause further down the chain.
        with np.errstate(over="raise"):
            return args.func(args)
    except DesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
