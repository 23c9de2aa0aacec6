"""End-to-end tests of the command-line interface.

Everything drives ``plytamper.cli.main`` in-process with temp files —
the same code path as the installed console script minus one
``SystemExit`` wrapper.
"""

import copy
import csv
import errno
import json
import math
import os
import re
import stat

import pytest
import yaml

from plytamper import attack
from plytamper.clt import NoLoadedPlyError
from plytamper.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
    run,
)
from plytamper.designfile import bundled_design_path, load_design
from plytamper.report import write_report

TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")


def material_doc():
    return {
        "e1": {"value": 181e9, "unit": "Pa"},
        "e2": {"value": 10.3e9, "unit": "Pa"},
        "g12": {"value": 7.17e9, "unit": "Pa"},
        "nu12": {"value": 0.28, "unit": "-"},
        "sigma1t_ult": {"value": 1500e6, "unit": "Pa"},
        "sigma1c_ult": {"value": 1500e6, "unit": "Pa"},
        "sigma2t_ult": {"value": 40e6, "unit": "Pa"},
        "sigma2c_ult": {"value": 246e6, "unit": "Pa"},
        "tau12_ult": {"value": 68e6, "unit": "Pa"},
    }


def crossply_doc():
    """[0/90/90/0] under pure axial tension: a two-rung progressive case."""
    return {
        "schema_version": 1,
        "materials": {"graphite_epoxy": material_doc()},
        "layup": [
            {"angle": {"value": a, "unit": "deg"},
             "thickness": {"value": 0.000125, "unit": "m"},
             "material": "graphite_epoxy"}
            for a in (0.0, 90.0, 90.0, 0.0)
        ],
        "load": {"n": {"value": [1000.0, 0.0, 0.0], "unit": "N/m"}},
        "safety": {"design_sf": 1.5, "target_sf": [1.0]},
    }


def write_yaml(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(doc, handle, sort_keys=False)
    return path


@pytest.fixture
def crossply_file(tmp_path):
    return write_yaml(tmp_path / "crossply.yaml", crossply_doc())


def strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if '"generated_at"' not in line)


# =============================================================================
# analyze
# =============================================================================

class TestAnalyze:

    def test_writes_report_and_prints_table(self, crossply_file, tmp_path,
                                            capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", str(crossply_file), "-o", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.startswith("plytamper")
        assert "failure ladder:" in stdout
        assert "failure mode : progressive" in stdout

        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["schema_version"] == 1
        assert report["tool"] == "plytamper"
        assert report["command"] == "analyze"
        assert TIMESTAMP_RE.match(report["generated_at"])
        ladder = report["analysis"]["ladder"]
        assert ladder["failure_mode"] == "progressive"
        assert [r["failed_plies"] for r in ladder["rungs"]] == [[1, 2],
                                                                [0, 3]]
        assert ladder["rungs"][-1]["cumulative_failed"] == 4
        assert len(ladder["initial_strength_ratios"]) == 4
        # the echoed design is unit-normalized SI
        echo = report["inputs"]["design"]
        assert echo["layup"][0]["thickness"] == {"value": 0.000125,
                                                 "unit": "m"}

    def test_reports_are_deterministic_minus_timestamp(self, crossply_file,
                                                       tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["analyze", str(crossply_file), "-o", str(out1)]) == 0
        assert main(["analyze", str(crossply_file), "-o", str(out2)]) == 0
        capsys.readouterr()
        text1 = out1.read_text(encoding="utf-8")
        text2 = out2.read_text(encoding="utf-8")
        assert strip_timestamp(text1) == strip_timestamp(text2)
        # exactly one line differs at most, and it is the timestamp
        assert text1.count('"generated_at"') == 1

    def test_unit_variant_files_produce_identical_reports(self, tmp_path,
                                                          capsys):
        """Same physics spelled in MPa/mm/kN must not leak into the report."""
        base = write_yaml(tmp_path / "base.yaml", crossply_doc())
        variant_doc = copy.deepcopy(crossply_doc())
        for name, field in variant_doc["materials"]["graphite_epoxy"].items():
            if field["unit"] == "Pa":
                field["value"] /= 1e6
                field["unit"] = "MPa"
        for ply in variant_doc["layup"]:
            ply["thickness"] = {"value": 0.125, "unit": "mm"}
        variant_doc["load"]["n"] = {"value": [1.0, 0.0, 0.0], "unit": "kN/m"}
        variant = write_yaml(tmp_path / "variant.yaml", variant_doc)

        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["analyze", str(base), "-o", str(out1)]) == 0
        assert main(["analyze", str(variant), "-o", str(out2)]) == 0
        capsys.readouterr()
        assert (strip_timestamp(out1.read_text(encoding="utf-8"))
                == strip_timestamp(out2.read_text(encoding="utf-8")))

    def test_gap_threshold_flag_changes_classification(self, crossply_file,
                                                       tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", str(crossply_file), "-o", str(out),
                     "--gap-threshold", "10"])
        assert code == EXIT_OK
        capsys.readouterr()
        ladder = json.loads(out.read_text(encoding="utf-8"))
        block = ladder["analysis"]["ladder"]
        assert block["gap_ratio_threshold"] == 10.0
        assert block["failure_mode"] == "catastrophic"


# =============================================================================
# attack
# =============================================================================

class TestAttack:

    def test_failed_search_exits_2_but_writes_best_state(self, crossply_file,
                                                         tmp_path, capsys):
        """No solution exists for the cross-ply: report and tampered
        design are still written, with the best-found (= original) state."""
        out = tmp_path / "report.json"
        code = main(["attack", str(crossply_file), "--type", "2",
                     "-o", str(out)])
        assert code == EXIT_NUMERICAL
        capsys.readouterr()

        report = json.loads(out.read_text(encoding="utf-8"))
        (block,) = report["attacks"]
        assert block["status"] == "no_solution"
        assert block["attack_type"] == 2
        assert block["altered_plies"] == 0
        assert block["tampered_ladder"]["rungs"]

        tampered = tmp_path / "report.tampered-type2-sf1.yaml"
        assert block["tampered_design_file"] == tampered.name
        design = load_design(tampered)
        assert design.angles() == (0.0, 90.0, 90.0, 0.0)

    def test_bundled_design_type2_succeeds(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["attack", str(bundled_design_path()), "--type", "2",
                     "--target-sf", "1.0", "-o", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "status           : success" in stdout

        report = json.loads(out.read_text(encoding="utf-8"))
        (block,) = report["attacks"]
        assert block["status"] == "success"
        assert block["altered_plies"] == 2
        assert (block["achieved_critical_force"]
                <= block["target_critical_force"])
        assert block["tampered_ladder"]["failure_mode"] == "catastrophic"

        original = load_design(bundled_design_path())
        tampered = load_design(tmp_path / "report.tampered-type2-sf1.yaml")
        diffs = [i for i, (a, b) in enumerate(zip(original.angles(),
                                                  tampered.angles()))
                 if a != b]
        assert len(diffs) == 2
        assert all(a.thickness == b.thickness for a, b in
                   zip(original.layup, tampered.layup))

    def test_one_tampered_file_per_target(self, crossply_file, tmp_path,
                                          capsys):
        out = tmp_path / "report.json"
        code = main(["attack", str(crossply_file), "--type", "2",
                     "--target-sf", "1.0", "0.9", "-o", str(out)])
        assert code == EXIT_NUMERICAL
        capsys.readouterr()
        report = json.loads(out.read_text(encoding="utf-8"))
        assert [b["target_sf"] for b in report["attacks"]] == [1.0, 0.9]
        assert (tmp_path / "report.tampered-type2-sf1.yaml").is_file()
        assert (tmp_path / "report.tampered-type2-sf0.9.yaml").is_file()

    def test_later_target_that_raises_leaves_no_files(self, crossply_file,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        search = attack.ATTACK_TYPES[2]
        calls = []

        def second_raises(lam, spec):
            calls.append(spec.target_sf)
            if len(calls) == 2:
                raise NoLoadedPlyError("no loaded ply: injected")
            return search(lam, spec)

        monkeypatch.setitem(attack.ATTACK_TYPES, 2, second_raises)
        code = main(["attack", str(crossply_file), "--type", "2",
                     "--target-sf", "1.0", "0.9",
                     "-o", str(tmp_path / "report.json")])
        assert code == EXIT_NUMERICAL
        assert "numerical failure: no loaded ply" in capsys.readouterr().err
        assert calls == [1.0, 0.9]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["crossply.yaml"]

    def test_no_targets_anywhere_is_a_usage_error(self, tmp_path, capsys):
        doc = crossply_doc()
        del doc["safety"]["target_sf"]
        design = write_yaml(tmp_path / "design.yaml", doc)
        code = main(["attack", str(design), "--type", "1",
                     "-o", str(tmp_path / "report.json")])
        assert code == EXIT_USAGE
        assert "no target safety factors" in capsys.readouterr().err

    def test_budget_flag_limits_type1_sweeps(self, crossply_file, tmp_path,
                                             capsys):
        out = tmp_path / "report.json"
        code = main(["attack", str(crossply_file), "--type", "1",
                     "--budget", "1", "-o", str(out)])
        assert code == EXIT_NUMERICAL
        capsys.readouterr()
        report = json.loads(out.read_text(encoding="utf-8"))
        (block,) = report["attacks"]
        assert block["status"] == "budget_exhausted"
        assert block["sweeps"] == 1

    def test_budget_flag_limits_type2_evaluations(self, tmp_path, capsys):
        """Unlimited, type 2 succeeds on the bundled design after 91."""
        out = tmp_path / "report.json"
        code = main(["attack", str(bundled_design_path()), "--type", "2",
                     "--target-sf", "1.0", "--budget", "10", "-o", str(out)])
        assert code == EXIT_NUMERICAL
        capsys.readouterr()
        report = json.loads(out.read_text(encoding="utf-8"))
        (block,) = report["attacks"]
        assert block["status"] == "budget_exhausted"
        assert block["evaluations"] == 10

    @pytest.mark.parametrize("targets", [["1.0", "0.99999999"],
                                         ["0.9", "0.9"]])
    def test_targets_sharing_a_tampered_file_are_rejected(
            self, crossply_file, tmp_path, capsys, monkeypatch, targets):
        calls = []
        monkeypatch.setitem(attack.ATTACK_TYPES, 2,
                            lambda lam, spec: calls.append(spec))
        code = main(["attack", str(crossply_file), "--type", "2",
                     "--target-sf", *targets,
                     "-o", str(tmp_path / "report.json")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        name = f"report.tampered-type2-sf{float(targets[0]):g}.yaml"
        assert (f"{float(targets[0])!r} and {float(targets[1])!r} "
                f"would both write {name}") in err
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["crossply.yaml"]


# =============================================================================
# detect
# =============================================================================

class TestDetect:

    def test_identical_designs_report_unity_ratio(self, crossply_file,
                                                  tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["detect", str(crossply_file), str(crossply_file),
                     "-o", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "frequency ratio" in stdout
        block = json.loads(out.read_text(encoding="utf-8"))["detectability"]
        assert block["frequency_ratio"] == 1.0
        assert block["frequency_change_percent"] == 0.0

    def test_angle_difference_moves_the_ratio(self, crossply_file, tmp_path,
                                              capsys):
        doc = crossply_doc()
        doc["layup"][1]["angle"]["value"] = 45.0
        attacked = write_yaml(tmp_path / "attacked.yaml", doc)
        out = tmp_path / "report.json"
        code = main(["detect", str(crossply_file), str(attacked),
                     "-o", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        block = json.loads(out.read_text(encoding="utf-8"))["detectability"]
        assert block["frequency_ratio"] != 1.0
        assert (block["e_effective_attacked"]
                != block["e_effective_original"])

    def test_text_names_the_membrane_modulus(self, crossply_file, tmp_path,
                                             capsys):
        """The effective modulus comes from the membrane A block only."""
        code = main(["detect", str(crossply_file), str(crossply_file),
                     "-o", str(tmp_path / "report.json")])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "effective membrane modulus : " in stdout
        assert "flexural" not in stdout

    def test_ply_count_difference_is_rejected(self, crossply_file, tmp_path,
                                              capsys):
        doc = crossply_doc()
        doc["layup"].append(doc["layup"][0])
        attacked = write_yaml(tmp_path / "attacked.yaml", doc)
        code = main(["detect", str(crossply_file), str(attacked),
                     "-o", str(tmp_path / "report.json")])
        assert code == EXIT_USAGE
        assert "ply counts differ" in capsys.readouterr().err

    def test_thickness_difference_is_rejected(self, crossply_file, tmp_path,
                                              capsys):
        doc = crossply_doc()
        doc["layup"][2]["thickness"]["value"] = 0.000250
        attacked = write_yaml(tmp_path / "attacked.yaml", doc)
        code = main(["detect", str(crossply_file), str(attacked),
                     "-o", str(tmp_path / "report.json")])
        assert code == EXIT_USAGE
        assert "thicknesses differ" in capsys.readouterr().err

    def test_material_difference_is_rejected(self, crossply_file, tmp_path,
                                             capsys):
        doc = crossply_doc()
        doc["materials"]["graphite_epoxy"]["e1"]["value"] = 200e9
        attacked = write_yaml(tmp_path / "attacked.yaml", doc)
        code = main(["detect", str(crossply_file), str(attacked),
                     "-o", str(tmp_path / "report.json")])
        assert code == EXIT_USAGE
        assert "materials differ" in capsys.readouterr().err


# =============================================================================
# export-ladder
# =============================================================================

class TestExportLadder:

    def test_analyze_report_flattens_to_rows(self, crossply_file, tmp_path,
                                             capsys):
        report = tmp_path / "report.json"
        assert main(["analyze", str(crossply_file), "-o", str(report)]) == 0
        out = tmp_path / "ladder.csv"
        assert main(["export-ladder", str(report), "-o", str(out)]) == 0
        capsys.readouterr()

        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        # 2 rungs x 2 plies each
        assert len(rows) == 4
        assert {row["source"] for row in rows} == {"analysis"}
        assert [row["failed_ply"] for row in rows] == ["1", "2", "0", "3"]
        assert [row["rung"] for row in rows] == ["0", "0", "1", "1"]
        # force values round-trip exactly through repr
        block = json.loads(report.read_text(
            encoding="utf-8"))["analysis"]["ladder"]
        assert float(rows[0]["force_multiplier"]) == \
            block["rungs"][0]["force_multiplier"]
        assert rows[-1]["cumulative_failed"] == "4"
        assert {row["flagged"] for row in rows} == {"false"}

    def test_attack_report_labels_sources(self, crossply_file, tmp_path,
                                          capsys):
        report = tmp_path / "report.json"
        main(["attack", str(crossply_file), "--type", "2", "-o",
              str(report)])
        out = tmp_path / "ladder.csv"
        assert main(["export-ladder", str(report), "-o", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert {row["source"] for row in rows} == {"attack_type2_sf1"}

    def test_detect_report_has_no_ladder(self, crossply_file, tmp_path,
                                         capsys):
        report = tmp_path / "report.json"
        main(["detect", str(crossply_file), str(crossply_file),
              "-o", str(report)])
        code = main(["export-ladder", str(report),
                     "-o", str(tmp_path / "ladder.csv")])
        assert code == EXIT_USAGE
        assert "no failure ladders" in capsys.readouterr().err

    @pytest.mark.parametrize("content, field", [
        ({"analysis": {"ladder": {}}}, "analysis.ladder.rungs"),
        ({"attacks": [{"attack_type": 1}]}, "attacks[0].target_sf"),
        ([1, 2], "report must be a JSON object"),
    ], ids=["ladder-without-rungs", "attack-without-target", "top-level-list"])
    def test_malformed_report_names_the_field(self, tmp_path, capsys,
                                              content, field):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(content), encoding="utf-8")
        out = tmp_path / "ladder.csv"
        code = main(["export-ladder", str(report), "-o", str(out)])
        assert code == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rung_field, value, field", [
        ("force", "abc", "rungs[0].force"),
        ("force_multiplier", True, "rungs[0].force_multiplier"),
        ("cumulative_failed", [1], "rungs[0].cumulative_failed"),
        ("cumulative_failed", 1.0, "rungs[0].cumulative_failed"),
        ("failed_plies", [{"x": 1}, None], "rungs[0].failed_plies[0]"),
        ("failed_plies", [0, None], "rungs[0].failed_plies[1]"),
        ("flagged", "maybe", "rungs[0].flagged"),
        ("attack_type", "2", "attacks[0].attack_type"),
        ("target_sf", False, "attacks[0].target_sf"),
    ] + [
        (key, value, field)
        for key, field in (("force_multiplier", "rungs[0].force_multiplier"),
                           ("force", "rungs[0].force"),
                           ("target_sf", "attacks[0].target_sf"))
        for value in (math.nan, math.inf, -math.inf)
    ])
    def test_mistyped_field_is_a_usage_error(self, tmp_path, capsys,
                                             rung_field, value, field):
        rung = {"force_multiplier": 2.0, "force": 2000.0,
                "failed_plies": [0, 1], "cumulative_failed": 2,
                "flagged": False}
        block = {"attack_type": 2, "target_sf": 1.0,
                 "tampered_ladder": {"rungs": [rung]}}
        (block if rung_field in block else rung)[rung_field] = value
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"attacks": [block]}), encoding="utf-8")
        out = tmp_path / "ladder.csv"
        code = main(["export-ladder", str(report), "-o", str(out)])
        assert code == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def assert_unreadable(tmp_path, capsys, content: bytes, message: str):
        """Exporting a report of ``content`` is an I/O error whose message
        starts with the report's path, and writes no CSV."""
        report = tmp_path / "report.json"
        report.write_bytes(content)
        code = main(["export-ladder", str(report),
                     "-o", str(tmp_path / "ladder.csv")])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith(
            f"i/o error: {report}: {message}: ")
        assert not (tmp_path / "ladder.csv").exists()

    def test_invalid_json_is_an_io_error(self, tmp_path, capsys):
        self.assert_unreadable(tmp_path, capsys, b"{not json",
                               "invalid JSON")

    def test_non_utf8_report_is_an_io_error(self, tmp_path, capsys):
        self.assert_unreadable(tmp_path, capsys, b"\xff{}",
                               "not UTF-8 text")


# =============================================================================
# exit codes and argument handling
# =============================================================================

def set_strengths(value_mpa):
    """An edit giving every strength of the spar's material one value."""
    def edit(doc):
        material = doc["materials"]["graphite_epoxy"]
        for field in ("sigma1t_ult", "sigma1c_ult", "sigma2t_ult",
                      "sigma2c_ult", "tau12_ult"):
            material[field] = {"value": value_mpa, "unit": "MPa"}
    return edit


def set_load(n, m):
    def edit(doc):
        doc["load"] = {"n": {"value": n, "unit": "N/m"},
                       "m": {"value": m, "unit": "N"}}
    return edit


def lone_first_ply_under_moment(doc):
    doc["layup"] = doc["layup"][:1]
    set_load([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])(doc)


def set_thicknesses(value_m):
    """An edit giving every ply of the spar one thickness."""
    def edit(doc):
        for ply in doc["layup"]:
            ply["thickness"] = {"value": value_m, "unit": "m"}
    return edit


def huge_axial_load(doc):
    """The spar's 100 kN/m axial load raised to 1e300 kN/m."""
    doc["load"]["n"]["value"] = [1e300, 0.0, 0.0]


#: spar34 edits that still parse, with the exit codes of analyze, attack
#: --type 1, attack --type 2 and detect, and what stderr says on a
#: nonzero exit.
PATHOLOGICAL_SPARS = [
    pytest.param(set_strengths(1e150), (1, 1, 1, 1),
                 "materials.graphite_epoxy", id="strengths-1e150-MPa"),
    pytest.param(set_strengths(1e-200), (1, 1, 1, 1),
                 "materials.graphite_epoxy", id="strengths-1e-200-MPa"),
    pytest.param(set_strengths(1e-160), (1, 1, 1, 1),
                 "materials.graphite_epoxy", id="strengths-1e-160-MPa"),
    pytest.param(set_load([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]), (1, 1, 1, 0),
                 "nonzero", id="zero-load"),
    pytest.param(lone_first_ply_under_moment, (2, 2, 2, 0),
                 "numerical failure: no loaded ply", id="lone-ply-moment"),
    pytest.param(set_thicknesses(1e-200), (2, 2, 2, 0),
                 "numerical failure: laminate system is numerically "
                 "singular", id="plies-1e-200-m"),
    # Every ply is loaded, and the strength-ratio products overflow.
    pytest.param(huge_axial_load, (2, 2, 2, 0),
                 "numerical failure: overflow encountered in multiply",
                 id="load-1e300-kN-per-m"),
    # The collapse bounds overflow before the SVD; detect's A and B
    # stay finite.
    pytest.param(set_thicknesses(1e100), (2, 2, 2, 0),
                 "numerical failure: overflow encountered in multiply",
                 id="plies-1e100-m"),
]


class TestPathologicalInputs:

    @pytest.mark.parametrize("edit, codes, message", PATHOLOGICAL_SPARS)
    def test_documented_exit_and_no_traceback(self, tmp_path, capsys,
                                              recwarn, edit, codes, message):
        """Each command returns its code and raises and warns nothing; a
        nonzero exit leaves no output file."""
        doc = yaml.safe_load(bundled_design_path().read_text(
            encoding="utf-8"))
        edit(doc)
        design = str(write_yaml(tmp_path / "design.yaml", doc))
        commands = (["analyze", design], ["attack", design, "--type", "1"],
                    ["attack", design, "--type", "2"],
                    ["detect", design, design])
        for index, (command, want) in enumerate(zip(commands, codes)):
            out = tmp_path / f"run{index}"
            out.mkdir()
            code = main(command + ["-o", str(out / "report.json")])
            err = capsys.readouterr().err
            assert code == want, command
            if code:
                assert message in err
                assert list(out.iterdir()) == []
            else:
                assert (out / "report.json").is_file()
        assert not recwarn.list

class TestExitCodes:

    def test_missing_design_file(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope.yaml"),
                     "-o", str(tmp_path / "report.json")])
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_missing_output_directory_names_the_given_path(
            self, tmp_path, capsys, monkeypatch):
        """The error names the report path as given, not the hidden
        temporary file beside it, and nothing is left behind."""
        monkeypatch.chdir(tmp_path)
        code = main(["analyze", str(bundled_design_path()),
                     "-o", "missing/a.json"])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith("i/o error: ")
        assert "'missing/a.json'" in err
        assert ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    def test_invalid_design_file(self, tmp_path, capsys):
        doc = crossply_doc()
        doc["schema_version"] = 99
        design = write_yaml(tmp_path / "bad.yaml", doc)
        code = main(["analyze", str(design),
                     "-o", str(tmp_path / "report.json")])
        assert code == EXIT_USAGE
        assert "schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (yaml.safe_dump(crossply_doc(), sort_keys=False).replace(
            "  design_sf: 1.5\n", "  design_sf: 1.5\n  design_sf: 3.0\n"
        ).encode("utf-8"), "found duplicate key 'design_sf'"),
        (b"\xff" + yaml.safe_dump(crossply_doc()).encode("utf-8"),
         "not UTF-8 text"),
    ], ids=["repeated-key", "not-utf8"])
    def test_unreadable_design_is_a_usage_error(self, tmp_path, capsys,
                                                content, message):
        design = tmp_path / "bad.yaml"
        design.write_bytes(content)
        report = tmp_path / "report.json"
        code = main(["analyze", str(design), "-o", str(report)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {design}: ")
        assert message in err
        assert not report.exists()

    @pytest.mark.parametrize("field, value, path", [
        ("angle", float("inf"), "layup[1].angle.value"),
        ("angle", float("nan"), "layup[1].angle.value"),
        ("design_sf", float("inf"), "safety.design_sf"),
    ])
    def test_non_finite_number_is_a_usage_error(self, tmp_path, capsys,
                                                field, value, path):
        doc = crossply_doc()
        if field == "angle":
            doc["layup"][1]["angle"]["value"] = value
        else:
            doc["safety"]["design_sf"] = value
        design = write_yaml(tmp_path / "bad.yaml", doc)
        report = tmp_path / "report.json"
        code = main(["analyze", str(design), "-o", str(report)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"{path}: expected a finite number" in err
        assert not report.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "many"])
    @pytest.mark.parametrize("command", [["analyze"],
                                         ["attack", "--type", "2"]])
    def test_non_finite_gap_threshold_is_a_usage_error(
            self, crossply_file, tmp_path, capsys, command, value):
        code = main([command[0], str(crossply_file), *command[1:],
                     "-o", str(tmp_path / "report.json"),
                     f"--gap-threshold={value}"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert (f"argument --gap-threshold: expected a finite number, "
                f"got '{value}'") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["crossply.yaml"]

    def test_unserializable_report_writes_nothing(self, tmp_path):
        out = tmp_path / "report.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_report({"gap_ratio_threshold": float("nan")}, out)
        assert not out.exists()

    @pytest.mark.parametrize("command, failing_write, target", [
        (["analyze"], 1, "report.json"),
        (["attack", "--type", "2"], 1, "report.json"),
        (["attack", "--type", "2"], 2, "report.tampered-type2-sf1.yaml"),
        (["export-ladder"], 1, "ladder.csv"),
    ], ids=["analyze-report", "attack-report", "attack-tampered-design",
            "export-ladder-csv"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, capsys,
                                             crossply_file, monkeypatch,
                                             command, failing_write, target):
        """A write that fails part-way (a full disk) exits 3 and leaves
        the file it would replace as it was, with no temporary file."""
        report = tmp_path / "report.json"
        if command == ["export-ladder"]:
            assert main(["analyze", str(crossply_file),
                         "-o", str(report)]) == EXIT_OK
            argv = ["export-ladder", str(report), "-o",
                    str(tmp_path / "ladder.csv")]
        else:
            argv = [command[0], str(crossply_file), *command[1:],
                    "-o", str(report)]
        old = tmp_path / target
        old.write_bytes(b"old contents\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()

        real_fdopen = os.fdopen
        calls = []

        class HalfWriter:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[:len(text) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def fdopen(*args, **kwargs):
            handle = real_fdopen(*args, **kwargs)
            calls.append(handle)
            return HalfWriter(handle) if len(calls) == failing_write \
                else handle

        monkeypatch.setattr(os, "fdopen", fdopen)
        code = main(argv)
        monkeypatch.undo()
        assert code == EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert old.read_bytes() == b"old contents\n"
        after = sorted(p.name for p in tmp_path.iterdir())
        assert [n for n in after if n not in before] == (
            ["report.json"] if failing_write == 2 else [])

    def test_written_files_get_the_mode_open_gives(self, tmp_path, capsys,
                                                   crossply_file):
        """New files get 0o666 less the umask, not a temporary file's
        0o600; a replaced file keeps its own mode."""
        umask = os.umask(0o022)
        try:
            report = tmp_path / "report.json"
            assert main(["analyze", str(crossply_file),
                         "-o", str(report)]) == EXIT_OK
            assert report.stat().st_mode & 0o777 == 0o644
            report.chmod(0o640)
            assert main(["analyze", str(crossply_file),
                         "-o", str(report)]) == EXIT_OK
            assert report.stat().st_mode & 0o777 == 0o640
        finally:
            os.umask(umask)
        capsys.readouterr()

    def test_device_output_is_written_through(self, crossply_file, capsys):
        """A non-regular target is written to, not replaced."""
        assert main(["analyze", str(crossply_file),
                     "-o", os.devnull]) == EXIT_OK
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        capsys.readouterr()

    def test_fifo_output_is_written_through(self, tmp_path, capsys,
                                            crossply_file):
        fifo = tmp_path / "report.pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["analyze", str(crossply_file),
                         "-o", str(fifo)]) == EXIT_OK
            assert stat.S_ISFIFO(os.stat(fifo).st_mode)
            chunks = []
            while chunk := os.read(reader, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(reader)
        assert json.loads(b"".join(chunks))["analysis"]
        capsys.readouterr()

    def test_symlinked_output_stays_a_symlink(self, tmp_path, capsys,
                                              crossply_file):
        target_dir = tmp_path / "real"
        target_dir.mkdir()
        target = target_dir / "report.json"
        target.write_text("old contents\n", encoding="utf-8")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(["analyze", str(crossply_file),
                     "-o", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert json.loads(target.read_text(encoding="utf-8"))["analysis"]
        assert [p.name for p in target_dir.iterdir()] == ["report.json"]
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["analyze"],
                                         ["attack", "--type", "2"]])
    def test_unloaded_survivor_is_a_numerical_failure(self, tmp_path,
                                                      capsys, command):
        """The ladder's last survivor carries no stress under this bending
        load, so no strength ratio is finite."""
        doc = crossply_doc()
        angles = (90, 15, 60, -30, 60, 90, -90, 0, -30, -90, -75, -45)
        doc["layup"] = [dict(doc["layup"][0],
                             angle={"value": float(a), "unit": "deg"})
                        for a in angles]
        doc["load"] = {
            "n": {"value": [0.0, 0.0, 0.0], "unit": "N/m"},
            "m": {"value": [0.7172838643318087, -0.7464900405633892,
                            -0.4064844632211011], "unit": "N"},
        }
        design = write_yaml(tmp_path / "bending.yaml", doc)
        report = tmp_path / "report.json"
        code = main([command[0], str(design), *command[1:],
                     "-o", str(report)])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert "numerical failure: no loaded ply" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bending.yaml"]

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_output_flag(self, crossply_file, capsys):
        assert main(["analyze", str(crossply_file)]) == EXIT_USAGE
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("plytamper ")

    def test_run_wrapper_raises_systemexit(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["plytamper"])
        with pytest.raises(SystemExit) as excinfo:
            run()
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
