"""Tests for YAML design-file parsing, validation, and round-tripping."""

import copy
import errno
import math
import os
import stat
from pathlib import Path

import pytest
import yaml

from plytamper.clt import LoadCase
from plytamper.designfile import (
    DesignError,
    DesignFile,
    bundled_design_path,
    design_to_mapping,
    load_bundled_design,
    load_design,
    parse_design,
    save_design,
    write_text,
)


def quantity(value, unit):
    return {"value": value, "unit": unit}


def material_doc():
    """Graphite/epoxy in base SI units."""
    return {
        "e1": quantity(181e9, "Pa"),
        "e2": quantity(10.3e9, "Pa"),
        "g12": quantity(7.17e9, "Pa"),
        "nu12": quantity(0.28, "-"),
        "sigma1t_ult": quantity(1500e6, "Pa"),
        "sigma1c_ult": quantity(1500e6, "Pa"),
        "sigma2t_ult": quantity(40e6, "Pa"),
        "sigma2c_ult": quantity(246e6, "Pa"),
        "tau12_ult": quantity(68e6, "Pa"),
    }


def ply_doc(angle_deg):
    return {
        "angle": quantity(angle_deg, "deg"),
        "thickness": quantity(0.000125, "m"),
        "material": "graphite_epoxy",
    }


@pytest.fixture
def doc():
    """A fresh, valid cross-ply design document (base SI units)."""
    return {
        "schema_version": 1,
        "materials": {"graphite_epoxy": material_doc()},
        "layup": [ply_doc(a) for a in (0.0, 90.0, 90.0, 0.0)],
        "load": {
            "n": {"value": [1000.0, 200.0, 0.0], "unit": "N/m"},
            "m": {"value": [0.0, 0.0, 0.0], "unit": "N"},
        },
        "safety": {"design_sf": 1.5, "target_sf": [1.0, 0.9]},
    }


# =============================================================================
# Parsing valid documents
# =============================================================================

class TestParseValid:

    def test_minimal_document_parses(self, doc):
        design = parse_design(doc)
        assert isinstance(design, DesignFile)
        assert design.angles() == (0.0, 90.0, 90.0, 0.0)
        assert design.design_sf == 1.5
        assert design.target_sf == (1.0, 0.9)
        assert design.load == LoadCase((1000.0, 200.0, 0.0),
                                       (0.0, 0.0, 0.0))
        mat = design.materials["graphite_epoxy"]
        assert mat.e1 == 181e9
        assert mat.nu12 == 0.28
        assert mat.tau12_ult == 68e6

    def test_moment_block_is_optional(self, doc):
        del doc["load"]["m"]
        design = parse_design(doc)
        assert design.load.m == (0.0, 0.0, 0.0)

    def test_target_sf_is_optional(self, doc):
        del doc["safety"]["target_sf"]
        assert parse_design(doc).target_sf == ()

    def test_unit_variants_parse_to_identical_floats(self, doc):
        """GPa/MPa/mm/kN/m spellings must hit the same binary values.

        The conversion factors involved (1e9, 1e6, 1e-3, 1e3) applied to
        these literals reproduce the base-unit floats exactly, so the two
        documents must compare equal with ==, not approx.
        """
        variant = copy.deepcopy(doc)
        variant["materials"]["graphite_epoxy"] = {
            "e1": quantity(181.0, "GPa"),
            "e2": quantity(10.3, "GPa"),
            "g12": quantity(7.17, "GPa"),
            "nu12": quantity(0.28, "1"),
            "sigma1t_ult": quantity(1500.0, "MPa"),
            "sigma1c_ult": quantity(1500.0, "MPa"),
            "sigma2t_ult": quantity(40.0, "MPa"),
            "sigma2c_ult": quantity(246.0, "MPa"),
            "tau12_ult": quantity(68.0, "MPa"),
        }
        for ply in variant["layup"]:
            ply["thickness"] = quantity(0.125, "mm")
        variant["load"]["n"] = {"value": [1.0, 0.2, 0.0], "unit": "kN/m"}
        assert parse_design(variant) == parse_design(doc)

    def test_radian_angles_convert(self, doc):
        doc["layup"][1]["angle"] = quantity(math.pi / 2.0, "rad")
        design = parse_design(doc)
        assert design.angles()[1] == pytest.approx(90.0, abs=1e-12)

    def test_laminate_materializes_every_ply(self, doc):
        lam = parse_design(doc).laminate()
        assert len(lam.plies) == 4
        assert [p.angle for p in lam.plies] == [0.0, 90.0, 90.0, 0.0]
        assert all(p.thickness == 0.000125 for p in lam.plies)
        assert lam.plies[0].material.e1 == 181e9

    def test_with_layup_angles_replaces_only_angles(self, doc):
        design = parse_design(doc)
        rotated = design.with_layup_angles([1.0, 91.0, 90.0, 0.0])
        assert rotated.angles() == (1.0, 91.0, 90.0, 0.0)
        assert rotated.layup[0].thickness == design.layup[0].thickness
        assert rotated.layup[0].material == design.layup[0].material
        assert rotated.load == design.load
        assert rotated.design_sf == design.design_sf
        # original untouched
        assert design.angles() == (0.0, 90.0, 90.0, 0.0)

    def test_with_layup_angles_checks_length(self, doc):
        design = parse_design(doc)
        with pytest.raises(ValueError, match="expected 4 angles, got 3"):
            design.with_layup_angles([0.0, 1.0, 2.0])


# =============================================================================
# Validation errors — every message names the offending field path
# =============================================================================

class TestValidationErrors:

    def test_top_level_must_be_mapping(self):
        with pytest.raises(DesignError, match="design: expected a mapping"):
            parse_design(["not", "a", "mapping"])

    def test_unknown_top_level_key(self, doc):
        doc["notes"] = "hello"
        with pytest.raises(DesignError,
                           match=r"design: unexpected key\(s\): notes"):
            parse_design(doc)

    def test_wrong_schema_version(self, doc):
        doc["schema_version"] = 2
        with pytest.raises(DesignError,
                           match="schema_version: expected 1, got 2"):
            parse_design(doc)

    @pytest.mark.parametrize("version, shown", [(1.0, "1.0"),
                                                (True, "True")])
    def test_schema_version_must_be_the_integer(self, doc, version, shown):
        """1.0 and true equal 1 in Python, but only the integer loads."""
        doc["schema_version"] = version
        with pytest.raises(DesignError,
                           match=f"schema_version: expected 1, got {shown}$"):
            parse_design(doc)

    def test_missing_schema_version(self, doc):
        del doc["schema_version"]
        with pytest.raises(DesignError,
                           match="schema_version: expected 1, got None"):
            parse_design(doc)

    def test_empty_materials(self, doc):
        doc["materials"] = {}
        with pytest.raises(DesignError,
                           match="at least one material is required"):
            parse_design(doc)

    def test_missing_material_field(self, doc):
        del doc["materials"]["graphite_epoxy"]["e2"]
        with pytest.raises(DesignError,
                           match=r"materials\.graphite_epoxy\.e2: missing"):
            parse_design(doc)

    def test_unknown_material_field(self, doc):
        doc["materials"]["graphite_epoxy"]["density"] = quantity(1600, "Pa")
        with pytest.raises(DesignError,
                           match=r"unknown field\(s\): density"):
            parse_design(doc)

    def test_unknown_stress_unit(self, doc):
        doc["materials"]["graphite_epoxy"]["e1"] = quantity(26.25e6, "psi")
        with pytest.raises(DesignError, match="unknown unit 'psi'"):
            parse_design(doc)

    def test_ratio_field_rejects_stress_unit(self, doc):
        doc["materials"]["graphite_epoxy"]["nu12"] = quantity(0.28, "Pa")
        with pytest.raises(DesignError,
                           match=r"nu12\.unit: unknown unit 'Pa'"):
            parse_design(doc)

    def test_boolean_is_not_a_number(self, doc):
        """YAML `true` must not sneak in as 1.0."""
        doc["materials"]["graphite_epoxy"]["nu12"]["value"] = True
        with pytest.raises(DesignError,
                           match="expected a number, got bool"):
            parse_design(doc)

    def test_empty_layup(self, doc):
        doc["layup"] = []
        with pytest.raises(DesignError,
                           match="layup: expected a non-empty list"):
            parse_design(doc)

    def test_unknown_ply_material_names_index(self, doc):
        doc["layup"][3]["material"] = "unobtainium"
        with pytest.raises(
                DesignError,
                match=r"layup\[3\]\.material: unknown material 'unobtainium'"):
            parse_design(doc)

    def test_nonpositive_thickness(self, doc):
        doc["layup"][0]["thickness"] = quantity(0.0, "m")
        with pytest.raises(DesignError,
                           match=r"layup\[0\]\.thickness: must be positive"):
            parse_design(doc)

    def test_missing_ply_angle(self, doc):
        del doc["layup"][2]["angle"]
        with pytest.raises(DesignError, match=r"layup\[2\]\.angle: missing"):
            parse_design(doc)

    def test_quantity_rejects_extra_keys(self, doc):
        doc["layup"][0]["angle"]["tolerance"] = 0.5
        with pytest.raises(DesignError,
                           match=r"unexpected key\(s\): tolerance"):
            parse_design(doc)

    @pytest.mark.parametrize("key", ["zz_extra", 7])
    @pytest.mark.parametrize("keys, prefix", [
        pytest.param(keys, f"{path}: {label}", id=path)
        for keys, path, label in [
            ((), "design", "unexpected key(s)"),
            (("materials", "graphite_epoxy"), "materials.graphite_epoxy",
             "unknown field(s)"),
            (("layup", 2), "layup[2]", "unexpected key(s)"),
            (("layup", 1, "thickness"), "layup[1].thickness",
             "unexpected key(s)"),
            (("load",), "load", "unexpected key(s)"),
            (("load", "n"), "load.n", "unexpected key(s)"),
            (("safety",), "safety", "unexpected key(s)"),
        ]])
    def test_unknown_key_is_rejected_with_its_path(self, doc, keys, prefix,
                                                   key):
        """A non-string key (YAML ``7:``) is named too, not a TypeError."""
        node = doc
        for k in keys:
            node = node[k]
        node[key] = 1.0
        with pytest.raises(DesignError) as excinfo:
            parse_design(doc)
        assert str(excinfo.value) == f"{prefix}: {key}"

    def test_missing_load_n(self, doc):
        del doc["load"]["n"]
        with pytest.raises(DesignError, match=r"load\.n: missing"):
            parse_design(doc)

    def test_load_vector_needs_three_components(self, doc):
        doc["load"]["n"]["value"] = [1000.0, 200.0]
        with pytest.raises(DesignError,
                           match="expected a list of 3 numbers"):
            parse_design(doc)

    def test_missing_design_sf(self, doc):
        del doc["safety"]["design_sf"]
        with pytest.raises(DesignError,
                           match=r"safety\.design_sf: missing"):
            parse_design(doc)

    def test_nonpositive_design_sf(self, doc):
        doc["safety"]["design_sf"] = 0.0
        with pytest.raises(DesignError, match="must be positive"):
            parse_design(doc)

    def test_target_sf_must_be_list(self, doc):
        doc["safety"]["target_sf"] = 0.9
        with pytest.raises(DesignError,
                           match="expected a list of numbers"):
            parse_design(doc)

    def test_negative_target_sf_entry_names_index(self, doc):
        doc["safety"]["target_sf"] = [1.0, -0.9]
        with pytest.raises(DesignError,
                           match=r"safety\.target_sf\[1\]: must be positive"):
            parse_design(doc)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_names_field(self, doc, value):
        doc["layup"][2]["angle"]["value"] = value
        with pytest.raises(DesignError, match=r"layup\[2\]\.angle\.value: "
                                              r"expected a finite number"):
            parse_design(doc)

    def test_non_finite_load_component_names_index(self, doc):
        doc["load"]["n"]["value"][1] = math.nan
        with pytest.raises(DesignError, match=r"load\.n\.value\[1\]: "
                                              r"expected a finite number"):
            parse_design(doc)

    @pytest.mark.parametrize("value", [math.inf, 10 ** 400])
    def test_non_finite_design_sf_names_field(self, doc, value):
        doc["safety"]["design_sf"] = value
        with pytest.raises(DesignError, match=r"safety\.design_sf: "
                                              r"expected a finite number"):
            parse_design(doc)

    @pytest.mark.parametrize("text", ["125e-6", "1.0e3", "1e+3"])
    def test_yaml_11_exponent_string_gets_a_hint(self, doc, text):
        """YAML 1.1 needs a dot in the mantissa and a sign in the exponent."""
        value = yaml.safe_load(text)
        assert isinstance(value, str)
        doc["layup"][0]["thickness"]["value"] = value
        with pytest.raises(DesignError) as excinfo:
            parse_design(doc)
        message = str(excinfo.value)
        assert message.startswith("layup[0].thickness.value: expected a "
                                  "number, got str")
        assert "e.g. 1.25e-4" in message
        assert isinstance(yaml.safe_load("1.25e-4"), float)

    def test_plain_string_gets_no_exponent_hint(self, doc):
        doc["layup"][0]["thickness"]["value"] = "thin"
        with pytest.raises(DesignError) as excinfo:
            parse_design(doc)
        assert str(excinfo.value) == ("layup[0].thickness.value: expected "
                                      "a number, got str")

    def test_overflow_in_unit_conversion_names_field(self, doc):
        doc["materials"]["graphite_epoxy"]["e1"] = quantity(1e300, "GPa")
        with pytest.raises(DesignError,
                           match=r"e1\.value: 1e\+300 is out of range"):
            parse_design(doc)


# =============================================================================
# Round-tripping
# =============================================================================

class TestRoundTrip:

    def test_save_load_reproduces_exact_floats(self, doc, tmp_path):
        """save_design writes SI base units so the reload is bit-equal."""
        design = parse_design(doc)
        path = tmp_path / "design.yaml"
        save_design(design, path)
        assert load_design(path) == design

    def test_mapping_round_trip_uses_si_units(self, doc):
        mapping = design_to_mapping(parse_design(doc))
        assert mapping["schema_version"] == 1
        assert mapping["materials"]["graphite_epoxy"]["e1"]["unit"] == "Pa"
        assert mapping["layup"][0]["thickness"]["unit"] == "m"
        assert mapping["load"]["n"]["unit"] == "N/m"
        assert parse_design(mapping) == parse_design(doc)

    def test_saved_file_is_plain_yaml(self, doc, tmp_path):
        path = tmp_path / "design.yaml"
        save_design(parse_design(doc), path)
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
        assert raw["schema_version"] == 1
        assert len(raw["layup"]) == 4


class TestWriteText:

    @staticmethod
    def fsync_recorder(monkeypatch, target):
        """Record, at each ``os.fsync``, the target's bytes and the size
        of the file being synced, or "directory" for the target's
        directory."""
        calls, real = [], os.fsync

        def recorder(fd):
            info = os.fstat(fd)
            synced = ("directory"
                      if os.path.samestat(info, os.stat(target.parent))
                      else info.st_size)
            calls.append((target.read_bytes(), synced))
            real(fd)

        monkeypatch.setattr(os, "fsync", recorder)
        return calls

    def test_new_file_is_synced_before_it_replaces_the_old(self, tmp_path,
                                                           monkeypatch):
        """The new file is synced while the target holds its old bytes,
        then, where directories can be opened, the directory is synced
        once the target holds the new bytes."""
        target = tmp_path / "design.yaml"
        target.write_bytes(b"old contents\n")
        calls = self.fsync_recorder(monkeypatch, target)
        write_text(target, "new contents, longer\n")
        new = b"new contents, longer\n"
        want = [(b"old contents\n", len(new))]
        if hasattr(os, "O_DIRECTORY"):
            want.append((new, "directory"))
        assert calls == want
        assert target.read_bytes() == new
        assert [p.name for p in tmp_path.iterdir()] == ["design.yaml"]

    @staticmethod
    def failing_directory_sync(monkeypatch, code):
        """Make ``os.fsync`` raise OSError(``code``) on a directory."""
        real = os.fsync

        def sync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(code, os.strerror(code))
            real(fd)

        monkeypatch.setattr(os, "fsync", sync)

    @pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"),
                        reason="directories cannot be opened")
    def test_directory_that_cannot_be_synced_is_ignored(self, tmp_path,
                                                        monkeypatch):
        target = tmp_path / "design.yaml"
        self.failing_directory_sync(monkeypatch, errno.EINVAL)
        write_text(target, "text\n")
        assert target.read_bytes() == b"text\n"

    @pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"),
                        reason="directories cannot be opened")
    def test_directory_sync_error_names_the_given_path(self, tmp_path,
                                                       monkeypatch):
        target = tmp_path / "design.yaml"
        self.failing_directory_sync(monkeypatch, errno.EIO)
        given = str(tmp_path / "." / "design.yaml")
        with pytest.raises(OSError) as raised:
            write_text(given, "text\n")
        assert (raised.value.errno, raised.value.filename) == (errno.EIO,
                                                               given)
        assert [p.name for p in tmp_path.iterdir()] == ["design.yaml"]

    def test_device_is_written_through_without_a_sync(self, monkeypatch):
        """fsync on a FIFO raises EINVAL; non-regular targets are written
        through and never synced."""
        calls = self.fsync_recorder(monkeypatch, Path(os.devnull))
        write_text(os.devnull, "discarded\n")
        assert calls == []


# =============================================================================
# File-level loading
# =============================================================================

class TestLoadDesign:

    def test_invalid_yaml_reports_file(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("materials: [unclosed\n", encoding="utf-8")
        with pytest.raises(DesignError, match="invalid YAML"):
            load_design(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_design(tmp_path / "nope.yaml")

    def test_pure_python_loader_reads_the_same_design(self, monkeypatch):
        """Without libyaml the fallback loader yields an equal design."""
        default = load_bundled_design()
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert load_bundled_design() == default

    @pytest.fixture(params=["libyaml", "pure-python"])
    def loader(self, request, monkeypatch):
        """Run the test with the libyaml loader, where PyYAML has it,
        and with the pure-Python fallback."""
        if request.param == "pure-python":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        elif not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        return request.param

    def test_repeated_key_is_rejected(self, tmp_path, doc, loader):
        text = yaml.safe_dump(doc, sort_keys=False).replace(
            "  design_sf: 1.5\n", "  design_sf: 1.5\n  design_sf: 2.5\n")
        path = tmp_path / "twice.yaml"
        path.write_text(text, encoding="utf-8")
        line = text.splitlines().index("  design_sf: 2.5") + 1
        with pytest.raises(DesignError) as raised:
            load_design(path)
        message = str(raised.value)
        assert message.startswith(f"{path}: invalid YAML:")
        assert "found duplicate key 'design_sf'" in message
        assert f"line {line}, column 3" in message

    def test_merge_keys_are_not_repeats(self, tmp_path, doc, loader):
        """A key brought in by ``<<`` may be overridden, as YAML allows."""
        doc["materials"]["stiffer"] = {"e1": quantity(200e9, "Pa")}
        text = yaml.safe_dump(doc, sort_keys=False).replace(
            "  graphite_epoxy:\n", "  graphite_epoxy: &base\n").replace(
            "  stiffer:\n", "  stiffer:\n    <<: *base\n")
        path = tmp_path / "merged.yaml"
        path.write_text(text, encoding="utf-8")
        materials = load_design(path).materials
        assert materials["stiffer"].e1 == 200e9
        assert materials["stiffer"].e2 == materials["graphite_epoxy"].e2

    def test_non_utf8_file_names_the_file(self, tmp_path, loader):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"\xffschema_version: 1\n")
        with pytest.raises(DesignError) as raised:
            load_design(path)
        assert str(raised.value).startswith(f"{path}: not UTF-8 text:")

    def test_bundled_and_written_designs_load_unchanged(self, loader):
        """The bundled design and the tampered designs the CLI wrote
        for the benchmark's golden outputs parse as with the plain safe
        loader."""
        golden = Path(__file__).resolve().parents[1] / "perfbench" / \
            "golden" / "cli"
        paths = [bundled_design_path(), *sorted(golden.glob("*.yaml"))]
        assert len(paths) > 1
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert load_design(path) == parse_design(
                yaml.load(text, Loader=yaml.SafeLoader))

    def test_top_level_list_file(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(DesignError, match="design: expected a mapping"):
            load_design(path)


# =============================================================================
# Bundled demonstration design
# =============================================================================

class TestBundledDesign:

    def test_file_ships_with_the_package(self):
        assert bundled_design_path().is_file()

    def test_loads_and_matches_documented_shape(self):
        design = load_bundled_design()
        angles = design.angles()
        assert len(angles) == 34
        # [45/-45/45/-45/0_13]s — symmetric about the midplane
        assert angles == tuple(reversed(angles))
        assert angles[:4] == (45.0, -45.0, 45.0, -45.0)
        assert set(angles[4:30]) == {0.0}
        assert all(rec.thickness == 0.000125 for rec in design.layup)
        assert design.load.n == (100000.0, 0.0, 0.0)
        assert design.load.m == (0.0, 0.0, 0.0)
        assert design.design_sf == 1.3
        assert design.target_sf == (1.0, 0.9, 0.8)

    def test_material_is_the_reference_graphite_epoxy(self):
        mat = load_bundled_design().materials["graphite_epoxy"]
        assert mat.e1 == pytest.approx(181e9, rel=1e-15)
        assert mat.e2 == pytest.approx(10.3e9, rel=1e-15)
        assert mat.g12 == pytest.approx(7.17e9, rel=1e-15)
        assert mat.nu12 == 0.28
        assert mat.sigma1t_ult == pytest.approx(1500e6, rel=1e-15)
        assert mat.sigma2t_ult == pytest.approx(40e6, rel=1e-15)
        assert mat.sigma2c_ult == pytest.approx(246e6, rel=1e-15)
        assert mat.tau12_ult == pytest.approx(68e6, rel=1e-15)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
