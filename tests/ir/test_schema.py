"""`FabricProgramIR` serialization: byte-stable round trips, stable hashes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import check_ir
from repro.cli import main
from repro.core import CartesianMesh3D
from repro.dataflow.mapping import SpareColumnRemap
from repro.ir import IR_SCHEMA_VERSION, FabricProgramIR, derive_ir

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
DATA = Path(__file__).resolve().parent / "data"

#: files written by the last schema-1 build (PR 17's tree, `repro check
#: --emit-ir` / `build_ir(...).to_json`) and the v2 derivation each must
#: equal once loaded
V1_FIXTURES = {
    "v1_default_4x3x4.json": lambda: derive_ir(CartesianMesh3D(4, 3, 4)),
    "v1_remap_6x5x4_dead_2_1.json": lambda: derive_ir(
        CartesianMesh3D(6, 5, 4),
        remap=SpareColumnRemap.around_dead_pes((6, 5), [(2, 1)]),
    ),
}


def _small_ir() -> FabricProgramIR:
    return derive_ir(CartesianMesh3D(4, 3, 4))


class TestRoundTrip:
    def test_to_json_from_json_round_trips_byte_for_byte(self, tmp_path):
        ir = _small_ir()
        path = tmp_path / "ir.json"
        ir.to_json(path)
        first = path.read_bytes()
        loaded = FabricProgramIR.from_json(path)
        assert loaded.doc == ir.doc
        assert loaded.content_hash == ir.content_hash
        loaded.to_json(path)
        assert path.read_bytes() == first

    def test_dumps_matches_serialized_file(self, tmp_path):
        ir = _small_ir()
        path = tmp_path / "ir.json"
        ir.to_json(path)
        assert path.read_text(encoding="utf-8") == ir.dumps()

    def test_typed_accessors_survive_the_round_trip(self, tmp_path):
        ir = _small_ir()
        path = tmp_path / "ir.json"
        ir.to_json(path)
        loaded = FabricProgramIR.from_json(path)
        assert loaded.mesh_shape == (4, 3, 4)
        assert loaded.colors == ir.colors
        assert loaded.exchange_plan == ir.exchange_plan
        for color in ir.route_color_ids():
            for coord in ir.route_coords(color):
                assert loaded.route_for(color, coord) == ir.route_for(
                    color, coord
                )


class TestContentHash:
    def test_hash_is_stable_across_processes(self):
        """The fingerprint replay artifacts pin on must not depend on
        interpreter state (hash randomization, dict order, ...)."""
        ir = _small_ir()
        code = (
            "from repro.core import CartesianMesh3D;"
            "from repro.ir import derive_ir;"
            "print(derive_ir(CartesianMesh3D(4, 3, 4)).content_hash)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == ir.content_hash

    def test_annotations_are_excluded_from_the_hash(self):
        ir = _small_ir()
        before = ir.content_hash
        ir.annotate("fold_schedule", {"0,0": ["WEST"]})
        assert ir.content_hash == before

    def test_distinct_programs_hash_differently(self):
        a = derive_ir(CartesianMesh3D(4, 3, 4))
        b = derive_ir(CartesianMesh3D(4, 3, 5))
        assert a.content_hash != b.content_hash
        assert a != b and a == _small_ir()


class TestInvalidFiles:
    def test_missing_file_is_value_error_naming_path(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ValueError, match="absent.json"):
            FabricProgramIR.from_json(path)

    def test_invalid_json_names_source(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{this is not json", encoding="utf-8")
        with pytest.raises(ValueError, match="mangled.json"):
            FabricProgramIR.from_json(path)

    def test_non_object_document_is_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ValueError, match="not an IR document"):
            FabricProgramIR.from_json(path)

    def test_missing_keys_are_named(self, tmp_path):
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({"schema": 1}), encoding="utf-8")
        with pytest.raises(ValueError, match="missing keys"):
            FabricProgramIR.from_json(path)

    @pytest.mark.parametrize(
        "cells, value, message",
        [
            (
                lambda doc: doc["routes"]["0"]["assignment"], 3,
                "routes[0].assignment holds 3 at PE (2, 1); allowed: -1 to 2",
            ),
            (
                lambda doc: doc["memory"]["assignment"], "0",
                "memory.assignment holds '0' at PE (2, 1); allowed: -1 to 0",
            ),
            (
                lambda doc: doc["injectors"]["card_east"], 2,
                "injectors[card_east] holds 2 at PE (2, 1); allowed: 0 to 1",
            ),
        ],
        ids=["route-class-out-of-range", "memory-class-a-string", "flag-not-0-or-1"],
    )
    def test_a_bad_per_pe_entry_is_an_error_naming_list_and_pe(
        self, capsys, tmp_path, cells, value, message
    ):
        """A well-hashed file whose per-PE entry does not fit its list:
        the CLI names list, value and PE and exits 2 (no traceback)."""
        doc = json.loads(_small_ir().dumps())
        del doc["content_hash"]
        cells(doc)[1 * 4 + 2] = value
        path = tmp_path / "bad.json"
        FabricProgramIR(doc).to_json(path)  # builders do not validate
        with pytest.raises(ValueError) as excinfo:
            FabricProgramIR.from_json(path)
        assert str(excinfo.value) == f"{path}: {message}"
        assert main(["check", "--program", str(path)], out=io.StringIO()) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_tampered_document_fails_the_hash_check(self, tmp_path):
        path = tmp_path / "ir.json"
        _small_ir().to_json(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["mesh"]["nx"] = 99
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match="content hash mismatch"):
            FabricProgramIR.from_json(path)


class TestSchemaMigration:
    """v1 files keep loading; anything else fails with a versioned message."""

    def test_this_build_writes_schema_2(self):
        assert IR_SCHEMA_VERSION == 2
        assert json.loads(_small_ir().dumps())["schema"] == 2

    @pytest.mark.parametrize("name", sorted(V1_FIXTURES))
    def test_v1_file_loads_as_the_v2_derivation(self, name):
        stored = json.loads((DATA / name).read_text(encoding="utf-8"))
        assert stored["schema"] == 1
        loaded = FabricProgramIR.from_json(DATA / name)
        derived = V1_FIXTURES[name]()
        assert loaded == derived
        assert loaded.content_hash != stored["content_hash"]
        # re-serializes as v2, byte for byte what this build derives
        assert loaded.dumps() == derived.dumps()

    @pytest.mark.parametrize("name", sorted(V1_FIXTURES))
    def test_v1_file_gives_the_same_check_findings(self, name):
        def findings(ir):
            return sorted(
                (f.code, f.severity, f.message, f.coord, f.color)
                for f in check_ir(ir).findings
            )

        loaded = FabricProgramIR.from_json(DATA / name)
        assert findings(loaded) == findings(V1_FIXTURES[name]())
        assert check_ir(loaded).ok

    @pytest.mark.parametrize("name", sorted(V1_FIXTURES))
    def test_v1_file_verifies_clean_through_the_cli(self, name):
        out = io.StringIO()
        assert main(["check", "--program", str(DATA / name)], out=out) == 0
        assert "CHECK PASSED" in out.getvalue()

    def test_unknown_version_fails_with_the_versioned_message(
        self, capsys, tmp_path
    ):
        doc = json.loads(_small_ir().dumps())
        doc["schema"] = 3
        path = tmp_path / "future.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        message = (
            "unsupported IR schema version 3 (this build reads versions 1-2)"
        )
        with pytest.raises(ValueError) as excinfo:
            FabricProgramIR.from_json(path)
        assert message in str(excinfo.value)
        assert main(["check", "--program", str(path)], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_v1_hash_is_verified_over_the_document_as_stored(
        self, capsys, tmp_path
    ):
        doc = json.loads(
            (DATA / "v1_default_4x3x4.json").read_text(encoding="utf-8")
        )
        doc["routes"]["0"]["assignment"]["1,1"] ^= 1
        path = tmp_path / "flipped.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match="content hash mismatch"):
            FabricProgramIR.from_json(path)
        assert main(["check", "--program", str(path)], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "content hash mismatch" in err

    def test_per_pe_list_of_the_wrong_length_is_rejected(self):
        doc = json.loads(_small_ir().dumps())
        del doc["content_hash"]
        doc["memory"]["assignment"].pop()
        with pytest.raises(ValueError, match="memory.assignment has 11 entries"):
            FabricProgramIR(doc)
