"""BENCHMARK.json, metrics.py and workloads.py say the same thing, within
the harness's limits, and bench/ keeps to the repo's public surface."""

import json
import re

from conftest import BENCH_DIR, ROOT

import metrics
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def _manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_has_exactly_the_contract_keys():
    manifest = _manifest()
    assert sorted(manifest) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert manifest["command"] == ["python3", "bench/run.py"]
    assert manifest["paths"] == ["bench"]
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_manifest_matches_the_tables():
    manifest = _manifest()
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == list(
        metrics.PER_LAYER
    )
    for m in manifest["end_to_end"]:
        assert sorted(m) == ["better", "bound", "name", "unit"]
    for m in manifest["per_layer"]:
        assert sorted(m) == ["better", "name", "unit"]
    for w in manifest["workloads"]:
        assert sorted(w) == ["name", "why"]


def test_names_units_and_limits():
    names = [w.name for w in WORKLOADS.values()]
    names += [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for _name, unit, better, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert UNIT.match(unit), unit
        assert better in ("lower", "higher")
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128
    for w in WORKLOADS.values():
        assert len(w.why) <= 200 and "\n" not in w.why
    bounds = metrics.BOUNDS
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert metrics.UNITS["setup_s"] == "s" and metrics.BETTER["setup_s"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())
    assert metrics.EXACT <= {m[0] for m in metrics.PER_LAYER}


def test_bench_uses_only_the_public_surface_of_repro():
    private = re.compile(r"\brepro(\.\w+)*\._\w|from repro[\w.]* import .*\b_\w|\bimport _")
    for path in BENCH_DIR.glob("*.py"):
        source = path.read_text()
        for number, line in enumerate(source.splitlines(), 1):
            assert not private.search(line), f"{path.name}:{number}: {line.strip()}"
        assert "set_recorder" not in source, path.name
        assert "_CACHE" not in source, path.name
