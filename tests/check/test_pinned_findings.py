"""`repro check`'s findings are pinned byte for byte.

The JSON reports under ``data/`` were written by the verifier before the
fabric kept its routing as route-class tables and switch states; every
edit to how routes are installed or read (`Fabric.install_routes`,
`Fabric.color_configs`, the `Router` view) must leave what the
verifier finds unchanged.  Only ``elapsed_seconds`` is dropped.

Regenerate (only for an intended change of the findings) with::

    PYTHONPATH=src python -m repro check --examples --json FILE
"""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data"
#: the report names a program by the path it was given: run from here
ROOT = Path(__file__).parent.parent.parent

CASES = {
    "program-v1-remap": (
        ["--program", "tests/ir/data/v1_remap_6x5x4_dead_2_1.json"],
        "check_v1_remap_6x5x4_dead_2_1.json",
    ),
    "examples": (["--examples"], "check_examples.json"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_findings_equal_the_pinned_report(name, tmp_path, monkeypatch):
    args, pinned = CASES[name]
    monkeypatch.chdir(ROOT)
    out = tmp_path / "findings.json"
    code = main(["check", *args, "--json", str(out)], out=io.StringIO())
    assert code == 0
    report = json.loads(out.read_text())
    report.pop("elapsed_seconds")
    assert report == json.loads((DATA / pinned).read_text())
