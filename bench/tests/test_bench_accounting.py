"""A perturbed residual, a changed pinned count and a killed child are
each counted as failed operations."""

import dataclasses

import numpy as np

import backends
import run
import spans
import yardstick
from workloads import WORKLOADS

EVENT = WORKLOADS["event_plain_24x24x8"]


def _child(**overrides):
    """A healthy cold-only child report, as spawn_child returns it."""
    result = {
        "yard_after_s": 0.03,
        "clocks": {"imports_done": 1.0, "ready": 1.2},
        "modules": 600,
        "first_sha": "aa",
        "input_digest": "dd",
    }
    result.update(overrides)
    return {
        "ok": True, "error": None, "t_spawn": 0.0, "t_first": 2.0, "t_end": 2.5,
        "yards": (yardstick.YARD_REF_S, yardstick.YARD_REF_S), "result": result,
    }


def _warm_child(checks=None, sha_mismatches=0):
    base = {"max_rel_err": 3e-7, "tolerance": 1e-5, "pinned_bad": []}
    base.update(checks or {})
    return _child(
        warm={
            "raw_s": [0.1, 0.1, 0.1], "norm_s": [0.1, 0.1, 0.1],
            "traced": [False] * 3, "sha_mismatches": sha_mismatches,
            "yard_py_ms": 30.0, "yard_np_ms": 9.0, "peak_rss_mb": 80.0,
        },
        checks=base,
    )


def test_a_clean_run_has_no_failures_and_all_four_metrics():
    got = run.assemble(EVENT, [_warm_child(), _child(), _child()], trace=False)
    # 3 children + 3 batches + oracle + pinned statistics
    assert (got["attempted"], got["failed"], got["correct"]) == (8, 0, True)
    assert sorted(got["metrics"]) == [
        "first_residual_s", "mcells_per_s", "peak_rss_mb", "setup_s",
    ]
    assert got["metrics"]["first_residual_s"]["value"] == 2.0


def test_a_perturbed_residual_is_counted():
    small = dataclasses.replace(EVENT, mesh=(6, 5, 4))
    inputs = backends.make_inputs(small, 7, spans.NullRecorder())
    from repro.core import compute_flux_residual

    exact = compute_flux_residual(inputs.mesh, inputs.fluid, inputs.pressures[-1])
    assert backends.max_rel_err(inputs, exact) == 0.0
    bent = exact.copy()
    bent.flat[3] += 1e-3 * np.abs(exact).max()
    err = backends.max_rel_err(inputs, bent)
    assert err > backends.tolerance("float32")
    assert backends.sha256(bent) != backends.sha256(exact)

    got = run.assemble(EVENT, [_warm_child({"max_rel_err": err}), _child(), _child()], False)
    assert got["failed"] == 1 and not got["correct"]
    assert got["reasons"][0].startswith("oracle")
    got = run.assemble(EVENT, [_warm_child(sha_mismatches=2), _child(), _child()], False)
    assert got["failed"] == 2
    got = run.assemble(EVENT, [_warm_child(), _child(first_sha="bb"), _child()], False)
    assert got["failed"] == 1


def test_a_changed_pinned_count_is_counted():
    stats = dict(EVENT.pinned)
    assert backends.pinned_mismatches(stats, EVENT.pinned) == []
    stats["wse.events_per_app"] += 1
    assert backends.pinned_mismatches(stats, EVENT.pinned) == ["wse.events_per_app"]
    got = run.assemble(
        EVENT, [_warm_child({"pinned_bad": ["wse.events_per_app"]}), _child(), _child()], False
    )
    assert got["failed"] == 1 and "wse.events_per_app" in got["reasons"][0]


def test_a_killed_child_is_counted_not_waited_for(tmp_path):
    spec = {
        "workload": "cold_fused_24x24x8", "seed": 7, "warm_seconds": 0.0,
        "trace": False, "quick": True, "out_dir": str(tmp_path),
    }
    dead = run.spawn_child(spec, timeout_s=0.05)
    assert not dead["ok"] and dead["error"].startswith("timeout")
    assert dead["t_end"] - dead["t_spawn"] < 5.0
    got = run.assemble(EVENT, [_warm_child(), dead, _child()], trace=False)
    assert got["failed"] == 1 and got["attempted"] == 8
    # a first child that dies leaves nothing to report
    got = run.assemble(EVENT, [dead], trace=False)
    assert got["metrics"] == {} and not got["correct"] and got["failed"] == 1
