"""--compare: ok / worse / unresolved, the layer that moved, quick refused."""

import json

import compare
import metrics


def _metric(value, iqr=0.0, unit="s"):
    return {"value": value, "unit": unit, "q1": value - iqr / 2, "q3": value + iqr / 2, "n": 9}


def _doc(first=1.0, setup=0.2, rate=5.0, rss=100.0, iqr=0.0, probe=0.1, failed=0, quick=False):
    e2e = {
        "workload": "w", "trace": 0, "attempted": 10, "failed": failed,
        "reasons": ["oracle: too far"] * failed,
        "metrics": {
            "first_residual_s": _metric(first, iqr * first),
            "setup_s": _metric(setup, iqr * setup),
            "mcells_per_s": _metric(rate, iqr * rate, "Mcell/s"),
            "peak_rss_mb": _metric(rss, 0.0, "MiB"),
        },
    }
    traced = {
        "workload": "w", "trace": 1, "attempted": 10, "failed": 0, "reasons": [],
        "metrics": {
            name: {"value": 0.0, "unit": unit}
            for name, unit, _better in metrics.PER_LAYER
        },
    }
    traced["metrics"]["ir.schedule.probe_s"]["value"] = probe
    traced["metrics"]["import.repro_s"]["value"] = 0.4
    traced["metrics"]["wse.events_per_app"]["value"] = 16228
    return {"quick": quick, "runs": [e2e, traced]}


def _status(rows):
    return {r["metric"]: r["status"] for r in rows}


def test_same_numbers_are_ok():
    rows, notes = compare.compare(_doc(), _doc())
    assert set(_status(rows).values()) == {"ok"} and not notes


def test_direction_and_bound():
    # a higher rate is better, a lower one worse; within the bound is ok
    assert _status(compare.compare(_doc(), _doc(rate=9.0))[0])["mcells_per_s"] == "ok"
    assert _status(compare.compare(_doc(), _doc(rate=4.9))[0])["mcells_per_s"] == "ok"
    assert _status(compare.compare(_doc(), _doc(rate=3.0))[0])["mcells_per_s"] == "worse"
    assert _status(compare.compare(_doc(), _doc(first=0.5))[0])["first_residual_s"] == "ok"


def test_worse_names_the_layer_and_noise_is_unresolved():
    rows, _ = compare.compare(_doc(), _doc(setup=0.4, probe=0.3))
    row = next(r for r in rows if r["metric"] == "setup_s")
    assert row["status"] == "worse" and row["layer"].startswith("ir.schedule.probe_s +0.2")
    rows, _ = compare.compare(_doc(iqr=0.5), _doc(setup=0.4, iqr=0.5))
    assert _status(rows)["setup_s"] == "unresolved"


def test_failures_and_changed_exact_counts_show():
    rows, notes = compare.compare(_doc(), _doc(failed=2))
    assert _status(rows)["failed_frac"] == "worse"
    b = _doc()
    b["runs"][1]["metrics"]["wse.events_per_app"]["value"] = 16000
    _, notes = compare.compare(_doc(), b)
    assert notes == ["w: exact count wse.events_per_app changed: 16228 -> 16000"]


def test_main_exit_codes_and_quick_refused(tmp_path, capsys):
    a, b, q = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "q.json"
    a.write_text(json.dumps(_doc()))
    b.write_text(json.dumps(_doc(setup=0.4)))
    q.write_text(json.dumps(_doc(quick=True)))
    assert compare.main(a, a) == 0
    assert compare.main(a, b) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(a, q) == 2
    assert "quick" in capsys.readouterr().err
