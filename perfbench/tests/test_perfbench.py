"""Tests of the benchmark's own code, on miniature versions of each workload.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import types
from pathlib import Path

import numpy as np
import pytest

import hpss
from tracer import Hook, Tracer, self_times, summarize
from workloads import END_TO_END, NEAREST, REFERENCE_S, WORKLOADS, miniature, per_layer_units, run_workload

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_seed_gives_the_same_stratified_angles():
    for wl in WORKLOADS.values():
        angles = wl.angles(7)
        assert np.array_equal(angles, wl.angles(7))
        assert not np.array_equal(angles, wl.angles(8))
        lo, hi = wl.angle_range
        band = np.floor((angles - lo) / ((hi - lo) / wl.angle_bands))
        assert band.tolist() == list(range(wl.angle_bands))


def test_metric_names_match_the_pattern_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    for name in list(WORKLOADS) + list(END_TO_END) + list(per_layer_units()):
        assert NAME.fullmatch(name), name


def test_tracer_records_parents_trace_ids_and_self_times():
    ns = types.SimpleNamespace()
    ns.inner = lambda: None
    ns.outer = lambda: ns.inner()
    tracer = Tracer([Hook(ns, "outer", "a.outer", starts_trace=True), Hook(ns, "inner", "a.inner"), Hook(ns, "gone", "a.gone")])
    original = ns.outer
    with tracer:
        ns.outer()
        ns.outer()
    assert ns.outer is original
    assert tracer.missing == ["a.gone"]
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("a.outer", -1, 1), ("a.inner", 0, 1), ("a.outer", -1, 2), ("a.inner", 2, 2)]
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1] - (tracer.spans[1][2] - tracer.spans[1][1]))
    assert summarize(tracer.spans)["a.inner"]["calls"] == 2


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_miniature_traced_run_matches_program_counters(name):
    wl = miniature(WORKLOADS[name])
    result, detail = run_workload(wl, seed=3, seconds=0.01, trace=True)
    assert result["correct"], detail["checks"]
    assert result["failed"] == 0 and result["attempted"] == 2 * wl.angle_bands
    assert set(result["metrics"]) == set(per_layer_units())
    labels = {c["check"] for c in detail["checks"]}
    assert "passes return bitwise-identical solutions" in labels
    counters = "SolveReport" if wl.solver == "pss" else "IterativeReport"
    assert any(counters in label for label in labels)
    assert all(c["passed"] for c in detail["checks"])
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    if wl.solver == "pss":
        assert layer["pss.setup_matvecs"] > layer["pss.solve_matvecs"] > 0
        assert layer["solvers.gmres_matvecs"] == 0
    else:
        assert layer["solvers.gmres_matvecs"] > 0 and layer["pss.guard_s"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_miniature_untraced_run_reports_end_to_end_metrics(name):
    wl = miniature(WORKLOADS[name])
    result, detail = run_workload(wl, seed=4, seconds=0.01, trace=False)
    assert result["correct"], detail["checks"]
    assert list(result["metrics"]) == list(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # every reported time is its wall time scaled by the nearest calibrations
    cal = detail["calibration_s"]
    timings = [t for p in detail["passes"] for t in [p["setup"]] + p["parts"] + p["solves"] + p["extra_setups"]]
    for t in timings:
        near = cal[max(0, t["tick"] - NEAREST) : t["tick"] + NEAREST]
        assert t["s"] == pytest.approx(t["wall_s"] * REFERENCE_S / float(np.median(near)), rel=1e-12)
    passes = detail["passes"]
    assert result["metrics"]["time_to_solution_s"]["value"] == pytest.approx(
        float(np.median([sum(t["s"] for t in p["parts"]) for p in passes])), rel=1e-12
    )


def test_missing_hook_drops_its_metrics_instead_of_raising(monkeypatch):
    # GMRES never reaches splu, so the program still runs without it
    monkeypatch.delattr(hpss.scaling, "splu")
    result, detail = run_workload(miniature(WORKLOADS["strip16k-gmres"]), seed=5, seconds=0.01, trace=True)
    assert detail["missing_hooks"] == ["scaling.splu"]
    assert "scaling.near_factor_s" not in result["metrics"]
    assert "kernels.calls" in result["metrics"]
