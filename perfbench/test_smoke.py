"""Smoke tests of the benchmark: each workload at a tiny size, its checks, its tracing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracing
import workloads
from contextnet import hardy3, hilbert
from workloads import GATE, OK, WRONG

ROOT = Path(__file__).resolve().parent.parent


def test_points_follow_the_seed():
    points = workloads.make_points(5, 40)
    assert points == workloads.make_points(5, 40)
    assert points != workloads.make_points(6, 40)
    near = [p for p in points[::2] if p.alpha > 1 - 1e-3 and p.beta > 1 - 1e-3]
    assert len(near) == 4  # every fifth hardy3 point


def test_ensemble_tiny_run_passes_its_checks():
    w = workloads.Ensemble(seed=3, pool=64)
    track, kinds = run.measure(w, 0.2)
    assert track.n == sum(kinds.values()) >= 1
    assert len(track.slices) >= 2
    assert (track.scaled[: track.n] > 0).all()
    assert kinds[WRONG] == 0
    assert w.relations_checked > 0


def test_ensemble_corrupted_outputs_fail():
    w = workloads.Ensemble(seed=3, pool=64)
    i = 2  # an interior hardy3 point
    doc, violations = w.op(i)
    assert w.check(i, (doc, violations)) == OK
    eq6 = doc["relations"][1]  # formula 0, direct the expansion error
    eq6["direct"] = eq6["residual"] = 1e-3
    assert w.check(i, (doc, violations)) == GATE
    doc["relations"].pop()
    assert w.check(i, (doc, violations)) == WRONG
    assert w.check(i, (w.op(i)[0], ["violation"])) == WRONG


def test_ensemble_residual_must_match_formula_and_direct():
    w = workloads.Ensemble(seed=3, pool=64)
    for i in (2, 3):  # a hardy3 and a nonlocal4 point
        doc, violations = w.op(i)
        worst = max(doc["relations"], key=lambda r: r["residual"])
        assert worst["residual"] > 0
        worst["residual"] = 0.0
        assert w.check(i, (doc, violations)) == WRONG


def test_ensemble_closed_form_is_checked_independently():
    w = workloads.Ensemble(seed=3, pool=64)
    for i, rel_id in ((2, "eq16"), (3, "eq21")):
        doc, violations = w.op(i)
        rel = next(r for r in doc["relations"] if r["id"] == rel_id)
        # Self-consistent but wrong: the formula compared with itself.
        rel["formula"] = rel["direct"] = rel["formula"] * 1.5
        rel["residual"] = 0.0
        assert w.check(i, (doc, violations)) == WRONG


def _sweep(tmp_path):
    w = workloads.Sweep(seed=4, workdir=tmp_path, grid=21)
    out = w.op(0)
    assert w.check(0, out) == OK
    return w, out


def test_sweep_perturbed_row_fails(tmp_path):
    w, out = _sweep(tmp_path)
    lines = w.path.read_bytes().split(b"\r\n")
    k = w.rows(0)[0] + 1  # skip the header line
    a, b, p = lines[k].split(b",")
    lines[k] = b",".join((a, b, repr(float(p) + 1e-6).encode()))
    w.path.write_bytes(b"\r\n".join(lines))
    assert w.check(0, out) == WRONG


def test_sweep_missing_row_or_wrong_argmax_fails(tmp_path):
    w, out = _sweep(tmp_path)
    rc, stdout, stderr = out
    assert w.check(0, (rc, stdout.replace("alpha=0.5", "alpha=0.51"), stderr)) == WRONG
    body = w.path.read_bytes()
    w.path.write_bytes(body[: body.rstrip(b"\r\n").rfind(b"\r\n") + 2])
    assert w.check(0, out) == WRONG


def test_cli_mix_tiny_run_passes_its_checks(tmp_path):
    w = workloads.CliMix(seed=5, workdir=tmp_path, files=4)
    kinds = {}
    for i in range(2 * len(w.CYCLE)):
        kind = w.check(i, w.op(i))
        kinds[kind] = kinds.get(kind, 0) + 1
    assert WRONG not in kinds


def test_cli_mix_corrupted_outputs_fail(tmp_path):
    w = workloads.CliMix(seed=5, workdir=tmp_path, files=4)
    i = 2  # a sample slot
    assert w.CYCLE[i][0] == "sample"
    rc, stdout, stderr = w.op(i)
    assert w.check(i, (rc, stdout, stderr)) == OK
    doc = json.loads(stdout)
    doc["estimate"] += 0.1
    assert w.check(i, (rc, json.dumps(doc), stderr)) == WRONG
    assert w.check(i, (rc, stdout[:-5], stderr)) == WRONG
    assert w.check(i, (2, stdout, stderr)) == WRONG
    i = 0  # a hardy3 verify slot
    assert w.CYCLE[i] == ("verify", "hardy3")
    rc, stdout, stderr = w.op(i)
    assert w.check(i, (rc, stdout, stderr)) == OK
    doc = json.loads(stdout)
    doc["relations"][-1]["residual"] += 1e-12
    assert w.check(i, (rc, json.dumps(doc), stderr)) == WRONG


PROBE = """
import time


class Thing:
    def __init__(self):
        self.made = True


def inner():
    time.sleep(0.002)
    return Thing()


def outer():
    return [inner(), inner()]
"""


@pytest.fixture
def probe(monkeypatch):
    """A module of the package's namespace, defined here, traced as the only layer."""
    module = types.ModuleType("contextnet.perfbench_probe")
    exec(PROBE, vars(module))
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(tracing, "LAYERS", {"perfbench_probe": ("Thing", "inner", "outer")})
    return module


def test_tracer_counts_nested_calls_while_active_and_restores(probe):
    originals = (probe.Thing.__init__, probe.inner, probe.outer)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        probe.outer()
        tracer.active = False
        probe.outer()
    finally:
        tracer.uninstall()
    assert (probe.Thing.__init__, probe.inner, probe.outer) == originals
    assert isinstance(probe.outer()[0], probe.Thing)
    assert tracer.calls == {
        "perfbench_probe.Thing": 2, "perfbench_probe.inner": 2, "perfbench_probe.outer": 1,
    }
    assert tracer.absent == []
    self_ns = tracer.self_ns
    assert all(ns >= 0 for ns in self_ns.values())
    # The two sleeps are inner's own time; outer's self time excludes them.
    assert self_ns["perfbench_probe.inner"] >= 4_000_000
    assert self_ns["perfbench_probe.outer"] < self_ns["perfbench_probe.inner"]


def test_tracer_on_the_package_counts_only_while_active_and_restores():
    original = hardy3.build_scenario
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        hardy3.build_scenario(hardy3.ScenarioParams(0.5, 0.5))
        tracer.active = False
        hardy3.build_scenario(hardy3.ScenarioParams(0.5, 0.5))
    finally:
        tracer.uninstall()
    assert hardy3.build_scenario is original
    assert tracer.calls["hardy3.build_scenario"] == 1
    assert all(ns >= 0 for ns in tracer.self_ns.values())


def test_tracer_reports_absent_functions(monkeypatch):
    layers = dict(tracing.LAYERS, hilbert=("inner", "no_such_function"), gone=("f",))
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert sorted(tracer.absent) == ["gone.f", "hilbert.no_such_function"]
    assert hilbert.inner.__module__ == "contextnet.hilbert"


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _result(seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble", "--seed", str(seed),
         "--seconds", "0.4", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_for_a_held_out_seed_too(trace):
    first, held_out = _result(1, trace), _result(1 + run.HELD_OUT_SEED_OFFSET, trace)
    units = run.END_TO_END if trace == 0 else run.per_layer_units()
    for result in (first, held_out):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
