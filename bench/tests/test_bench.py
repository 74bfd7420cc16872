"""Tests of the benchmark itself: tracing completeness, layer accounting,
output checks and refusal outside a full checkout.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from chevkit.cli import main as cli_main  # noqa: E402

# import sites named in the benchmark's design, beyond the defining module
IMPORT_SITES = {
    "linalg.staged_elimination": ("chevkit.jets", "chevkit.wedge"),
    "staircase.diagram_from_generators":
        ("chevkit.chevalley", "chevkit.experiments", "chevkit.cli"),
    "jets.jet_matrix": ("chevkit.jets", "chevkit.chevalley", "chevkit.cli"),
    "staircase.normal_form": ("chevkit.staircase", "chevkit.experiments"),
    "wedge.membership_kernel": ("chevkit.experiments",),
    "wedge.membership_operator": ("chevkit.experiments",),
}

CUSP = {"name": "cusp", "m": 1, "n": 2, "components": ["x^2", "x^3"]}
CONE = {"name": "cone", "m": 2, "n": 3,
        "components": ["x1", "x1*x2", "x1*x2^2"]}
SQUARE = {"name": "square", "m": 1, "n": 1, "components": ["x^2"]}


def _tiny_ops(tmp_path):
    """A few seconds' worth of ops that reach every traced function."""
    def scenario(name, **data):
        path = str(tmp_path / f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(name=name, **data), fh)
        return path

    cusp = scenario("cusp", map=CUSP, points=[[0], ["1/2"]],
                    relations={"*": ["y1^3 - y2^2"]}, k_range=[1, 2],
                    l_max=5)
    cone = scenario("cone", map=CONE, points=[[1, 1]],
                    relations={"*": ["y2^2 - y1*y3"]}, k_range=[1, 1],
                    l_max=2)
    square = scenario("square", map=SQUARE, points=[[0]],
                      leaves=[{"name": "pair", "params": ["t"],
                               "points": [["t"], ["-t"]]}],
                      relations={"*": []}, k_range=[1, 1], l_max=3)
    argvs = {
        "cusp.chevalley": ["chevalley", "--scenario", cusp],
        "cusp.fit": ["fit", "--scenario", cusp],
        "square.chevalley": ["chevalley", "--scenario", square],
        "cone.verify": ["verify", "--scenario", cone],
        "cusp.product": ["product", "--scenario", cusp, "--trials", "20",
                         "--trunc", "4"],
        "cusp.nu": ["nu", "--scenario", cusp, "--trunc", "4",
                    "--poly", "y1^2*y2", "--poly", "y2^2"],
    }
    return [workloads.Op(op_id, argv, 1, 0, 0, lambda out, payload: [],
                         argv[2]) for op_id, argv in argvs.items()]


def _runner(tmp_path):
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    return run.Runner(cli_main, str(work), {})


def test_every_import_site_is_rebound_and_restored():
    originals = {name: tracer.resolve(name)[2] for name in tracer.TARGETS}
    t = tracer.Tracer()
    with t:
        for name, modules in IMPORT_SITES.items():
            attr = tracer.TARGETS[name][1]
            for modname in modules:
                assert getattr(sys.modules[modname], attr) is \
                    t.wrappers[name], (name, modname)
        for name, raw in originals.items():
            owner, _, _ = tracer.resolve(name)
            holders = [owner] if isinstance(owner, type) else \
                tracer._chevkit_modules()
            for holder in holders:
                assert all(v is not raw for v in vars(holder).values()), \
                    (name, holder)
    for name, raw in originals.items():
        assert tracer.resolve(name)[2] is raw


def test_span_counts_match_cprofile_and_outputs_are_identical(tmp_path):
    ops = _tiny_ops(tmp_path)
    runner = _runner(tmp_path)
    for op in ops:
        runner.run(op)
    t = tracer.Tracer()
    profile = cProfile.Profile()
    with t:
        profile.enable()
        for op in ops:
            runner.run(op)
        profile.disable()
    assert runner.failures == []  # traced bytes equal untraced bytes
    stats = pstats.Stats(profile).stats
    for name in tracer.TARGETS:
        raw = tracer.resolve(name)[2]
        code = getattr(raw, "__func__", raw).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        assert t.calls[name] > 0, name
        assert stats[key][1] == t.calls[name], name


def test_layer_accounting_closes(tmp_path):
    ops = _tiny_ops(tmp_path)
    runner = _runner(tmp_path)
    t = tracer.Tracer()
    passes, _ = run.run_passes(runner, ops, 0.0, t)
    traced = [w for _, w, on in passes if on]
    metrics = t.metrics(len(traced), sum(traced) / len(traced), 1.0)
    layers = sum(metrics[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    assert metrics["other.self_s"][0] >= 0
    assert layers + metrics["other.self_s"][0] == \
        pytest.approx(metrics["trace.pass_s"][0])
    assert 0 < metrics["linalg.from_vectors.rank_ratio"][0] <= 1


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_passes_every_check(tmp_path, workload, seed):
    ops = workloads.build(workload, seed, ROOT, str(tmp_path))
    runner = run.Runner(cli_main, str(tmp_path),
                        run.load_golden(workload, seed))
    for op in ops:
        runner.run(op)
    assert runner.failures == []
    if seed == run.DEFAULT_SEED:
        assert set(runner.golden) >= {op.id for op in ops}


def test_checks_catch_a_wrong_threshold(tmp_path):
    ops = workloads.build("table", 0, ROOT, str(tmp_path))
    op = next(o for o in ops if o.id == "cusp16.chevalley")
    runner = _runner(tmp_path)
    runner.run(op)
    with open(os.path.join(runner.work, op.id + ".out.json")) as fh:
        payload = json.load(fh)
    payload["entries"][0]["l"] += 1
    assert op.check("", payload)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
