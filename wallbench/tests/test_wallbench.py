"""The benchmark's own tests: failure counting, determinism, cold state,
traced-vs-untraced identity and metric names.

Run from the root of a checkout::

    python3 -m pytest wallbench/tests -q

Every test runs a few programs only (``limit``), so the file takes
about a minute on one core.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import worker  # noqa: E402

COLD_COUNTS = ("compiler.compiles", "speed.closures.binds", "wasm.decodes")


def test_faulty_fuzz_engine_raises_failed_share(tmp_path):
    from repro.fuzz import register_faulty_engine
    from repro.fuzz.engines import DEFAULT_ENGINES, unregister_engine

    name = register_faulty_engine("wallbench-faulty", base="wamr")
    try:
        out = worker.run_pass("fuzz-seed", 42, str(tmp_path), trace=False,
                              limit=1, engines=DEFAULT_ENGINES + (name,))
    finally:
        unregister_engine(name)
    assert out["attempted"] == 2 * (len(DEFAULT_ENGINES) + 1)
    assert out["failed"] > 0


def test_corrupted_sweep_cell_is_counted_not_fatal(tmp_path, monkeypatch):
    from repro.fuzz.faults import FaultInjectingRuntime
    from repro.harness import runner

    real = runner.make_runtime
    monkeypatch.setattr(
        runner, "make_runtime",
        lambda name: FaultInjectingRuntime(base=name) if name == "wamr"
        else real(name))
    out = worker.run_pass("startup-test", 1, str(tmp_path), trace=False,
                          limit=1)
    assert (out["attempted"], out["failed"]) == (6, 1)
    assert out["report_error"]


def test_digest_and_cold_counts_repeat_across_processes():
    first = bench.run_worker("startup-test", 3, trace=True, limit=2)
    second = bench.run_worker("startup-test", 3, trace=True, limit=2)
    untraced = bench.run_worker("startup-test", 3, trace=False, limit=2)
    assert first["model_digest"] == second["model_digest"] \
        == untraced["model_digest"]
    for name in COLD_COUNTS:
        assert first["layers"][name] == second["layers"][name] > 0, name
    assert first["counts"] == second["counts"] == untraced["counts"]
    assert first["failed"] == untraced["failed"] == 0


def test_fuzz_seed_fixes_the_draw():
    a = bench.run_worker("fuzz-seed", 5, trace=False, limit=1)
    b = bench.run_worker("fuzz-seed", 5, trace=False, limit=1)
    c = bench.run_worker("fuzz-seed", 6, trace=False, limit=1)
    assert a["model_digest"] == b["model_digest"]
    assert a["model_digest"] != c["model_digest"]
    assert a["failed"] == c["failed"] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(trace, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    result = bench.measure("fuzz-seed", 8, seconds=0, trace=trace, limit=1)
    printed = capsys.readouterr().out
    assert result["correct"]
    assert [(m["name"], m["unit"]) for m in section] == \
        [(name, m["unit"]) for name, m in result["metrics"].items()]
    for metric in section:
        assert metric["name"] in printed
    if trace:
        layers = result["metrics"]
        attributed = sum(v["value"] for k, v in layers.items()
                         if k.endswith("_s") and k != "unattributed_s")
        assert layers["unattributed_s"]["value"] < 0.1 * attributed


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "wallbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", "exec-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
