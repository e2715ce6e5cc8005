"""One measured pass of a workload, in a fresh process.

``run.py`` starts this script once per pass, so every pass begins cold:
no compiled-wasm memo, decoded-module cache or closure binding carries
over from an earlier pass.  The pass prints one JSON object as the last
line of its standard output.

Usage (normally only through ``run.py``)::

    python3 wallbench/worker.py --workload startup-test --seed 7 \\
        --trace 0 --cache-dir .wallbench_tmp/pass0 [--setup-only] [--limit N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hostspeed import HostSpeed  # noqa: E402
from layers import ALL_LAYERS, LayerTrace  # noqa: E402

# The execution-dominated program set of benchmarks/conftest.py.
SMALL_SET = ("quicksort", "gemm", "crc32", "facedetection")

#: workload -> how one pass runs it.
WORKLOADS = {
    "exec-small": {"kind": "sweep", "size": "small", "disk_cache": False},
    "startup-test": {"kind": "sweep", "size": "test", "disk_cache": True},
    "fuzz-seed": {"kind": "fuzz", "budget": 24},
}

#: Engines whose execution runs on the interpreter rather than the
#: native-ISA machine (for the ns-per-instruction denominators).
INTERP_ENGINES = ("wasm3", "wamr")


def sweep_benchmarks(workload: str) -> List[str]:
    if workload == "exec-small":
        return list(SMALL_SET)
    from repro.bench import ALL_BENCHMARKS
    return [b.name for b in ALL_BENCHMARKS if b.suite == "polybench"]


class Cell:
    """One executed cell: its key, timing and outcome."""

    __slots__ = ("key", "timing", "result", "error", "failed")

    def __init__(self, key: tuple, timing: tuple, result=None,
                 error: Optional[str] = None):
        self.key = key
        self.timing = timing  # HostSpeed.end() of the cell
        self.result = result
        self.error = error
        self.failed = error is not None

    def canonical(self) -> str:
        if self.result is None:
            return "error:" + (self.error or "")
        return self.result.to_json()


def model_digest(cells: Sequence[Cell]) -> str:
    digest = hashlib.sha256()
    for cell in cells:
        digest.update(repr(cell.key).encode())
        digest.update(b"\0")
        digest.update(cell.canonical().encode())
        digest.update(b"\n")
    return digest.hexdigest()


# -- sweeps (exec-small, startup-test) ---------------------------------------

def prepare_sweep(workload: str, cache_dir: Optional[str],
                  limit: Optional[int]):
    from repro.harness import Harness
    spec = WORKLOADS[workload]
    names = sweep_benchmarks(workload)[:limit]
    return Harness(size=spec["size"], opt_level=2, benchmarks=names,
                   cache_dir=cache_dir if spec["disk_cache"] else None)


def run_sweep(harness, speed: HostSpeed, trace: Optional[LayerTrace]):
    """Every (benchmark, engine) cell, benchmark-major as ``wabench``
    runs them, then the Figure 1 report.  Returns (cells, executed
    results, report error or None)."""
    from repro.harness.experiments import EXPERIMENTS
    from repro.registry import ENGINES

    order = [(name, engine) for name in harness.benchmark_names
             for engine in ENGINES]
    done: Dict[tuple, Cell] = {}
    for key in order:
        begun = speed.begin()
        try:
            result = harness.run(*key)
            error = None
        except Exception as exc:  # counted as a failed cell, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        done[key] = Cell(key, speed.end(begun), result, error)
        if result is not None and not result.ok:
            done[key].failed = True

    cells = [done[key] for key in order]
    for cell in cells:
        native = done[(cell.key[0], "native")]
        if native.failed or (cell.result is not None and
                             cell.result.stdout != native.result.stdout):
            cell.failed = True

    report_error = None
    if any(cell.failed for cell in cells):
        report_error = "skipped: failed cells"
    else:
        def render():
            return EXPERIMENTS["fig1"](harness).render()
        try:
            text = trace.run("harness.report", render) if trace else render()
            if not text:
                report_error = "empty Figure 1"
        except Exception as exc:
            report_error = f"{type(exc).__name__}: {exc}"
    executed = [cell.result for cell in cells if cell.result is not None]
    return cells, executed, report_error


# -- fuzz-seed ------------------------------------------------------------

class CellRecorder:
    """Wraps ``CellRunner.run_cell`` to observe the campaign's cells.

    A cell that raises is recorded as failed and handed back to the
    oracle as a trapped result, so the campaign keeps going and reports
    it as divergent.
    """

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.cells: List[Cell] = []
        self.executed: List[object] = []

    def install(self):
        from repro.fuzz.engines import CellRunner
        from repro.runtimes import RunResult
        original = CellRunner.__dict__["run_cell"]
        recorder = self

        def run_cell(runner, source, engine, opt, use_cache=True):
            begun = recorder.speed.begin()
            try:
                result = original(runner, source, engine, opt,
                                  use_cache=use_cache)
                error = None
            except Exception as exc:  # counted, then seen by the oracle
                error = f"{type(exc).__name__}: {exc}"
                result = RunResult(runtime=engine, stdout=b"", exit_code=0,
                                   trap=f"benchmark: {error}", seconds=0.0,
                                   cycles=0, mrss_bytes=0, counters={})
            timing = recorder.speed.end(begun)
            if error is None:
                recorder.executed.append(result)
            if use_cache:  # the determinism recompute is oracle work
                key = (len(recorder.cells), engine, opt)
                recorder.cells.append(Cell(
                    key, timing, None if error else result, error))
            return result

        CellRunner.run_cell = run_cell
        return lambda: setattr(CellRunner, "run_cell", original)


def run_fuzz(seed: int, cache_dir: Optional[str], budget: int,
             speed: HostSpeed, trace: Optional[LayerTrace],
             engines: Optional[Sequence[str]] = None):
    """The seeded campaign, then its rendered report."""
    from repro.fuzz import run_campaign
    from repro.fuzz.engines import DEFAULT_ENGINES

    engines = tuple(engines or DEFAULT_ENGINES)
    recorder = CellRecorder(speed)
    restore = recorder.install()
    try:
        report = run_campaign(seed, budget=budget, engines=engines,
                              cache_dir=cache_dir, jobs=1)
        text = trace.run("harness.report", report.render) if trace \
            else report.render()
    finally:
        restore()
    # Cells per program, in campaign order: engines x -O levels.
    per_program = len(engines) * len(report.opt_levels)
    divergent = set()
    for verdict in report.verdicts:
        for divergence in verdict.divergences:
            divergent.add((verdict.index,) + tuple(divergence.cell))
    for position, cell in enumerate(recorder.cells):
        index, engine, opt = position // per_program, cell.key[1], cell.key[2]
        # A static finding flags the module every cell at that -O ran.
        if {(index, engine, opt), (index, "static", opt)} & divergent:
            cell.failed = True
    report_error = None if text else "empty campaign report"
    if report.cells_run != len(recorder.cells):
        report_error = (f"campaign ran {report.cells_run} cells, "
                        f"benchmark saw {len(recorder.cells)}")
    return recorder.cells, recorder.executed, report_error


# -- one pass ---------------------------------------------------------------

def execution_instructions(results, interp: bool) -> int:
    """Modeled instructions of the ``execute`` phase, summed over the
    results whose engine is (or is not) an interpreter."""
    total = 0
    for result in results:
        if (result.runtime in INTERP_ENGINES) != interp:
            continue
        for span in result.trace:
            if span["span"] == "execute" and span["parent"] == 0:
                total += span["instructions"]
    return total


def sim_counts(cells: Sequence[Cell]) -> Dict[str, int]:
    counts = {"hw.sim_instructions": 0, "hw.sim_cycles": 0,
              "hw.cache_misses": 0, "hw.branch_misses": 0,
              "wasi.calls": 0, "wasi.bytes": 0}
    for cell in cells:
        result = cell.result
        if result is None:
            continue
        counts["hw.sim_instructions"] += int(result.counters["instructions"])
        counts["hw.sim_cycles"] += result.cycles
        counts["hw.cache_misses"] += int(result.counters["cache_misses"])
        counts["hw.branch_misses"] += int(result.counters["branch_misses"])
        for stats in result.wasi_calls.values():
            counts["wasi.calls"] += stats["calls"]
            counts["wasi.bytes"] += stats["bytes"]
    return counts


def layer_metrics(trace: LayerTrace, executed, host_wall: float,
                  scale: float) -> Dict:
    """The per-layer numbers of one traced pass, in reference seconds
    (host seconds times ``scale``)."""
    out = {f"{layer}_s": trace.self_s.get(layer, 0.0) * scale
           for layer in ALL_LAYERS}
    out["compiler.compiles"] = trace.calls.get("compiler.backend", 0)
    out["speed.closures.binds"] = trace.calls.get("speed.closures.bind", 0)
    out["speed.predecodes"] = trace.calls.get("speed.predecode", 0)
    out["runtimes.jit.compiles"] = trace.calls.get("runtimes.jit.compile", 0)
    out["wasm.decodes"] = trace.calls.get("wasm.decode", 0)
    for name, interp in (("isa.machine", False), ("runtimes.interp", True)):
        instructions = execution_instructions(executed, interp)
        out[f"{name}.ns_per_sim_instr"] = (
            out[f"{name}.exec_s"] * 1e9 / instructions if instructions
            else 0.0)
    out["unattributed_s"] = (host_wall - trace.attributed_s()) * scale
    return out


def run_pass(workload: str, seed: int, cache_dir: Optional[str],
             trace: bool, limit: Optional[int] = None,
             engines: Optional[Sequence[str]] = None,
             setup_only: bool = False) -> Dict:
    """Set up, run and check one pass; returns its measurements."""
    spec = WORKLOADS[workload]
    layer_trace = LayerTrace() if trace else None
    harness = None
    if spec["kind"] == "sweep":
        harness = prepare_sweep(workload, cache_dir, limit)
    else:
        import repro.fuzz  # noqa: F401  (campaign imports are set-up)
    if layer_trace is not None:
        layer_trace.install()
    ready_at = time.time()
    if setup_only:
        return {"ready_at": ready_at}

    speed = HostSpeed(layer_trace.exclude if layer_trace else None)
    speed.start()
    begun = speed.begin()
    try:
        if harness is not None:
            cells, executed, report_error = run_sweep(harness, speed,
                                                      layer_trace)
        else:
            budget = spec["budget"] if limit is None else limit
            cells, executed, report_error = run_fuzz(
                seed, cache_dir, budget, speed, layer_trace, engines)
        timing = speed.end(begun)
    finally:
        speed.stop()
        if layer_trace is not None:
            layer_trace.uninstall()
    wall = speed.scaled(timing)

    failed = sum(cell.failed for cell in cells)
    out = {
        "ready_at": ready_at,
        "wall_s": wall,
        "host_wall_s": timing[0],
        "attempted": len(cells),
        "failed": failed,
        "report_error": report_error,
        "cell_seconds": [speed.scaled(cell.timing) for cell in cells],
        "model_digest": model_digest(cells),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": sim_counts(cells),
    }
    if layer_trace is not None:
        out["layers"] = layer_metrics(layer_trace, executed, timing[0],
                                      wall / timing[0])
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--limit", type=int, default=None,
                        help="first N programs only (the benchmark's "
                             "own tests)")
    args = parser.parse_args(argv)
    out = run_pass(args.workload, args.seed, args.cache_dir,
                   bool(args.trace), limit=args.limit,
                   setup_only=args.setup_only)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
