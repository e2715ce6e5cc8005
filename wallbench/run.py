#!/usr/bin/env python3
"""Wall-clock benchmark of the wabench pipeline.

Runs one workload for about ``--seconds`` seconds as a series of cold
passes, each in a fresh single process (``worker.py``), checks every
cell's output, and prints each metric by name with its unit.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the passes alternate untraced and traced, and the metrics
are the per-layer ones of the traced passes (see ``layers.py``).

Usage, from the root of a checkout::

    python3 wallbench/run.py --workload exec-small --seed 1 --seconds 30 --trace 0

Workloads and metrics are documented in ``wallbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from hostspeed import scale_now  # noqa: E402
from layers import ALL_LAYERS  # noqa: E402

WORKLOADS = ("exec-small", "startup-test", "fuzz-seed")

#: Extra set-up-only processes per run; ``setup_s`` is the median of
#: these and of every untraced pass's own set-up.
SETUP_PROBES = 8

#: A pass that has not ended by then is killed, and the run fails.
PASS_TIMEOUT_S = 150

#: Environment that would change what a pass computes.
_DROPPED_ENV = ("REPRO_SPEED", "WABENCH_CACHE_DIR", "REPRO_FUZZ_SEED")

END_TO_END = (("setup_s", "s"), ("cells_per_s", "1/s"),
              ("sim_minstr_per_s", "Minstr/s"), ("cell_p50_s", "s"),
              ("cell_p90_s", "s"), ("peak_rss_mb", "MB"))

COUNTS = ("compiler.compiles", "speed.closures.binds", "speed.predecodes",
          "runtimes.jit.compiles", "wasm.decodes", "hw.sim_instructions",
          "hw.sim_cycles", "hw.cache_misses", "hw.branch_misses",
          "wasi.calls", "wasi.bytes")

PER_LAYER = tuple((f"{layer}_s", "s") for layer in ALL_LAYERS) + \
    tuple((name, "count") for name in COUNTS) + (
        ("isa.machine.ns_per_sim_instr", "ns"),
        ("runtimes.interp.ns_per_sim_instr", "ns"),
        ("unattributed_s", "s"), ("trace_overhead_share", "ratio"))


class PassError(RuntimeError):
    """A worker process failed or timed out (not a cell failure)."""


def run_worker(workload: str, seed: int, trace: bool,
               setup_only: bool = False,
               limit: Optional[int] = None) -> Dict:
    """One pass in a fresh process, with a fresh empty cache dir."""
    tmp_root = os.path.join(ROOT, ".wallbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="pass-", dir=tmp_root)
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0",
           "--cache-dir", cache_dir]
    if setup_only:
        cmd.append("--setup-only")
    if limit is not None:
        cmd += ["--limit", str(limit)]
    env = {k: v for k, v in os.environ.items() if k not in _DROPPED_ENV}
    # A fixed string-hash seed keeps set and dict layouts, and with them
    # the host work of a pass, the same from pass to pass.
    env["PYTHONHASHSEED"] = "0"
    # Set-up ends before a pass can probe, so it is scaled by probes
    # taken here, on the same CPU, just before the spawn.
    scale = scale_now()
    spawned_at = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass timed out after {exc.timeout}s")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise PassError(f"{workload} pass exited {proc.returncode}:\n{tail}")
    out = json.loads(lines[-1])
    out["setup_s"] = (out["ready_at"] - spawned_at) * scale
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(passes: List[Dict], setups: List[float]) -> Dict[str, float]:
    def median_of(fn):
        return statistics.median(fn(p) for p in passes)

    cell_seconds = [s for p in passes for s in p["cell_seconds"]]
    return {
        "setup_s": statistics.median(setups),
        "cells_per_s": median_of(
            lambda p: (p["attempted"] - p["failed"]) / p["wall_s"]),
        "sim_minstr_per_s": median_of(
            lambda p: p["counts"]["hw.sim_instructions"] / p["wall_s"] / 1e6),
        "cell_p50_s": statistics.median(cell_seconds),
        "cell_p90_s": percentile(cell_seconds, 90),
        "peak_rss_mb": median_of(lambda p: p["peak_rss_mb"]),
    }


def per_layer(traced: List[Dict], untraced_cps: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, _unit in PER_LAYER:
        samples = [p["layers"].get(name, p["counts"].get(name))
                   for p in traced]
        if None not in samples:
            out[name] = statistics.median(samples)
    traced_cps = statistics.median(
        (p["attempted"] - p["failed"]) / p["wall_s"] for p in traced)
    out["trace_overhead_share"] = untraced_cps / traced_cps - 1.0
    return out


def pin_to_one_cpu() -> None:
    """Keep this process and the passes it starts on one CPU.

    The CPUs of a shared virtual machine can run at very different
    speeds (35% apart on the machine the README describes), so a pass
    that migrates between them would read the mix.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(workload: str, seed: int, seconds: float, trace: bool,
            limit: Optional[int] = None) -> Dict:
    """All passes of one run; returns the result object to print."""
    pin_to_one_cpu()
    start = time.perf_counter()
    setups = [run_worker(workload, seed, False, setup_only=True,
                         limit=limit)["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes: List[Dict] = []
    traced: List[Dict] = []
    while True:
        tracing = trace and len(traced) < len(passes)
        began = time.perf_counter()
        out = run_worker(workload, seed, tracing, limit=limit)
        (traced if tracing else passes).append(out)
        if not tracing:
            setups.append(out["setup_s"])
        last = time.perf_counter() - began
        complete = bool(traced) or not trace
        if complete and time.perf_counter() - start + last > seconds:
            break

    everything = passes + traced
    digests = sorted({p["model_digest"] for p in everything})
    errors = [p["report_error"] for p in everything if p["report_error"]]
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    metrics = end_to_end(passes, setups)
    cell_samples = sum(len(p["cell_seconds"]) for p in passes)

    print(f"wallbench: workload={workload} seed={seed} "
          f"passes={len(passes)} traced_passes={len(traced)} "
          f"setups={len(setups)}")
    print(f"wallbench: cells attempted={attempted} failed={failed} "
          f"failed_share={failed / max(attempted, 1):.4f}")
    print(f"wallbench: model_digest={' '.join(digests)}")
    print("wallbench: pass wall, host s -> reference s: " + ", ".join(
        f"{p['host_wall_s']:.3f} -> {p['wall_s']:.3f}" for p in everything))
    for error in errors:
        print(f"wallbench: report error: {error}")
    if trace:
        metrics = per_layer(traced, metrics["cells_per_s"])
        shown = PER_LAYER
    else:
        shown = END_TO_END
    for name, unit in shown:
        note = ""
        if name == "cell_p90_s":
            beyond = cell_samples - -(-cell_samples * 90 // 100)
            note = f"  (n={cell_samples}, {beyond} beyond)"
        print(f"  {name:34s} {metrics[name]:>16.6f} {unit}{note}")
    return {
        "correct": failed == 0 and not errors and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in shown},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="wallbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("wallbench: no src/repro next to this benchmark; run it "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except PassError as exc:
        print(f"wallbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
