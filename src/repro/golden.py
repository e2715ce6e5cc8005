"""The committed goldens and the one byte-exact gate over them.

Each member is a committed file plus a producer, ``produce(cache_dir,
jobs) -> str``, that regenerates it through the library entry point of
the command that owns it.  ``wabench golden check|update [names...]``
produces each member cold in a fresh cache directory, warm in the same
directory, and with ``JOBS`` workers in another fresh one.  The three
outputs must be byte-identical, so ``update`` never re-goldens over a
determinism bug; ``check`` then byte-compares against the committed file.
"""

from __future__ import annotations

import difflib
import json
import os
import shutil
import tempfile
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from .errors import HarnessError
from .fuzz.perf import DEFAULT_BASELINE_PATH

#: Worker count of the fan-out run.
JOBS = 4

#: Unified-diff lines printed on a mismatch before truncating.
DIFF_LINES = 40

IO_SCHEMA = "wabench-io/1"


def _cli_args(*argv: str):
    """Parsed ``wabench`` arguments, so a producer inherits the
    defaults its command declares instead of restating them."""
    from .harness.cli import build_parser
    return build_parser().parse_args(list(argv))


def _produce_audit(cache_dir: str, jobs: int) -> str:
    from .analysis import audit

    args = _cli_args("audit")
    suite = audit.run_suite_audit(args.size, args.opt, cache_dir=cache_dir,
                                  jobs=jobs)
    violated = suite.stack_violations()
    if violated:
        raise HarnessError("static stack bound violated in: "
                           + ", ".join(violated))
    return json.dumps(suite.baseline_dict(), indent=1, sort_keys=True) + "\n"


def _produce_io(cache_dir: str, jobs: int) -> str:
    """Stdout, exit code and per-syscall profile of every io-class
    benchmark on every Wasm engine."""
    from .bench import io_names
    from .harness import Harness
    from .registry import ALL_RUNTIME_NAMES

    benches = list(io_names())
    harness = Harness(size="test", benchmarks=benches, cache_dir=cache_dir)
    if jobs > 1:
        harness.prewarm([(bench, engine, harness.default_opt, False)
                         for bench in benches
                         for engine in ALL_RUNTIME_NAMES], jobs=jobs)
    profiles = {}
    for bench in benches:
        profiles[bench] = {}
        for engine in ALL_RUNTIME_NAMES:
            result = harness.run(bench, engine)
            profiles[bench][engine] = {"stdout": result.stdout_text(),
                                       "exit_code": result.exit_code,
                                       "wasi": result.wasi_calls}
    report = {"schema": IO_SCHEMA, "size": harness.size,
              "engines": list(ALL_RUNTIME_NAMES), "profiles": profiles}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _produce_serve(cache_dir: str, jobs: int) -> str:
    """``wabench serve --seed 0``'s canonical JSON report."""
    from .harness.cli import _make_harness, _validate_serve_args
    from .serve import report_json, run_serve

    args = _cli_args("serve", "--seed", "0", "--cache-dir", cache_dir)
    grid = _validate_serve_args(args)
    harness = _make_harness(args, benchmarks=grid["workloads"])
    return report_json(run_serve(harness, jobs=jobs, **grid))


def _produce_perf(cache_dir: str, jobs: int) -> str:
    """The perf-oracle baseline; ``build_baseline`` has no fan-out, so
    ``jobs`` is unused and the third run is a second cold one."""
    from . import speed
    from .fuzz.engines import CellRunner
    from .fuzz.perf import DEFAULT_BUDGET, DEFAULT_SEED, build_baseline
    from .harness.cache import ArtifactCache

    cache = ArtifactCache(cache_dir)
    speed.module_cache.attach_disk(cache)
    return build_baseline(DEFAULT_SEED, DEFAULT_BUDGET,
                          runner=CellRunner(cache=cache)).to_json()


class Golden(NamedTuple):
    """One committed file and the producer that regenerates it."""

    name: str
    path: str
    produce: Callable[[str, int], str]


GOLDENS: Dict[str, Golden] = {g.name: g for g in (
    Golden("audit", "AUDIT_baseline.json", _produce_audit),
    Golden("io", "IO_golden.json", _produce_io),
    Golden("serve", "SERVE_golden.json", _produce_serve),
    Golden("perf", DEFAULT_BASELINE_PATH, _produce_perf),
)}


def select(names: Sequence[str]) -> List[Golden]:
    """The named members (all of them when ``names`` is empty)."""
    for name in names:
        if name not in GOLDENS:
            raise HarnessError(f"unknown golden {name!r}; choose from "
                               f"{', '.join(GOLDENS)}")
    return [GOLDENS[n] for n in (names or GOLDENS)]


def produce(golden: Golden) -> Optional[str]:
    """Produce ``golden`` cold, warm and fanned out; the common text, or
    None (after printing which run diverged) when they disagree."""
    from . import speed

    tmp = tempfile.mkdtemp(prefix=f"golden-{golden.name}-")
    runs = {}
    try:
        for label, sub, jobs in (("cold", "cache", 1), ("warm", "cache", 1),
                                 ("--jobs", "jobs", JOBS)):
            speed.module_cache.clear()
            runs[label] = golden.produce(os.path.join(tmp, sub), jobs)
    finally:
        speed.module_cache.attach_disk(None)
        speed.module_cache.clear()
        shutil.rmtree(tmp, ignore_errors=True)
    diverged = [label for label, text in runs.items() if text != runs["cold"]]
    for label in diverged:
        print(f"golden {golden.name}: DETERMINISM VIOLATION: the {label} "
              "run diverged from the cold run (fix the bug; never "
              "re-golden over one)")
    return None if diverged else runs["cold"]


def run(mode: str, names: Sequence[str]) -> int:
    """``wabench golden check|update [names...]``; returns the exit code."""
    from .obs import Stopwatch

    failed = False
    for golden in select(names):
        watch = Stopwatch()
        produced = produce(golden)
        took = f"{watch.seconds:.1f}s"
        if produced is None:
            failed = True
            continue
        committed = ""
        if os.path.exists(golden.path):
            with open(golden.path, "rb") as f:
                committed = f.read().decode()
        if produced == committed:
            print(f"golden {golden.name}: {golden.path} is current "
                  f"(cold/warm/--jobs byte-identical, {took})")
        elif mode == "update":
            with open(golden.path, "wb") as f:
                f.write(produced.encode())
            print(f"golden {golden.name}: wrote {golden.path} ({took})")
        else:
            failed = True
            print(f"golden {golden.name}: {golden.path} does not match a "
                  "fresh run")
            diff = list(difflib.unified_diff(
                committed.splitlines(), produced.splitlines(),
                f"{golden.path} (committed)", f"{golden.path} (produced)",
                lineterm=""))
            for line in diff[:DIFF_LINES]:
                print(f"  {line}")
            if len(diff) > DIFF_LINES:
                print(f"  ... {len(diff) - DIFF_LINES} more diff line(s)")
            print(f"  refresh: wabench golden update {golden.name}")
    return 1 if failed else 0
