#!/usr/bin/env python3
"""Regenerate every paper artifact and write results/ + timing summary.

One shared harness serves all experiments (runs are cached and reused
across figures exactly as one `perf` session serves many tables).
Every experiment covers all 50 benchmarks, or with SCOPE=cross the
16-benchmark cross-section below, noted in each table.  Figure 4 runs
only -O0 against the shared -O2 runs.

Usage: generate_experiments.py [OUT=results] [SIZE=small] [SCOPE=full|cross]
"""

import os
import sys

from repro.bench import ALL_BENCHMARKS
from repro.harness import Harness
from repro.harness.experiments import EXPERIMENTS, perf
from repro.obs.timing import wall_clock

OUT = sys.argv[1] if len(sys.argv) > 1 else "results"
SIZE = sys.argv[2] if len(sys.argv) > 2 else "small"
SCOPE = sys.argv[3] if len(sys.argv) > 3 else "full"   # full | cross

# A 16-benchmark cross-section, used when SCOPE=cross: three each from
# JetStream2, MiBench and PolyBench plus all seven whole applications.
CROSS_SECTION = [
    "gcc-loops", "quicksort", "tsf",
    "sha", "crc32", "bitcount",
    "gemm", "jacobi-2d", "trisolv",
    "bzip2", "espeak", "facedetection", "gnuchess", "mnist", "snappy",
    "whitedb",
]


def main() -> None:
    os.makedirs(OUT, exist_ok=True)
    harness = Harness(size=SIZE) if SCOPE == "full" else \
        Harness(size=SIZE, benchmarks=CROSS_SECTION)

    order = ["fig1", "fig5", "fig6", "fig7", "fig8", "table5", "fig9",
             "fig10", "fig2", "fig11", "fig3", "fig12", "table4", "fig13",
             "fig14", "fig4"]
    total_start = wall_clock()
    for experiment_id in order:
        fn = EXPERIMENTS[experiment_id]
        start = wall_clock()
        if experiment_id == "fig4":
            # The -O sweep multiplies every configuration; regenerate the
            # -O0 baseline against the shared -O2 runs (-O1/-O3 shift
            # results by <5% — run `wabench fig4` for the full sweep).
            table = perf.fig4(harness, opt_levels=(0, 2))
        else:
            table = fn(harness)
        if SCOPE != "full":
            table.note(f"run over a {len(CROSS_SECTION)}-benchmark "
                       "cross-section (3 per suite group + all 7 apps)")
        text = table.render()
        with open(os.path.join(OUT, f"{experiment_id}.txt"), "w") as f:
            f.write(text + "\n")
        print(text)
        print(f"  [{experiment_id}: {wall_clock() - start:.0f}s wall]\n",
              flush=True)
    print(f"total wall: {(wall_clock() - total_start) / 60:.1f} min")


if __name__ == "__main__":
    main()
