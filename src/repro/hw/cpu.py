"""The CPU model façade every execution engine reports to.

One :class:`CPUModel` lives for the duration of a measured run.  Execution
engines (the native machine executor, the interpreters, the JIT compilers)
feed it architectural events — retired instructions, branches, memory and
instruction-fetch accesses — and the model maintains the counters, cache
hierarchy, branch predictors, stall-cycle accounting, and resident-memory
accounting that the harness reads out at the end, exactly the role the
Xeon's PMU plays for ``perf`` in the paper.

Hot paths may skip these wrappers and call ``cpu.counters``,
``cpu.caches`` and ``cpu.branches`` directly.  They may shadow a hit
path in locals (see ``repro.isa.machine``), but every update rule lives
in :mod:`repro.hw.branch` and :mod:`repro.hw.cache`: a miss or update
calls the model's own method, after writing the shadowed state back or
handing it over (``BranchPredictor.indirect_update`` takes the target
history).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..obs.spans import NULL_BUILDER
from .branch import BranchPredictor
from .cache import CacheHierarchy
from .config import MachineConfig
from .counters import PerfCounters
from .memory import MemoryAccountant


class CPUModel:
    """Counters + caches + predictors + memory accounting for one run."""

    def __init__(self, config: Optional[MachineConfig] = None):
        self.config = config or MachineConfig()
        self.counters = PerfCounters(issue_width=self.config.issue_width)
        self.caches = CacheHierarchy(self.config, self.counters)
        self.branches = BranchPredictor(self.config.branch, self.counters)
        self.memory = MemoryAccountant()
        self.line_shift = self.caches.line_shift
        # Model-time span recorder; a RunPipeline swaps in a live
        # TraceBuilder, everything else keeps the no-op default.  The
        # engines and JIT backends emit child spans through this without
        # knowing whether anyone is listening.
        self.trace = NULL_BUILDER

    # -- retirement ----------------------------------------------------

    def retire(self, n: int = 1) -> None:
        """Retire ``n`` machine instructions."""
        self.counters.instructions += n

    # -- memory system ----------------------------------------------------

    def ifetch_line(self, line: int) -> None:
        self.counters.stall_cycles += self.caches.ifetch_line(line)

    def data_access(self, address: int, size: int = 4) -> None:
        self.counters.stall_cycles += self.caches.data_access(address, size)

    # -- control flow ------------------------------------------------------

    def cond_branch(self, pc: int, taken: bool) -> bool:
        return self.branches.cond_branch(pc, taken)

    def indirect_branch(self, pc: int, target: int) -> bool:
        return self.branches.indirect_branch(pc, target)

    def direct_branch(self) -> None:
        self.branches.direct_branch()

    def call(self, return_pc: int) -> None:
        self.branches.call(return_pc)

    def ret(self, target_pc: int) -> bool:
        return self.branches.ret(target_pc)

    # -- readout -------------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.counters.cycles

    @property
    def seconds(self) -> float:
        """Modeled wall-clock time of everything charged so far."""
        return self.config.cycles_to_seconds(self.counters.cycles)

    def report(self) -> Dict[str, float]:
        out = self.counters.snapshot()
        out["seconds"] = self.seconds
        out["mrss_bytes"] = self.memory.peak_bytes
        return out
