"""The virtual CPU executor: runs machine programs against the hw model.

This is the single hottest loop in the repository — it executes every
native run and every JIT/AOT-compiled run.  Per *basic block* it charges
retired instructions and instruction-cache fetches (precomputed by
``MProgram.finalize``); per *memory access* it performs the real typed
access on the shared :class:`~repro.isa.memory.LinearMemory` and charges
the data-cache hierarchy; per *branch* it consults the branch predictor.
Everything the paper measures falls out of these three event streams.

Style note: the dispatch loop deliberately trades idiomatic structure for
locality — locals are bound once per call frame, the opcode space is
range-partitioned and the L1 hit paths are shadowed in locals — because
it executes millions of times per experiment.  The branch predictor and
every cache miss go through the :mod:`repro.hw` model's own methods.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ReproError, Trap
from ..hw import CPUModel
from ..hw.config import HOST_STACK_BASE, RUNTIME_DATA_BASE
from . import ops
from .memory import LinearMemory
from .program import MFunction, MProgram

# Precompiled struct codecs per load/store opcode.
_LOADS: Dict[int, tuple] = {}
for _op, (_size, _fmt, _mask) in ops.LOAD_CODEC.items():
    _LOADS[_op] = (_size, struct.Struct("<" + _fmt).unpack_from, _mask)
_STORES: Dict[int, tuple] = {}
for _op, (_size, _fmt, _mask) in ops.STORE_CODEC.items():
    _STORES[_op] = (_size, struct.Struct("<" + _fmt).pack_into, _mask)
# Ops that touch one L1D line and share the hit path: loads, stores,
# globals and register spill/reload.
_DATA = frozenset(_LOADS) | frozenset(_STORES) | {
    ops.GGET, ops.GSET, ops.SPILL, ops.RELOAD}
_CALLS = frozenset((ops.CALL, ops.CALL_HOST, ops.CALL_IND))

_GLOBALS_ADDR = RUNTIME_DATA_BASE + 0x0010_0000
_HOST_CALL_INSTRS = 24       # trampoline + ABI shuffle per host call
_MAX_CALL_DEPTH = 1200

# Each guest call costs a few CPython frames; keep the interpreter's own
# recursion limit comfortably above the guest's.
import sys as _sys

if _sys.getrecursionlimit() < _MAX_CALL_DEPTH * 5 + 200:
    _sys.setrecursionlimit(_MAX_CALL_DEPTH * 5 + 200)

HostFn = Callable[["Machine", Sequence], Optional[float]]


class Machine:
    """Executes one finalized :class:`MProgram`."""

    def __init__(self, program: MProgram, cpu: CPUModel,
                 memory: Optional[LinearMemory] = None,
                 host: Optional[Dict[str, HostFn]] = None,
                 check_cost: bool = False):
        if not program.finalized:
            raise ReproError("program must be finalized before execution")
        self.program = program
        self.cpu = cpu
        self.memory = memory or LinearMemory(program.memory_pages,
                                             program.memory_max_pages)
        self.globals: List = list(program.globals_init)
        self.table: List[int] = list(program.table)
        self.check_cost = check_cost
        host = host or {}
        self.host_functions: List[HostFn] = []
        for name in program.host_imports:
            fn = host.get(name)
            if fn is None:
                raise ReproError(f"unresolved host import {name!r}")
            self.host_functions.append(fn)
        self._depth = 0
        self._frame_top = HOST_STACK_BASE
        self.returned_value = None

    # -- program environment setup -------------------------------------

    def apply_data_segments(self) -> None:
        for offset, payload in self.program.data_segments:
            self.memory.write_bytes(offset, payload)

    def run_start(self) -> None:
        if self.program.start_function is not None:
            self.call_function(self.program.start_function, ())

    def run_export(self, name: str, args: Sequence = ()) -> Optional[float]:
        index = self.program.exports.get(name)
        if index is None:
            raise ReproError(f"no exported function {name!r}")
        return self.call_function(index, args)

    # -- execution ----------------------------------------------------------

    def call_function(self, func_index: int, args: Sequence):
        func = self.program.functions[func_index]
        if len(args) != func.num_params:
            raise ReproError(f"{func.name}: expected {func.num_params} args, "
                             f"got {len(args)}")
        return self._call(func, list(args))

    def _call(self, func: MFunction, args: List):
        self._depth += 1
        if self._depth > _MAX_CALL_DEPTH:
            self._depth -= 1
            raise Trap("call stack exhausted")
        frame_bytes = (func.frame_slots + 2 + func.num_params) * 8
        self._frame_top -= frame_bytes
        frame_base = self._frame_top
        try:
            return self._exec(func, args, frame_base)
        finally:
            self._frame_top += frame_bytes
            self._depth -= 1

    def _sync(self, stall: int, br: int, l1i_refs: int, l1d_refs: int,
              l1i_tick: int, l1d_tick: int) -> None:
        """Write a frame's pending charges and L1 clocks back to the model."""
        counters = self.cpu.counters
        caches = self.cpu.caches
        counters.stall_cycles += stall
        counters.branches += br
        counters.l1i.refs += l1i_refs
        counters.l1d.refs += l1d_refs
        caches.l1i.tick = l1i_tick
        caches.l1d.tick = l1d_tick

    def _exec(self, func: MFunction, args: List, frame_base: int):
        # Bind everything hot into locals.
        code = func.code
        blocks = func.blocks
        regs = args + [0] * (func.num_regs - len(args))
        counters = self.cpu.counters
        caches = self.cpu.caches
        l1i = caches.l1i
        l1d = caches.l1d
        l1i_access = l1i.access_line
        l1d_access = l1d.access_line
        line_shift = caches.line_shift
        branches = self.cpu.branches
        sync = self._sync
        mem = self.memory
        mem_data = mem.data
        mem_size = mem.size
        touched = mem.touched
        binf = ops.BINF
        unf = ops.UNF
        num_bin = ops.NUM_BIN
        num_un = ops.NUM_UN_END
        extra_stall = ops.EXTRA_STALL
        func_tag = (func.index & 0xFFFF) << 16
        guest_line_base = 0x1000_0000 >> line_shift  # GUEST_MEMORY_BASE
        pc = 0
        stall = 0

        # Shadowed model state: pending stall cycles, direct-branch and
        # L1 reference counts, and the L1 LRU clocks live in frame
        # locals.  ``sync`` writes them back before every observation
        # point (calls, traps, return), and an L1 miss writes back and
        # falls through to the real ``access_line``, so the modeled
        # numbers are byte-identical to calling the model per event.
        # Conditional and indirect branches call the predictor itself.
        br = 0
        l1i_sets = l1i.sets
        l1i_smask = l1i.set_mask
        l1i_stats = l1i.stats
        l1i_tick = l1i.tick
        l1i_refs = 0
        l1d_sets = l1d.sets
        l1d_smask = l1d.set_mask
        l1d_stats = l1d.stats
        l1d_tick = l1d.tick
        l1d_refs = 0

        while True:
            # Entered at the function entry and after every branch:
            # charge the basic block starting at ``pc``.
            blk = blocks[pc]
            counters.instructions += blk[0]
            for ln in blk[1]:
                cs = l1i_sets[ln & l1i_smask]
                if ln in cs:
                    l1i_tick += 1
                    l1i_refs += 1
                    cs[ln] = l1i_tick
                else:
                    l1i.tick = l1i_tick
                    l1i_stats.refs += l1i_refs
                    l1i_refs = 0
                    stall += l1i_access(ln)
                    l1i_tick = l1i.tick

            while True:
                ins = code[pc]
                o = ins[0]
                if o < num_bin:
                    s = extra_stall[o]
                    if s:
                        stall += s
                    regs[ins[1]] = binf[o](regs[ins[2]], regs[ins[3]])
                    pc += 1
                elif o < num_un:
                    s = extra_stall[o]
                    if s:
                        stall += s
                    regs[ins[1]] = unf[o - num_bin](regs[ins[2]])
                    pc += 1
                elif o == ops.LI:
                    regs[ins[1]] = ins[2]
                    pc += 1
                elif o == ops.MOV:
                    regs[ins[1]] = regs[ins[2]]
                    pc += 1
                elif o in _DATA:
                    if o in _LOADS:
                        size, unpack, mask = _LOADS[o]
                        addr = regs[ins[2]] + ins[3]
                        if addr + size > mem_size:
                            sync(stall, br, l1i_refs, l1d_refs,
                                 l1i_tick, l1d_tick)
                            raise Trap("out of bounds memory access",
                                       f"{func.name}: load at {addr}")
                        value = unpack(mem_data, addr)[0]
                        regs[ins[1]] = (value & mask) if mask else value
                        ln = guest_line_base + (addr >> line_shift)
                    elif o in _STORES:
                        size, pack, mask = _STORES[o]
                        addr = regs[ins[1]] + ins[2]
                        if addr + size > mem_size:
                            sync(stall, br, l1i_refs, l1d_refs,
                                 l1i_tick, l1d_tick)
                            raise Trap("out of bounds memory access",
                                       f"{func.name}: store at {addr}")
                        value = regs[ins[3]]
                        pack(mem_data, addr,
                             (value & mask) if mask else value)
                        touched.add(addr >> 12)
                        ln = guest_line_base + (addr >> line_shift)
                    elif o == ops.GGET:
                        regs[ins[1]] = self.globals[ins[2]]
                        ln = (_GLOBALS_ADDR + ins[2] * 8) >> line_shift
                    elif o == ops.GSET:
                        self.globals[ins[1]] = regs[ins[2]]
                        ln = (_GLOBALS_ADDR + ins[1] * 8) >> line_shift
                    else:  # SPILL / RELOAD: accounting only
                        ln = (frame_base + ins[1] * 8) >> line_shift
                    cs = l1d_sets[ln & l1d_smask]
                    if ln in cs:
                        l1d_tick += 1
                        l1d_refs += 1
                        cs[ln] = l1d_tick
                    else:
                        l1d.tick = l1d_tick
                        l1d_stats.refs += l1d_refs
                        l1d_refs = 0
                        stall += l1d_access(ln)
                        l1d_tick = l1d.tick
                    pc += 1
                elif o == ops.BRZ or o == ops.BRNZ:
                    taken = (regs[ins[1]] == 0) == (o == ops.BRZ)
                    branches.cond_branch(func_tag | pc, taken)
                    pc = ins[2] if taken else pc + 1
                    break
                elif o == ops.JMP:
                    br += 1
                    pc = ins[1]
                    break
                elif o in _CALLS:
                    sync(stall, br, l1i_refs, l1d_refs, l1i_tick, l1d_tick)
                    stall = br = l1i_refs = l1d_refs = 0
                    site = func_tag | pc
                    if o == ops.CALL:
                        branches.call(site)
                        result = self._call(self.program.functions[ins[2]],
                                            [regs[r] for r in ins[3]])
                    elif o == ops.CALL_HOST:
                        counters.instructions += _HOST_CALL_INSTRS
                        branches.call(site)
                        result = self.host_functions[ins[2]](
                            self, [regs[r] for r in ins[3]])
                    else:  # CALL_IND
                        table_index = regs[ins[3]]
                        if table_index >= len(self.table) or table_index < 0:
                            raise Trap("undefined element",
                                       f"table index {table_index}")
                        callee_index = self.table[table_index]
                        if callee_index < 0:
                            raise Trap("uninitialized element")
                        callee = self.program.functions[callee_index]
                        if callee.sig_id != ins[2]:
                            raise Trap("indirect call type mismatch")
                        branches.indirect_branch(site, callee_index)
                        result = self._call(callee, [regs[r] for r in ins[4]])
                    branches.ret(site)
                    l1i_tick = l1i.tick
                    l1d_tick = l1d.tick
                    mem_data = mem.data   # the callee may have grown memory
                    mem_size = mem.size
                    if ins[1] >= 0:
                        regs[ins[1]] = result
                    pc += 1
                elif o == ops.RET:
                    sync(stall, br, l1i_refs, l1d_refs, l1i_tick, l1d_tick)
                    return regs[ins[1]] if ins[1] >= 0 else None
                elif o == ops.SELECT:
                    regs[ins[1]] = regs[ins[3]] if regs[ins[2]] \
                        else regs[ins[4]]
                    pc += 1
                elif o == ops.CHECK:
                    pc += 1
                elif o == ops.MEMSIZE:
                    regs[ins[1]] = mem.pages
                    pc += 1
                elif o == ops.MEMGROW:
                    counters.instructions += 200
                    regs[ins[1]] = ops.M32 & mem.grow(regs[ins[2]])
                    mem_data = mem.data
                    mem_size = mem.size
                    pc += 1
                elif o == ops.BR_TABLE:
                    index = regs[ins[1]]
                    targets = ins[2]
                    pc_target = targets[index] if index < len(targets) \
                        else ins[3]
                    branches.indirect_branch(func_tag | pc, pc_target)
                    pc = pc_target
                    break
                elif o == ops.TRAP_OP:
                    sync(stall, br, l1i_refs, l1d_refs, l1i_tick, l1d_tick)
                    raise Trap(ins[1])
                else:  # pragma: no cover - opcode space is closed
                    sync(stall, br, l1i_refs, l1d_refs, l1i_tick, l1d_tick)
                    raise ReproError(f"unknown machine opcode {o}")
