"""Closure compilation: one ``exec``-compiled Python function per Wasm
function — a template JIT *of the model itself*.

The reference loop ``Interpreter._run_ref`` pays, per instruction, an
opcode classification chain, side-table dict lookups and a trip through
the model's method calls.  This module removes all of it: it walks a
function's predecoded fcode (:mod:`repro.speed.predecode`) once and
emits specialized Python *source* — every opcode's semantics, its
modeled charges, the branch-predictor and L1I fast paths, and every
per-instruction constant inlined as a literal — then ``exec``-compiles
that source into a closure the interpreter calls instead of any
dispatch loop.

**Byte-identity.**  The generated code performs exactly the model
updates of :meth:`~repro.runtimes.interp.engine.Interpreter._run_ref`,
with the same values and, where state is shared, in the same order:
every counter charge, predictor update, cache access and trap message.
Two model hot paths are inlined with their object state shadowed in
frame locals:

* the indirect-target predictor's steady-state hit (both components
  already predict the dispatched target, so the chooser and tables are
  provably unchanged — only the target history advances); every other
  outcome calls
  :meth:`~repro.hw.branch.BranchPredictor.indirect_update` with the
  shadowed history, so the update rules live only in
  :mod:`repro.hw.branch`;
* the L1I cache hit (tick bump + LRU touch, no miss recursion).

The shadowed state (pending ``instr``/``stall``/``br``/``ldr`` counts,
the predictor target history, the L1I tick) is written back at every
point the rest of the system can observe it: before guest/host calls,
before every trap, and at frame exit.  L1I misses fall back to the real
cache method after a write-back, so the shared L2/L3 and eviction order
stay exact.  Slow paths are one call each, so the generated source
stays compact: the predictor update calls the model directly, the L1I
miss and the trap-time flush go through per-frame helper closures.
tests/test_closures.py holds the differential harness that enforces
all of this against the reference loop.

**Inline caches.**  Every ``call_indirect`` site carries an inline
cache mapping table element index to resolved callee function index.
The cache is sound because a module's funcref table never mutates
during execution and is rebuilt identically on every instantiation;
the cached value is the *index* (not the callee entry), because
host-function entries are rebound per run.

**Control flow.**  Structured Wasm control flow was already flattened
to pc-level jumps by the prepare pass, so the generator lowers each
function to a *block trampoline*: basic blocks (split at every branch
target and after every branch) laid out in an ``if _b == k`` chain
inside ``while True``, with jumps compiled to ``_b = <block>``.
``br_table`` dispatches through an inlined pc-to-block literal dict.
A branch target inside a fused group starts its own block from the
group's preserved single-op tail entries, so it executes the original
single-op semantics.

**Profile-free source.**  The generated source never names an
interpreter profile.  Each op's instruction charge is its profile-free
handler delta plus ``K = I.profile.op_base`` (``dispatch_cost +
handler_base``), read once per call in the prelude, and each distinct
per-entry charge is hoisted to a prelude local ``D<n>`` like the site
indices.  So one bundle per (module, cache geometry) serves both Wasm3
and WAMR.

**Persistence.**  :func:`compile_bundle` returns pickle-friendly
``(source, const descriptors)`` pairs — semantic callables, codec
methods and inline-cache dicts are referenced by name in the source and
rebuilt from small descriptor tuples by :func:`bind_bundle` — so the
whole bundle persists through the artifact store (see
:meth:`repro.speed.modcache.ModuleCache.closure_code`) and ``--jobs``
pool workers share one compilation instead of re-deriving it.

**Compile once per process.**  Function sources recur across modules
(every MiniC program links the same libc) and across bindings.
:func:`bind_bundle` compiles each distinct source once and builds every
binding's function from the shared code object with its own namespace
(constants, inline caches).  The memo is weak: an entry lives exactly
as long as some bound function still uses its code.
"""

from __future__ import annotations

import builtins
import hashlib
import math
import types
import weakref
from typing import Dict, List, Tuple

from ..errors import ReproError, Trap
from ..isa import wasm_map
from ..wasm import opcodes as op
from .predecode import (
    _LOADC, _STOREC, F_LG_CONST_BIN, F_LG_CONST_CMP_BRIF,
    F_LG_CONST_STORE, F_LG_LG_BIN, F_LG_LG_CMP_BRIF, F_LG_LG_STORE,
    F_LG_LOAD, K_BAD, K_BIN, K_BR, K_BR_IF, K_BR_TABLE, K_CALL,
    K_CALL_INDIRECT, K_CONST, K_DROP, K_ELSE, K_GLOBAL_GET,
    K_GLOBAL_SET, K_IF, K_LOAD, K_LOCAL_GET, K_LOCAL_SET, K_LOCAL_TEE,
    K_MEMORY_GROW, K_MEMORY_SIZE, K_PASS, K_RETURN, K_SELECT, K_STORE,
    K_UN, K_UNREACHABLE, predecode_functions)

#: A bundle: {func_index: (source text, [(name, descriptor), ...])}.
Bundle = Dict[int, Tuple[str, List[Tuple[str, tuple]]]]

_FLUSH = "_flush(instr, stall, br, ldr, l1i_refs, th, l1i_tick)"


class _Consts:
    """Named constants the generated source references by ``G<n>``.

    Each constant is recorded as a small picklable descriptor and
    rebuilt at bind time by :func:`_resolve` — the bundle itself never
    holds a callable or a bound method.
    """

    def __init__(self):
        self._dedup: Dict[tuple, str] = {}
        self.items: List[Tuple[str, tuple]] = []

    def ref(self, descr: tuple, dedup: bool = True) -> str:
        if dedup:
            name = self._dedup.get(descr)
            if name is not None:
                return name
        name = f"G{len(self.items)}"
        self.items.append((name, descr))
        if dedup:
            self._dedup[descr] = name
        return name


def _resolve(descr: tuple):
    """Rebuild one generated-source constant from its descriptor."""
    kind = descr[0]
    if kind == "bin":
        return wasm_map.BIN_FN[descr[1]]
    if kind == "un":
        return wasm_map.UN_FN[descr[1]]
    if kind == "load":
        return _LOADC[descr[1]][1]
    if kind == "store":
        return _STOREC[descr[1]][1]
    if kind == "ic":
        # A fresh call_indirect inline cache per binding (soundness:
        # see the module docstring).
        return {}
    if kind == "obj":
        return descr[1]
    raise ReproError(f"closure bundle: unknown descriptor {descr!r}")


def _lit(value, consts: _Consts) -> str:
    """A source literal for ``value``, or a named constant when repr
    would not round-trip (non-finite floats)."""
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return repr(value)
        return consts.ref(("obj", value))
    return consts.ref(("obj", value))


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


def compile_bundle(prepared: List, line_shift: int) -> Bundle:
    """Generate a persistable closure bundle for every wasm function."""
    fcode_map = predecode_functions(prepared, line_shift)
    bundle: Bundle = {}
    for entry in prepared:
        if entry is not None and entry[0] == "wasm":
            pf = entry[1]
            bundle[pf.index] = _gen_function(pf, fcode_map[pf.index],
                                             line_shift)
    return bundle


#: Source digest -> compiled function body.  Weak: every bound function
#: holds its ``__code__``, so an entry lives exactly as long as some
#: bound function uses it.
_code_memo: "weakref.WeakValueDictionary[bytes, types.CodeType]" = \
    weakref.WeakValueDictionary()


def _function_code(index: int, source: str) -> types.CodeType:
    """The compiled body of ``source``, compiling it on first sight."""
    key = hashlib.sha256(source.encode()).digest()
    code = _code_memo.get(key)
    if code is None:
        module_code = compile(source, f"<speed-closure f{index}>", "exec")
        funcs = [c for c in module_code.co_consts
                 if isinstance(c, types.CodeType)]
        if len(funcs) != 1 or funcs[0].co_name != f"_c{index}":
            raise ReproError(f"closure bundle: f{index} source does not "
                             f"define _c{index}")
        code = _code_memo[key] = funcs[0]
    return code


def bind_bundle(bundle: Bundle) -> Dict[int, object]:
    """Bind a bundle into per-function callables, compiling only the
    sources this process has not compiled yet."""
    code: Dict[int, object] = {}
    for index, (source, descrs) in bundle.items():
        # ``FunctionType`` takes builtins from its globals; without the
        # entry Python 3.9 runs the body with only ``None`` built in.
        namespace = {"__builtins__": builtins, "Trap": Trap,
                     "ReproError": ReproError}
        for name, descr in descrs:
            namespace[name] = _resolve(descr)
        code[index] = types.FunctionType(_function_code(index, source),
                                         namespace)
    return code


def _collect_labels(fcode: list, n: int) -> List[int]:
    """Basic-block leaders: entry, every branch target, and the
    fall-through successor of every conditional branch."""
    labels = {0}
    for pc, e in enumerate(fcode):
        k = e[0]
        if k == K_BR_IF:
            labels.add(e[5])
            labels.add(pc + 1)
        elif k == K_BR or k == K_ELSE:
            labels.add(e[5])
        elif k == K_IF:
            labels.add(e[5])
            labels.add(pc + 1)
        elif k == K_BR_TABLE:
            for tgt, _arity, _hgt in e[5]:
                labels.add(tgt)
            labels.add(e[6][0])
        elif k == F_LG_LG_CMP_BRIF or k == F_LG_CONST_CMP_BRIF:
            labels.add(e[16])
            labels.add(e[19])
    return sorted(label for label in labels if 0 <= label < n)


class _Emitter:
    """Accumulates indented source lines."""

    def __init__(self):
        self.lines: List[str] = []

    def emit(self, indent: int, *lines: str) -> None:
        pad = "    " * indent
        for line in lines:
            self.lines.append(pad + line)


def _gen_function(pf, fcode: list,
                  line_shift: int) -> Tuple[str, List[Tuple[str, tuple]]]:
    n = len(fcode)
    consts = _Consts()
    out = _Emitter()
    guest_line_base = 0x1000_0000 >> line_shift
    load_trap = repr(pf.name + ": load at %d") + " % addr"
    store_trap = repr(pf.name + ": store at %d") + " % addr"

    labels = _collect_labels(fcode, n)
    block_of = {label: i for i, label in enumerate(labels)}

    # Loop-invariant hoisting: every predictor site index (``site &
    # imask``) and every L1I set dict (``l1i_sets[line & smask]``) is a
    # pure function of a compile-time literal and a per-interpreter
    # constant, so both are computed once in the prelude and named
    # ``S<n>`` / ``C<n>``.  The set dicts are stable objects — a
    # :class:`~repro.hw.cache.Cache` never replaces a set in place (only
    # mutates it), and pre-touching a defaultdict set is unobservable
    # (empty sets count zero occupancy and fail membership tests).
    sites: Dict[int, str] = {}
    cache_sets: Dict[int, str] = {}
    # Likewise each distinct (delta, ops) charge becomes ``D<n> = delta
    # + ops * K``, so an op charges one local as a literal would.
    charges: Dict[Tuple[int, int], str] = {}

    def site_name(site: int) -> str:
        name = sites.get(site)
        if name is None:
            name = f"S{len(sites)}"
            sites[site] = name
        return name

    def set_name(line: int) -> str:
        name = cache_sets.get(line)
        if name is None:
            name = f"C{len(cache_sets)}"
            cache_sets[line] = name
        return name

    def charge_name(charge: Tuple[int, int]) -> str:
        name = charges.get(charge)
        if name is None:
            name = f"D{len(charges)}"
            charges[charge] = name
        return name

    def goto(target: int) -> str:
        # ``break`` leaves the trampoline straight into the epilogue,
        # as the reference loop leaves ``while pc < n`` on a branch to
        # the end of the body.
        if target >= n:
            return "break"
        return f"_b = {block_of[target]}"

    # -- model-update emitters (the reference loop's model calls) --------

    def emit_pred(ind: int, site: int, target) -> None:
        # ``target`` is an int literal for static sites, or the name of
        # a local holding the runtime target (br_table).
        t = target if isinstance(target, str) else repr(target)
        si = site_name(site)
        out.emit(ind,
                 f"if btb_get({si}) == {t} and itc_get(th & imask) == {t}:",
                 "    br += 1",
                 "else:",
                 f"    indirect_update({site}, {t}, th)",
                 f"th = ((th << 4) ^ {t}) & imask")

    def emit_l1i(ind: int, line: int) -> None:
        cs = set_name(line)
        out.emit(ind,
                 f"if {line} in {cs}:",
                 "    l1i_tick += 1",
                 "    l1i_refs += 1",
                 f"    {cs}[{line}] = l1i_tick",
                 "else:",
                 f"    l1i_tick, l1i_refs, stall = "
                 f"_l1i({line}, l1i_tick, l1i_refs, stall)")

    def emit_head(ind: int, e: tuple) -> None:
        out.emit(ind, f"instr += {charge_name(e[1])}")
        emit_pred(ind, e[2], e[3])
        out.emit(ind, "ldr += 2")
        emit_l1i(ind, e[4])

    def emit_unwind(ind: int, arity: int, height: int) -> None:
        if arity:
            out.emit(ind,
                     f"vals = stack[-{arity}:]",
                     f"del stack[{height}:]",
                     "stack.extend(vals)")
        else:
            out.emit(ind, f"del stack[{height}:]")

    def emit_trap_guard(ind: int, size: int, msg: str) -> None:
        out.emit(ind,
                 f"if addr + {size} > mem.size:",
                 f"    {_FLUSH}",
                 f"    raise Trap('out of bounds memory access', {msg})")

    def emit_sem_try(ind: int, expr: str) -> None:
        out.emit(ind,
                 "try:",
                 f"    {expr}",
                 "except Trap:",
                 f"    {_FLUSH}",
                 "    raise")

    def emit_call_flush(ind: int) -> None:
        out.emit(ind, _FLUSH,
                 "instr = 0", "stall = 0", "br = 0", "ldr = 0",
                 "l1i_refs = 0")

    def emit_call_resume(ind: int) -> None:
        out.emit(ind,
                 "th = branches._target_history",
                 "l1i_tick = l1i.tick",
                 "if result is not None:",
                 "    push(result)")

    # -- one fcode entry --------------------------------------------------

    def emit_entry(ind: int, pc: int, e: tuple) -> int:
        """Emit entry ``e`` at ``pc``; return the next pc, or -1 when
        the entry terminated the block."""
        k = e[0]
        emit_head(ind, e)
        if k == K_LOCAL_GET:
            out.emit(ind, f"push(L{e[5]})")
        elif k == K_CONST:
            out.emit(ind, f"push({_lit(e[5], consts)})")
        elif k == K_BIN:
            fn = consts.ref(("bin", e[3]))
            out.emit(ind, "b = pop()", "a = pop()")
            emit_sem_try(ind, f"push({fn}(a, b))")
        elif k == K_LOCAL_SET:
            out.emit(ind, f"L{e[5]} = pop()")
        elif k == K_LOCAL_TEE:
            out.emit(ind, f"L{e[5]} = stack[-1]")
        elif k == K_UN:
            fn = consts.ref(("un", e[3]))
            emit_sem_try(ind, f"stack[-1] = {fn}(stack[-1])")
        elif k == K_LOAD:
            unpack = consts.ref(("load", e[3]))
            out.emit(ind, f"addr = pop() + {e[7]}")
            emit_trap_guard(ind, e[5], load_trap)
            out.emit(ind, f"value = {unpack}(mem.data, addr)[0]")
            out.emit(ind, f"push(value & {e[6]})" if e[6]
                     else "push(value)")
            out.emit(ind, f"stall += l1d_access({guest_line_base} + "
                          f"(addr >> {line_shift}))")
        elif k == K_STORE:
            pack = consts.ref(("store", e[3]))
            out.emit(ind, "value = pop()", f"addr = pop() + {e[7]}")
            emit_trap_guard(ind, e[5], store_trap)
            out.emit(ind,
                     f"{pack}(mem.data, addr, value & {e[6]})" if e[6]
                     else f"{pack}(mem.data, addr, value)",
                     "mem.touched.add(addr >> 12)",
                     f"stall += l1d_access({guest_line_base} + "
                     f"(addr >> {line_shift}))")
        elif k == K_BR_IF:
            out.emit(ind, "cond = pop()",
                     f"cond_branch({e[2]}, bool(cond))",
                     "if cond:")
            emit_unwind(ind + 1, e[6], e[7])
            out.emit(ind + 1, goto(e[5]))
            out.emit(ind, "else:")
            out.emit(ind + 1, goto(pc + 1))
            return -1
        elif k == K_BR:
            emit_unwind(ind, e[6], e[7])
            out.emit(ind, goto(e[5]))
            return -1
        elif k == K_IF:
            out.emit(ind, "cond = pop()",
                     f"cond_branch({e[2]}, not cond)",
                     "if cond:")
            out.emit(ind + 1, goto(pc + 1))
            out.emit(ind, "else:")
            out.emit(ind + 1, goto(e[5]))
            return -1
        elif k == K_ELSE:
            out.emit(ind, goto(e[5]))
            return -1
        elif k == K_PASS:
            pass
        elif k == K_CALL:
            emit_call_flush(ind)
            out.emit(ind,
                     f"callee = functions[{e[5]}]",
                     f"br_call({e[2]})",
                     "if callee[0] == 'host':",
                     "    n_args = callee[2]",
                     "    call_args = stack[len(stack) - n_args:] "
                     "if n_args else []",
                     "    del stack[len(stack) - n_args:]",
                     "    result = callee[1](mem, *call_args)",
                     "else:",
                     "    prepared = callee[1]",
                     "    n_args = prepared.params",
                     "    call_args = stack[len(stack) - n_args:] "
                     "if n_args else []",
                     "    del stack[len(stack) - n_args:]",
                     "    result = exec_(prepared, call_args)",
                     f"br_ret({e[2]})")
            emit_call_resume(ind)
        elif k == K_CALL_INDIRECT:
            ic = consts.ref(("ic",), dedup=False)
            emit_call_flush(ind)
            out.emit(ind,
                     "elem_index = pop()",
                     f"callee_index = {ic}.get(elem_index)",
                     "if callee_index is None:",
                     "    if not 0 <= elem_index < len(table):",
                     "        raise Trap('undefined element')",
                     "    callee_index = table[elem_index]",
                     "    if callee_index < 0:",
                     "        raise Trap('uninitialized element')",
                     "    callee = functions[callee_index]",
                     f"    if I._sig_of_type_index({e[5]}) != "
                     "I._sig_of_callee(callee):",
                     "        raise Trap('indirect call type mismatch')",
                     f"    {ic}[elem_index] = callee_index",
                     "else:",
                     "    callee = functions[callee_index]",
                     f"indirect({e[6]}, callee_index)",
                     "if callee[0] == 'host':",
                     "    n_args = callee[2]",
                     "else:",
                     "    n_args = callee[1].params",
                     "call_args = stack[len(stack) - n_args:] "
                     "if n_args else []",
                     "del stack[len(stack) - n_args:]",
                     f"br_call({e[2]})",
                     "if callee[0] == 'host':",
                     "    result = callee[1](mem, *call_args)",
                     "else:",
                     "    result = exec_(callee[1], call_args)",
                     f"br_ret({e[2]})")
            emit_call_resume(ind)
        elif k == K_GLOBAL_GET:
            out.emit(ind, f"push(globals_[{e[5]}])", "ldr += 1")
        elif k == K_GLOBAL_SET:
            out.emit(ind, f"globals_[{e[5]}] = pop()", "ldr += 1")
        elif k == K_DROP:
            out.emit(ind, "pop()")
        elif k == K_SELECT:
            out.emit(ind, "c = pop()", "b = pop()", "a = pop()",
                     "push(a if c else b)")
        elif k == K_BR_TABLE:
            entries = tuple((tgt, arity, hgt) for tgt, arity, hgt in e[5])
            jump = {tgt: block_of.get(tgt, -1)
                    for tgt in sorted({t[0] for t in entries} |
                                      {e[6][0]})}
            out.emit(ind,
                     "index = pop()",
                     f"target = {entries!r}[index] if index < "
                     f"{len(entries)} else {e[6]!r}",
                     "t = target[0]")
            emit_pred(ind, e[2], "t")
            out.emit(ind,
                     "tgt, arity, hgt = target",
                     "if arity:",
                     "    vals = stack[-arity:]",
                     "    del stack[hgt:]",
                     "    stack.extend(vals)",
                     "else:",
                     "    del stack[hgt:]",
                     f"_b = {jump!r}[tgt]")
            return -1
        elif k == K_RETURN:
            out.emit(ind, "break")
            return -1
        elif k == K_MEMORY_SIZE:
            out.emit(ind, "push(mem.pages)")
        elif k == K_MEMORY_GROW:
            out.emit(ind, "counters.instructions += 200",
                     "push(mem.grow(pop()) & 0xFFFFFFFF)")
        elif k == K_UNREACHABLE:
            out.emit(ind, _FLUSH, "raise Trap('unreachable')")
            return -1
        elif k == K_BAD:
            # The reference loses pending instr/stall on this internal
            # error; only the shadowed predictor/cache state is synced.
            msg = "interpreter: unhandled opcode " + op.name_of(e[3])
            out.emit(ind,
                     "counters.branches += br",
                     "l1d.refs += ldr",
                     "l1i_stats.refs += l1i_refs",
                     "branches._target_history = th",
                     "l1i.tick = l1i_tick",
                     f"raise ReproError({msg!r})")
            return -1
        elif k == F_LG_LG_BIN or k == F_LG_CONST_BIN:
            fn = consts.ref(("bin", e[9]))
            out.emit(ind, "ldr += 4")
            emit_l1i(ind, e[7])
            emit_pred(ind, e[5], e[6])
            emit_pred(ind, e[8], e[9])
            emit_l1i(ind, e[10])
            rhs = f"L{e[12]}" if k == F_LG_LG_BIN else _lit(e[12], consts)
            emit_sem_try(ind, f"push({fn}(L{e[11]}, {rhs}))")
            return e[13]
        elif k == F_LG_LOAD:
            unpack = consts.ref(("load", e[6]))
            out.emit(ind, "ldr += 2")
            emit_pred(ind, e[5], e[6])
            emit_l1i(ind, e[7])
            out.emit(ind, f"addr = L{e[8]} + {e[11]}")
            emit_trap_guard(ind, e[9], load_trap)
            out.emit(ind, f"value = {unpack}(mem.data, addr)[0]")
            out.emit(ind, f"push(value & {e[10]})" if e[10]
                     else "push(value)")
            out.emit(ind, f"stall += l1d_access({guest_line_base} + "
                          f"(addr >> {line_shift}))")
            return e[12]
        elif k == F_LG_LG_STORE or k == F_LG_CONST_STORE:
            pack = consts.ref(("store", e[9]))
            out.emit(ind, "ldr += 4")
            emit_l1i(ind, e[7])
            emit_pred(ind, e[5], e[6])
            emit_pred(ind, e[8], e[9])
            emit_l1i(ind, e[10])
            if k == F_LG_LG_STORE:
                out.emit(ind,
                         f"value = L{e[12]} & {e[14]}" if e[14]
                         else f"value = L{e[12]}",
                         f"addr = L{e[11]} + {e[15]}")
                size, nxt = e[13], e[16]
            else:
                out.emit(ind,
                         f"value = {_lit(e[12], consts)}",
                         f"addr = L{e[11]} + {e[14]}")
                size, nxt = e[13], e[15]
            emit_trap_guard(ind, size, store_trap)
            out.emit(ind,
                     f"{pack}(mem.data, addr, value)",
                     "mem.touched.add(addr >> 12)",
                     f"stall += l1d_access({guest_line_base} + "
                     f"(addr >> {line_shift}))")
            return nxt
        elif k == F_LG_LG_CMP_BRIF or k == F_LG_CONST_CMP_BRIF:
            fn = consts.ref(("bin", e[9]))
            out.emit(ind, "ldr += 6")
            emit_l1i(ind, e[7])
            emit_pred(ind, e[5], e[6])
            emit_pred(ind, e[8], e[9])
            emit_l1i(ind, e[10])
            emit_pred(ind, e[11], e[12])
            emit_l1i(ind, e[13])
            rhs = f"L{e[15]}" if k == F_LG_LG_CMP_BRIF \
                else _lit(e[15], consts)
            out.emit(ind,
                     f"cond = {fn}(L{e[14]}, {rhs})",
                     f"cond_branch({e[11]}, bool(cond))",
                     "if cond:")
            emit_unwind(ind + 1, e[17], e[18])
            out.emit(ind + 1, goto(e[16]))
            out.emit(ind, "else:")
            out.emit(ind + 1, goto(e[19]))
            return -1
        else:  # pragma: no cover - exhaustive over the kind set
            raise ReproError(f"closure codegen: unhandled kind {k}")
        return pc + 1

    # -- the block trampoline ----------------------------------------------
    # Generated *before* the prelude so the site/set hoist tables are
    # complete when the prelude's S/C assignments are written out.

    if n:
        out.emit(1, "_b = 0", "while True:")
        for bi, label in enumerate(labels):
            out.emit(2, ("if" if bi == 0 else "elif") + f" _b == {bi}:")
            pc = label
            while True:
                if pc >= n:
                    out.emit(3, "break")
                    break
                if pc != label and pc in block_of:
                    out.emit(3, goto(pc))
                    break
                pc = emit_entry(3, pc, fcode[pc])
                if pc < 0:
                    break
        out.emit(2, "else:", "    break")

    # -- epilogue ----------------------------------------------------------

    out.emit(1,
             "counters.instructions += instr",
             "counters.stall_cycles += stall",
             "counters.branches += br",
             "l1d.refs += ldr",
             "l1i_stats.refs += l1i_refs",
             "branches._target_history = th",
             "l1i.tick = l1i_tick")
    if pf.results:
        out.emit(1, "return stack[-1] if stack else 0")
    else:
        out.emit(1, "return None")

    # -- function prelude -------------------------------------------------

    head = _Emitter()
    head.emit(0, f"def _c{pf.index}(I, args):")
    for i, t in enumerate(pf.local_types):
        if i < pf.params:
            head.emit(1, f"L{i} = args[{i}]")
        elif t in (0x7D, 0x7C):
            head.emit(1, f"L{i} = 0.0")
        else:
            head.emit(1, f"L{i} = 0")
    head.emit(1,
             "stack = []",
             "push = stack.append",
             "pop = stack.pop",
             "cpu = I.cpu",
             "counters = cpu.counters",
             "branches = cpu.branches",
             "cond_branch = branches.cond_branch",
             "br_call = branches.call",
             "br_ret = branches.ret",
             "indirect = branches.indirect_branch",
             "indirect_update = branches.indirect_update",
             "l1d = counters.l1d",
             "l1i = cpu.caches.l1i",
             "l1i_access = l1i.access_line",
             "l1d_access = cpu.caches.l1d.access_line",
             "mem = I.memory",
             "globals_ = I.globals",
             "functions = I.functions",
             "table = I.table",
             "exec_ = I._exec",
             "imask = branches._itc_mask",
             "btb_get = branches._btb.get",
             "itc_get = branches._itc.get",
             "th = branches._target_history",
             "l1i_sets = l1i.sets",
             "l1i_smask = l1i.set_mask",
             "l1i_stats = l1i.stats",
             "l1i_tick = l1i.tick",
             "instr = 0",
             "stall = 0",
             "br = 0",
             "ldr = 0",
             "l1i_refs = 0",
             # The model's own slow paths, applied to the shadowed
             # state so it evolves exactly as in the reference loop.
             "def _l1i(ln, tick, refs, stall):",
             "    l1i.tick = tick",
             "    l1i_stats.refs += refs",
             "    stall += l1i_access(ln)",
             "    return l1i.tick, 0, stall",
             "def _flush(i, s, b, d, r, t, k):",
             "    counters.instructions += i",
             "    counters.stall_cycles += s",
             "    counters.branches += b",
             "    l1d.refs += d",
             "    l1i_stats.refs += r",
             "    branches._target_history = t",
             "    l1i.tick = k")
    if charges:
        head.emit(1, "K = I.profile.op_base")
    for (delta, ops), name in charges.items():
        head.emit(1, f"{name} = {delta} + {ops} * K" if ops > 1
                  else f"{name} = {delta} + K")
    for site, name in sites.items():
        head.emit(1, f"{name} = {site} & imask")
    for line, name in cache_sets.items():
        head.emit(1, f"{name} = l1i_sets[{line} & l1i_smask]")

    return "\n".join(head.lines + out.lines) + "\n", consts.items
