"""Outside-in per-layer wall-clock attribution for the traced run.

The traced run rebinds a fixed list of each layer's public entry points
(module functions and class methods) to timing wrappers owned by the
benchmark; the program itself is not edited.  Every wrapper is a span:
its *self time* is its duration minus the time spent in wrapped calls
nested inside it, so the self times of all layers add up to at most the
wall time of the run, and the remainder is reported as
``unattributed_s``.

No wrapper sits on a per-instruction or per-host-call path: the
execution spans are ``Machine.call_function`` (entered for ``_start``
and the start function only) and the interpreter runtime's
``_execute``.  WASI host calls therefore count as execution time.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

#: (layer, "module:attribute" bindings the traced run rebinds).  A
#: binding is one name in one namespace, so a function imported into a
#: caller's module by name is listed under that caller.  A class method
#: is written "module:Class.method".
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("harness.self", ("repro.harness.runner:Harness.run",
                      "repro.fuzz.engines:CellRunner.run_cell")),
    ("harness.cache_get", ("repro.harness.cache:ArtifactCache.get_bytes",
                           "repro.harness.cache:ArtifactCache.get_pickle")),
    ("harness.cache_put", ("repro.harness.cache:ArtifactCache.put_bytes",
                           "repro.harness.cache:ArtifactCache.put_pickle")),
    ("minic.parse", ("repro.compiler.driver:parse",)),
    ("minic.sema", ("repro.compiler.driver:analyze",)),
    ("compiler.midend", ("repro.compiler.midend:optimize",)),
    # Self time of the whole compile_source call = codegen, peephole, the
    # compiler's own validation and encoding.
    ("compiler.backend", ("repro.harness.runner:compile_source",
                          "repro.fuzz.engines:compile_source",
                          "repro.native.nativecc:compile_source")),
    ("native.cc", ("repro.harness.runner:nativecc",
                   "repro.fuzz.engines:nativecc")),
    ("runtimes.pipeline", ("repro.runtimes.base:RunPipeline.run",
                           "repro.harness.runner:run_native",
                           "repro.fuzz.engines:run_native")),
    ("wasm.decode", ("repro.runtimes.base:decode_module_with_stats",
                     "repro.runtimes.jits:decode_module",
                     "repro.wasm.decoder:decode_module_with_stats")),
    ("wasm.validate", ("repro.runtimes.base:validate_module",
                       "repro.runtimes.jits:validate_module",
                       "repro.wasm:validate_module")),
    ("runtimes.interp.prepare",
     ("repro.runtimes.interpreters:InterpreterRuntime._load",)),
    ("speed.predecode", ("repro.speed.predecode:predecode_functions",
                         "repro.speed.closures:predecode_functions")),
    ("speed.closures.gen", ("repro.speed.closures:compile_bundle",)),
    ("speed.closures.bind", ("repro.speed.closures:bind_bundle",)),
    ("runtimes.jit.compile", ("repro.runtimes.jits:compile_backend",)),
    ("runtimes.jit.aot", ("repro.runtimes.jits:JitRuntime.compile_aot",)),
    ("runtimes.interp.exec",
     ("repro.runtimes.interpreters:InterpreterRuntime._execute",)),
    ("isa.machine.exec", ("repro.isa.machine:Machine.call_function",)),
    ("fuzz.generate", ("repro.fuzz.campaign:generate_program",)),
    ("fuzz.oracle", ("repro.fuzz.campaign:check_program",)),
    ("analysis.lints", ("repro.fuzz.engines:compute_static_findings",)),
)

#: Layers whose span is folded into an enclosing one: the backend
#: compile that ``compile_aot`` runs is AOT time, not load-time JIT.
ABSORBED_BY = {"runtimes.jit.compile": "runtimes.jit.aot"}

#: Layers the benchmark opens itself, around its own calls.
OWN_LAYERS = ("harness.report",)

ALL_LAYERS = tuple(name for name, _ in LAYERS) + OWN_LAYERS


class LayerTrace:
    """Self time and call count per layer, from nested wrapper spans."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # One [layer, child seconds] frame per open span.
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []

    def span(self, layer: str, fn):
        """``fn`` wrapped in a span of ``layer``.

        A call nested directly in a span of the same layer (recursion,
        or one wrapped binding calling another) or of the layer that
        absorbs it runs unwrapped, so it adds neither a call nor a
        second span.
        """
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        absorbed_by = ABSORBED_BY.get(layer)

        def traced(*args, **kwargs):
            if stack and stack[-1][0] in (layer, absorbed_by):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration

        traced.__wrapped__ = fn
        return traced

    def run(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer`` (benchmark-owned)."""
        return self.span(layer, fn)(*args, **kwargs)

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` spent by the benchmark itself (a host-speed
        probe) out of the span it interrupted."""
        if self._stack:
            self._stack[-1][1] += seconds

    def install(self) -> None:
        """Rebind every binding in :data:`LAYERS` to a traced wrapper."""
        for layer, bindings in LAYERS:
            for binding in bindings:
                module_name, _, path = binding.partition(":")
                owner = importlib.import_module(module_name)
                *classes, attr = path.split(".")
                for name in classes:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self.span(layer, original))

    def uninstall(self) -> None:
        """Restore every rebound binding."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def attributed_s(self) -> float:
        return sum(self.self_s.values())
