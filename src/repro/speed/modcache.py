"""Decoded-module cache: share decode/validate/prepare work across runs.

A ``wabench run`` executes the same module on six engines; a warm rerun
executes it again.  The reference pipeline re-decodes, re-validates and
re-prepares every time, even though all three passes are pure functions
of the module bytes.  This cache keys the decoded :class:`Module`, its
decode stats, the interpreter's prepared side tables and the bound
closure code by ``sha256(wasm_bytes)``, so each is computed once per
process — and, when a persistent :class:`~repro.harness.cache
.ArtifactCache` is attached, once per cache directory.  The closure
bundle is profile-free, so Wasm3 and WAMR share one predecode, one
generated bundle and one binding per (module, cache geometry).

The *modeled* cost of the skipped passes is still charged in full by
the pipeline (the charges are closed-form in the decode stats), so
counters and traces are byte-identical whether a lookup hits or misses.
Only wall clock changes.  Entries hold strong references to their
module, which keeps the ``id(module)`` side index sound: an id cannot
be reused while its entry is alive, and both are evicted together.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from typing import Dict, List, Optional

from ..errors import ReproError as _ReproError

#: In-memory entry capacity.  A fuzz campaign touches ~100 modules; the
#: LRU bound keeps long-lived processes from holding every decoded
#: module forever while still covering a full benchmark sweep.
_DEFAULT_CAPACITY = 64


class ModuleEntry:
    """Everything derivable from one module's bytes, computed lazily."""

    __slots__ = ("sha", "module", "stats", "validated", "prepared",
                 "total_ops", "_closures")

    def __init__(self, sha: str, module, stats, validated: bool = False):
        self.sha = sha
        self.module = module
        self.stats = stats
        self.validated = validated
        # Interpreter side tables: (functions list, total_ops), shared by
        # the wasm3/wamr loaders (prepare_function is profile-independent).
        self.prepared: Optional[List] = None
        self.total_ops = 0
        # Bound closure-compiled functions keyed by line_shift (the
        # cache geometry), shared by both interpreter profiles.  The
        # *source bundle* persists to disk (ModuleCache.closure_code);
        # the bound callables live here only.
        self._closures: Dict[int, Dict[int, object]] = {}


class ModuleCache:
    """LRU cache of :class:`ModuleEntry` with an optional disk layer."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY):
        self.capacity = capacity
        self._mem: "OrderedDict[str, ModuleEntry]" = OrderedDict()
        self._by_id: Dict[int, ModuleEntry] = {}
        self._disk = None  # duck-typed ArtifactCache (get_bytes/put_bytes)
        self._stats = None  # optional harness CacheStats for disk traffic
        # Wall-clock accounting, surfaced by PERFORMANCE.md tooling only;
        # deliberately not part of harness CacheStats so `[cache]` lines
        # and fuzz reports stay byte-identical with the layer disabled.
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    # -- configuration ----------------------------------------------------

    def attach_disk(self, cache, stats=None) -> None:
        """Use ``cache`` (an ArtifactCache, or None to detach) for
        persistence of decoded+validated modules and closure bundles.

        When ``stats`` (a harness :class:`CacheStats`) is given, disk
        traffic is surfaced there under the ``speed-module`` and
        ``closure`` kinds — that is what lets tests assert that pool
        workers hit shared artifacts instead of re-deriving them.
        In-memory reuse is never counted: it exists with no cache dir
        at all, and the `[cache]` line reports the *store*.
        """
        self._disk = cache
        self._stats = stats if cache is not None else None

    def clear(self) -> None:
        self._mem.clear()
        self._by_id.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    # -- lookup / registration -------------------------------------------

    @staticmethod
    def sha_of(wasm_bytes: bytes) -> str:
        return hashlib.sha256(wasm_bytes).hexdigest()

    def lookup(self, wasm_bytes: bytes) -> Optional[ModuleEntry]:
        """Entry for these bytes, from memory or disk; None on miss."""
        sha = self.sha_of(wasm_bytes)
        entry = self._mem.get(sha)
        if entry is not None:
            self._mem.move_to_end(sha)
            self.hits += 1
            return entry
        entry = self._load_disk(sha)
        if entry is not None:
            self.disk_hits += 1
            if self._stats is not None:
                self._stats.hit("speed-module")
            self._insert(entry)
            return entry
        self.misses += 1
        if self._disk is not None and self._stats is not None:
            self._stats.miss("speed-module")
        return None

    def register(self, wasm_bytes: bytes, module, stats) -> ModuleEntry:
        """Adopt a freshly decoded (not yet validated) module."""
        entry = ModuleEntry(self.sha_of(wasm_bytes), module, stats)
        self._insert(entry)
        return entry

    def mark_validated(self, entry: ModuleEntry) -> None:
        """Record that validation passed; persist if a disk is attached.

        Only validated modules are written out — the disk layer must
        never let an invalid module skip validation on a later run.
        """
        entry.validated = True
        if self._disk is not None:
            payload = pickle.dumps((entry.module, entry.stats),
                                   protocol=pickle.HIGHEST_PROTOCOL)
            self._disk.put_bytes(self._disk_key(entry.sha), payload)

    def entry_for(self, module) -> Optional[ModuleEntry]:
        return self._by_id.get(id(module))

    def closure_code(self, entry: ModuleEntry,
                     line_shift: int) -> Optional[Dict[int, object]]:
        """Closure-compiled functions for ``entry`` on this cache
        geometry, for either interpreter profile.

        The persistable source bundle is shared through the attached
        disk store under ``closure-<sha>-<line_shift>-v<N>``, so
        ``--jobs`` pool workers (and later processes) bind a stored
        compilation instead of regenerating it.  Binding is always
        local — callables never cross process boundaries — and compiles
        only sources this process has not compiled yet.
        """
        if entry.prepared is None:
            return None
        code = entry._closures.get(line_shift)
        if code is not None:
            return code
        from . import closures as _closures
        bundle = None
        if self._disk is not None:
            disk_key = self._closure_key(entry.sha, line_shift)
            bundle = self._disk.get_pickle(disk_key)
            if not isinstance(bundle, dict):
                # Stale/corrupt payload (get_pickle already applied the
                # evict-vs-miss narrowing): recompute below.
                bundle = None
            if self._stats is not None:
                if bundle is not None:
                    self._stats.hit("closure")
                else:
                    self._stats.miss("closure")
        code = None
        if bundle is not None:
            try:
                code = _closures.bind_bundle(bundle)
            except (SyntaxError, ValueError, TypeError, KeyError,
                    _ReproError):
                # A stored bundle that unpickles but will not compile is
                # as good as corrupt: fall through and regenerate.
                code = None
        if code is None:
            bundle = _closures.compile_bundle(entry.prepared, line_shift)
            if self._disk is not None:
                self._disk.put_pickle(
                    self._closure_key(entry.sha, line_shift), bundle)
            code = _closures.bind_bundle(bundle)
        entry._closures[line_shift] = code
        return code

    # -- internals --------------------------------------------------------

    @staticmethod
    def _disk_key(sha: str) -> str:
        from . import SPEED_VERSION
        return f"speed-module-{sha}-v{SPEED_VERSION}"

    @staticmethod
    def _closure_key(sha: str, line_shift: int) -> str:
        from . import SPEED_VERSION
        return f"closure-{sha}-{line_shift}-v{SPEED_VERSION}"

    def _load_disk(self, sha: str) -> Optional[ModuleEntry]:
        if self._disk is None:
            return None
        blob = self._disk.get_bytes(self._disk_key(sha))
        if blob is None:
            return None
        try:
            module, stats = pickle.loads(blob)
        except (pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError):
            # Corrupt or stale payload: behave exactly like a miss.
            # Anything else (MemoryError, KeyboardInterrupt, bugs in
            # __setstate__) should propagate, not masquerade as a miss.
            return None
        return ModuleEntry(sha, module, stats, validated=True)

    def _insert(self, entry: ModuleEntry) -> None:
        self._mem[entry.sha] = entry
        self._mem.move_to_end(entry.sha)
        self._by_id[id(entry.module)] = entry
        while len(self._mem) > self.capacity:
            _, evicted = self._mem.popitem(last=False)
            self._by_id.pop(id(evicted.module), None)
