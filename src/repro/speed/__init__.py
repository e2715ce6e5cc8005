"""repro.speed — the fast-path execution layer.

Everything in this package is about *wall clock*, never about the model:
the modeled counters, traps, stdout and trace files produced with the
speed layer enabled are byte-identical to the reference interpreter loop
``Interpreter._run_ref`` (tests/test_closures.py and tests/test_speed.py
enforce this; PERFORMANCE.md documents the contract).  Three techniques:

* **predecode + fuse** (:mod:`repro.speed.predecode`) — translate a
  validated function body once into a flat tuple form, with
  superinstruction fusion for the dominant sequences, mirroring the
  locality discipline of ``repro.isa.machine``.
* **closure compilation** (:mod:`repro.speed.closures`) — compile each
  function's predecoded form into one Python closure: a template JIT
  *of the model itself* that specializes opcode dispatch away entirely,
  with ``call_indirect`` inline caches and the predictor and L1I hit
  paths shadowed in frame locals.  The source is profile-free (the
  interpreter's per-op constant is read at run time), so Wasm3 and
  WAMR share one bundle per module, and each distinct function source
  is compiled at most once per process.
* **decoded-module caching** (:mod:`repro.speed.modcache`) — decoded,
  validated and prepared module forms (and generated closure source)
  are shared across engines and runs in-process, and persisted through
  the content-addressed artifact cache keyed by module hash +
  :data:`SPEED_VERSION` so ``--jobs`` pool workers share them too.

The layer is tiered via ``REPRO_SPEED`` (or :func:`set_tier`):

=====  ==========================================================
tier   meaning
=====  ==========================================================
``0``  reference implementations only (the oracle)
``2``  closure-compiled functions + module cache (default)
=====  ==========================================================

Any other value is rejected with a one-line :class:`HarnessError` the
first time the layer is consulted — a typo must never silently pick a
tier.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Optional

from ..errors import HarnessError

#: Version of the predecoded/closure-compiled forms; part of every
#: disk-cache key so a format change can never resurrect stale artifacts.
SPEED_VERSION = 4   # 4: profile-free closure source (K = I.profile.op_base)

#: The tiers `REPRO_SPEED` accepts (see module docstring).
TIERS = (0, 2)
_DEFAULT_TIER = 2

# Parsed lazily: a bad env var raises HarnessError at first *use* (the
# CLI turns that into a one-line exit 1), not at import.
_tier: Optional[int] = None


def tier() -> int:
    """The active speed tier (0 reference / 2 closures)."""
    global _tier
    if _tier is None:
        raw = os.environ.get("REPRO_SPEED", str(_DEFAULT_TIER))
        if raw not in ("0", "2"):
            raise HarnessError(
                f"REPRO_SPEED must be 0 (reference) or 2 (closures); "
                f"got {raw!r}")
        _tier = int(raw)
    return _tier


def set_tier(value: int) -> None:
    """Select the speed tier at runtime (CLI ``--speed-tier``, tests)."""
    global _tier
    if value not in TIERS:
        raise HarnessError(
            f"speed tier must be 0 (reference) or 2 (closures); "
            f"got {value!r}")
    _tier = value


def enabled() -> bool:
    """Is the fast path active? (``REPRO_SPEED=0`` turns it off.)"""
    return tier() != 0


from .modcache import ModuleCache, ModuleEntry  # noqa: E402

#: Process-wide decoded-module cache.  Harness instances attach/detach
#: the persistent artifact-cache layer; everything else just reads.
module_cache = ModuleCache()


def entry_for(module) -> "ModuleEntry | None":
    """The cache entry owning ``module``, or None if uncached/disabled."""
    if not enabled():
        return None
    return module_cache.entry_for(module)


# ---------------------------------------------------------------------------
# Process-global compiled-wasm memo.
#
# scripts/bench_wall.py (and any caller that builds a fresh Harness per
# run) re-enters the MiniC front-end for every repeat even though the
# compiled bytes are a pure function of the artifact key.  Like the
# decoded-module cache above, this memo shares that pure work across
# Harness instances in one process; the modeled counters never include
# host-side compile time, so results are byte-identical either way.
# ---------------------------------------------------------------------------

_WASM_MEMO_CAPACITY = 256
_wasm_memo: "OrderedDict[str, bytes]" = OrderedDict()


def wasm_memo_get(key: str) -> Optional[bytes]:
    """Compiled wasm bytes for this artifact key, if seen this process."""
    if not enabled():
        return None
    payload = _wasm_memo.get(key)
    if payload is not None:
        _wasm_memo.move_to_end(key)
    return payload


def wasm_memo_put(key: str, wasm_bytes: bytes) -> None:
    if not enabled():
        return
    _wasm_memo[key] = wasm_bytes
    _wasm_memo.move_to_end(key)
    while len(_wasm_memo) > _WASM_MEMO_CAPACITY:
        _wasm_memo.popitem(last=False)


def wasm_memo_clear() -> None:
    _wasm_memo.clear()


__all__ = ["SPEED_VERSION", "TIERS", "tier", "set_tier", "enabled",
           "module_cache", "entry_for", "ModuleCache", "ModuleEntry",
           "wasm_memo_get", "wasm_memo_put", "wasm_memo_clear"]
