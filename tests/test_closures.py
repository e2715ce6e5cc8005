"""Differential harness for the closure-compiled tier (REPRO_SPEED=2).

The closure tier is a template JIT of the model itself, so its failure
mode is the worst kind: plausible numbers that are subtly wrong.  Every
check here is therefore *differential* — the closure tier must produce
byte-identical ``RunResult.to_json()`` output (counters, traps, stdout,
span trees) to the ``REPRO_SPEED=0`` reference, across engines, ``-O``
levels, fuzz-generated programs, and the trap seed set.  Plus the
sharing/robustness contract of the persisted closure bundles: pool
workers hit shared artifacts, corrupt or stale artifacts recompute
without crashing, a module predecodes and binds at most once for both
interpreters, each distinct function source compiles once per process,
and the tier knob itself parses strictly.

Run the sweep locally with a different seed base:
``REPRO_FUZZ_SEED=1234 python -m pytest tests/test_closures.py``.
"""

import builtins
import gc
import hashlib
import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import speed
from repro.bench import io_names
from repro.errors import HarnessError, Trap
from repro.fuzz import CellRunner, normalize_trap
from repro.fuzz.generator import generate_module, generate_program
from repro.harness import Harness
from repro.harness.cache import ArtifactCache, CacheStats
from repro.harness.cli import main as wabench_main
from repro.harness.parallel import run_cells
from repro.hw import CPUModel
from repro.isa.memory import LinearMemory
from repro.runtimes.interp.engine import (CLASSIC_PROFILE, THREADED_PROFILE,
                                          Interpreter, prepare_function)
from repro.speed import closures
from repro.speed import predecode
from repro.speed.modcache import ModuleCache
from repro.wasm import I32, ModuleBuilder
from repro.wasm import opcodes as op

from .conftest import fuzz_seeds
from .test_trap_equivalence import TRAP_PROGRAMS


@pytest.fixture(autouse=True)
def _closure_layer_reset():
    """Each test starts at the closure tier with cold, detached caches."""
    def reset():
        speed.set_tier(2)
        speed.module_cache.clear()
        speed.module_cache.attach_disk(None)
        speed.wasm_memo_clear()
    reset()
    yield
    reset()


# ---------------------------------------------------------------------------
# Interpreter-level equivalence: reference vs closures on seeded random
# Wasm modules, down to every modeled counter.
# ---------------------------------------------------------------------------


def _counters_dict(cpu):
    c = cpu.counters
    d = {"instructions": c.instructions, "stall_cycles": c.stall_cycles,
         "branches": c.branches, "branch_misses": c.branch_misses}
    for name in ("l1i", "l1d", "l2", "l3"):
        stats = getattr(c, name)
        d[name] = (stats.refs, stats.misses)
    return d


def _interp_run(module, args, tier, pickle_roundtrip=False,
                profile=THREADED_PROFILE):
    prepared = []
    for i, func in enumerate(module.functions):
        prepared.append(("wasm", prepare_function(module, func, i)))
    cpu = CPUModel()
    mem = LinearMemory(1)
    interp = Interpreter(profile, cpu, mem, [], [], prepared)
    interp.set_signatures(module)
    line_shift = cpu.caches.line_shift
    if tier == 2:
        bundle = closures.compile_bundle(prepared, line_shift)
        if pickle_roundtrip:
            bundle = pickle.loads(pickle.dumps(bundle))
        code = closures.bind_bundle(bundle)
        assert code, "closure compilation produced no functions"
        interp.closure_code = code
    trap = None
    value = None
    try:
        value = interp.call_index(0, args)
    except Trap as exc:
        trap = str(exc)
    return value, trap, bytes(mem.data[:4096]), _counters_dict(cpu)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       a=st.integers(min_value=0, max_value=2**32 - 1),
       b=st.integers(min_value=0, max_value=2**32 - 1))
def test_interp_equivalence_hypothesis(seed, a, b):
    module = generate_module(seed)
    ref = _interp_run(module, (a, b), tier=0)
    closure = _interp_run(module, (a, b), tier=2)
    assert closure == ref


@pytest.mark.parametrize("seed", fuzz_seeds(8, salt=0xC105))
def test_interp_equivalence_seeded(seed):
    module = generate_module(seed)
    for profile in (THREADED_PROFILE, CLASSIC_PROFILE):
        ref = _interp_run(module, (7, 13), tier=0, profile=profile)
        closure = _interp_run(module, (7, 13), tier=2, profile=profile)
        assert closure == ref, profile.name


def _compare_br_if_module():
    """A counted loop whose exits are ``local.get; {local.get|const};
    compare; br_if`` groups — the fused compare-and-branch entries,
    which compiled MiniC (``i32.eqz`` before every ``br_if``) never
    produces."""
    mb = ModuleBuilder()
    mb.set_memory(1)
    fb = mb.function("f", [I32, I32], [I32], export=True)
    fb.add_local(I32)
    fb.block("out").loop("top")
    fb.local_get(2).local_get(0).emit(op.I32_GE_U).br_if("out")
    fb.local_get(2).i32_const(1).emit(op.I32_ADD).local_set(2)
    fb.local_get(2).i32_const(5).emit(op.I32_LT_U).br_if("top")
    fb.local_get(2).local_get(1).emit(op.I32_NE).br_if("top")
    fb.end().end()
    fb.local_get(2)
    return mb.build()


@pytest.mark.parametrize("args", [(0, 0), (3, 9), (40, 12), (9, 9)])
def test_fused_compare_br_if_equivalent(args):
    module = _compare_br_if_module()
    kinds = {e[0] for fcode in predecode.predecode_functions(
        [("wasm", prepare_function(module, module.functions[0], 0))],
        CPUModel().caches.line_shift).values()
        for e in fcode}
    assert {predecode.F_LG_LG_CMP_BRIF,
            predecode.F_LG_CONST_CMP_BRIF} <= kinds
    assert _interp_run(module, args, tier=2) == \
        _interp_run(module, args, tier=0)


@pytest.mark.parametrize("seed", fuzz_seeds(3, salt=0xB1D))
def test_bundle_pickle_roundtrip_equivalent(seed):
    """A bundle bound from its pickled form (the disk path) behaves
    identically to one bound in place."""
    module = generate_module(seed)
    direct = _interp_run(module, (7, 13), tier=2)
    roundtrip = _interp_run(module, (7, 13), tier=2,
                            pickle_roundtrip=True)
    assert roundtrip == direct


#: sha256 of the generated bundles in ``test_bundle_fingerprint``, per
#: ``SPEED_VERSION``.  Stored bundles are keyed by that version, so a
#: change to the generated source must bump it (PERFORMANCE.md rule 3)
#: and add its digest here.
BUNDLE_DIGESTS = {
    3: "6a37b9efde0c80cfffa4688f10e144527c7834b735bac502cde577116759cc7d",
    4: "32b4225ebe2d0cdd3c77bf2d9af2f76788d7f9a6e5238b438bfa6aec9e4e0ea8",
}


def test_bundle_fingerprint():
    """The generated source is pinned to ``SPEED_VERSION``: an emitter
    change without a version bump would let stale stored bundles bind."""
    digest = hashlib.sha256()
    line_shift = CPUModel().caches.line_shift
    modules = [generate_module(seed) for seed in (0, 1, 0xC105, 0xCAFE)]
    for module in modules + [_compare_br_if_module()]:
        prepared = [("wasm", prepare_function(module, func, i))
                    for i, func in enumerate(module.functions)]
        bundle = closures.compile_bundle(prepared, line_shift)
        digest.update(repr(sorted(bundle.items())).encode())
    assert digest.hexdigest() == BUNDLE_DIGESTS.get(speed.SPEED_VERSION), \
        "generated closure source changed: bump SPEED_VERSION and " \
        "record the new digest in BUNDLE_DIGESTS"


# ---------------------------------------------------------------------------
# Pipeline-level differential sweep: fuzz-generated MiniC programs,
# engines x -O levels x tiers, full RunResult byte-identity.
# ---------------------------------------------------------------------------

SWEEP_ENGINES = ("wasm3", "wamr", "wasmtime")
SWEEP_OPTS = (0, 2)


def _tier_result(runner, source, engine, opt, tier):
    speed.set_tier(tier)
    speed.module_cache.clear()
    try:
        return runner.run_cell(source, engine, opt,
                               use_cache=False).to_json()
    finally:
        speed.set_tier(2)


@pytest.mark.parametrize("seed", fuzz_seeds(6, salt=0xD1FF))
def test_differential_sweep_generated_programs(seed):
    source = generate_program(seed, size_budget=16).source
    runner = CellRunner()
    for engine in SWEEP_ENGINES:
        for opt in SWEEP_OPTS:
            ref = _tier_result(runner, source, engine, opt, tier=0)
            closure = _tier_result(runner, source, engine, opt, tier=2)
            assert closure == ref, f"{engine} -O{opt} tier 2 diverged"


@pytest.mark.parametrize("name", sorted(TRAP_PROGRAMS))
def test_differential_trap_programs(name):
    """The trap seed set: same trap kind AND byte-identical results on
    the interpreters where the closure tier runs."""
    source, expected_kind = TRAP_PROGRAMS[name]
    runner = CellRunner()
    for engine in ("wasm3", "wamr"):
        ref = _tier_result(runner, source, engine, 2, tier=0)
        closure = _tier_result(runner, source, engine, 2, tier=2)
        assert closure == ref, f"{name} on {engine} diverged"
        result = runner.run_cell(source, engine, 2, use_cache=False)
        assert normalize_trap(result.trap) == expected_kind


@pytest.mark.slow
@pytest.mark.parametrize("engine", ("wasm3", "wamr"))
def test_full_suite_equivalence(engine):
    """Every WABench program, byte-identical across tiers 0 and 2."""
    def suite(tier):
        speed.set_tier(tier)
        speed.module_cache.clear()
        harness = Harness(size="test")
        return {name: harness.run(name, engine).to_json()
                for name in harness.benchmark_names}

    ref = suite(0)
    closure = suite(2)
    diverged = [n for n in ref if closure[n] != ref[n]]
    assert not diverged, f"tier 2 diverged on: {diverged}"


@pytest.mark.parametrize("engine", SWEEP_ENGINES)
def test_io_suite_equivalence(engine):
    """The I/O-bound WABench class, byte-identical across tiers 0 and
    2.  These programs are WASI-heavy, so any tier that priced or
    ordered host calls differently would diverge here first."""
    def suite(tier):
        speed.set_tier(tier)
        speed.module_cache.clear()
        harness = Harness(size="test", benchmarks=list(io_names()))
        return {name: harness.run(name, engine).to_json()
                for name in io_names()}

    ref = suite(0)
    closure = suite(2)
    diverged = [n for n in ref if closure[n] != ref[n]]
    assert not diverged, f"tier 2 diverged on: {diverged}"


# ---------------------------------------------------------------------------
# Cross-worker sharing: pool workers must hit the shared closure and
# decoded-module artifacts instead of re-deriving them per process.
# ---------------------------------------------------------------------------

SHARING_BENCHES = ("gemm", "crc32", "quicksort")
SHARING_CELLS = [(b, e, 2, False)
                 for b in SHARING_BENCHES for e in ("wasm3", "wamr")]


def _drop_results(harness):
    """Delete only the cached RunResults so cells re-execute (and the
    module/closure artifacts get consulted again)."""
    dropped = 0
    for name, engine, opt, aot in SHARING_CELLS:
        key = harness.artifact_key("result", name, opt,
                                   engine=engine, aot=aot)
        path = harness.disk_cache._path(key)
        if os.path.exists(path):
            os.unlink(path)
            dropped += 1
    assert dropped == len(SHARING_CELLS), \
        "expected every cached result to drop"


def test_cross_worker_artifact_sharing(tmp_path):
    cache_dir = str(tmp_path / "cache")
    serial = Harness(size="test", benchmarks=list(SHARING_BENCHES))
    expected = {cell: serial.run(cell[0], cell[1]).to_json()
                for cell in SHARING_CELLS}

    # Cold parallel run populates the store (module + closure bundles).
    speed.module_cache.clear()
    h1 = Harness(size="test", benchmarks=list(SHARING_BENCHES),
                 cache_dir=cache_dir)
    run_cells(h1, SHARING_CELLS, jobs=4)

    # Second parallel run against the warm store: results are dropped so
    # every cell re-executes, and the in-process caches are cleared so
    # even the serial fallback path must go through the disk store.
    _drop_results(h1)
    speed.module_cache.clear()
    speed.wasm_memo_clear()
    h2 = Harness(size="test", benchmarks=list(SHARING_BENCHES),
                 cache_dir=cache_dir)
    run_cells(h2, SHARING_CELLS, jobs=4)

    hits = h2.cache_stats.hits
    assert hits.get("speed-module", 0) > 0, hits
    assert hits.get("closure", 0) > 0, hits
    # No worker recompiled a closure bundle the store already had.
    assert h2.cache_stats.misses.get("closure", 0) == 0, \
        h2.cache_stats.misses

    for cell in SHARING_CELLS:
        key = (cell[0], cell[1], cell[2], cell[3], "test")
        assert h1._result_cache[key].to_json() == expected[cell]
        assert h2._result_cache[key].to_json() == expected[cell]


# ---------------------------------------------------------------------------
# One predecode and one bind per module: the bundle is profile-free, so
# wasm3 and wamr share it; a cold load predecodes only inside
# compile_bundle, and a stored bundle skips predecode.
# ---------------------------------------------------------------------------


def _counting(calls, fn):
    def wrapper(*args):
        calls.append(fn.__name__)
        return fn(*args)
    return wrapper


def test_single_predecode_and_bind_per_module(tmp_path, monkeypatch):
    predecodes, binds = [], []
    for mod in (closures, predecode):
        monkeypatch.setattr(mod, "predecode_functions",
                            _counting(predecodes, mod.predecode_functions))
    monkeypatch.setattr(closures, "bind_bundle",
                        _counting(binds, closures.bind_bundle))

    def run_both():
        harness = Harness(size="test", benchmarks=["gemm"])
        # The harness detaches the store; attach it below the harness.
        speed.module_cache.attach_disk(ArtifactCache(str(tmp_path)))
        return [harness.run("gemm", e).to_json() for e in ("wasm3", "wamr")]

    cold = run_both()
    assert len(predecodes) == 1 and len(binds) == 1

    # A fresh module cache over the store binds the stored bundle once,
    # for both engines, without predecoding anything.
    predecodes.clear()
    binds.clear()
    speed.module_cache.clear()
    speed.wasm_memo_clear()
    assert run_both() == cold
    assert predecodes == [] and len(binds) == 1


# ---------------------------------------------------------------------------
# Compile once per process: a function source shared by two modules (the
# libc every MiniC program links) is compiled once, and the memo holds a
# compiled body only while a bound function uses it.
# ---------------------------------------------------------------------------


def test_shared_sources_compile_once(monkeypatch):
    bundles, compiled = [], []
    compile_bundle = closures.compile_bundle

    def record_bundle(prepared, line_shift):
        bundle = compile_bundle(prepared, line_shift)
        bundles.append(bundle)
        return bundle

    def counting_compile(source, *args):
        compiled.append(source)
        return compile(source, *args)

    monkeypatch.setattr(closures, "compile_bundle", record_bundle)
    monkeypatch.setattr(closures, "compile", counting_compile,
                        raising=False)
    # Sources some earlier binding still holds are not compiled again.
    held = set(closures._code_memo.keys())
    harness = Harness(size="test", benchmarks=["gemm", "atax"])
    for name in ("gemm", "atax"):
        harness.run(name, "wasm3")

    assert len(bundles) == 2
    sources = [src for b in bundles for src, _ in b.values()]
    assert len(set(sources)) < len(sources), "no libc source shared"
    assert len(compiled) == len(set(compiled)), "a source compiled twice"
    assert set(compiled) <= set(sources)
    for source in set(sources) - set(compiled):
        assert hashlib.sha256(source.encode()).digest() in held
    # Every bound function carries builtins in its own globals (Python
    # 3.9 does not fall back to the caller's for ``len`` and friends).
    for fn in closures.bind_bundle(bundles[0]).values():
        assert fn.__globals__["__builtins__"] is builtins


def test_wasm3_then_wamr_matches_reference():
    """Both engines bind one shared bundle in one process; each must
    still match the tier-0 reference byte for byte."""
    def run_pair(tier):
        speed.set_tier(tier)
        speed.module_cache.clear()
        harness = Harness(size="test", benchmarks=["gemm"])
        return [harness.run("gemm", e).to_json() for e in ("wasm3", "wamr")]

    ref = run_pair(0)
    closure = run_pair(2)
    assert closure[0] == ref[0], "wasm3 diverged"
    assert closure[1] == ref[1], "wamr diverged"
    assert ref[0] != ref[1]


def test_code_memo_released_with_module_cache():
    harness = Harness(size="test", benchmarks=["crc32"])
    harness.run("crc32", "wasm3")
    assert len(closures._code_memo) > 0
    speed.module_cache.clear()
    gc.collect()
    assert len(closures._code_memo) == 0


# ---------------------------------------------------------------------------
# Closure-bundle robustness: corruption and version skew mirror the
# decoded-module cache contract (recompute, never crash; stale formats
# miss without evicting).
# ---------------------------------------------------------------------------


def _cached_entry(cache, stats=None):
    """A registered, prepared entry backed by ``cache``."""
    module = generate_module(0xCAFE)
    wasm_bytes = b"closure-robustness-fixture"
    mc = ModuleCache()
    mc.attach_disk(cache, stats=stats)
    entry = mc.register(wasm_bytes, module, None)
    entry.prepared = [("wasm", prepare_function(module, func, i))
                      for i, func in enumerate(module.functions)]
    return mc, entry


def test_closure_bundle_persists_and_hits(tmp_path):
    cache = ArtifactCache(str(tmp_path / "cache"))
    stats = CacheStats()
    mc, entry = _cached_entry(cache, stats)
    line_shift = CPUModel().caches.line_shift
    code = mc.closure_code(entry, line_shift)
    assert code and stats.misses.get("closure") == 1
    key = ModuleCache._closure_key(entry.sha, line_shift)
    assert cache.contains(key)
    # A second cache (fresh process stand-in) binds the stored bundle.
    mc2, entry2 = _cached_entry(cache, stats)
    code2 = mc2.closure_code(entry2, line_shift)
    assert stats.hits.get("closure") == 1
    assert sorted(code2) == sorted(code)
    # Memoized: a repeat lookup never touches the disk again.
    mc2.closure_code(entry2, line_shift)
    assert stats.hits.get("closure") == 1


def test_closure_bundle_corruption_recomputes(tmp_path):
    cache = ArtifactCache(str(tmp_path / "cache"))
    mc, entry = _cached_entry(cache)
    line_shift = CPUModel().caches.line_shift
    mc.closure_code(entry, line_shift)
    key = ModuleCache._closure_key(entry.sha, line_shift)

    # Truncated object: the store detects it, evicts, and a fresh cache
    # recomputes without crashing.
    path = cache._path(key)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:len(blob) // 2])
    mc2, entry2 = _cached_entry(cache)
    assert mc2.closure_code(entry2, line_shift)
    assert cache.contains(key)  # rewritten on the recompute

    # Valid pickle, garbage source: recompute too.
    cache.put_pickle(key, {0: ("def broken(:", [])})
    mc3, entry3 = _cached_entry(cache)
    assert mc3.closure_code(entry3, line_shift)

    # Valid pickle, unknown descriptor kind: recompute too.
    cache.put_pickle(key, {0: ("def _c0(I, args):\n    return None\n",
                               [("G0", ("no-such-kind",))])})
    mc4, entry4 = _cached_entry(cache)
    assert mc4.closure_code(entry4, line_shift)


def test_closure_bundle_version_skew_misses_without_evicting(tmp_path):
    """A payload from a different code version (unimportable classes)
    must behave as a miss but stay on disk — the same narrowing as
    cache.get_pickle, so parallel old/new checkouts sharing a store
    don't evict each other's artifacts."""
    cache = ArtifactCache(str(tmp_path / "cache"))
    mc, entry = _cached_entry(cache)
    line_shift = CPUModel().caches.line_shift
    key = ModuleCache._closure_key(entry.sha, line_shift)
    skew = b"cno_such_module\nNoSuchClass\n."  # protocol-0 pickle
    cache.put_bytes(key, skew)
    assert cache.get_pickle(key) is None
    assert cache.contains(key), "ImportError must not evict"
    # closure_code overwrites with a fresh bundle and keeps working.
    assert mc.closure_code(entry, line_shift)


# ---------------------------------------------------------------------------
# The tier knob: strict parsing, runtime override, CLI validation.
# ---------------------------------------------------------------------------


def test_repro_speed_env_parsed_strictly(monkeypatch):
    for raw, expected in (("0", 0), ("2", 2)):
        monkeypatch.setenv("REPRO_SPEED", raw)
        speed._tier = None
        assert speed.tier() == expected
    for raw in ("1", "3", "on", "yes", "", " 1", "02"):
        monkeypatch.setenv("REPRO_SPEED", raw)
        speed._tier = None
        with pytest.raises(HarnessError) as excinfo:
            speed.tier()
        assert "REPRO_SPEED" in str(excinfo.value)
        assert "\n" not in str(excinfo.value)
    monkeypatch.delenv("REPRO_SPEED", raising=False)
    speed._tier = None
    assert speed.tier() == 2  # default


def test_set_tier_validates():
    for bad in (1, 3, "2"):
        with pytest.raises(HarnessError) as excinfo:
            speed.set_tier(bad)
        assert "\n" not in str(excinfo.value)
    assert speed.TIERS == (0, 2)
    speed.set_tier(0)
    assert not speed.enabled()
    speed.set_tier(2)
    assert speed.tier() == 2 and speed.enabled()


def test_cli_rejects_bad_speed_tier(tmp_path, capsys):
    for bad in ("7", "1"):
        rc = wabench_main(["run", "gemm", "--size", "test",
                           "--speed-tier", bad, "--no-cache"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--speed-tier" in err and err.count("\n") == 1


def test_cli_speed_tier_override(tmp_path, capsys, monkeypatch):
    """--speed-tier 0 runs the reference path and produces the same
    output as the default closure tier."""
    monkeypatch.setattr(speed, "_tier", 2)
    out_dir = str(tmp_path / "out")
    rc = wabench_main(["run", "gemm", "--size", "test", "--no-cache",
                       "--speed-tier", "0", "--out", out_dir])
    assert rc == 0
    assert speed.tier() == 0
    assert os.environ.get("REPRO_SPEED") == "0"
    monkeypatch.delenv("REPRO_SPEED", raising=False)
