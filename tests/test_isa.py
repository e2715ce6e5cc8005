"""Tests for the virtual ISA: op semantics, executor, block accounting."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, Trap
from repro.hw import CPUModel
from repro.isa import LinearMemory, Machine, MFunction, MProgram, ops
from repro.isa.ops import M32, M64, f32round, s32, s64


def run_func(code, num_params=0, num_regs=8, args=(), memory_pages=1,
             host=None, host_imports=(), functions_extra=(), table=(),
             globals_init=(), cpu=None):
    """Build a one-(or more-)function program and run its entry."""
    prog = MProgram(memory_pages=memory_pages,
                    host_imports=list(host_imports),
                    globals_init=list(globals_init),
                    table=list(table))
    entry = MFunction("entry", num_params, num_regs, list(code),
                      returns_value=True)
    prog.add_function(entry)
    for f in functions_extra:
        prog.add_function(f)
    prog.exports["entry"] = 0
    prog.finalize(code_base=0x0100_0000)
    cpu = cpu or CPUModel()
    machine = Machine(prog, cpu, host=host)
    return machine.run_export("entry", args), machine


class TestAluSemantics:
    def test_add32_wraps(self):
        assert ops.BINF[ops.ADD32](M32, 1) == 0

    def test_sub32_wraps(self):
        assert ops.BINF[ops.SUB32](0, 1) == M32

    def test_mul64_wraps(self):
        assert ops.BINF[ops.MUL64](M64, 2) == M64 - 1

    def test_div_s_truncates_toward_zero(self):
        assert s32(ops.BINF[ops.DIVS32]((-7) & M32, 2)) == -3

    def test_div_s_by_zero_traps(self):
        with pytest.raises(Trap):
            ops.BINF[ops.DIVS32](1, 0)

    def test_div_s_overflow_traps(self):
        with pytest.raises(Trap):
            ops.BINF[ops.DIVS32](0x80000000, M32)  # INT_MIN / -1

    def test_rem_s_sign_follows_dividend(self):
        assert s32(ops.BINF[ops.REMS32]((-7) & M32, 3)) == -1
        assert s32(ops.BINF[ops.REMS32](7, (-3) & M32)) == 1

    def test_div_u(self):
        assert ops.BINF[ops.DIVU32](M32, 2) == 0x7FFFFFFF

    def test_shr_s_is_arithmetic(self):
        assert s32(ops.BINF[ops.SHRS32]((-8) & M32, 1)) == -4

    def test_shr_u_is_logical(self):
        assert ops.BINF[ops.SHRU32]((-8) & M32, 1) == 0x7FFFFFFC

    def test_shift_count_masked(self):
        assert ops.BINF[ops.SHL32](1, 33) == 2

    def test_rotl32(self):
        assert ops.BINF[ops.ROTL32](0x80000001, 1) == 0x00000003
        assert ops.BINF[ops.ROTL32](0xDEADBEEF, 0) == 0xDEADBEEF

    def test_rotr64(self):
        assert ops.BINF[ops.ROTR64](1, 1) == 1 << 63

    def test_signed_unsigned_compare_differ(self):
        big = 0x80000000  # negative as signed
        assert ops.BINF[ops.LTS32](big, 1) == 1
        assert ops.BINF[ops.LTU32](big, 1) == 0

    def test_clz_ctz_popcnt(self):
        assert ops.UNF[ops.CLZ32 - ops.NUM_BIN](1) == 31
        assert ops.UNF[ops.CLZ32 - ops.NUM_BIN](0) == 32
        assert ops.UNF[ops.CTZ32 - ops.NUM_BIN](8) == 3
        assert ops.UNF[ops.CTZ32 - ops.NUM_BIN](0) == 32
        assert ops.UNF[ops.POPCNT32 - ops.NUM_BIN](0xF0F0) == 8

    def test_float_min_nan(self):
        assert math.isnan(ops.BINF[ops.MINF64](math.nan, 1.0))

    def test_float_min_signed_zero(self):
        assert math.copysign(1, ops.BINF[ops.MINF64](0.0, -0.0)) == -1

    def test_float_max_signed_zero(self):
        assert math.copysign(1, ops.BINF[ops.MAXF64](0.0, -0.0)) == 1

    def test_float_div_by_zero_is_inf(self):
        assert ops.BINF[ops.DIVF64](1.0, 0.0) == math.inf
        assert ops.BINF[ops.DIVF64](-1.0, 0.0) == -math.inf
        assert math.isnan(ops.BINF[ops.DIVF64](0.0, 0.0))

    def test_f32_arithmetic_rounds_to_single(self):
        result = ops.BINF[ops.ADDF32](1.0, 2 ** -30)
        assert result == f32round(1.0 + 2 ** -30)
        assert result != 1.0 + 2 ** -60 + 1.0

    def test_trunc_nan_traps(self):
        with pytest.raises(Trap):
            ops.UNF[ops.TRUNCF64S32 - ops.NUM_BIN](math.nan)

    def test_trunc_overflow_traps(self):
        with pytest.raises(Trap):
            ops.UNF[ops.TRUNCF64S32 - ops.NUM_BIN](3e9)

    def test_trunc_in_range(self):
        fn = ops.UNF[ops.TRUNCF64S32 - ops.NUM_BIN]
        assert s32(fn(-2.9)) == -2

    def test_nearest_half_to_even(self):
        fn = ops.UNF[ops.NEARESTF64 - ops.NUM_BIN]
        assert fn(2.5) == 2.0
        assert fn(3.5) == 4.0
        assert fn(-0.4) == 0.0 and math.copysign(1, fn(-0.4)) == -1

    def test_extend_signed(self):
        fn = ops.UNF[ops.EXTENDS32 - ops.NUM_BIN]
        assert fn((-5) & M32) == (-5) & M64

    def test_wrap(self):
        fn = ops.UNF[ops.WRAP64 - ops.NUM_BIN]
        assert fn(0x1_2345_6789) == 0x2345_6789

    def test_reinterpret_roundtrip(self):
        to_bits = ops.UNF[ops.RI64F64 - ops.NUM_BIN]
        from_bits = ops.UNF[ops.RF64I64 - ops.NUM_BIN]
        assert from_bits(to_bits(3.14159)) == 3.14159

    def test_convert_unsigned(self):
        fn = ops.UNF[ops.CVTU32F64 - ops.NUM_BIN]
        assert fn(M32) == float(M32)

    @given(st.integers(0, M32), st.integers(0, M32))
    @settings(max_examples=200, deadline=None)
    def test_add_sub_inverse(self, a, b):
        total = ops.BINF[ops.ADD32](a, b)
        assert ops.BINF[ops.SUB32](total, b) == a

    @given(st.integers(0, M32), st.integers(1, M32))
    @settings(max_examples=200, deadline=None)
    def test_divmod_identity_unsigned(self, a, b):
        q = ops.BINF[ops.DIVU32](a, b)
        r = ops.BINF[ops.REMU32](a, b)
        assert q * b + r == a and r < b

    @given(st.integers(0, M32), st.integers(0, 63))
    @settings(max_examples=200, deadline=None)
    def test_rotl_rotr_inverse(self, a, n):
        assert ops.BINF[ops.ROTR32](ops.BINF[ops.ROTL32](a, n), n) == a


# r0 = 10; r1 = 0; while (r0) { r1 += r0; r0 -= 1 } return r1
LOOP_CODE = [
    (ops.LI, 0, 10),
    (ops.LI, 1, 0),
    (ops.LI, 2, 1),
    (ops.BRZ, 0, 8),          # 3: exit loop
    (ops.ADD32, 1, 1, 0),     # 4
    (ops.SUB32, 0, 0, 2),     # 5
    (ops.JMP, 3),             # 6
    (ops.LI, 3, 0),           # 7 (dead padding)
    (ops.RET, 1),             # 8
]


class TestMachine:
    def test_simple_arith(self):
        code = [
            (ops.LI, 0, 2),
            (ops.LI, 1, 3),
            (ops.ADD32, 2, 0, 1),
            (ops.RET, 2),
        ]
        result, _ = run_func(code)
        assert result == 5

    def test_loop_counts(self):
        result, machine = run_func(LOOP_CODE)
        assert result == 55
        counters = machine.cpu.counters
        assert counters.instructions > 30
        assert counters.branches >= 21  # 11 conditional + 10 backedge jumps

    def test_memory_roundtrip(self):
        code = [
            (ops.LI, 0, 64),                 # address
            (ops.LI, 1, 0xDEADBEEF),
            (ops.STORE32, 0, 0, 1),
            (ops.LOAD32, 2, 0, 0),
            (ops.RET, 2),
        ]
        result, machine = run_func(code)
        assert result == 0xDEADBEEF
        assert machine.cpu.counters.l1d.refs == 2

    def test_load_sign_extension(self):
        code = [
            (ops.LI, 0, 0),
            (ops.LI, 1, 0x80),
            (ops.STORE8, 0, 0, 1),
            (ops.LOAD8_S, 2, 0, 0),
            (ops.LOAD8_U, 3, 0, 0),
            (ops.SUB32, 4, 2, 3),
            (ops.RET, 2),
        ]
        result, _ = run_func(code)
        assert s32(result) == -128

    def test_oob_load_traps(self):
        code = [
            (ops.LI, 0, 65536),
            (ops.LOAD32, 1, 0, 0),
            (ops.RET, 1),
        ]
        with pytest.raises(Trap):
            run_func(code)

    def test_float_memory(self):
        code = [
            (ops.LI, 0, 128),
            (ops.LI, 1, 2.5),
            (ops.STOREF64, 0, 0, 1),
            (ops.LOADF64, 2, 0, 0),
            (ops.LI, 3, 4.0),
            (ops.MULF64, 4, 2, 3),
            (ops.RET, 4),
        ]
        result, _ = run_func(code)
        assert result == 10.0

    def test_select(self):
        code = [
            (ops.LI, 0, 0),
            (ops.LI, 1, 111),
            (ops.LI, 2, 222),
            (ops.SELECT, 3, 0, 1, 2),
            (ops.RET, 3),
        ]
        result, _ = run_func(code)
        assert result == 222

    def test_direct_call(self):
        callee = MFunction("double", 1, 3,
                           [(ops.LI, 1, 2), (ops.MUL32, 2, 0, 1),
                            (ops.RET, 2)], returns_value=True)
        code = [
            (ops.LI, 0, 21),
            (ops.CALL, 1, 1, (0,)),
            (ops.RET, 1),
        ]
        result, _ = run_func(code, functions_extra=[callee])
        assert result == 42

    def test_indirect_call_and_sig_check(self):
        callee = MFunction("f", 0, 1, [(ops.LI, 0, 7), (ops.RET, 0)],
                           sig_id=5, returns_value=True)
        code = [
            (ops.LI, 0, 0),               # table index 0
            (ops.CALL_IND, 1, 5, 0, ()),
            (ops.RET, 1),
        ]
        result, _ = run_func(code, functions_extra=[callee], table=[1])
        assert result == 7

    def test_indirect_call_sig_mismatch_traps(self):
        callee = MFunction("f", 0, 1, [(ops.LI, 0, 7), (ops.RET, 0)],
                           sig_id=5, returns_value=True)
        code = [
            (ops.LI, 0, 0),
            (ops.CALL_IND, 1, 6, 0, ()),  # expects sig 6
            (ops.RET, 1),
        ]
        with pytest.raises(Trap):
            run_func(code, functions_extra=[callee], table=[1])

    def test_indirect_call_oob_traps(self):
        code = [
            (ops.LI, 0, 99),
            (ops.CALL_IND, 1, 0, 0, ()),
            (ops.RET, 1),
        ]
        with pytest.raises(Trap):
            run_func(code, table=[])

    def test_host_call(self):
        seen = []

        def hostfn(machine, args):
            seen.append(tuple(args))
            return 99

        code = [
            (ops.LI, 0, 5),
            (ops.CALL_HOST, 1, 0, (0,)),
            (ops.RET, 1),
        ]
        result, _ = run_func(code, host={"env.f": hostfn},
                             host_imports=["env.f"])
        assert result == 99
        assert seen == [(5,)]

    def test_unresolved_host_import(self):
        prog = MProgram(host_imports=["env.missing"])
        prog.add_function(MFunction("e", 0, 1, [(ops.RET, -1)]))
        prog.finalize(0x0100_0000)
        with pytest.raises(ReproError):
            Machine(prog, CPUModel())

    def test_globals(self):
        code = [
            (ops.GGET, 0, 0),
            (ops.LI, 1, 1),
            (ops.ADD32, 0, 0, 1),
            (ops.GSET, 0, 0),
            (ops.GGET, 2, 0),
            (ops.RET, 2),
        ]
        result, _ = run_func(code, globals_init=[41])
        assert result == 42

    def test_br_table(self):
        # return [10, 20, 30][arg] with default 99
        code = [
            (ops.BR_TABLE, 0, (2, 4, 6), 8),
            (ops.TRAP_OP, "unreachable"),
            (ops.LI, 1, 10), (ops.RET, 1),   # 2
            (ops.LI, 1, 20), (ops.RET, 1),   # 4
            (ops.LI, 1, 30), (ops.RET, 1),   # 6
            (ops.LI, 1, 99), (ops.RET, 1),   # 8
        ]
        for arg, expected in [(0, 10), (1, 20), (2, 30), (7, 99)]:
            result, _ = run_func(code, num_params=1, args=(arg,))
            assert result == expected

    def test_trap_op(self):
        code = [(ops.TRAP_OP, "unreachable")]
        with pytest.raises(Trap):
            run_func(code)

    def test_memsize_memgrow(self):
        code = [
            (ops.MEMSIZE, 0),
            (ops.LI, 1, 2),
            (ops.MEMGROW, 2, 1),
            (ops.MEMSIZE, 3),
            (ops.SUB32, 4, 3, 0),
            (ops.RET, 4),
        ]
        result, _ = run_func(code)
        assert result == 2

    def test_memgrow_failure_returns_minus_one(self):
        code = [
            (ops.LI, 0, 1 << 20),     # absurd page count
            (ops.MEMGROW, 1, 0),
            (ops.RET, 1),
        ]
        result, _ = run_func(code)
        assert s32(result) == -1

    def test_call_stack_exhaustion_traps(self):
        # Infinite recursion through function 0 calling itself.
        prog = MProgram()
        f = MFunction("rec", 0, 2,
                      [(ops.CALL, 0, 0, ()), (ops.RET, 0)],
                      returns_value=True)
        prog.add_function(f)
        prog.exports["rec"] = 0
        prog.finalize(0x0100_0000)
        machine = Machine(prog, CPUModel())
        with pytest.raises(Trap) as exc:
            machine.run_export("rec")
        assert "stack" in str(exc.value)

    def test_spill_reload_are_pure_accounting(self):
        code = [
            (ops.LI, 0, 77),
            (ops.SPILL, 0),
            (ops.RELOAD, 0),
            (ops.RET, 0),
        ]
        result, machine = run_func(code)
        assert result == 77
        assert machine.cpu.counters.l1d.refs == 2

    def test_block_instruction_accounting_exact(self):
        # Straight-line code: retired instructions must equal op count
        # (LI=1, ADD=1, RET=1).
        code = [
            (ops.LI, 0, 1),
            (ops.LI, 1, 2),
            (ops.ADD32, 2, 0, 1),
            (ops.RET, 2),
        ]
        result, machine = run_func(code)
        assert machine.cpu.counters.instructions == 4

    def test_call_cost_includes_args(self):
        callee = MFunction("id", 2, 2, [(ops.RET, 0)], returns_value=True)
        code = [
            (ops.LI, 0, 1),
            (ops.LI, 1, 2),
            (ops.CALL, 2, 1, (0, 1)),
            (ops.RET, 2),
        ]
        _, machine = run_func(code, functions_extra=[callee])
        # LI+LI+CALL(1+2 args)+RET + callee RET = 2 + 3 + 1 + 1 = 7
        assert machine.cpu.counters.instructions == 7

    def test_icache_warm_loop(self):
        # A tight loop must fetch its line once and then hit.
        code = [
            (ops.LI, 0, 100),
            (ops.LI, 1, 1),
            (ops.BRZ, 0, 5),
            (ops.SUB32, 0, 0, 1),
            (ops.JMP, 2),
            (ops.RET, 0),
        ]
        _, machine = run_func(code)
        c = machine.cpu.counters
        assert c.l1i.misses <= 3
        assert c.l1i.refs > 100


def _assert_written_back(cpu):
    """Every ``Cache.access_line`` bumps both the LRU clock and the
    reference count, so once the executor has written its shadowed L1
    state back the two agree."""
    c = cpu.counters
    assert cpu.caches.l1i.tick == c.l1i.refs
    assert cpu.caches.l1d.tick == c.l1d.refs


# Call ``LOOP_CODE`` and a callee that spills, then touch data, so every
# exit below has callee-advanced L1 clocks and pending L1I/L1D state.
_WARM = [(ops.CALL, 7, 1, ()), (ops.CALL, 7, 2, ()), (ops.LI, 0, 64),
         (ops.LI, 1, 5), (ops.STORE32, 0, 0, 1), (ops.LOAD32, 2, 0, 0),
         (ops.SPILL, 2), (ops.GGET, 3, 0), (ops.GSET, 0, 3)]


def _callees():
    """Functions 1-3: the loop, an indirect-call target (sig 5), and a
    callee that loads out of bounds."""
    return [
        MFunction("loop", 0, 4, list(LOOP_CODE), returns_value=True),
        MFunction("f", 0, 1, [(ops.LI, 0, 7), (ops.SPILL, 0), (ops.RET, 0)],
                  sig_id=5, returns_value=True),
        MFunction("oob", 0, 2, [(ops.LI, 0, 65536), (ops.LOAD32, 1, 0, 0),
                                (ops.RET, 1)]),
    ]


def _call_ind(sig):
    return _WARM + [(ops.LI, 0, 0), (ops.CALL_IND, 1, sig, 0, ()),
                    (ops.RET, 1)]


def _oob(op_):
    access = (ops.LOAD32, 1, 0, 0) if op_ == "load" else (ops.STORE32, 0, 0, 1)
    return _WARM + [(ops.LI, 0, 65536), access, (ops.RET, 1)]


# case -> (entry code, table, expected trap substring or None)
_WRITEBACK_CASES = {
    "return": (_WARM + [(ops.RET, 2)], [], None),
    "oob_load": (_oob("load"), [], "out of bounds"),
    "oob_store": (_oob("store"), [], "out of bounds"),
    "trap_op": (_WARM + [(ops.TRAP_OP, "unreachable")], [], "unreachable"),
    "trap_in_callee": (_WARM + [(ops.CALL, 1, 3, ()), (ops.RET, 1)], [],
                       "out of bounds"),
    "call_ind": (_call_ind(5), [2], None),
    "call_ind_undefined": (_call_ind(5), [], "undefined element"),
    "call_ind_uninitialized": (_call_ind(5), [-1], "uninitialized"),
    "call_ind_type_mismatch": (_call_ind(6), [2], "type mismatch"),
    "host_call": (_WARM + [(ops.CALL_HOST, 1, 0, (2,)), (ops.RET, 1)], [],
                  None),
    "stack_exhausted": (_WARM + [(ops.CALL, 1, 0, ()), (ops.RET, 1)], [],
                        "stack exhausted"),
}


@pytest.mark.parametrize("case", sorted(_WRITEBACK_CASES))
def test_machine_writes_back_l1_state(case):
    """After every top-level call, however it ends, and at every host
    call, the executor's shadowed L1 clocks and reference counts have
    been written back to the model."""
    code, table, trap = _WRITEBACK_CASES[case]
    host_args = []

    def hostfn(machine, args):
        _assert_written_back(machine.cpu)
        host_args.append(tuple(args))
        return 1

    cpu = CPUModel()
    try:
        run_func(code, table=table, globals_init=[3], cpu=cpu,
                 functions_extra=_callees(),
                 host={"env.f": hostfn}, host_imports=["env.f"])
        raised = None
    except Trap as exc:
        raised = str(exc)
    assert (raised is None) == (trap is None)
    assert trap is None or trap in raised
    _assert_written_back(cpu)
    assert cpu.counters.l1i.refs > 10 and cpu.counters.l1d.refs >= 5
    assert host_args == ([(5,)] if case == "host_call" else [])


class TestProgramStructure:
    def test_invalid_branch_target_rejected(self):
        prog = MProgram()
        prog.add_function(MFunction("bad", 0, 1, [(ops.JMP, 99)]))
        with pytest.raises(ReproError):
            prog.finalize(0x0100_0000)

    def test_unfinalized_program_rejected(self):
        prog = MProgram()
        prog.add_function(MFunction("f", 0, 1, [(ops.RET, -1)]))
        with pytest.raises(ReproError):
            Machine(prog, CPUModel())

    def test_code_bytes_counts_all_functions(self):
        prog = MProgram()
        prog.add_function(MFunction("a", 0, 1, [(ops.RET, -1)]))
        prog.add_function(MFunction("b", 0, 1, [(ops.LI, 0, 1), (ops.RET, 0)]))
        prog.finalize(0x0100_0000)
        assert prog.code_bytes == 3 * 4

    def test_disassemble(self):
        from repro.isa import disassemble
        f = MFunction("f", 0, 2, [(ops.LI, 0, 5), (ops.RET, 0)])
        f.code_addr = 0
        f.compute_blocks(6)
        text = disassemble(f)
        assert "li" in text and "ret" in text
