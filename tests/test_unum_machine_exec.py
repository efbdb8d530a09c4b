"""UNUM machine: instruction-level execution behaviours."""

import pytest

from repro import compile_source
from repro.bigfloat import BigFloat
from repro.runtime.unum_machine import UnumMachine, UnumMachineError
from repro.unum import UnumConfig, encode


def run_unum(source, fn, args, **compile_kwargs):
    program = compile_source(source, backend="unum", **compile_kwargs)
    machine = program.machine()
    return machine.run(fn, args), machine


class TestScalarISA:
    def test_integer_ops(self):
        source = """
        int f(int a, int b) {
          return (a + b) * (a - b) / 2 + a % b;
        }
        """
        value, _ = run_unum(source, "f", [10, 3])
        assert value == (13 * 7) // 2 + 1

    def test_double_ops(self):
        source = """
        double f(double a, double b) {
          return a * b + a / b - b;
        }
        """
        value, _ = run_unum(source, "f", [6.0, 2.0])
        assert value == 12.0 + 3.0 - 2.0

    def test_libm_dispatch(self):
        import math

        source = "double f(double x) { return sqrt(x) + cos(0.0); }"
        value, _ = run_unum(source, "f", [9.0])
        assert value == 4.0

    def test_select_lowering(self):
        source = "int f(int a, int b) { return a > b ? a : b; }"
        assert run_unum(source, "f", [3, 9])[0] == 9
        assert run_unum(source, "f", [9, 3])[0] == 9

    def test_nested_calls(self):
        source = """
        int square(int x) { return x * x; }
        int f(int a) { return square(a) + square(a + 1); }
        """
        value, _ = run_unum(source, "f", [4],
                            enable_inlining=False)
        assert value == 16 + 25

    def test_recursion_on_machine(self):
        source = """
        int fact(int n) {
          if (n <= 1) return 1;
          return n * fact(n - 1);
        }
        """
        value, _ = run_unum(source, "fact", [6], enable_inlining=False)
        assert value == 720

    def test_memset_pseudo(self):
        source = """
        double f(int n) {
          double A[64];
          for (int i = 0; i < n; i++) A[i] = 0.0;
          return A[n - 1];
        }
        """
        value, machine = run_unum(source, "f", [64])
        assert value == 0.0
        opcodes = [i.opcode for f in machine.asm.functions.values()
                   for i in f.instructions()]
        assert "memset" in opcodes


class TestGLayerBehaviour:
    def test_wgp_governs_arithmetic_precision(self):
        source = """
        double f() {
          FTYPE tiny = 1.0;
          for (int i = 0; i < 40; i++) tiny = tiny / 2.0;
          FTYPE one = 1.0;
          FTYPE acc = one + tiny;
          return (double)(acc - one);
        }
        """
        # fss=5 -> 32 fraction bits: 2**-40 vanishes.
        low, _ = run_unum(source.replace("FTYPE", "vpfloat<unum, 4, 5>"),
                          "f", [])
        assert low == 0.0
        high, _ = run_unum(source.replace("FTYPE", "vpfloat<unum, 4, 7>"),
                           "f", [])
        assert high == 2.0 ** -40

    def test_gneg_and_compare(self):
        source = """
        double f(double x) {
          vpfloat<unum, 4, 7> v = x;
          vpfloat<unum, 4, 7> neg = 0.0 - v;
          if (neg < v) return 1.0;
          return 0.0 - 1.0;
        }
        """
        assert run_unum(source, "f", [2.0])[0] == 1.0
        assert run_unum(source, "f", [-2.0])[0] == -1.0

    def test_uninitialized_greg_read_trap(self):
        from repro.backends.unum_backend.asm import (
            AsmFunction,
            AsmInst,
            AsmModule,
            PReg,
        )

        asm = AsmModule()
        func = asm.add(AsmFunction("f"))
        block = func.add_block("entry")
        block.append(AsmInst("sucfg.ess", [_imm(4)]))
        block.append(AsmInst("sucfg.fss", [_imm(7)]))
        block.append(AsmInst("sucfg.wgp", [_imm(129)]))
        block.append(AsmInst("gadd", [PReg("g", 0), PReg("g", 1),
                                      PReg("g", 2)]))
        block.append(AsmInst("ret", []))
        machine = UnumMachine(asm)
        with pytest.raises(UnumMachineError, match="uninitialized"):
            machine.run("f")

    def test_unknown_opcode_trap(self):
        from repro.backends.unum_backend.asm import (
            AsmFunction,
            AsmInst,
            AsmModule,
        )

        asm = AsmModule()
        func = asm.add(AsmFunction("f"))
        func.add_block("entry").append(AsmInst("bogus", []))
        with pytest.raises(UnumMachineError, match="unknown opcode"):
            UnumMachine(asm).run("f")

    def test_instruction_budget(self):
        source = """
        int f() { int i = 0; while (1) i++; return i; }
        """
        program = compile_source(source, backend="unum")
        machine = program.machine(max_steps=5_000)
        with pytest.raises(UnumMachineError, match="budget"):
            machine.run("f", [])


def _imm(v):
    from repro.backends.unum_backend.asm import Imm

    return Imm(v)


class TestSpillExecution:
    def test_spilled_gregs_round_trip(self):
        """More than 30 live g-values: spill slots must preserve values
        exactly (they hold full-precision objects)."""
        decls = "\n".join(
            f"  vpfloat<unum, 4, 7> v{i} = x + {i}.5;" for i in range(34)
        )
        total = " + ".join(f"v{i}" for i in range(34))
        source = f"""
        double f(double x) {{
        {decls}
          return (double)({total});
        }}
        """
        program = compile_source(source, backend="unum",
                                 enable_unroll=False)
        machine = program.machine()
        value = machine.run("f", [1.0])
        assert value == sum(1.0 + i + 0.5 for i in range(34))
        opcodes = [i.opcode for f in program.asm.functions.values()
                   for i in f.instructions()]
        assert "gsdspill" in opcodes or "gldspill" in opcodes
