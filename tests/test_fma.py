"""FMA contraction: pattern matching, single-rounding, backend mapping."""

import pytest

from repro import compile_source
from repro.codegen import generate_ir
from repro.ir import CallInst, verify_module
from repro.lang import analyze, parse
from repro.passes import (
    FMAContractionPass,
    Mem2RegPass,
    PassManager,
    SimplifyCFGPass,
)

MAC = """
double f(int n, double *A) {
  vpfloat<mpfr, 16, 160> s = 0.0;
  vpfloat<mpfr, 16, 160> w = 3.0;
  for (int i = 0; i < n; i++)
    s = s + w * A[i];
  return (double)s;
}
"""


def contract(source):
    module = generate_ir(analyze(parse(source)))
    pm = PassManager(verify_each=True)
    pm.add(Mem2RegPass())
    pm.add(SimplifyCFGPass())
    pm.add(FMAContractionPass())
    stats = pm.run(module)
    verify_module(module)
    return module, stats.changes.get("fma-contract", 0)


class TestPatternMatching:
    def test_mac_contracts(self):
        module, count = contract(MAC)
        assert count == 1
        calls = [i for i in module.get_function("f").instructions()
                 if isinstance(i, CallInst)
                 and getattr(i.callee, "name", "") == "vp.fma"]
        assert len(calls) == 1
        # No stray fmul remains.
        assert not any(i.opcode == "fmul"
                       for i in module.get_function("f").instructions())

    def test_fsub_becomes_fms(self):
        source = """
        double f(vpfloat<mpfr,16,100> a, vpfloat<mpfr,16,100> b,
                 vpfloat<mpfr,16,100> c) {
          return (double)(a * b - c);
        }
        """
        module, count = contract(source)
        assert count == 1
        names = [getattr(i.callee, "name", "")
                 for i in module.get_function("f").instructions()
                 if isinstance(i, CallInst)]
        assert "vp.fms" in names

    def test_multi_use_mul_not_contracted(self):
        source = """
        double f(vpfloat<mpfr,16,100> a, vpfloat<mpfr,16,100> b,
                 vpfloat<mpfr,16,100> c) {
          vpfloat<mpfr,16,100> p = a * b;
          return (double)(p + c + p);
        }
        """
        module, count = contract(source)
        assert count == 0

    def test_c_minus_ab_not_contracted(self):
        source = """
        double f(vpfloat<mpfr,16,100> a, vpfloat<mpfr,16,100> b,
                 vpfloat<mpfr,16,100> c) {
          return (double)(c - a * b);
        }
        """
        module, count = contract(source)
        assert count == 0

    def test_double_type_contracts_too(self):
        source = """
        double f(double a, double b, double c) {
          return a * b + c;
        }
        """
        module, count = contract(source)
        assert count == 1


class TestSemantics:
    def test_single_rounding_differs_from_double_rounding(self):
        """fma(a,b,c) != (a*b)+c when the product needs the extra bits --
        the defining property of a fused operation."""
        source = """
        double f() {
          vpfloat<mpfr, 16, 53> a = 1.0000000001y;
          vpfloat<mpfr, 16, 53> b = 1.0000000001y;
          vpfloat<mpfr, 16, 53> c = -1.0000000002y;
          return (double)(a * b + c);
        }
        """
        plain = compile_source(source, backend="none") \
            .run("f", []).value
        fused = compile_source(source, backend="none", contract_fma=True) \
            .run("f", []).value
        # Both are tiny; the fused one keeps more of the true value.
        true_value = (1 + 1e-10) ** 2 - (1 + 2e-10)  # ~1e-20
        assert abs(fused - true_value) <= abs(plain - true_value)

    def test_backends_agree_when_fused(self):
        values = {}
        for backend in ("none", "mpfr", "boost"):
            program = compile_source(MAC, backend=backend,
                                     contract_fma=True)
            interp = program.interpreter()
            base = interp.memory.alloc_heap(64)
            for k in range(8):
                interp.memory.store(base + 8 * k, float(k), 8)
            values[backend] = interp.run("f", [8, base]).value
        assert values["none"] == values["mpfr"] == values["boost"]

    def test_mpfr_backend_emits_mpfr_fma(self):
        program = compile_source(MAC, backend="mpfr", contract_fma=True)
        interp = program.interpreter()
        base = interp.memory.alloc_heap(64)
        for k in range(8):
            interp.memory.store(base + 8 * k, float(k), 8)
        interp.run("f", [8, base])
        assert interp.mpfr.stats.by_name.get("mpfr_fma", 0) == 8

    def test_unum_backend_emits_gfma(self):
        source = MAC.replace("mpfr, 16, 160", "unum, 4, 7")
        program = compile_source(source, backend="unum", contract_fma=True)
        machine = program.machine()
        base = machine.memory.alloc_heap(64)
        for k in range(8):
            machine.memory.store(base + 8 * k, float(k), 8)
        result = machine.run("f", [8, base])
        assert result == sum(3.0 * k for k in range(8))
        assert machine.coprocessor.stats.by_opcode.get("gfma") == 8

    def test_fma_reduces_call_count(self):
        """One fused call replaces two (and one fewer rounding)."""
        separate = compile_source(MAC, backend="mpfr")
        fused = compile_source(MAC, backend="mpfr", contract_fma=True)

        def mpfr_calls(program):
            interp = program.interpreter()
            base = interp.memory.alloc_heap(64)
            for k in range(8):
                interp.memory.store(base + 8 * k, float(k), 8)
            interp.run("f", [8, base])
            return interp.mpfr.stats.ops

        assert mpfr_calls(fused) < mpfr_calls(separate)
