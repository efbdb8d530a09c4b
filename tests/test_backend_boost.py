"""Boost baseline lowering: the structural handicap it must reproduce."""

import pytest

from repro import compile_source
from repro.backends import BoostLoweringPass, MPFRLoweringPass
from repro.codegen import generate_ir
from repro.ir import CallInst, LoopInfo, verify_module
from repro.lang import analyze, parse
from repro.passes import build_o3_pipeline

AXPY = """
void axpy(int n, vpfloat<mpfr, 16, 256> a,
          vpfloat<mpfr, 16, 256> *X, vpfloat<mpfr, 16, 256> *Y) {
  for (int i = 0; i < n; i++)
    Y[i] = a * X[i] + Y[i];
}
"""


def lower_boost(source):
    module = generate_ir(analyze(parse(source)))
    build_o3_pipeline().run(module)
    BoostLoweringPass().run_module(module)
    verify_module(module)
    return module


class TestTemporaryChurn:
    def test_init_and_clear_inside_the_loop(self):
        """The wrapper constructs/destroys temporaries per iteration --
        the defining difference from the vpfloat backend."""
        module = lower_boost(AXPY)
        func = module.get_function("axpy")
        loops = LoopInfo(func).loops
        assert loops
        loop_blocks = loops[0].blocks
        in_loop = [getattr(i.callee, "name", "")
                   for b in loop_blocks for i in b.instructions
                   if isinstance(i, CallInst)]
        assert "mpfr_init2" in in_loop
        assert "mpfr_clear" in in_loop

    def test_no_specialized_entry_points(self):
        source = """
        void f(int n, double d, vpfloat<mpfr, 16, 128> *X) {
          for (int i = 0; i < n; i++) X[i] = X[i] * d;
        }
        """
        module = lower_boost(source)
        names = {getattr(i.callee, "name", "")
                 for i in module.get_function("f").instructions()
                 if isinstance(i, CallInst)}
        assert "mpfr_mul_d" not in names
        assert "mpfr_set_d" in names  # explicit conversion temporary

    def test_runtime_traffic_exceeds_vpfloat(self):
        program_fast = compile_source(AXPY + DRIVER, backend="mpfr")
        program_slow = compile_source(AXPY + DRIVER, backend="boost")
        fast = program_fast.run("drive", [16])
        slow = program_slow.run("drive", [16])
        assert slow.value == fast.value
        assert slow.report.mpfr_calls > fast.report.mpfr_calls
        assert slow.report.heap_allocations > fast.report.heap_allocations
        assert slow.report.cycles > fast.report.cycles

    def test_lifetimes_balance(self):
        program = compile_source(AXPY + DRIVER, backend="boost")
        interp = program.interpreter()
        interp.run("drive", [16])
        stats = interp.mpfr.stats
        # Statement temporaries balance exactly; named values hoisted to
        # the entry may keep function-exit clears.
        assert stats.clears <= stats.inits
        assert stats.inits - stats.clears <= 4


DRIVER = """
double drive(int n) {
  vpfloat<mpfr, 16, 256> X[32];
  vpfloat<mpfr, 16, 256> Y[32];
  vpfloat<mpfr, 16, 256> a = 2.0;
  for (int i = 0; i < n; i++) { X[i] = i; Y[i] = 1.0; }
  axpy(n, a, X, Y);
  double s = 0.0;
  for (int i = 0; i < n; i++) s = s + (double)Y[i];
  return s;
}
"""


class TestComparisonFairness:
    def test_boost_gets_the_same_mid_level_pipeline(self):
        """Both lowerings run after the same -O3 passes: the measured gap
        is the lowering strategy, nothing else."""
        source = AXPY + DRIVER
        module_a = generate_ir(analyze(parse(source)))
        module_b = generate_ir(analyze(parse(source)))
        build_o3_pipeline().run(module_a)
        build_o3_pipeline().run(module_b)
        # Same IR before the backends diverge.
        assert str(module_a.get_function("drive")) == \
            str(module_b.get_function("drive"))

    def test_boost_loads_alias_like_cpp_references(self):
        """Boost reads elements by reference: loads never copy."""
        module = lower_boost(AXPY)
        names = [getattr(i.callee, "name", "")
                 for i in module.get_function("axpy").instructions()
                 if isinstance(i, CallInst)]
        # The only mpfr_set in axpy is the element store (plus none for
        # loads): count must equal the store count (1 per iteration
        # pattern appears once in the IR).
        assert names.count("mpfr_set") + names.count("mpfr_swap") == 1
