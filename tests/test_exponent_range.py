"""The mpfr *exp-info* attribute: exponent-range overflow/underflow."""

import pytest

from repro import compile_source

TEMPLATE = """
double grow(int n) {
  vpfloat<mpfr, EXP, 64> x = 2.0;
  for (int i = 0; i < n; i++) x = x * x;
  return (double)x;
}
double shrink(int n) {
  vpfloat<mpfr, EXP, 64> x = 0.5;
  for (int i = 0; i < n; i++) x = x * x;
  return (double)x;
}
"""


def program(exp_bits):
    return compile_source(TEMPLATE.replace("EXP", str(exp_bits)),
                          backend="none")


class TestExponentRange:
    def test_overflow_to_infinity(self):
        """With 6 exponent bits the limit is 2**32: 2**(2**6) overflows."""
        p = program(6)
        assert p.run("grow", [4]).value == 2.0 ** 16
        assert p.run("grow", [6]).value == float("inf")

    def test_underflow_to_zero(self):
        p = program(6)
        assert p.run("shrink", [4]).value == 2.0 ** -16
        assert p.run("shrink", [6]).value == 0.0

    def test_wide_exponent_never_clamps_here(self):
        p = program(16)
        assert p.run("grow", [6]).value == 2.0 ** 64
        assert p.run("shrink", [6]).value == 2.0 ** -64

    def test_sign_preserved_through_overflow(self):
        source = """
        double f(int n) {
          vpfloat<mpfr, 6, 64> x = 0.0 - 2.0;
          for (int i = 0; i < n; i++) x = x * x * (0.0 - 1.0);
          return (double)x;
        }
        """
        p = compile_source(source, backend="none")
        assert p.run("f", [6]).value == float("-inf")

    def test_range_boundary_exact(self):
        """2**32 is the last finite value at exp-bits=6 (limit 2**32,
        values in [2**31, 2**32) have exponent 32)."""
        source = """
        double f(double x) {
          vpfloat<mpfr, 6, 64> v = x;
          v = v * 2.0;
          return (double)v;
        }
        """
        p = compile_source(source, backend="none")
        # 2**31 * 2 = 2**32: exponent 33 > limit? exponent of 2**32 is 33
        # in MPFR convention... value 2**32 lies in [2**32, 2**33) ->
        # exponent 33 > 32: overflow.
        assert p.run("f", [2.0 ** 30]).value == 2.0 ** 31
        assert p.run("f", [2.0 ** 32]).value == float("inf")
