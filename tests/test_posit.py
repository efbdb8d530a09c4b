"""Posit format extension: codec properties and language integration.

The paper's grammar lists ``posit`` among the formats the generic type
can host "as they are proposed" (§III-A1); this suite covers the codec
(golden patterns, tapered precision, saturation) and the end-to-end
``vpfloat<posit, es, nbits>`` path through the frontend and interpreter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_source
from repro.bigfloat import BigFloat, from_str
from repro.lang import SemanticError, analyze, parse
from repro.unum import (
    PositConfig,
    PositConfigError,
    posit_decode,
    posit_encode,
    posit_round,
)

P8 = PositConfig(0, 8)
P16 = PositConfig(1, 16)
P32 = PositConfig(2, 32)


class TestCodecGolden:
    """Known patterns from the posit standard."""

    def test_one(self):
        assert posit_encode(BigFloat.from_int(1, 64), P8) == 0x40
        assert posit_encode(BigFloat.from_int(1, 64), P16) == 0x4000
        assert posit_encode(BigFloat.from_int(1, 64), P32) == 0x40000000

    def test_minus_one_is_twos_complement(self):
        assert posit_encode(BigFloat.from_int(-1, 64), P16) == 0xC000

    def test_zero_and_nar(self):
        assert posit_encode(BigFloat.zero(), P16) == 0
        assert posit_encode(BigFloat.nan(), P16) == 0x8000
        assert posit_encode(BigFloat.inf(), P16) == 0x8000
        assert posit_decode(0, P16).is_zero()
        assert posit_decode(0x8000, P16).is_nan()

    def test_half_posit8(self):
        # 0.5 = useed**-1 at es=0: pattern 0_01_00000.
        assert posit_encode(BigFloat.from_float(0.5, 64), P8) == 0x20
        assert float(posit_decode(0x20, P8)) == 0.5

    def test_powers_of_useed(self):
        # posit16 es=1: useed=4; 4.0 has k=1: 0_110_0_... = 0x6000.
        assert posit_encode(BigFloat.from_int(4, 64), P16) == 0x6000

    def test_saturation(self):
        # posit8 es=0: maxpos = 2**6, minpos = 2**-6.
        assert float(posit_decode(
            posit_encode(BigFloat.from_float(1e30, 64), P8), P8)) == 64.0
        assert float(posit_decode(
            posit_encode(BigFloat.from_float(1e-30, 64), P8), P8)) \
            == 2.0 ** -6

    def test_geometry_validation(self):
        with pytest.raises(PositConfigError):
            PositConfig(5, 16)
        with pytest.raises(PositConfigError):
            PositConfig(1, 2)
        with pytest.raises(PositConfigError):
            PositConfig(1, 128)


class TestCodecProperties:
    @given(st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)
           .filter(lambda x: abs(x) > 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_round_is_idempotent(self, x):
        v = BigFloat.from_float(x, 64)
        once = posit_round(v, P32)
        assert posit_round(once, P32) == once

    @given(st.integers(min_value=1, max_value=(1 << 16) - 1)
           .filter(lambda p: p != 1 << 15))
    @settings(max_examples=80, deadline=None)
    def test_decode_encode_identity(self, pattern):
        """Every bit pattern decodes to a value that re-encodes to it."""
        value = posit_decode(pattern, P16)
        assert posit_encode(value, P16) == pattern

    @given(st.integers(min_value=1, max_value=(1 << 15) - 2))
    @settings(max_examples=60, deadline=None)
    def test_pattern_order_is_value_order(self, pattern):
        """Monotonicity: adjacent positive patterns are ordered values."""
        a = posit_decode(pattern, P16)
        b = posit_decode(pattern + 1, P16)
        assert a < b

    def test_tapered_precision(self):
        """Relative error is smallest near 1, larger at extremes."""
        near_one = from_str("1.2345678901", 200)
        large = from_str("12345678901.0", 200)
        e_near = abs(posit_round(near_one, P16) - near_one) / near_one
        e_far = abs(posit_round(large, P16) - large) / large
        assert e_near.to_float() < e_far.to_float()


class TestLanguageIntegration:
    def test_posit_type_parses_and_runs(self):
        source = """
        double f(int n) {
          vpfloat<posit, 2, 32> acc = 0.0;
          for (int i = 0; i < n; i++) acc = acc + 0.1;
          return (double)acc;
        }
        """
        program = compile_source(source, backend="none")
        got = program.run("f", [10]).value
        assert got == pytest.approx(1.0, abs=1e-7)

    def test_width_changes_accuracy(self):
        template = """
        double f(int n) {
          vpfloat<posit, 2, WIDTH> acc = 0.0;
          for (int i = 0; i < n; i++) acc = acc + 0.1;
          return (double)acc;
        }
        """
        errors = []
        for width in (16, 24, 32):
            program = compile_source(template.replace("WIDTH", str(width)),
                                     backend="none")
            errors.append(abs(program.run("f", [10]).value - 1.0))
        assert errors[0] > errors[1] > errors[2]

    def test_posit_attrs_range_checked(self):
        with pytest.raises(SemanticError, match="posit es"):
            analyze(parse("void f(vpfloat<posit, 9, 16> x) {}"))
        with pytest.raises(SemanticError, match="posit nbits"):
            analyze(parse("void f(vpfloat<posit, 1, 100> x) {}"))

    def test_posit_and_mpfr_do_not_mix(self):
        with pytest.raises(SemanticError, match="different vpfloat types"):
            analyze(parse("""
            void f(vpfloat<posit, 2, 32> a, vpfloat<mpfr, 16, 100> b) {
              a = a + b;
            }
            """))

    def test_bfloat16_still_unsupported(self):
        from repro.lang import SourceError

        with pytest.raises(SourceError, match="no backend"):
            parse("void f(vpfloat<bfloat16, 8, 8> x) {}")

    def test_sizeof_posit(self):
        source = "long f() { return sizeof(vpfloat<posit, 2, 32>); }"
        assert compile_source(source, backend="none") \
            .run("f", []).value == 4

    def test_dynamic_posit_width(self):
        source = """
        double f(unsigned w) {
          vpfloat<posit, 2, w> x = 1.3;
          return (double)x;
        }
        """
        program = compile_source(source, backend="none")
        e16 = abs(program.run("f", [16]).value - 1.3)
        e32 = abs(program.run("f", [32]).value - 1.3)
        assert e32 < e16
