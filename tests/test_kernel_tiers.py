"""Tests for the precision-specialized kernels.

Three layers, matching the feature's own structure:

* the *inlined rounding blocks* the kernel emitter folds into its
  kernels must match :func:`round_significand` bit-for-bit across all
  five rounding modes, both signs, and the sticky/exact boundaries at
  precisions 1..4096 (hypothesis, with the tie/exact edges enumerated);
* the *compiled kernels* must be bit-identical to the ``arith.<op>``
  library on finite, special, and mixed-precision operands (the latter
  exercising the fallback hooks);
* the *plumbing*: KernelStats accounting, metrics counters, and the
  service run-option whitelist.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigfloat.arith import add as lib_add
from repro.bigfloat.number import BigFloat, Kind
from repro.bigfloat.rounding import (
    RNDA,
    RNDD,
    RNDN,
    RNDU,
    RNDZ,
    round_significand,
)
from repro.codegen.kernels import (
    KernelStats,
    _exact_round_lines,
    _window_round_lines,
    clamped_fallback,
    specialized_kernel,
)
from repro.codegen.kernels import _LIBRARY as SCALAR_LIBRARY
from repro.core import CompilerDriver
from repro.validation.certificate import value_token

ALL_MODES = (RNDN, RNDZ, RNDU, RNDD, RNDA)

SOURCE = """
vpfloat<mpfr, 16, 53> out;
int run(int n) {
    vpfloat<mpfr, 16, 53> acc = 0.0;
    vpfloat<mpfr, 16, 53> step = 1.25;
    for (int i = 0; i < n; i = i + 1) { acc = acc + step * step; }
    out = acc;
    return n;
}
"""


# ----------------------------------------------------------------- #
# Inlined rounding blocks vs round_significand
# ----------------------------------------------------------------- #

def _compile_rounder(lines, params):
    source = "\n".join([f"def _f({params}):"] + lines
                       + ["    return _q, _e"])
    namespace = {}
    exec(source, namespace)
    return namespace["_f"]


def exact_rounder(prec, rm):
    """The emitter's exact-operand rounding block as a function of
    ``(_s, _m, _e) -> (_q, _e)``."""
    return _compile_rounder(_exact_round_lines(prec, rm, "    "),
                            "_s, _m, _e")


def window_rounder(prec, rm):
    """The emitter's sticky-window rounding block as a function of
    ``(_s, _t, _e, _st) -> (_q, _e)``."""
    return _compile_rounder(_window_round_lines(prec, rm, "    "),
                            "_s, _t, _e, _st")


@st.composite
def rounding_cases(draw, sticky_window=False):
    """(prec, rm, sign, mant, exp[, sticky]) with the discarded-bits
    boundaries (exact, just-below-half, half, just-above, all-ones)
    explicitly enumerated alongside fully random windows."""
    prec = draw(st.integers(1, 4096))
    rm = draw(st.sampled_from(ALL_MODES))
    sign = draw(st.integers(0, 1))
    exp = draw(st.integers(-2000, 2000))
    min_shift = 1 if sticky_window else 0
    shift = draw(st.integers(min_shift, 80))
    quotient = draw(st.integers(1 << (prec - 1), (1 << prec) - 1)) \
        if prec > 1 else 1
    if shift == 0:
        low = 0
    else:
        half = 1 << (shift - 1)
        mask = (1 << shift) - 1
        low = draw(st.one_of(
            st.sampled_from(sorted({0, max(half - 1, 0), half,
                                    min(half + 1, mask), mask})),
            st.integers(0, mask)))
    mant = (quotient << shift) | low
    if not sticky_window:
        return prec, rm, sign, mant, exp
    return prec, rm, sign, mant, exp, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(rounding_cases())
def test_exact_round_block_matches_round_significand(case):
    prec, rm, sign, mant, exp, = case
    got = exact_rounder(prec, rm)(sign, mant, exp)
    want = round_significand(sign, mant, exp, prec, rm)[:2]
    assert got == want, (prec, rm, sign, mant, exp)


@settings(max_examples=400, deadline=None)
@given(rounding_cases(sticky_window=True))
def test_window_round_block_matches_round_significand(case):
    prec, rm, sign, mant, exp, sticky = case
    got = window_rounder(prec, rm)(sign, mant, exp, sticky)
    want = round_significand(sign, mant, exp, prec, rm,
                             sticky=sticky)[:2]
    assert got == want, (prec, rm, sign, mant, exp, sticky)


def test_exact_round_block_cancellation_widens():
    # Fewer bits than prec (post-cancellation shape): widen, no round.
    for rm in ALL_MODES:
        assert exact_rounder(8, rm)(0, 0b101, 3) \
            == round_significand(0, 0b101, 3, 8, rm)[:2]


# ----------------------------------------------------------------- #
# Compiled kernels vs the arith library
# ----------------------------------------------------------------- #

def _finite(draw, prec):
    sign = draw(st.integers(0, 1))
    # Short significands (a few leading bits, zeros below) make exact
    # results and rounding ties likely; full-width ones exercise the
    # sticky paths.
    width = draw(st.sampled_from((prec, prec, min(prec, 3))))
    mant = draw(st.integers(1 << (width - 1), (1 << width) - 1)) \
        << (prec - width)
    exp = draw(st.integers(-300, 300))
    return BigFloat(Kind.FINITE, sign, mant, exp, prec)


@st.composite
def operand(draw, prec):
    kind = draw(st.sampled_from(["finite", "finite", "finite",
                                 "zero", "inf", "nan"]))
    if kind == "finite":
        return _finite(draw, prec)
    if kind == "zero":
        return BigFloat.zero(prec, draw(st.integers(0, 1)))
    if kind == "inf":
        return BigFloat.inf(prec, draw(st.integers(0, 1)))
    return BigFloat.nan(prec)


@st.composite
def kernel_cases(draw):
    prec = draw(st.sampled_from((1, 2, 7, 24, 53, 63, 64,
                                 65, 100, 127, 128, 129, 256, 512,
                                 1024, 4096)))
    op = draw(st.sampled_from(("add", "sub", "mul", "div",
                               "fma", "fms", "sqrt")))
    rm = draw(st.sampled_from(ALL_MODES))
    arity = 1 if op == "sqrt" else (3 if op in ("fma", "fms") else 2)
    args = tuple(draw(operand(prec)) for _ in range(arity))
    return op, prec, rm, args


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_tiered_kernels_match_library(case):
    op, prec, rm, args = case
    got = specialized_kernel(op, prec, rm)(*args)
    want = SCALAR_LIBRARY[op](*args, prec, rm)
    assert value_token(got) == value_token(want), (op, prec, rm, args)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_tiered_kernels_match_library_with_clamp(case):
    op, prec, rm, args = case
    got = specialized_kernel(op, prec, rm, exp_bits=8)(*args)
    library = SCALAR_LIBRARY[op]
    want = clamped_fallback(lambda *xs: library(*xs, prec, rm),
                            prec, 8)(*args)
    assert value_token(got) == value_token(want), (op, prec, rm, args)


def test_mixed_precision_falls_back_with_note():
    notes_stats = KernelStats()
    kernel = specialized_kernel("add", 24, RNDN,
                                notes=notes_stats.notes())
    a = BigFloat.from_float(1.5, 24)
    b = BigFloat.from_float(2.5, 53)  # operand precision mismatch
    got = kernel(a, b)
    assert value_token(got) == value_token(lib_add(a, b, 24, RNDN))
    assert notes_stats.fallbacks["prec"] == 1
    assert notes_stats.fallbacks["special"] == 0


def test_special_operand_falls_back_with_note():
    notes_stats = KernelStats()
    kernel = specialized_kernel("add", 24, RNDN,
                                notes=notes_stats.notes())
    kernel(BigFloat.nan(24), BigFloat.from_float(1.0, 24))
    assert notes_stats.fallbacks["special"] == 1


# ----------------------------------------------------------------- #
# Plumbing and telemetry
# ----------------------------------------------------------------- #

def test_counting_wrapper_and_merge():
    stats = KernelStats()
    kernel = stats.counting(specialized_kernel("add", 24, RNDN))
    a = BigFloat.from_float(1.0, 24)
    kernel(a, a)
    kernel(a, a)
    assert stats.ops == 2
    assert stats.as_dict() == {"ops": 2, "sites": 0,
                               "fallbacks": {"prec": 0, "special": 0}}


def test_metrics_carry_tier_counters():
    from repro.observability import telemetry_session
    with telemetry_session(metrics=True) as (_, registry):
        program = CompilerDriver(backend="mpfr", engine="jit").compile(
            SOURCE, name="k")
        program.run("run", [10])
    assert registry.counters.get("kernel.ops", 0) > 0
    assert registry.counters.get("kernel.sites", 0) > 0


def test_unobserved_runs_skip_tier_stats():
    program = CompilerDriver(backend="mpfr", engine="jit").compile(
        SOURCE, name="k")
    interp = program.interpreter()
    assert interp.kernel_stats is None  # raw kernels, no counting


def test_service_rejects_kernel_tier(tmp_path):
    """A run request carrying the kernel-tier option, which is not a
    run option, gets a structured ``bad_request`` naming it."""
    from service_utils import FTYPE, connect, service

    from repro.service import ServiceError

    stale_option = "kernel_" + "tier"

    async def scenario():
        async with service(tmp_path, workers=1) as daemon:
            client = await connect(daemon)
            try:
                await client.call("run", kernel="gemm", ftype=FTYPE,
                                  n=4, backend="mpfr",
                                  options={stale_option: "generic"})
                raise AssertionError(f"{stale_option} was accepted")
            except ServiceError as error:
                assert error.code == "bad_request"
                assert stale_option in str(error)
            # The connection survives the rejection.
            assert (await client.call("ping"))["pong"] is True
            await client.close()

    asyncio.run(scenario())
