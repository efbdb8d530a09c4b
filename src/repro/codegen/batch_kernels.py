"""Precision-specialized batched kernels for the SoA execution engine.

:mod:`repro.codegen.kernels` compiles one scalar function per
``(op, precision, rounding mode)`` with the finite fast path of
``round_significand`` fully inlined.  This module lifts those exact
algorithms over a whole :class:`~repro.runtime.batch.VPBatch` at once:
one compiled function per ``(op, precision, rounding mode, exponent
width)`` runs a single fused Python loop over the batch's parallel
kind/sign/mant/exp lane lists, storing results into freshly built lane
lists instead of constructing one BigFloat per lane.  Amortizing the
call, the operand unpacking, and the result boxing over N lanes is what
makes batched execution faster than N scalar kernel calls.

Two things differ from the scalar kernels by design:

* the destination's exponent-field clamp
  (:meth:`~repro.bigfloat.mpfr_api.MpfrLibrary._clamp`) is folded into
  the kernel as two constant comparisons per lane, so the batched jit
  body needs no separate clamp block;
* lanes that leave the fast path (NaN/Inf operands, negative sqrt,
  division by zero) fall back to the generic
  :mod:`~repro.bigfloat.arith` routine *per lane* -- bit-identical to
  the scalar engine by construction -- and are counted as scalar
  fallbacks on the bound :class:`~repro.runtime.batch.BatchContext`.
  Unlike the scalar kernels, ZERO operands stay on the fast path (the
  exact zero rules of :mod:`~repro.bigfloat.arith` are transcribed into
  the loop): zero-initialized accumulators are everywhere in real
  kernels and must not serialize the batch.

Kernels never bake the lane count: ``n`` comes from the operands (or
from the context when every operand is a scalar broadcast), so one
compiled kernel serves every batch size.  Scalar BigFloat operands
(uninitialized pool NaNs, literal stores that bypassed broadcasting)
are broadcast on entry.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

from ..bigfloat import arith
from ..bigfloat.number import BigFloat, Kind
from ..bigfloat.rounding import RoundingMode
from .kernels import _incr_cond, _sticky_small_cond

#: Operations with a batched implementation.
BATCH_KERNEL_OPS = ("add", "sub", "mul", "div", "fma", "fms", "sqrt")

#: (op, prec, rm.value, exp_bits) -> factory taking a BatchContext.
_FACTORIES: Dict[Tuple[str, int, str, Optional[int]], Callable] = {}

#: Set lazily (the runtime batch module imports this one).
_VPBATCH = None


# ----------------------------------------------------------------- #
# Lane stores (round tail + folded clamp)
# ----------------------------------------------------------------- #

def _lane_store_lines(prec: int, exp_bits: Optional[int],
                      indent: int) -> list:
    """Store the rounded ``(_s, _q, _e)`` into the output lanes,
    applying the exponent-width clamp when the destination has one.
    ``exponent() == _e + prec``, so the bounds fold to constants."""
    pad = " " * indent
    if exp_bits is None:
        return [
            f"{pad}_os[_i] = _s",
            f"{pad}_om[_i] = _q",
            f"{pad}_oe[_i] = _e",
        ]
    limit = 1 << (exp_bits - 1)
    return [
        f"{pad}if _e > {limit - prec}:",
        f"{pad}    _ok[_i] = _KI",
        f"{pad}    _os[_i] = _s",
        f"{pad}elif _e < {-limit - prec}:",
        f"{pad}    _ok[_i] = _KZ",
        f"{pad}    _os[_i] = _s",
        f"{pad}else:",
        f"{pad}    _os[_i] = _s",
        f"{pad}    _om[_i] = _q",
        f"{pad}    _oe[_i] = _e",
    ]


def _batch_round_lines(prec: int, rm: RoundingMode, sticky: bool,
                       indent: int, exp_bits: Optional[int]) -> str:
    """Transcription of :func:`kernels._round_lines` whose tail stores
    into the output lane lists (plus clamp) instead of returning."""
    pad = " " * indent
    lines = [
        f"{pad}_nb = _m.bit_length()",
        f"{pad}if _nb <= {prec}:",
        f"{pad}    _q = _m << ({prec} - _nb)",
        f"{pad}    _e -= {prec} - _nb",
    ]
    small = _sticky_small_cond(rm) if sticky else None
    if small is not None:
        lines += [
            f"{pad}    if _st and {small}:",
            f"{pad}        _q += 1",
            f"{pad}        if _q >> {prec}:",
            f"{pad}            _q >>= 1",
            f"{pad}            _e += 1",
        ]
    lines += [
        f"{pad}else:",
        f"{pad}    _sh = _nb - {prec}",
        f"{pad}    _low = _m & ((1 << _sh) - 1)",
        f"{pad}    _q = _m >> _sh",
        f"{pad}    _e += _sh",
    ]
    cond = _incr_cond(rm, sticky)
    if cond is not None:
        if "_half" in cond:
            lines.append(f"{pad}    _half = 1 << (_sh - 1)")
        lines += [
            f"{pad}    if {cond}:",
            f"{pad}        _q += 1",
            f"{pad}        if _q >> {prec}:",
            f"{pad}            _q >>= 1",
            f"{pad}            _e += 1",
        ]
    lines += _lane_store_lines(prec, exp_bits, indent)
    return "\n".join(lines)


def _fallback_store_lines(prec: int, exp_bits: Optional[int],
                          indent: int) -> str:
    """Store the library-fallback BigFloat ``_v`` into the output
    lanes, applying the same clamp :meth:`MpfrLibrary._clamp` would
    (finite values only; ``_v`` is already rounded to ``prec``)."""
    pad = " " * indent
    lines = [f"{pad}_vk = _v.kind"]
    if exp_bits is None:
        lines += [
            f"{pad}_ok[_i] = _vk",
            f"{pad}_os[_i] = _v.sign",
            f"{pad}_om[_i] = _v.mant",
            f"{pad}_oe[_i] = _v.exp",
        ]
        return "\n".join(lines)
    limit = 1 << (exp_bits - 1)
    lines += [
        f"{pad}if _vk is _KF and _v.exp > {limit - prec}:",
        f"{pad}    _ok[_i] = _KI",
        f"{pad}    _os[_i] = _v.sign",
        f"{pad}elif _vk is _KF and _v.exp < {-limit - prec}:",
        f"{pad}    _ok[_i] = _KZ",
        f"{pad}    _os[_i] = _v.sign",
        f"{pad}else:",
        f"{pad}    _ok[_i] = _vk",
        f"{pad}    _os[_i] = _v.sign",
        f"{pad}    _om[_i] = _v.mant",
        f"{pad}    _oe[_i] = _v.exp",
    ]
    return "\n".join(lines)


def _zero_store_lines(rm: RoundingMode, indent: int) -> str:
    """Exact-zero result: ZERO kind with the rounding mode's signed
    zero (negative only toward -inf), mirroring ``_SZERO``."""
    pad = " " * indent
    sign = 1 if rm is RoundingMode.TOWARD_NEGATIVE else 0
    return "\n".join([
        f"{pad}_ok[_i] = _KZ",
        f"{pad}_os[_i] = {sign}",
        f"{pad}continue",
    ])


# ----------------------------------------------------------------- #
# Per-op lane bodies (transcribed from kernels.py, lane-indexed)
# ----------------------------------------------------------------- #

def _addsub_body(prec, rm, exp_bits, flip):
    # ``sub`` is ``add(a, -b)``: the flip applies to b's sign wherever
    # it is read (signed magnitude, zero-result sign rules).
    mb = ("-_bmt[_i] if _bsn[_i] == 0 else _bmt[_i]" if flip
          else "_bmt[_i] if _bsn[_i] == 0 else -_bmt[_i]")
    bsn = "1 - _bsn[_i]" if flip else "_bsn[_i]"
    return f"""\
            _aki = _ak[_i]
            _bki = _bk[_i]
            if _aki is _KF and _bki is _KF:
                _ma = _amt[_i] if _asn[_i] == 0 else -_amt[_i]
                _mb = {mb}
                _ea = _aex[_i]
                _eb = _bex[_i]
                if _ea <= _eb:
                    _t = _ma + (_mb << (_eb - _ea))
                    _e = _ea
                else:
                    _t = (_ma << (_ea - _eb)) + _mb
                    _e = _eb
                if _t == 0:
{_zero_store_lines(rm, 20)}
                if _t < 0:
                    _s = 1
                    _m = -_t
                else:
                    _s = 0
                    _m = _t
            elif _aki is _KF and _bki is _KZ:
                _s = _asn[_i]
                _m = _amt[_i]
                _e = _aex[_i]
            elif _aki is _KZ and _bki is _KF:
                _s = {bsn}
                _m = _bmt[_i]
                _e = _bex[_i]
            elif _aki is _KZ and _bki is _KZ:
                _s = _asn[_i]
                if _s == {bsn}:
                    _ok[_i] = _KZ
                    _os[_i] = _s
                else:
{_zero_store_lines(rm, 20)}
                continue
            else:
                _slow += 1
                _v = _FB(_BF(_aki, _asn[_i], _amt[_i], _aex[_i], _ap),
                         _BF(_bki, _bsn[_i], _bmt[_i], _bex[_i], _bp))
{_fallback_store_lines(prec, exp_bits, 16)}
                continue
{_batch_round_lines(prec, rm, False, 12, exp_bits)}
"""


def _mul_body(prec, rm, exp_bits):
    return f"""\
            _aki = _ak[_i]
            _bki = _bk[_i]
            if _aki is _KF and _bki is _KF:
                _s = _asn[_i] ^ _bsn[_i]
                _m = _amt[_i] * _bmt[_i]
                _e = _aex[_i] + _bex[_i]
            elif (_aki is _KF or _aki is _KZ) and \\
                    (_bki is _KF or _bki is _KZ):
                _ok[_i] = _KZ
                _os[_i] = _asn[_i] ^ _bsn[_i]
                continue
            else:
                _slow += 1
                _v = _FB(_BF(_aki, _asn[_i], _amt[_i], _aex[_i], _ap),
                         _BF(_bki, _bsn[_i], _bmt[_i], _bex[_i], _bp))
{_fallback_store_lines(prec, exp_bits, 16)}
                continue
{_batch_round_lines(prec, rm, False, 12, exp_bits)}
"""


def _div_body(prec, rm, exp_bits):
    return f"""\
            _aki = _ak[_i]
            _bki = _bk[_i]
            if _aki is _KF and _bki is _KF:
                _s = _asn[_i] ^ _bsn[_i]
                _am = _amt[_i]
                _bm = _bmt[_i]
                _shd = {prec + 2} - (_am.bit_length() - _bm.bit_length())
                if _shd < 0:
                    _shd = 0
                _q0, _r = divmod(_am << _shd, _bm)
                _d = {prec + 2} - _q0.bit_length()
                if _d > 0:
                    _shd += _d
                    _q0, _r = divmod(_am << _shd, _bm)
                _m = _q0
                _e = _aex[_i] - _bex[_i] - _shd
                _st = _r != 0
            elif _aki is _KZ and _bki is _KF:
                _ok[_i] = _KZ
                _os[_i] = _asn[_i] ^ _bsn[_i]
                continue
            else:
                _slow += 1
                _v = _FB(_BF(_aki, _asn[_i], _amt[_i], _aex[_i], _ap),
                         _BF(_bki, _bsn[_i], _bmt[_i], _bex[_i], _bp))
{_fallback_store_lines(prec, exp_bits, 16)}
                continue
{_batch_round_lines(prec, rm, True, 12, exp_bits)}
"""


def _fma_body(prec, rm, exp_bits, flip):
    # ``fms`` is ``fma(a, b, -c)``: the flip applies wherever c's sign
    # is read (signed magnitude, zero-addend sign rules).
    mc = ("-_cmt[_i] if _csn[_i] == 0 else _cmt[_i]" if flip
          else "_cmt[_i] if _csn[_i] == 0 else -_cmt[_i]")
    csn = "1 - _csn[_i]" if flip else "_csn[_i]"
    return f"""\
            _aki = _ak[_i]
            _bki = _bk[_i]
            _cki = _ckd[_i]
            if _cki is not _KF and _cki is not _KZ:
                _slow += 1
                _v = _FB(_BF(_aki, _asn[_i], _amt[_i], _aex[_i], _ap),
                         _BF(_bki, _bsn[_i], _bmt[_i], _bex[_i], _bp),
                         _BF(_cki, _csn[_i], _cmt[_i], _cex[_i], _cp))
{_fallback_store_lines(prec, exp_bits, 16)}
                continue
            if _aki is _KF and _bki is _KF:
                _ma = _amt[_i] if _asn[_i] == 0 else -_amt[_i]
                _mb = _bmt[_i] if _bsn[_i] == 0 else -_bmt[_i]
                _pm = _ma * _mb
                _pe = _aex[_i] + _bex[_i]
                if _cki is _KF:
                    _mc = {mc}
                    _ec = _cex[_i]
                    if _pe <= _ec:
                        _t = _pm + (_mc << (_ec - _pe))
                        _e = _pe
                    else:
                        _t = (_pm << (_pe - _ec)) + _mc
                        _e = _ec
                else:
                    _t = _pm
                    _e = _pe
                if _t == 0:
{_zero_store_lines(rm, 20)}
                if _t < 0:
                    _s = 1
                    _m = -_t
                else:
                    _s = 0
                    _m = _t
            elif (_aki is _KZ and (_bki is _KF or _bki is _KZ)) or \\
                    (_bki is _KZ and _aki is _KF):
                if _cki is _KF:
                    _s = {csn}
                    _m = _cmt[_i]
                    _e = _cex[_i]
                else:
                    _ps = _asn[_i] ^ _bsn[_i]
                    if _ps == {csn}:
                        _ok[_i] = _KZ
                        _os[_i] = _ps
                    else:
{_zero_store_lines(rm, 24)}
                    continue
            else:
                _slow += 1
                _v = _FB(_BF(_aki, _asn[_i], _amt[_i], _aex[_i], _ap),
                         _BF(_bki, _bsn[_i], _bmt[_i], _bex[_i], _bp),
                         _BF(_cki, _csn[_i], _cmt[_i], _cex[_i], _cp))
{_fallback_store_lines(prec, exp_bits, 16)}
                continue
{_batch_round_lines(prec, rm, False, 12, exp_bits)}
"""


def _sqrt_body(prec, rm, exp_bits):
    return f"""\
            _aki = _ak[_i]
            if _aki is _KF and _asn[_i] == 0:
                _shq = {2 * (prec + 2)} - _amt[_i].bit_length()
                if _shq < 0:
                    _shq = 0
                if (_aex[_i] - _shq) & 1:
                    _shq += 1
                _m0 = _amt[_i] << _shq
                _root = _isqrt(_m0)
                _st = _root * _root != _m0
                _s = 0
                _m = _root
                _e = (_aex[_i] - _shq) >> 1
            elif _aki is _KZ:
                _ok[_i] = _KZ
                _os[_i] = _asn[_i]
                continue
            else:
                _slow += 1
                _v = _FB(_BF(_aki, _asn[_i], _amt[_i], _aex[_i], _ap))
{_fallback_store_lines(prec, exp_bits, 16)}
                continue
{_batch_round_lines(prec, rm, True, 12, exp_bits)}
"""


_BODIES = {
    "add": lambda prec, rm, eb: _addsub_body(prec, rm, eb, False),
    "sub": lambda prec, rm, eb: _addsub_body(prec, rm, eb, True),
    "mul": _mul_body,
    "div": _div_body,
    "fma": lambda prec, rm, eb: _fma_body(prec, rm, eb, False),
    "fms": lambda prec, rm, eb: _fma_body(prec, rm, eb, True),
    "sqrt": _sqrt_body,
}

_LIBRARY = {
    "add": arith.add, "sub": arith.sub, "mul": arith.mul,
    "div": arith.div, "fma": arith.fma, "fms": arith.fms,
    "sqrt": arith.sqrt,
}


# ----------------------------------------------------------------- #
# Shells (broadcast scalars, unpack lanes, drive the fused loop)
# ----------------------------------------------------------------- #

def _binary_shell(body: str, prec: int) -> str:
    return f"""\
def _make(ctx):
    _note = ctx.note
    _nlanes = ctx.lanes
    def _kernel(a, b):
        if type(a) is not _VB:
            a = _VB.broadcast(
                a, len(b.kind) if type(b) is _VB else _nlanes)
        if type(b) is not _VB:
            b = _VB.broadcast(b, len(a.kind))
        _ak = a.kind; _asn = a.sign; _amt = a.mant; _aex = a.exp
        _bk = b.kind; _bsn = b.sign; _bmt = b.mant; _bex = b.exp
        _ap = a.prec; _bp = b.prec
        _n = len(_ak)
        _ok = [_KF] * _n
        _os = [0] * _n
        _om = [0] * _n
        _oe = [0] * _n
        _slow = 0
        for _i in range(_n):
{body}\
        _note(_n, _slow)
        return _VB(_ok, _os, _om, _oe, {prec})
    return _kernel
"""


def _ternary_shell(body: str, prec: int) -> str:
    return f"""\
def _make(ctx):
    _note = ctx.note
    _nlanes = ctx.lanes
    def _kernel(a, b, c):
        if type(a) is _VB:
            _n = len(a.kind)
        elif type(b) is _VB:
            _n = len(b.kind)
        elif type(c) is _VB:
            _n = len(c.kind)
        else:
            _n = _nlanes
        if type(a) is not _VB:
            a = _VB.broadcast(a, _n)
        if type(b) is not _VB:
            b = _VB.broadcast(b, _n)
        if type(c) is not _VB:
            c = _VB.broadcast(c, _n)
        _ak = a.kind; _asn = a.sign; _amt = a.mant; _aex = a.exp
        _bk = b.kind; _bsn = b.sign; _bmt = b.mant; _bex = b.exp
        _ckd = c.kind; _csn = c.sign; _cmt = c.mant; _cex = c.exp
        _ap = a.prec; _bp = b.prec; _cp = c.prec
        _ok = [_KF] * _n
        _os = [0] * _n
        _om = [0] * _n
        _oe = [0] * _n
        _slow = 0
        for _i in range(_n):
{body}\
        _note(_n, _slow)
        return _VB(_ok, _os, _om, _oe, {prec})
    return _kernel
"""


def _unary_shell(body: str, prec: int) -> str:
    return f"""\
def _make(ctx):
    _note = ctx.note
    _nlanes = ctx.lanes
    def _kernel(a):
        if type(a) is not _VB:
            a = _VB.broadcast(a, _nlanes)
        _ak = a.kind; _asn = a.sign; _amt = a.mant; _aex = a.exp
        _ap = a.prec
        _n = len(_ak)
        _ok = [_KF] * _n
        _os = [0] * _n
        _om = [0] * _n
        _oe = [0] * _n
        _slow = 0
        for _i in range(_n):
{body}\
        _note(_n, _slow)
        return _VB(_ok, _os, _om, _oe, {prec})
    return _kernel
"""


# ----------------------------------------------------------------- #
# Public API
# ----------------------------------------------------------------- #

def batch_kernel_source(op: str, prec: int,
                        rm: RoundingMode = RoundingMode.NEAREST_EVEN,
                        exp_bits: Optional[int] = None) -> str:
    """The batched-kernel factory source for ``(op, prec, rm,
    exp_bits)``; ``exp_bits=None`` omits the folded clamp."""
    if op not in _BODIES:
        raise ValueError(f"no batched kernel for {op!r}; "
                         f"choose from {BATCH_KERNEL_OPS}")
    if prec < 1:
        raise ValueError(f"precision must be >= 1, got {prec}")
    body = _BODIES[op](prec, rm, exp_bits)
    if op == "sqrt":
        return _unary_shell(body, prec)
    if op in ("fma", "fms"):
        return _ternary_shell(body, prec)
    return _binary_shell(body, prec)


def batch_kernel_factory(op: str, prec: int,
                         rm: RoundingMode = RoundingMode.NEAREST_EVEN,
                         exp_bits: Optional[int] = None) -> Callable:
    """A factory ``make(ctx) -> kernel`` for the batched kernel.

    The factory is memoized per ``(op, prec, rm, exp_bits)``; binding a
    :class:`~repro.runtime.batch.BatchContext` (for the lane count and
    the scalar-fallback counters) just creates a closure over the
    already-compiled code.  The bound kernel takes VPBatch (or scalar
    BigFloat, broadcast on entry) operands and returns a VPBatch of
    precision ``prec``, bit-identical per lane to the scalar
    :func:`~repro.codegen.kernels.specialized_kernel` followed by the
    destination clamp.
    """
    key = (op, prec, rm.value, exp_bits)
    factory = _FACTORIES.get(key)
    if factory is not None:
        return factory
    global _VPBATCH
    if _VPBATCH is None:
        from ..runtime.batch import VPBatch
        _VPBATCH = VPBatch
    source = batch_kernel_source(op, prec, rm, exp_bits)
    library = _LIBRARY[op]
    if op == "sqrt":
        def fallback(a, _lib=library, _p=prec, _r=rm):
            return _lib(a, _p, _r)
    elif op in ("fma", "fms"):
        def fallback(a, b, c, _lib=library, _p=prec, _r=rm):
            return _lib(a, b, c, _p, _r)
    else:
        def fallback(a, b, _lib=library, _p=prec, _r=rm):
            return _lib(a, b, _p, _r)
    namespace = {
        "_VB": _VPBATCH,
        "_BF": BigFloat,
        "_KF": Kind.FINITE,
        "_KZ": Kind.ZERO,
        "_KI": Kind.INF,
        "_FB": fallback,
        "_isqrt": math.isqrt,
    }
    code = compile(source,
                   f"<vpbatchkernel:{op}/{prec}/{rm.value}/{exp_bits}>",
                   "exec")
    exec(code, namespace)
    factory = namespace["_make"]
    _FACTORIES[key] = factory
    return factory
