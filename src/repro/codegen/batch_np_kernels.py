"""Single-limb numpy tier for the batched SoA kernels.

The generic batched kernels (:mod:`repro.codegen.batch_kernels`) fuse N
lanes into one Python loop; the loop body is still interpreted Python
per lane.  For the precisions that fit one 64-bit limb this module
replaces the loop with numpy uint64 vector arithmetic over the whole
batch -- no per-lane Python at all, and no lanes×limbs carry loops:
add/sub run under a 3-bit guard/round/sticky alignment so aligned
significands never exceed ``prec + 4 <= 64`` bits no matter how far
the exponents are spread, and mul builds the ``2*prec``-bit product as
a vectorized 32×32 half-word decomposition (two limbs, fixed carry
chain of numpy ops, no loop).

The list<->array boundary is the real cost at scale, so it is paid at
most once per batch: operand batches cache their array form in
``VPBatch._u64`` and results are built array-first
(:meth:`VPBatch._from_u64`) with the lane lists materializing lazily.
A chain of vectorized ops -- a gemm accumulator flowing op to op --
converts nothing; only a consumer that actually reads lanes (a store
comparison, ``lane()``, the generic kernels) triggers ``tolist``.

Eligibility is decided twice:

* **per kernel** (:func:`np_tier_eligible`): op in add/sub/mul,
  round-to-nearest-even, ``NP_MIN_PREC <= prec <= NP_MAX_PREC`` (the
  alignment and product bounds above), numpy importable;
* **per call**: both operands are same-precision VPBatches of at least
  :data:`NP_MIN_LANES` lanes (below that numpy dispatch overhead costs
  more than the fused loop) whose lanes are all FINITE or ZERO and
  whose exponents fit int64.  Ineligible calls run the bound generic
  batched kernel -- bit-identical by construction -- and count as a
  tier bailout on the :class:`~repro.runtime.batch.BatchContext`.

Zero lanes stay vectorized (masked substitution + result overrides
transcribing the exact :mod:`repro.bigfloat.arith` zero rules), like
the generic batched kernels and unlike the scalar kernels: zero-filled
accumulators are everywhere in real kernels.  Batches known to be
all-finite (a cached flag, refreshed per result) skip that machinery.

Bit-exactness per lane against the generic batched kernel (and so
against ``arith`` and the scalar engine) is the contract;
``tests/test_kernel_tiers.py`` fuzzes the lane math directly against
``arith``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..bigfloat.number import Kind
from ..bigfloat.rounding import RoundingMode

#: Inclusive precision bounds of the numpy tier.  The lower bound
#: keeps the constant-shift rounding windows nonempty; the upper bound
#: keeps every intermediate (aligned sum ``prec + 4`` bits, extracted
#: quotient/product windows) inside uint64.
NP_MIN_PREC = 2
NP_MAX_PREC = 60

#: Calls on fewer lanes than this run the generic fused loop: below
#: the threshold numpy dispatch overhead (~45 vector ops per call)
#: costs more than the fused per-lane loop.  Module-level so tests can
#: drop it to 1 and drive the vector path on tiny batches.
NP_MIN_LANES = 128

_NP_OPS = ("add", "sub", "mul")

_np = None


def _numpy():
    global _np
    if _np is None:
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy is baked in
            _np = False
        else:
            _np = numpy
    return _np


def np_tier_eligible(op: str, prec: int, rm: RoundingMode) -> bool:
    """True when ``(op, prec, rm)`` has a numpy-tier kernel."""
    return (op in _NP_OPS
            and rm is RoundingMode.NEAREST_EVEN
            and NP_MIN_PREC <= prec <= NP_MAX_PREC
            and _numpy() is not False)


def _u64_of(np, batch):
    """The batch's cached array form, building (and caching) it from
    the lane lists on first touch.

    Tuple layout: ``(kind codes uint8, sign, mant uint64, exp int64,
    simple, anyzero)`` where ``simple`` means every lane is FINITE or
    ZERO (codes <= 1, the only lanes the vector math handles) and
    ``anyzero`` gates the zero-lane override machinery.  Returns None
    when an exponent overflows int64 (unbounded unum exponents).
    """
    u = batch._u64
    if u is None:
        kinds = batch._kind
        n = len(kinds)
        KF, KZ = Kind.FINITE, Kind.ZERO
        kc = np.fromiter(
            (0 if k is KF else (1 if k is KZ else 2) for k in kinds),
            np.uint8, count=n)
        try:
            mt = np.fromiter(batch._mant, np.uint64, count=n)
            ex = np.fromiter(batch._exp, np.int64, count=n)
        except OverflowError:
            return None
        sg = np.fromiter(batch._sign, np.uint8, count=n)
        simple = not bool((kc > 1).any())
        anyz = bool(kc.any()) if simple else True
        u = (kc, sg, mt, ex, simple, anyz)
        batch._u64 = u
    return u


def _bit_length(np, t):
    """Vectorized ``int.bit_length`` for uint64 ``t >= 1``.

    float64 conversion can round up to the next power of two, making
    frexp overestimate by one; the shift test repairs it (and the
    ``> 64`` clause catches values rounding up to 2**64, where the
    repair shift itself would be out of range).
    """
    nb = np.frexp(t.astype(np.float64))[1].astype(np.int64)
    probe = np.minimum(nb - 1, 63).astype(np.uint64)
    over = (nb > 64) | ((t >> probe) == 0)
    return nb - over


def _build(np, VPBatch, prec, limit, okind, osign, omant, oexp, anyz):
    """Array-backed result batch (ZERO/INF lanes canonical: mant/exp
    zeroed like the BigFloat constructors).

    ``anyz`` says nonzero codes *may* exist before clamping; with an
    exponent range the clamp itself mints ZERO/INF lanes, so the codes
    are re-probed whenever either source is possible.
    """
    if anyz or limit is not None:
        simple = (limit is None
                  or not bool((okind > 1).any()))
        nonzero = bool(okind.any())
        if nonzero:
            nonfin = okind != 0
            omant = np.where(nonfin, np.uint64(0), omant)
            oexp = np.where(nonfin, 0, oexp)
        anyz = nonzero if simple else True
    else:
        simple = True
    return VPBatch._from_u64(
        (okind, osign, omant, oexp, simple, anyz), prec)


def make_np_kernel(op: str, prec: int, exp_bits: Optional[int],
                   ctx, generic: Callable) -> Callable:
    """The numpy-tier kernel for ``(op, prec, RNDN, exp_bits)``.

    ``generic`` is the bound generic batched kernel, used verbatim for
    per-call-ineligible inputs; ``ctx`` is the run's BatchContext
    (lane/op accounting plus the numpy-tier counters).
    """
    np = _numpy()
    from ..runtime.batch import VPBatch

    if op == "mul":
        return _make_mul(np, VPBatch, prec, exp_bits, ctx, generic)
    return _make_addsub(np, VPBatch, prec, exp_bits, ctx, generic,
                        flip=(op == "sub"))


def _note_np(ctx, n):
    ctx.note(n, 0)
    ctx.np_ops += 1
    ctx.np_lanes += n


def _make_addsub(np, VPBatch, prec, exp_bits, ctx, generic, flip):
    p = prec
    U0, U1, U3 = np.uint64(0), np.uint64(1), np.uint64(3)
    UP = np.uint64(p)
    DUMMY = np.uint64(1 << (p - 1))
    limit = None if exp_bits is None else 1 << (exp_bits - 1)

    def kernel(a, b):
        if (type(a) is not VPBatch or type(b) is not VPBatch
                or a.prec != p or b.prec != p
                or len(a) < NP_MIN_LANES):
            ctx.np_bailouts += 1
            return generic(a, b)
        ua = _u64_of(np, a)
        ub = _u64_of(np, b) if ua is not None else None
        if ub is None or not (ua[4] and ub[4]):
            ctx.np_bailouts += 1
            return generic(a, b)
        ak, sa, ma, ea, _, az = ua
        bk, sb, mb, eb, _, bz = ub
        n = len(ak)
        sbe = sb ^ 1 if flip else sb
        anyz = az or bz

        if anyz:
            afin = ak == 0
            bfin = bk == 0
            # Zero lanes get a harmless normalized dummy so the vector
            # arithmetic stays in range; their results are overridden.
            ma_s = np.where(afin, ma, DUMMY)
            ea_s = np.where(afin, ea, 0)
            mb_s = np.where(bfin, mb, DUMMY)
            eb_s = np.where(bfin, eb, 0)
        else:
            ma_s, ea_s, mb_s, eb_s = ma, ea, mb, eb

        # Order by magnitude (equal precisions: exponent, then
        # significand); the larger operand's sign wins cancellation.
        agrt = (ea_s > eb_s) | ((ea_s == eb_s) & (ma_s >= mb_s))
        hm = np.where(agrt, ma_s, mb_s)
        lm = np.where(agrt, mb_s, ma_s)
        he = np.where(agrt, ea_s, eb_s)
        le = np.where(agrt, eb_s, ea_s)
        hs = np.where(agrt, sa, sbe)
        same = sa == sbe

        d = he - le
        near = d <= 3
        # Near: exact alignment (<= 3 bit shift).  Far: 3-bit
        # guard/round window plus a sticky bit; the window round below
        # keeps >= 2 window bits, which with sticky decides every
        # rounding case exactly.
        tn = hm << np.where(near, d, 0).astype(np.uint64)
        rs = np.where(near, 0, d - 3)
        rsbig = rs >= 64
        rsc = np.minimum(rs, 63).astype(np.uint64)
        lw = np.where(rsbig, U0, lm >> rsc)
        rem = np.where(rsbig, lm, lm & ((U1 << rsc) - U1))
        st = (~near) & (rem != 0)
        base = np.where(near, tn, hm << U3)
        lo_term = np.where(near, lm, lw)
        t = np.where(same, base + lo_term,
                     base - lo_term - st.astype(np.uint64))
        e = np.where(near, le, he - 3)
        cancel = t == 0
        if anyz:
            cancel = afin & bfin & cancel
            c_any = True
        else:
            c_any = bool(cancel.any())

        # Round to nearest-even at compile-time precision p.
        t_s = np.where(cancel, U1, t) if c_any else t
        if anyz:
            t_s = np.where(afin & bfin, t_s, U1)
        nb = _bit_length(np, t_s)
        sh = nb - p
        shp = np.maximum(sh, 0).astype(np.uint64)
        shn = np.maximum(-sh, 0).astype(np.uint64)
        q = (t_s >> shp) << shn
        low = t_s & ((U1 << shp) - U1)
        half = (U1 << shp) >> U1
        e = e + sh
        inc = (sh > 0) & ((low > half)
                          | ((low == half) & (st | ((q & U1) == U1))))
        q = q + inc
        ovf = (q >> UP) != 0
        q = np.where(ovf, q >> U1, q)
        e = e + ovf

        okind = np.zeros(n, np.uint8)
        osign = hs
        if c_any:
            # Exact cancellation: +0 under round-to-nearest.
            okind = np.where(cancel, 1, okind)
            osign = np.where(cancel, 0, osign)
        if anyz:
            # Zero-operand rules (arith.add/sub transcription).
            onez_a = (~afin) & bfin
            osign = np.where(onez_a, sbe, osign)
            q = np.where(onez_a, mb, q)
            e = np.where(onez_a, eb, e)
            onez_b = (~bfin) & afin
            osign = np.where(onez_b, sa, osign)
            q = np.where(onez_b, ma, q)
            e = np.where(onez_b, ea, e)
            bothz = (~afin) & (~bfin)
            okind = np.where(bothz, 1, okind)
            osign = np.where(bothz, np.where(sa == sbe, sa, 0), osign)

        if limit is not None:
            fin_out = okind == 0
            e2 = e + p
            okind = np.where(fin_out & (e2 > limit), 2, okind)
            okind = np.where(fin_out & (e2 < -limit), 1, okind)
        _note_np(ctx, n)
        return _build(np, VPBatch, p, limit, okind, osign, q, e, c_any)

    return kernel


def _make_mul(np, VPBatch, prec, exp_bits, ctx, generic):
    p = prec
    U1, U32 = np.uint64(1), np.uint64(32)
    UP = np.uint64(p)
    M32 = np.uint64(0xFFFFFFFF)
    DUMMY = np.uint64(1 << (p - 1))
    top_bit = 2 * p - 1
    limit = None if exp_bits is None else 1 << (exp_bits - 1)

    def kernel(a, b):
        if (type(a) is not VPBatch or type(b) is not VPBatch
                or a.prec != p or b.prec != p
                or len(a) < NP_MIN_LANES):
            ctx.np_bailouts += 1
            return generic(a, b)
        ua = _u64_of(np, a)
        ub = _u64_of(np, b) if ua is not None else None
        if ub is None or not (ua[4] and ub[4]):
            ctx.np_bailouts += 1
            return generic(a, b)
        ak, sa, ma, ea, _, az = ua
        bk, sb, mb, eb, _, bz = ub
        n = len(ak)
        anyz = az or bz

        if anyz:
            anyzero = (ak == 1) | (bk == 1)
            ma_s = np.where(anyzero, DUMMY, ma)
            mb_s = np.where(anyzero, DUMMY, mb)
        else:
            ma_s, mb_s = ma, mb

        # 2p-bit product as two uint64 limbs via 32x32 half-words;
        # the carry chain is three vector ops, no per-lane loop.
        ah = ma_s >> U32
        al = ma_s & M32
        bh = mb_s >> U32
        bl = mb_s & M32
        mid = ah * bl + al * bh
        lo = al * bl
        lo1 = lo + ((mid & M32) << U32)
        carry = (lo1 < lo).astype(np.uint64)
        hi = ah * bh + (mid >> U32) + carry

        # Product width is 2p or 2p-1: constant-shift windows.
        if top_bit < 64:
            big = (lo1 >> np.uint64(top_bit)) != 0
        else:
            big = (hi >> np.uint64(top_bit - 64)) != 0
        sh = np.where(big, p, p - 1).astype(np.uint64)
        q = lo1 >> sh
        if p > 1:
            q = q | (hi << (np.uint64(64) - sh))
        low = lo1 & ((U1 << sh) - U1)
        half = U1 << (sh - U1)
        inc = (low > half) | ((low == half) & ((q & U1) == U1))
        q = q + inc
        ovf = (q >> UP) != 0
        q = np.where(ovf, q >> U1, q)
        e = ea + eb + sh.astype(np.int64) + ovf

        if anyz:
            okind = np.where(anyzero, np.uint8(1), np.uint8(0))
        else:
            okind = np.zeros(n, np.uint8)
        osign = sa ^ sb
        if limit is not None:
            fin_out = okind == 0
            e2 = e + p
            okind = np.where(fin_out & (e2 > limit), 2, okind)
            okind = np.where(fin_out & (e2 < -limit), 1, okind)
        _note_np(ctx, n)
        return _build(np, VPBatch, p, limit, okind, osign, q, e, anyz)

    return kernel
