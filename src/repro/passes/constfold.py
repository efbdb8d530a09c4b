"""Constant folding + algebraic instruction simplification.

Folds integer/float/vpfloat constant expressions (vpfloat folding uses the
correctly-rounded BigFloat kernels at the type's static precision, so the
compiler's compile-time arithmetic agrees with runtime MPFR results) and
applies identity simplifications (x+0, x*1, x*0 for integers, branches on
constants are left to SimplifyCFG).
"""

from __future__ import annotations

from typing import Optional

from ..bigfloat import BigFloat, RNDN, arith
from ..ir import (
    BinaryInst,
    CastInst,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantVPFloat,
    FCmpInst,
    FNegInst,
    Function,
    ICmpInst,
    Instruction,
    IntType,
    SelectInst,
    Value,
)
from .pass_manager import FunctionPass


class ConstantFoldPass(FunctionPass):
    name = "constfold"

    def run(self, func: Function) -> int:
        changed = 0
        again = True
        while again:
            again = False
            for inst in list(func.instructions()):
                folded = fold_instruction(inst)
                if folded is not None and folded is not inst:
                    inst.replace_all_uses_with(folded)
                    if not inst.users:
                        inst.erase_from_parent()
                    changed += 1
                    again = True
        return changed


def fold_instruction(inst: Instruction) -> Optional[Value]:
    if isinstance(inst, BinaryInst):
        return _fold_binary(inst)
    if isinstance(inst, FNegInst):
        operand = inst.operands[0]
        if isinstance(operand, ConstantFloat):
            return ConstantFloat(operand.type, -operand.value)
        if isinstance(operand, ConstantVPFloat):
            return ConstantVPFloat(operand.type, -operand.value)
        return None
    if isinstance(inst, ICmpInst):
        return _fold_icmp(inst)
    if isinstance(inst, FCmpInst):
        return _fold_fcmp(inst)
    if isinstance(inst, CastInst):
        return _fold_cast(inst)
    if isinstance(inst, SelectInst):
        cond = inst.condition
        if isinstance(cond, ConstantInt):
            return inst.true_value if cond.value else inst.false_value
        return None
    return None


def _fold_binary(inst: BinaryInst) -> Optional[Value]:
    a, b = inst.lhs, inst.rhs
    op = inst.opcode
    # Full constant folding.
    if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
        return _fold_int(op, a, b, inst.type)
    if isinstance(a, ConstantFloat) and isinstance(b, ConstantFloat):
        return _fold_float(op, a, b)
    if isinstance(a, ConstantVPFloat) and isinstance(b, ConstantVPFloat) \
            and inst.type.is_vpfloat and inst.type.is_static:
        prec = inst.type.static_precision
        kernel = {"fadd": arith.add, "fsub": arith.sub,
                  "fmul": arith.mul, "fdiv": arith.div}.get(op)
        if kernel is not None:
            # Literals are stored at maximum configuration (600 bits);
            # the runtime rounds them to the format before operating, so
            # compile-time folding must do the same.
            lhs = _round_to_format(a.value, inst.type)
            rhs = _round_to_format(b.value, inst.type)
            return ConstantVPFloat(
                inst.type, kernel(lhs, rhs, prec, RNDN))
    # Identities.
    if op == "add":
        if _is_int(b, 0):
            return a
        if _is_int(a, 0):
            return b
    elif op == "sub":
        if _is_int(b, 0):
            return a
        if a is b:
            return ConstantInt(inst.type, 0)
    elif op == "mul":
        if _is_int(b, 1):
            return a
        if _is_int(a, 1):
            return b
        if _is_int(a, 0) or _is_int(b, 0):
            return ConstantInt(inst.type, 0)
    elif op in ("sdiv", "udiv"):
        if _is_int(b, 1):
            return a
    elif op in ("and",):
        if _is_int(b, 0) or _is_int(a, 0):
            return ConstantInt(inst.type, 0)
        if a is b:
            return a
    elif op in ("or", "xor"):
        if _is_int(b, 0):
            return a
        if _is_int(a, 0):
            return b
        if op == "xor" and a is b:
            return ConstantInt(inst.type, 0)
        if op == "or" and a is b:
            return a
    elif op in ("shl", "ashr", "lshr"):
        if _is_int(b, 0):
            return a
    elif op == "fadd":
        # FP identities must respect signed zeros: x + 0.0 == x only
        # because (+0) + x = x for finite x; x + (-0.0) == x always.
        if _is_float(b, 0.0) and not _float_is_negzero(b):
            return a
    elif op == "fmul":
        if _is_float(b, 1.0):
            return a
        if _is_float(a, 1.0):
            return b
    elif op == "fdiv":
        if _is_float(b, 1.0):
            return a
    elif op == "fsub":
        if _is_float(b, 0.0) and not _float_is_negzero(b):
            return a
    return None


def _is_int(v: Value, n: int) -> bool:
    return isinstance(v, ConstantInt) and v.value == n


def _is_float(v: Value, x: float) -> bool:
    return isinstance(v, ConstantFloat) and v.value == x


def _float_is_negzero(v: Value) -> bool:
    import math

    return isinstance(v, ConstantFloat) and v.value == 0.0 and \
        math.copysign(1.0, v.value) < 0


def _fold_int(op: str, a: ConstantInt, b: ConstantInt, type) -> Optional[Value]:
    from ..runtime.interpreter import _mask_int, _trunc_div

    x, y = a.value, b.value
    bits = type.bits
    try:
        if op == "add":
            raw = x + y
        elif op == "sub":
            raw = x - y
        elif op == "mul":
            raw = x * y
        elif op == "sdiv":
            raw = _trunc_div(x, y)
        elif op == "srem":
            raw = x - _trunc_div(x, y) * y
        elif op == "udiv":
            raw = (x & ((1 << bits) - 1)) // (y & ((1 << bits) - 1))
        elif op == "urem":
            raw = (x & ((1 << bits) - 1)) % (y & ((1 << bits) - 1))
        elif op == "and":
            raw = x & y
        elif op == "or":
            raw = x | y
        elif op == "xor":
            raw = x ^ y
        elif op == "shl":
            raw = x << (y & (bits - 1))
        elif op == "ashr":
            raw = x >> (y & (bits - 1))
        elif op == "lshr":
            raw = (x & ((1 << bits) - 1)) >> (y & (bits - 1))
        else:
            return None
    except ZeroDivisionError:
        return None  # preserve the trap
    return ConstantInt(type, _mask_int(raw, bits))


def _fold_float(op: str, a: ConstantFloat, b: ConstantFloat) -> Optional[Value]:
    import math

    x, y = a.value, b.value
    if op == "fadd":
        result = x + y
    elif op == "fsub":
        result = x - y
    elif op == "fmul":
        result = x * y
    elif op == "fdiv":
        if y == 0.0:
            result = math.nan if x == 0.0 else math.copysign(math.inf, x) \
                * math.copysign(1.0, y)
        else:
            result = x / y
    elif op == "frem":
        if y == 0.0:
            result = math.nan
        else:
            result = math.fmod(x, y)
    else:
        return None
    if a.type.bits == 32:
        from ..runtime.interpreter import _f32

        result = _f32(result)
    return ConstantFloat(a.type, result)


def _fold_icmp(inst: ICmpInst) -> Optional[Value]:
    from ..ir import I1

    a, b = inst.operands
    if not (isinstance(a, ConstantInt) and isinstance(b, ConstantInt)):
        if a is b and inst.predicate in ("eq", "sle", "sge", "ule", "uge"):
            return ConstantInt(I1, 1)
        if a is b and inst.predicate in ("ne", "slt", "sgt", "ult", "ugt"):
            return ConstantInt(I1, 0)
        return None
    bits = a.type.bits
    ua, ub = a.value & ((1 << bits) - 1), b.value & ((1 << bits) - 1)
    table = {
        "eq": a.value == b.value, "ne": a.value != b.value,
        "slt": a.value < b.value, "sle": a.value <= b.value,
        "sgt": a.value > b.value, "sge": a.value >= b.value,
        "ult": ua < ub, "ule": ua <= ub, "ugt": ua > ub, "uge": ua >= ub,
    }
    return ConstantInt(I1, int(table[inst.predicate]))


def _fold_fcmp(inst: FCmpInst) -> Optional[Value]:
    import math

    from ..ir import I1

    a, b = inst.operands
    values = []
    for v in (a, b):
        if isinstance(v, ConstantFloat):
            values.append(v.value)
        elif isinstance(v, ConstantVPFloat):
            values.append(v.value)
        else:
            return None
    x, y = values
    if isinstance(x, BigFloat) or isinstance(y, BigFloat):
        x = x if isinstance(x, BigFloat) else BigFloat.from_float(x, 64)
        y = y if isinstance(y, BigFloat) else BigFloat.from_float(y, 64)
        unordered = x.is_nan() or y.is_nan()
        cmp = 0 if unordered else x.compare(y)
    else:
        unordered = math.isnan(x) or math.isnan(y)
        cmp = 0 if unordered else (-1 if x < y else (1 if x > y else 0))
    pred = inst.predicate
    if pred == "ord":
        return ConstantInt(I1, int(not unordered))
    if pred == "uno":
        return ConstantInt(I1, int(unordered))
    base = {"oeq": cmp == 0, "one": cmp != 0, "olt": cmp < 0, "ole": cmp <= 0,
            "ogt": cmp > 0, "oge": cmp >= 0, "ueq": cmp == 0,
            "une": cmp != 0}[pred]
    if pred.startswith("o"):
        return ConstantInt(I1, int(base and not unordered))
    return ConstantInt(I1, int(base or unordered))


def _round_to_format(value: BigFloat, vptype) -> BigFloat:
    """Compile-time rounding must agree with runtime format semantics."""
    if vptype.format == "mpfr":
        return value.round_to(vptype.static_precision)
    from ..unum import UnumConfig, decode, encode

    size = vptype.size_attr.value if vptype.size_attr is not None else None
    config = UnumConfig(vptype.exp_attr.value, vptype.prec_attr.value, size)
    return decode(encode(value, config), config)


def _fold_cast(inst: CastInst) -> Optional[Value]:
    source = inst.source
    target = inst.type
    if isinstance(source, ConstantInt):
        if inst.opcode in ("sext", "trunc", "bitcast") and target.is_integer:
            from ..runtime.interpreter import _mask_int

            return ConstantInt(target, _mask_int(source.value, target.bits))
        if inst.opcode == "zext" and target.is_integer:
            bits = source.type.bits
            return ConstantInt(target, source.value & ((1 << bits) - 1))
        if inst.opcode in ("sitofp", "uitofp"):
            if target.is_float:
                return ConstantFloat(target, float(source.value))
            if target.is_vpfloat and target.is_static:
                return ConstantVPFloat(
                    target,
                    _round_to_format(
                        BigFloat.from_int(source.value,
                                          max(64, target.static_precision)),
                        target))
    if isinstance(source, ConstantFloat):
        if inst.opcode in ("fpext", "fptrunc") and target.is_float:
            value = source.value
            if target.bits == 32:
                from ..runtime.interpreter import _f32

                value = _f32(value)
            return ConstantFloat(target, value)
        if inst.opcode == "vpconv" and target.is_vpfloat and target.is_static:
            return ConstantVPFloat(
                target,
                _round_to_format(BigFloat.from_float(source.value, 64),
                                 target))
    if isinstance(source, ConstantVPFloat) and inst.opcode == "vpconv":
        if target.is_vpfloat and target.is_static:
            return ConstantVPFloat(
                target, _round_to_format(source.value, target))
        if target.is_float:
            if not source.type.is_static:
                return None  # representable set unknown at compile time
            # The stored literal may carry more bits than the source type
            # can represent: round to the format first (the runtime does).
            value = _round_to_format(source.value, source.type).to_float()
            if target.bits == 32:
                from ..runtime.interpreter import _f32

                value = _f32(value)
            return ConstantFloat(target, value)
    return None
