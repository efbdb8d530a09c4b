"""FMA contraction: ``a*b + c`` -> a single fused multiply-add.

The paper's MPFR API surface includes the fused operations (``mpfr_fma``,
``mpfr_fms``), and the UNUM coprocessor has a ``gfma`` instruction; this
pass contracts a multiply whose single use is an add/sub of the same
vpfloat (or IEEE) type into a ``vp.fma``/``vp.fms`` call the backends map
onto those primitives.

Contraction performs ONE rounding instead of two, so results can differ
from the separately rounded expression by up to half an ulp -- exactly C's
``FP_CONTRACT`` semantics.  It is therefore **off by default** and
enabled with ``CompilerDriver(contract_fma=True)``; every backend and the
interpreter implement the fused op with identical single-rounding
semantics, so cross-backend bit-identity is preserved either way.
"""

from __future__ import annotations

from ..ir import (
    BinaryInst,
    CallInst,
    F64,
    Function,
    FunctionType,
)
from .pass_manager import FunctionPass


class FMAContractionPass(FunctionPass):
    name = "fma-contract"

    def run(self, func: Function) -> int:
        module = func.parent
        contracted = 0
        for block in func.blocks:
            for inst in list(block.instructions):
                if not isinstance(inst, BinaryInst):
                    continue
                if inst.opcode not in ("fadd", "fsub"):
                    continue
                if not inst.type.is_fp:
                    continue
                fused = self._contract(module, block, inst)
                if fused:
                    contracted += 1
        return contracted

    def _contract(self, module, block, inst: BinaryInst) -> bool:
        lhs, rhs = inst.lhs, inst.rhs

        def is_candidate(value):
            return (isinstance(value, BinaryInst)
                    and value.opcode == "fmul"
                    and value.type == inst.type
                    and len(value.users) == 1
                    and value.parent is block)

        if inst.opcode == "fadd":
            # (a*b) + c  or  c + (a*b)  ->  fma(a, b, c)
            if is_candidate(lhs):
                mul, addend = lhs, rhs
            elif is_candidate(rhs):
                mul, addend = rhs, lhs
            else:
                return False
            name = "vp.fma"
        else:
            # (a*b) - c -> fms(a, b, c); c - (a*b) is NOT contractible to
            # either primitive without an extra negation, skip it.
            if not is_candidate(lhs):
                return False
            mul, addend = lhs, rhs
            name = "vp.fms"

        callee = module.get_or_declare(
            name, FunctionType(F64, (F64, F64, F64)))
        call = CallInst(callee, [mul.lhs, mul.rhs, addend],
                        result_type=inst.type)
        call.name = block.parent.unique_name("fma")
        block.insert_before(inst, call)
        inst.replace_all_uses_with(call)
        inst.erase_from_parent()
        mul.erase_from_parent()
        return True
