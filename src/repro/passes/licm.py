"""Loop-invariant code motion.

Hoists side-effect-free instructions whose operands are loop-invariant
into the preheader.  Loads are hoisted only when the loop contains no
stores or clobbering calls (conservative alias model).  vpfloat arithmetic
hoists exactly like IEEE arithmetic -- after the MPFR backend runs, each
hoisted op is an entire library call saved per iteration, a significant
part of the paper's Fig. 1 advantage.
"""

from __future__ import annotations

from typing import Set

from ..ir import (
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    Constant,
    FCmpInst,
    FNegInst,
    Function,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    Loop,
    LoopInfo,
    SelectInst,
    StoreInst,
    Value,
    VPFloatType,
)
from .pass_manager import FunctionPass

_HOISTABLE = (BinaryInst, CastInst, ICmpInst, FCmpInst, FNegInst, GEPInst,
              SelectInst)


class LICMPass(FunctionPass):
    name = "licm"

    def run(self, func: Function) -> int:
        loopinfo = LoopInfo(func)
        hoisted = 0
        # Innermost-out so invariants can cascade outward.
        for loop in sorted(loopinfo.loops, key=lambda l: -l.depth):
            hoisted += self._hoist_loop(func, loop)
        return hoisted

    def _hoist_loop(self, func: Function, loop: Loop) -> int:
        preheader = self._ensure_preheader(func, loop)
        if preheader is None:
            return 0
        defined_in_loop: Set[int] = set()
        for block in loop.blocks:
            for inst in block.instructions:
                defined_in_loop.add(id(inst))
        loop_has_stores = any(
            isinstance(i, StoreInst) or
            (isinstance(i, CallInst) and self._call_clobbers(i))
            for block in loop.blocks for i in block.instructions
        )

        def invariant(value: Value) -> bool:
            return id(value) not in defined_in_loop

        # Function block order, not set order: hoisting order must not
        # depend on object addresses.
        blocks = [b for b in func.blocks if b in loop.blocks]
        hoisted = 0
        changed = True
        while changed:
            changed = False
            for block in blocks:
                for inst in list(block.instructions):
                    if not self._can_hoist(inst, loop_has_stores):
                        continue
                    if not all(invariant(op) for op in inst.operands):
                        continue
                    # Dependent vpfloat types reference attribute Values
                    # outside the def-use graph (paper §III-B); an
                    # instruction whose type depends on a loop-defined
                    # attribute is NOT invariant even if its operands are.
                    if not all(invariant(a) for a in self._type_attrs(inst)):
                        continue
                    block.instructions.remove(inst)
                    terminator = preheader.instructions[-1]
                    preheader.instructions.insert(
                        preheader.instructions.index(terminator), inst)
                    inst.parent = preheader
                    defined_in_loop.discard(id(inst))
                    hoisted += 1
                    changed = True
        return hoisted

    def _type_attrs(self, inst: Instruction):
        """Attribute Values referenced by the instruction's result type or
        any operand's type (constants carry dependent types too)."""
        seen = []
        for ty in [inst.type] + [op.type for op in inst.operands]:
            # Unwrap pointers/arrays down to a possible vpfloat element.
            while True:
                pointee = getattr(ty, "pointee", None)
                if pointee is None:
                    pointee = getattr(ty, "element", None)
                if pointee is None:
                    break
                ty = pointee
            if isinstance(ty, VPFloatType):
                for attr in (ty.exp_attr, ty.prec_attr, ty.size_attr):
                    if isinstance(attr, Instruction):
                        seen.append(attr)
        return seen

    def _can_hoist(self, inst: Instruction, loop_has_stores: bool) -> bool:
        if isinstance(inst, LoadInst):
            return not loop_has_stores
        if isinstance(inst, _HOISTABLE):
            # Division can trap only for integers; FP division is safe to
            # speculate (IEEE semantics produce inf/nan).
            if isinstance(inst, BinaryInst) and inst.opcode in (
                "sdiv", "srem", "udiv", "urem"
            ):
                return isinstance(inst.rhs, Constant) and \
                    getattr(inst.rhs, "value", 0) != 0
            return True
        if isinstance(inst, CallInst):
            name = getattr(inst.callee, "name", "")
            # __sizeof_vpfloat is idempotent for identical attributes:
            # hoisting it out of the gemm_unum inner loop is exactly the
            # improvement the paper describes for Listing 2.
            return name in ("__sizeof_vpfloat", "__sizeof_vpfloat_mpfr")
        return False

    def _call_clobbers(self, inst: CallInst) -> bool:
        name = getattr(inst.callee, "name", "")
        return name not in (
            "vpfloat.attr.keepalive", "__vpfloat_check_attr",
            "__sizeof_vpfloat", "__sizeof_vpfloat_mpfr",
        )

    def _ensure_preheader(self, func: Function, loop: Loop):
        preheader = loop.preheader()
        if preheader is not None:
            return preheader
        # Create one: split the header's out-of-loop edges.
        outside = [p for p in loop.header.predecessors()
                   if p not in loop.blocks]
        if not outside:
            return None
        preheader = func.add_block("preheader")
        new_branch = BranchInst([loop.header])
        new_branch.parent = preheader
        preheader.instructions.append(new_branch)
        for pred in outside:
            pred.terminator.replace_target(loop.header, preheader)
        for phi in loop.header.phis():
            incoming_outside = [(v, b) for v, b in phi.incoming
                                if b in outside]
            if not incoming_outside:
                continue
            if len(incoming_outside) == 1:
                value, old_block = incoming_outside[0]
                phi.replace_incoming_block(old_block, preheader)
            else:
                from ..ir import PhiInst

                merge_phi = PhiInst(phi.type)
                merge_phi.name = func.unique_name("ph.merge")
                merge_phi.parent = preheader
                preheader.instructions.insert(0, merge_phi)
                for value, old_block in incoming_outside:
                    merge_phi.add_incoming(value, old_block)
                    phi.remove_incoming(old_block)
                phi.add_incoming(merge_phi, preheader)
        # Keep block order roughly topological for readability.
        func.blocks.remove(preheader)
        func.blocks.insert(func.blocks.index(loop.header), preheader)
        return preheader
