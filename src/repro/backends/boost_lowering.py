"""Boost.Multiprecision-style baseline lowering.

The paper's Fig. 1 baseline is Boost's ``mpfr_float`` wrapper: operator
overloading in the C++ frontend materializes an MPFR temporary per
arithmetic operation, with constructor/destructor (``mpfr_init2`` /
``mpfr_clear``) running *per evaluation* -- inside loops, every iteration.
Because the library calls are opaque to the optimizer, nothing hoists the
temporary's lifetime out of the loop and nothing specializes mixed
double/vpfloat operands into the ``_d`` entry points at the wrapper
boundary (conversions construct another temporary).

This pass reproduces exactly that structure so the vpfloat-vs-Boost
comparison is apples-to-apples over the same IR, the same MPFR stand-in
and the same cost model (DESIGN.md substitution table):

- per-op temporaries: ``mpfr_init2`` immediately before the operation and
  ``mpfr_clear`` immediately after the value's last use in its block --
  both *inside* the loop body;
- loads always copy (``mpfr_init2`` + ``mpfr_set``) -- the wrapper cannot
  alias an element it only holds by value;
- primitive operands are first converted into a fresh temporary
  (``mpfr_init2`` + ``mpfr_set_d``), never specialized;
- assignment from a temporary is a move (``mpfr_swap``), Boost's actual
  rvalue behaviour; assignment from an lvalue is an ``mpfr_set``.

Everything else (signature rewriting, arrays, returns, comparisons)
matches :class:`~repro.backends.mpfr_lowering.MPFRLoweringPass`.
"""

from __future__ import annotations

from typing import List, Optional

from ..ir import (
    CallInst,
    ConstantVPFloat,
    I32,
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
    Value,
    VOID,
    VPFloatType,
)
from .mpfr_lowering import (
    MPFR_PTR,
    MPFR_STRUCT,
    MPFRLoweringPass,
)


class BoostLoweringPass(MPFRLoweringPass):
    """Eager, frontend-style lowering (the comparison baseline)."""

    name = "boost-lowering"

    def __init__(self):
        super().__init__(reuse_objects=False, specialize_scalars=False,
                         in_place_stores=False)

    # ------------------------------------------------------------ #
    # Per-operation temporaries, constructed in place
    # ------------------------------------------------------------ #

    def _acquire_temp(self, vptype: VPFloatType, inst: Instruction) -> Value:
        """Construct the temporary right where the wrapper would: an
        init2 immediately before the operation, a clear after the last
        use in this block (statement end)."""
        from ..ir import AllocaInst

        prec = self._prec_value(vptype)
        block = inst.parent
        alloca = AllocaInst(MPFR_STRUCT)
        # The struct storage itself can live in the entry (C++ would have
        # it in a register/stack slot); the *lifetime* calls stay local.
        self._insert_at_entry(alloca, "boost.tmp")
        init2 = self._declare("mpfr_init2", VOID, (MPFR_PTR, I32, I32))
        self._insert_before(block, inst,
                            CallInst(init2, [alloca, prec,
                                             vptype.exp_attr]))
        self._pending_clears.append((alloca, block))
        return alloca

    # Named constants (``mpfr_float alpha = 2.0``) construct once; the
    # hoisted-literal placement of the base class models that faithfully.

    def _lower_function(self, func) -> None:
        self._pending_clears: List = []
        self._current_inst: Optional[Instruction] = None
        super()._lower_function(func)

    def _lower_instruction(self, inst: Instruction) -> None:
        self._current_inst = inst
        super()._lower_instruction(inst)

    # ------------------------------------------------------------ #
    # Loads always copy; stores from temps are moves
    # ------------------------------------------------------------ #

    def _alias_is_safe(self, inst: LoadInst) -> bool:
        # C++ element access binds a reference -- reads never copy, and
        # "unsafe" aliasing matches the wrapper's by-reference semantics.
        return True

    def _lower_store(self, inst: StoreInst) -> None:
        from ..ir import GlobalVariable

        if isinstance(inst.pointer, GlobalVariable):
            super()._lower_store(inst)  # the global-cell bridge
            return
        block = inst.parent
        pointer = self._lowered_pointer_elem(inst.pointer)
        value = inst.value
        if isinstance(value, ConstantVPFloat):
            lowered = self._materialize_literal(value)
            callee = self._declare("mpfr_set", VOID, (MPFR_PTR, MPFR_PTR))
        else:
            lowered = self._lowered(value)
            if self._is_expression_temp(value):
                # Move-assignment from an rvalue temporary.
                callee = self._declare("mpfr_swap", VOID,
                                       (MPFR_PTR, MPFR_PTR))
            else:
                callee = self._declare("mpfr_set", VOID,
                                       (MPFR_PTR, MPFR_PTR))
        call = CallInst(callee, [pointer, lowered])
        self._insert_before(block, inst, call)
        inst.drop_all_references()
        block.instructions.remove(inst)

    def _is_expression_temp(self, value: Value) -> bool:
        mapped = self._mapped_pointer(value)
        return mapped is not None and any(
            mapped is t for t, _ in self._pending_clears
        )

    # ------------------------------------------------------------ #
    # Statement-end destructor calls
    # ------------------------------------------------------------ #

    def _place_temp_lifetimes(self) -> None:
        """Each temporary's destructor runs after its last use in the
        block where it was constructed -- inside loop bodies."""
        clear = self._declare("mpfr_clear", VOID, (MPFR_PTR,))
        for temp, block in self._pending_clears:
            # A "temporary" that escapes its statement block (loop-carried
            # accumulator through a phi, cross-block use) models a *named*
            # C++ variable: no statement-end destructor.
            escapes = any(
                user.parent is not block or isinstance(user, PhiInst)
                for user in temp.users
                if getattr(getattr(user, "callee", None), "name", "")
                not in ("mpfr_init2", "mpfr_clear")
            )
            if escapes:
                # Hoist its constructor to the entry: a named variable is
                # initialized once, not per iteration.
                entry = self.func.entry
                for user in list(temp.users):
                    name = getattr(getattr(user, "callee", None), "name", "")
                    if name == "mpfr_init2" and user.parent is not entry:
                        user.parent.instructions.remove(user)
                        user.parent = entry
                        # Directly after its own alloca, so it dominates
                        # every use and is dominated by its operand.
                        insert_at = entry.instructions.index(temp) + 1
                        entry.instructions.insert(insert_at, user)
                continue
            last = None
            for inst in block.instructions:
                for op in getattr(inst, "operands", ()):
                    if op is temp:
                        name = getattr(getattr(inst, "callee", None),
                                       "name", "")
                        if name != "mpfr_clear":
                            last = inst
            if last is None:
                continue
            index = block.instructions.index(last) + 1
            # Destructors never go past the block terminator.
            if block.instructions and block.instructions[-1].is_terminator:
                index = min(index, len(block.instructions) - 1)
            call = CallInst(clear, [temp])
            call.parent = block
            block.instructions.insert(index, call)

