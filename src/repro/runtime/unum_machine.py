"""Executes UNUM-backend assembly on the coprocessor + scalar core model.

The machine pairs a simple in-order scalar core (1 cycle per ALU op,
cache-modeled memory) with the
:class:`~repro.unum.coprocessor.UnumCoprocessor` (g-layer latencies,
variable-byte loads/stores).  It is the stand-in for the paper's FPGA
Rocket + coprocessor platform (Fig. 2); reported cycles combine both
units plus cache-model access time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..backends.unum_backend.asm import (
    AsmFunction,
    AsmInst,
    AsmModule,
    Imm,
    PReg,
    StackSlot,
    VReg,
)
from ..bigfloat import BigFloat
from ..unum import MAX_WGP, UnumConfig, UnumCoprocessor
from .cost_model import CostAccounting
from .memory import Memory


class UnumMachineError(RuntimeError):
    pass


class _CoprocessorMemoryAdapter:
    """Bridges the coprocessor's raw-byte interface onto Memory cells.

    UNUM values in memory are stored as encoded integers so MBB
    truncation and precision loss behave exactly like hardware."""

    def __init__(self, memory: Memory):
        self.memory = memory

    def load_bytes(self, address: int, n: int) -> bytes:
        return self.memory.load_bytes(address, n)

    def store_bytes(self, address: int, payload: bytes) -> None:
        self.memory.store_bytes(address, payload)


class UnumMachine:
    """Interprets an :class:`AsmModule`."""

    def __init__(self, asm: AsmModule,
                 accounting: Optional[CostAccounting] = None,
                 coprocessor: Optional[UnumCoprocessor] = None,
                 max_steps: int = 500_000_000):
        self.asm = asm
        self.accounting = accounting or CostAccounting()
        self.memory = Memory(self.accounting)
        self.coprocessor = coprocessor or UnumCoprocessor(wgp=128)
        self.adapter = _CoprocessorMemoryAdapter(self.memory)
        self.max_steps = max_steps
        self.steps = 0
        self.stdout: List[str] = []
        self.scalar_cycles = 0

    # ------------------------------------------------------------ #

    @property
    def cycles(self) -> int:
        self.accounting.sync()
        return self.scalar_cycles + self.coprocessor.cycles + \
            self.accounting.report.cycles

    def run(self, name: str, args: Optional[List[object]] = None):
        result = self.call(name, args or [])
        self.accounting.finalize(self.memory)
        return result

    # ------------------------------------------------------------ #

    def call(self, name: str, args: List[object]):
        func = self.asm.functions.get(name)
        if func is None:
            raise UnumMachineError(f"unknown function {name!r}")
        regs: Dict[PReg, object] = {}
        frame_base = self.memory.alloc_stack(max(8, func.frame_slots * 8))
        # Pre-write incoming arguments.
        for (reg, _cls), value in zip(func.arg_registers, args):
            if reg is None:
                continue  # spilled: fetched by argmv
            if isinstance(value, float) and reg.cls == "g":
                value = BigFloat.from_float(value, MAX_WGP)
            regs[reg] = value
        state = _ExecState(func, regs, frame_base, args)
        return self._execute(state)

    # ------------------------------------------------------------ #

    def _execute(self, state: "_ExecState"):
        func = state.func
        label_index = {b.label: i for i, b in enumerate(func.blocks)}
        block_i = 0
        inst_i = 0
        while True:
            block = func.blocks[block_i]
            if inst_i >= len(block.instructions):
                block_i += 1  # fall through
                inst_i = 0
                if block_i >= len(func.blocks):
                    raise UnumMachineError("fell off the end of function")
                continue
            inst = block.instructions[inst_i]
            self.steps += 1
            if self.steps > self.max_steps:
                raise UnumMachineError("instruction budget exceeded")
            outcome = self._step(inst, state)
            if outcome is None:
                inst_i += 1
            elif outcome[0] == "jump":
                block_i = label_index[outcome[1]]
                inst_i = 0
            elif outcome[0] == "ret":
                self.memory.stack_release(state.frame_base)
                return outcome[1]

    # ------------------------------------------------------------ #
    # Operand helpers
    # ------------------------------------------------------------ #

    def _read(self, state, op):
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, PReg):
            value = state.regs.get(op)
            if value is None:
                if op.cls == "g":
                    raise UnumMachineError(f"read of uninitialized {op}")
                return 0
            return value
        if isinstance(op, VReg):
            raise UnumMachineError(
                "virtual register survived allocation: run regalloc first"
            )
        raise UnumMachineError(f"cannot read operand {op!r}")

    def _write(self, state, op, value) -> None:
        if not isinstance(op, PReg):
            raise UnumMachineError(f"cannot write operand {op!r}")
        state.regs[op] = value

    def _slot_addr(self, state, slot: StackSlot) -> int:
        return state.frame_base + slot.index

    def _apply_config(self, inst: AsmInst, state) -> None:
        """g-instructions assume their sucfg context was applied; the
        config metadata is only used for the wgp of immediate rounding."""

    # ------------------------------------------------------------ #
    # The instruction set
    # ------------------------------------------------------------ #

    def _step(self, inst: AsmInst, state):
        op = inst.opcode
        cop = self.coprocessor
        ops = inst.operands
        costs = self.accounting.costs

        def r(i):
            return self._read(state, ops[i])

        def w(value):
            self._write(state, ops[0], value)

        # ---- scalar integer ---------------------------------------- #
        if op in ("li", "mv", "la"):
            self.scalar_cycles += 1
            w(r(1) if op != "la" else self._global_addr(ops[1]))
            return None
        if op in ("add", "sub", "mul", "div", "rem", "divu", "remu", "and",
                  "or", "xor", "sll", "sra", "srl"):
            self.scalar_cycles += 1 if op not in ("mul", "div", "rem") else 3
            a, b = r(1), r(2)
            table = {
                "add": lambda: a + b, "sub": lambda: a - b,
                "mul": lambda: a * b,
                "div": lambda: _tdiv(a, b), "rem": lambda: a - _tdiv(a, b) * b,
                "divu": lambda: abs(a) // abs(b) if b else 0,
                "remu": lambda: abs(a) % abs(b) if b else 0,
                "and": lambda: a & b, "or": lambda: a | b,
                "xor": lambda: a ^ b,
                "sll": lambda: a << (b & 63), "sra": lambda: a >> (b & 63),
                "srl": lambda: (a & ((1 << 64) - 1)) >> (b & 63),
            }
            w(table[op]())
            return None
        if op.startswith("setcc."):
            self.scalar_cycles += 1
            w(int(_int_compare(op[6:], r(1), r(2))))
            return None

        # ---- scalar float ------------------------------------------- #
        if op in ("fli", "fmv"):
            self.scalar_cycles += 1
            w(float(r(1)))
            return None
        if op in ("fadd.d", "fsub.d", "fmul.d", "fdiv.d", "frem.d"):
            a, b = float(r(1)), float(r(2))
            cost = {"fadd.d": costs.f64_add, "fsub.d": costs.f64_add,
                    "fmul.d": costs.f64_mul, "fdiv.d": costs.f64_div,
                    "frem.d": costs.f64_div}[op]
            self.scalar_cycles += cost
            table = {"fadd.d": a + b, "fsub.d": a - b, "fmul.d": a * b,
                     "fdiv.d": (a / b if b != 0.0 else
                                math.copysign(math.inf, a) if a else
                                math.nan),
                     "frem.d": math.fmod(a, b) if b else math.nan}
            w(table[op])
            return None
        if op == "fneg.d":
            self.scalar_cycles += 1
            w(-float(r(1)))
            return None
        if op.startswith("fsetcc."):
            self.scalar_cycles += costs.f64_other
            w(int(_float_compare(op[7:], float(r(1)), float(r(2)))))
            return None
        if op in ("fcvt.d.w",):
            self.scalar_cycles += 2
            w(float(int(r(1))))
            return None
        if op in ("fcvt.w.d",):
            self.scalar_cycles += 2
            w(int(float(r(1))))
            return None
        if op.startswith("libm."):
            fn = {"sqrt": math.sqrt, "fabs": abs, "exp": math.exp,
                  "log": math.log, "pow": math.pow, "sin": math.sin,
                  "cos": math.cos, "floor": math.floor, "ceil": math.ceil,
                  "fmax": max, "fmin": min}[op[5:]]
            self.scalar_cycles += costs.f64_div * 2
            w(fn(*[float(self._read(state, o)) for o in ops[1:]]))
            return None

        # ---- memory -------------------------------------------------- #
        if op == "addsp":
            self.scalar_cycles += 1
            w(state.frame_base + int(r(1)))
            return None
        if op == "allocd":
            self.scalar_cycles += 2
            w(self.memory.alloc_stack(int(r(1))))
            return None
        if op == "alloch":
            self.scalar_cycles += costs.malloc
            self.accounting.report.heap_allocations += 1
            w(self.memory.alloc_heap(int(r(1))))
            return None
        if op == "freeh":
            self.scalar_cycles += costs.free
            self.memory.free_heap(int(r(0)))
            return None
        if op == "ld":
            self.scalar_cycles += 1
            w(self.memory.load(int(r(1)), 8, 0))
            return None
        if op == "sd":
            self.scalar_cycles += 1
            self.memory.store(int(r(1)), r(0), 8)
            return None
        if op == "fld":
            self.scalar_cycles += 1
            value = self.memory.load(int(r(1)), 8, 0.0)
            w(float(value) if value is not None else 0.0)
            return None
        if op == "fsd":
            self.scalar_cycles += 1
            self.memory.store(int(r(1)), float(r(0)), 8)
            return None
        if op == "memset":
            addr, _v, n = int(r(0)), r(1), int(r(2))
            self.scalar_cycles += 2 + n // 8
            for a in [a for a in self.memory.cells if addr <= a < addr + n]:
                del self.memory.cells[a]
            self.accounting.memory_access("w", addr, n)
            return None
        if op == "memcpy":
            dst, src, n = int(r(0)), int(r(1)), int(r(2))
            self.scalar_cycles += 2 + n // 4
            moved = [(a - src + dst, c) for a, c in
                     sorted(self.memory.cells.items()) if src <= a < src + n]
            for addr, cell in moved:
                self.memory.cells[addr] = cell
            self.accounting.memory_access("r", src, n)
            self.accounting.memory_access("w", dst, n)
            return None

        # ---- coprocessor configuration ------------------------------ #
        if op == "sucfg.ess":
            cop.set_ess(int(r(0)))
            return None
        if op == "sucfg.fss":
            cop.set_fss(int(r(0)))
            return None
        if op == "sucfg.wgp":
            cop.set_wgp(int(r(0)))
            return None
        if op == "sucfg.wgpu":
            fss = int(r(0))
            size = int(r(1)) if len(ops) > 1 else 0
            config = UnumConfig(cop.ess or 4, fss, size or None)
            cop.set_wgp(min(MAX_WGP, config.precision))
            return None
        if op == "sucfg.mbb":
            cop.set_mbb(int(r(0)))
            return None

        # ---- coprocessor data --------------------------------------- #
        if op == "gli":
            value = ops[1].value
            if not isinstance(value, BigFloat):
                value = BigFloat.from_float(float(value), cop.glayer.wgp)
            cop_reg = ops[0]
            state.regs[cop_reg] = value.round_to(cop.glayer.wgp)
            self.scalar_cycles += 2
            return None
        if op == "gmov":
            state.regs[ops[0]] = self._gread(state, ops[1]).round_to(
                cop.glayer.wgp)
            self.scalar_cycles += 1
            return None
        if op in ("gadd", "gsub", "gmul", "gdiv"):
            a = self._gread(state, ops[1])
            b = self._gread(state, ops[2])
            kernel = {"gadd": cop.glayer.add, "gsub": cop.glayer.sub,
                      "gmul": cop.glayer.mul, "gdiv": cop.glayer.div}[op]
            state.regs[ops[0]] = kernel(a, b)
            cop.stats.bump(op)
            return None
        if op == "gfma":
            a = self._gread(state, ops[1])
            b = self._gread(state, ops[2])
            c = self._gread(state, ops[3])
            state.regs[ops[0]] = cop.glayer.fma(a, b, c)
            cop.stats.bump(op)
            return None
        if op == "gsqrt":
            state.regs[ops[0]] = cop.glayer.sqrt(self._gread(state, ops[1]))
            cop.stats.bump(op)
            return None
        if op == "gabs":
            value = self._gread(state, ops[1])
            state.regs[ops[0]] = abs(value).round_to(cop.glayer.wgp)
            cop.stats.bump(op)
            return None
        if op == "gneg":
            state.regs[ops[0]] = cop.glayer.neg(self._gread(state, ops[1]))
            cop.stats.bump(op)
            return None
        if op == "gcvt.d.g":
            state.regs[ops[0]] = BigFloat.from_float(float(r(1)),
                                                     cop.glayer.wgp)
            cop.stats.bump(op)
            self.scalar_cycles += cop.glayer.cycle_model.cvt_cost
            return None
        if op == "gcvt.g.d":
            w(self._gread(state, ops[1]).to_float())
            cop.stats.bump(op)
            self.scalar_cycles += cop.glayer.cycle_model.cvt_cost
            return None
        if op == "gcvt.w.g":
            state.regs[ops[0]] = BigFloat.from_int(int(r(1)),
                                                   max(64, cop.glayer.wgp))
            cop.stats.bump(op)
            self.scalar_cycles += cop.glayer.cycle_model.cvt_cost
            return None
        if op == "gcvt.g.w":
            value = self._gread(state, ops[1])
            w(value.to_int() if value.is_finite() else 0)
            cop.stats.bump(op)
            self.scalar_cycles += cop.glayer.cycle_model.cvt_cost
            return None
        if op.startswith("gsetcc."):
            a = self._gread(state, ops[1])
            b = self._gread(state, ops[2])
            w(int(_bigfloat_compare(op[7:], a, b)))
            cop.stats.bump("gcmp")
            cop.add_cycles(cop.glayer.cycle_model.cmp_cost)
            return None
        if op == "ldu":
            address = int(r(1))
            cop_load_into = ops[0]
            config = cop.memory_config()
            cop._erratum_tick(config.size_bytes)
            raw = self.adapter.load_bytes(address, config.size_bytes)
            from ..unum.format import decode

            bits = int.from_bytes(raw, "little")
            state.regs[cop_load_into] = decode(bits, config).round_to(
                cop.glayer.wgp)
            cop.stats.loads += 1
            cop.stats.bytes_loaded += config.size_bytes
            cop.stats.bump("ldu")
            cop.add_cycles(cop.memory_model.cost(config.size_bytes))
            self.accounting.memory_access("r", address, config.size_bytes)
            return None
        if op == "stu":
            address = int(r(1))
            value = self._gread(state, ops[0])
            config = cop.memory_config()
            cop._erratum_tick(config.size_bytes)
            from ..unum.format import encode

            bits = encode(value, config)
            self.adapter.store_bytes(address,
                                     bits.to_bytes(config.size_bytes,
                                                   "little"))
            cop.stats.stores += 1
            cop.stats.bytes_stored += config.size_bytes
            cop.stats.bump("stu")
            cop.add_cycles(cop.memory_model.cost(config.size_bytes))
            return None

        # ---- control flow ------------------------------------------- #
        if op == "j":
            self.scalar_cycles += 1
            return ("jump", ops[0].name.lstrip("."))
        if op in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            self.scalar_cycles += 1
            a, b = r(0), r(1)
            if isinstance(a, float) or isinstance(b, float):
                taken = _float_compare(
                    {"beq": "oeq", "bne": "one", "blt": "olt",
                     "bge": "oge"}[op], float(a), float(b))
            else:
                taken = _int_compare(
                    {"beq": "eq", "bne": "ne", "blt": "slt", "bge": "sge",
                     "bltu": "ult", "bgeu": "uge"}[op], int(a), int(b))
            if taken:
                return ("jump", ops[2].name.lstrip("."))
            return None
        if op == "ret":
            self.scalar_cycles += 2
            value = self._read(state, ops[0]) if ops else None
            return ("ret", value)
        if op == "trap":
            raise UnumMachineError("trap executed")

        # ---- pseudos -------------------------------------------------- #
        if op.startswith("sel."):
            self.scalar_cycles += 1
            w(r(2) if r(1) else r(3))
            return None
        if op == "sizeu":
            self.scalar_cycles += 6
            ess, fss, size = int(r(1)), int(r(2)), int(r(3))
            config = UnumConfig(ess, fss, size or None)
            w(config.size_bytes)
            return None
        if op == "checkattr":
            self.scalar_cycles += 1
            if int(r(0)) != int(r(1)):
                raise UnumMachineError(
                    f"vpfloat attribute mismatch: {int(r(0))} != {int(r(1))}"
                )
            return None
        if op == "omp.begin":
            self.accounting.parallel_begin()
            return None
        if op == "omp.end":
            self.accounting.parallel_end()
            return None
        if op in ("atomic.begin", "atomic.end"):
            self.scalar_cycles += costs.atomic_section // 2
            return None
        if op == "print":
            value = r(0)
            if isinstance(value, BigFloat):
                from ..bigfloat import to_str

                self.stdout.append(to_str(value))
            else:
                self.stdout.append(str(value))
            return None
        if op == "argmv":
            self.scalar_cycles += 1
            w(state.args[int(r(1))])
            return None
        if op in ("ldspill", "fldspill", "gldspill"):
            self.scalar_cycles += 2
            addr = self._slot_addr(state, ops[1])
            default = BigFloat.zero(64) if op[0] == "g" else 0
            w(self.memory.load(addr, ops[1].size, default))
            return None
        if op in ("sdspill", "fsdspill", "gsdspill"):
            self.scalar_cycles += 2
            addr = self._slot_addr(state, ops[1])
            self.memory.store(addr, r(0), ops[1].size)
            return None
        if op == "call":
            result = self.call(str(ops[1]),
                               [self._read(state, o) for o in ops[2:]])
            self.scalar_cycles += costs.call_overhead
            w(result)
            return None
        if op == "call.void":
            self.call(str(ops[0]), [self._read(state, o) for o in ops[1:]])
            self.scalar_cycles += costs.call_overhead
            return None
        if op == "nop":
            self.scalar_cycles += 1
            return None
        raise UnumMachineError(f"unknown opcode {op!r}")

    # ------------------------------------------------------------ #

    def _gread(self, state, op) -> BigFloat:
        value = self._read(state, op)
        if isinstance(value, BigFloat):
            return value
        if isinstance(value, (int, float)):
            return BigFloat.from_float(float(value),
                                       self.coprocessor.glayer.wgp)
        raise UnumMachineError(f"not a g-layer value: {value!r}")

    def _global_addr(self, name) -> int:
        raise UnumMachineError("globals not supported by the UNUM machine")


class _ExecState:
    __slots__ = ("func", "regs", "frame_base", "args")

    def __init__(self, func: AsmFunction, regs, frame_base: int, args):
        self.func = func
        self.regs = regs
        self.frame_base = frame_base
        self.args = args


def _tdiv(a: int, b: int) -> int:
    if b == 0:
        raise UnumMachineError("division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _int_compare(pred: str, a: int, b: int) -> bool:
    ua, ub = a & ((1 << 64) - 1), b & ((1 << 64) - 1)
    return {
        "eq": a == b, "ne": a != b, "slt": a < b, "sle": a <= b,
        "sgt": a > b, "sge": a >= b, "ult": ua < ub, "ule": ua <= ub,
        "ugt": ua > ub, "uge": ua >= ub,
    }[pred]


def _float_compare(pred: str, a: float, b: float) -> bool:
    unordered = math.isnan(a) or math.isnan(b)
    base = {
        "oeq": a == b, "one": a != b, "olt": a < b, "ole": a <= b,
        "ogt": a > b, "oge": a >= b, "ueq": a == b, "une": a != b,
        "ord": not unordered, "uno": unordered,
    }[pred]
    if pred.startswith("o") and pred not in ("ord",):
        return base and not unordered
    return base


def _bigfloat_compare(pred: str, a: BigFloat, b: BigFloat) -> bool:
    unordered = a.is_nan() or b.is_nan()
    cmp = 0 if unordered else a.compare(b)
    if pred == "ord":
        return not unordered
    if pred == "uno":
        return unordered
    base = {
        "oeq": cmp == 0, "one": cmp != 0, "olt": cmp < 0, "ole": cmp <= 0,
        "ogt": cmp > 0, "oge": cmp >= 0, "ueq": cmp == 0, "une": cmp != 0,
    }[pred]
    if pred.startswith("o"):
        return base and not unordered
    return base or unordered
