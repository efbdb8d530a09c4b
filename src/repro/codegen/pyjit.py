"""Per-function Python-source codegen: the ``jit`` execution engine.

The legacy walker (:meth:`repro.runtime.Interpreter._call_legacy`) pays
an isinstance ladder plus several frame-dict operations per executed IR
instruction.  This module removes both: :class:`FunctionEmitter`
translates one IR function into straight-line Python source with every
SSA value register-allocated to a Python local, constant-attribute
vpfloat precisions and rounding modes baked into the emitted
text, the :mod:`repro.bigfloat.arith` integer-mantissa kernels inlined
(via :mod:`repro.codegen.kernels`) for the constant-precision ``RNDN``
case, and all statically-known cycle charges of a basic block folded
into one bulk ``report.charge(category, total)`` per category.

Observable semantics are bit-identical with the legacy walker for any
function the emitter accepts: the same cycles land in the same
categories, the same memory traffic reaches the cache model, runtime
builtins run through the interpreter's *installed* handlers (so MPFR
pool sampling, registry variants and error text are shared, not
re-implemented), and runtime errors keep their exact types and
messages.  Literals whose vpfloat attributes are runtime values (the
mpfr and boost lowerings of paper Listing 4 code) are rounded at those
values as they execute.  Anything else the emitter cannot prove static
-- native vpfloat arithmetic at runtime attributes, unknown builtins,
dynamically-sized element types, non-static GEPs -- raises
:class:`_Unsupported` during emission and that one *function* silently
falls back to the legacy walker; jit selection is per-function, never
a hard error.

Generated source is self-contained: it defines ``_make(R)`` where ``R``
is a :class:`JitRuntime` bound to one (interpreter, function) pair, and
every constant, instruction handle, global address, builtin handler and
specialized kernel is re-resolved through ``R`` by stable IR
coordinates (block index, instruction index, operand index).  The text
therefore contains no live object references and can be persisted in
the compile cache (``<key>.vpcgen`` sidecars, see
:meth:`repro.core.cache.CompileCache.put_codegen`) and re-bound in a
different process against the identical pickled program.  Sidecars
also carry the marshalled code object, keyed by the interpreter's
bytecode magic, so a warm process skips ``compile()`` as well.
"""

from __future__ import annotations

import marshal
import math
import time
from importlib.util import MAGIC_NUMBER
from types import CodeType
from typing import Dict, List, Optional, Tuple

from ..bigfloat import BigFloat, RNDN, limb_bytes
from ..bigfloat.number import Kind
from ..ir import (
    AllocaInst,
    ArrayType,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    ConstantString,
    ConstantVPFloat,
    FCmpInst,
    FNegInst,
    Function,
    GEPInst,
    GlobalVariable,
    ICmpInst,
    LoadInst,
    PhiInst,
    PointerType,
    RetInst,
    SelectInst,
    StoreInst,
    StructType,
    UndefValue,
    UnreachableInst,
    VPFloatType,
)
from ..observability.tracer import CAT_COMPILE
from . import CODEGEN_VERSION
from .kernels import bind_scalar_kernel

#: vpfloat binary opcodes with an inlinable specialized kernel.
_VP_OPS = {"fadd": "add", "fsub": "sub", "fmul": "mul", "fdiv": "div"}

_INT_SYMS = {"add": "+", "sub": "-", "mul": "*",
             "and": "&", "or": "|", "xor": "^"}
_FLOAT_SYMS = {"fadd": "+", "fsub": "-", "fmul": "*"}
_FLOAT_FIELDS = {"fadd": "f64_add", "fsub": "f64_add",
                 "fmul": "f64_mul", "fdiv": "f64_div", "frem": "f64_div"}
_SIGNED_CMPS = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=",
                "sgt": ">", "sge": ">="}
_UNSIGNED_CMPS = {"ult": "<", "ule": "<=", "ugt": ">", "uge": ">="}

#: Placeholder line marking an OpenMP region boundary inside a block's
#: step stream; _emit_block replaces it with the next charge segment.
_FLUSH_MARKER = "#__vpjit_charge_flush__"


#: ``<vpjit:{function}>`` code filename -> line map of the most recent
#: materialization, for resolving sampled frames back to IR locations.
#: Keyed by filename because that is all ``sys._current_frames`` gives
#: the sampler; two programs sharing a function name overwrite each
#: other (last materialized wins), which profiling one program at a
#: time -- the only supported mode -- never notices.
LINE_MAPS: Dict[str, Dict[int, tuple]] = {}


def _loc_tag(block: str, ii: Optional[int], opcode: Optional[str]) -> tuple:
    """IR-location tag, placed in an emitter's line lists: every line
    after it (until the next tag) came from that (block, instruction
    index, opcode).  emit() drops the tags from the source and turns
    them into a line map -- the substrate the IR profiler's wall-clock
    sampler resolves emitted frames against (see
    repro.observability.profile)."""
    return (block, ii, opcode)

#: MPFR runtime builtins inlined at their call sites (name -> arity).
_MPFR_INLINE = {
    "mpfr_add": 3, "mpfr_sub": 3, "mpfr_mul": 3, "mpfr_div": 3,
    "mpfr_fma": 4, "mpfr_fms": 4, "mpfr_set": 2,
    "mpfr_set_d": 2, "mpfr_set_si": 2,
}


class _Unsupported(Exception):
    """The emitter cannot prove this function static; fall back."""


class _KernelMap(dict):
    """``(prec, exp_bits) -> specialized RNDN kernel`` for one op.

    MPFR handle precisions are runtime values (they flow through
    ``mpfr_init2``), so inlined mpfr call sites key their kernel by the
    destination handle's precision and exponent-range clamp at
    execution time; the dict hit is a single C-level lookup and misses
    specialize on first use.  When the run is observing, misses bind
    counting wrappers.
    """

    def __init__(self, op: str, interp=None):
        super().__init__()
        self.op = op
        self.interp = interp

    def __missing__(self, key):
        prec, exp_bits = key
        kernel = bind_scalar_kernel(
            self.op, prec, exp_bits,
            getattr(self.interp, "kernel_stats", None))
        self[key] = kernel
        return kernel


class JitRuntime:
    """Make-time resolver for one (interpreter, function) pair.

    Emitted modules receive one instance as ``R`` and resolve every
    non-literal prelude binding through it by IR coordinates, so the
    same source text re-binds cleanly against any interpreter running
    the identical program.
    """

    __slots__ = ("interp", "func")

    # Shared runtime references the emitted prelude picks up; class
    # attributes so every generated module sees one set of objects.
    f32 = None          # filled below (module import order)
    trunc_div = None
    VPR = None
    XLE = None
    BigFloat = BigFloat
    KFIN = Kind.FINITE
    RNDN = RNDN
    fmod = math.fmod
    copysign = math.copysign
    inf = math.inf
    nan = math.nan
    limb_bytes = staticmethod(limb_bytes)

    def __init__(self, interp, func: Function):
        self.interp = interp
        self.func = func

    def _inst(self, bi: int, ii: int):
        return self.func.blocks[bi].instructions[ii]

    def inst(self, bi: int, ii: int):
        """The live instruction object at (block, instruction) index."""
        return self._inst(bi, ii)

    def operand(self, bi: int, ii: int, oi: int):
        """Operand ``oi`` of instruction (bi, ii) itself, unresolved."""
        return self._inst(bi, ii).operands[oi]

    def const(self, bi: int, ii: int, oi: int):
        """Resolve operand ``oi`` of instruction (bi, ii) frame-free,
        with the legacy walker's constant semantics."""
        return self._resolve(self._inst(bi, ii).operands[oi])

    def default(self, bi: int, ii: int):
        """The (shared) zero value loads of this instruction produce."""
        return self.interp._default(self._inst(bi, ii).type, None)

    def global_addr(self, name: str) -> int:
        return self.interp.globals[name]

    def function(self, name: str) -> Function:
        return self.interp.module.get_function(name)

    def builtin(self, name: str):
        handler = self.interp._builtins.get(name)
        if handler is None:
            raise KeyError(f"no runtime builtin {name!r}")
        return handler

    def kernel(self, opcode: str, prec: int, exp_bits=None):
        return bind_scalar_kernel(
            _VP_OPS[opcode], prec, exp_bits,
            getattr(self.interp, "kernel_stats", None))

    def mpfr_kernels(self, op: str) -> _KernelMap:
        return _KernelMap(op, self.interp)

    def _resolve(self, v):
        interp = self.interp
        if isinstance(v, ConstantInt):
            return v.value
        if isinstance(v, ConstantFloat):
            value = v.value
            return JitRuntime.f32(value) if v.type.bits == 32 else value
        if isinstance(v, ConstantPointerNull):
            return 0
        if isinstance(v, ConstantString):
            return v.text
        if isinstance(v, UndefValue):
            return interp._default(v.type, None)
        if isinstance(v, Constant):
            return interp._constant(v, None)
        if isinstance(v, GlobalVariable):
            return interp.globals[v.name]
        if isinstance(v, Function):
            return v
        raise TypeError(f"cannot resolve {type(v).__name__} at bind time")


def _bind_runtime_refs() -> None:
    # Deferred import: repro.runtime.interpreter imports this package
    # lazily from inside a method, so importing it back at call time is
    # cycle-free; doing it at module import keeps direct `import
    # repro.codegen.pyjit` working too.
    from ..runtime.interpreter import (ExecutionLimitExceeded,
                                       VPRuntimeError, _f32, _trunc_div)

    JitRuntime.f32 = staticmethod(_f32)
    JitRuntime.trunc_div = staticmethod(_trunc_div)
    JitRuntime.VPR = VPRuntimeError
    JitRuntime.XLE = ExecutionLimitExceeded


_bind_runtime_refs()


# ----------------------------------------------------------------- #
# Emitter
# ----------------------------------------------------------------- #

_PRELUDE = """\
_interp = R.interp
_acct = _interp.accounting
_rep = _acct.report
_chg = _rep.charge
_C = _acct.costs
_c_call = _C.call_overhead
_c_ret = _C.ret
_LIM = _interp.max_steps
_LIMMSG = "exceeded %d interpreted instructions" % _LIM
_mem = _interp.memory
_ml = _mem.load
_ms = _mem.store
_alloc = _mem.alloc_stack
_smark = _mem.stack_mark
_srel = _mem.stack_release
_VPR = R.VPR
_XLE = R.XLE
_BF = R.BigFloat
_FIN = R.KFIN
_AB = _interp._as_bigfloat
_f32 = R.f32
_fcmpv = _interp._fcmp_values
_cast = _interp._cast_value
_call = _interp.call_function
_tdiv = R.trunc_div
_fmod = R.fmod
_copysign = R.copysign
_INF = R.inf
_NAN = R.nan
_mreg = _interp.metrics
_MET = _mreg is not None
if _MET:
    _obs = _mreg.observe
    _minc = _mreg.inc
_mcc = _interp._mpfr_cost_cache
_mopc = _C.mpfr_op_cost
_bcat = _rep.by_category
_mstats = _interp.mpfr.stats
_mbump = _mstats.bump
_lbytes = R.limb_bytes
_lbc = {}
_trace = _acct.trace
_tpush = _trace.append
_TLIM = _acct.trace_limit
_tsync = _acct.sync
_vcst = _interp._mpfr_constant"""


_PRELUDE_LINES = _PRELUDE.splitlines()


class FunctionEmitter:
    """Emits one function's jit module source, or raises _Unsupported."""

    def __init__(self, interp, func: Function):
        self.interp = interp
        self.func = func
        self.names: Dict[int, str] = {}
        self.pool: Dict[int, str] = {}
        self.prelude: List[str] = []
        self._inst_refs: Dict[int, str] = {}
        self._fn_refs: Dict[str, str] = {}
        self._builtin_refs: Dict[str, str] = {}
        self._kernel_refs: Dict[Tuple[str, int, Optional[int]], str] = {}
        self._mpfr_map_refs: Dict[str, str] = {}
        #: builtin name -> per-module helper name, and the helpers'
        #: source (see _emit_mpfr_builtin).
        self._mpfr_helpers: Dict[str, str] = {}
        self._helper_lines: List[str] = []
        self._default_refs: Dict[int, str] = {}
        # Current block accumulators.  Charges are bulk-counted per
        # block but flushed into *segments* at OpenMP region markers so
        # parallel-region attribution matches the per-instruction
        # engines (see _emit_call).
        self._charges: Dict[str, Dict[str, int]] = {}
        self._mid_flushes: List[Dict[str, Dict[str, int]]] = []
        self._block_segments: List[Dict[str, Dict[str, int]]] = []
        self._tele_bits: Dict[Tuple[str, int], int] = {}
        #: 1-based emitted-source line -> (block, inst index, opcode);
        #: filled by emit().
        self.line_map: Dict[int, tuple] = {}

    # ---- static analysis helpers --------------------------------- #

    def _static_sizeof(self, type_) -> Optional[int]:
        try:
            return self.interp._sizeof(type_, None)
        except Exception:
            return None

    def _vp_static_ok(self, type_) -> bool:
        """True if no dynamic vpfloat attribute can be reached when the
        runtime resolves this type without a frame."""
        if isinstance(type_, VPFloatType):
            attrs = [a for a in (type_.exp_attr, type_.prec_attr,
                                 getattr(type_, "size_attr", None))
                     if a is not None]
            if not all(isinstance(a, ConstantInt) for a in attrs):
                return False
            try:
                self.interp.vp_config(type_, None)
            except Exception:
                # Statically invalid attrs: fall back so the legacy
                # walker surfaces the validation error at execution.
                return False
            return True
        if isinstance(type_, ArrayType):
            return self._vp_static_ok(type_.element)
        if isinstance(type_, StructType):
            return all(self._vp_static_ok(f) for f in type_.fields)
        return True

    # ---- operand references -------------------------------------- #

    def ref(self, v, bi: int, ii: int, oi: int) -> str:
        name = self.names.get(id(v))
        if name is not None:
            return name
        if isinstance(v, ConstantInt):
            return repr(v.value)
        if isinstance(v, ConstantPointerNull):
            return "0"
        if isinstance(v, ConstantFloat):
            value = JitRuntime.f32(v.value) if v.type.bits == 32 \
                else v.value
            if math.isfinite(value):
                return repr(value)
            return self._pool(v, bi, ii, oi)
        if isinstance(v, ConstantVPFloat):
            if not self._vp_static_ok(v.type):
                return self._dynamic_constant(v, bi, ii, oi)
            return self._pool(v, bi, ii, oi)
        if isinstance(v, UndefValue):
            try:
                self.interp._default(v.type, None)
            except Exception:
                raise _Unsupported("dynamic undef type") from None
            return self._pool(v, bi, ii, oi)
        if isinstance(v, (Constant, GlobalVariable, Function)):
            return self._pool(v, bi, ii, oi)
        raise _Unsupported(f"unsupported operand {type(v).__name__}")

    def _dynamic_constant(self, v, bi: int, ii: int, oi: int) -> str:
        """A vpfloat literal whose attributes are SSA values: rounded at
        their current values on every evaluation (memoized per
        constant and precision by the interpreter, which also raises
        the walker's error for out-of-range attributes)."""
        if v.type.format != "mpfr":
            raise _Unsupported("dynamic vpfloat constant")
        attrs = []
        for attr in (v.type.exp_attr, v.type.prec_attr):
            if isinstance(attr, ConstantInt):
                attrs.append(repr(attr.value))
            elif id(attr) in self.names:
                attrs.append(f"int({self.names[id(attr)]})")
            else:
                raise _Unsupported("dynamic vpfloat constant")
        name = self.pool.get(id(v))
        if name is None:
            name = f"k{len(self.pool)}"
            self.pool[id(v)] = name
            self.prelude.append(f"{name} = R.operand({bi}, {ii}, {oi})")
        return f"_vcst({name}, {attrs[0]}, {attrs[1]})"

    def _pool(self, v, bi: int, ii: int, oi: int) -> str:
        name = self.pool.get(id(v))
        if name is None:
            name = f"k{len(self.pool)}"
            self.pool[id(v)] = name
            self.prelude.append(f"{name} = R.const({bi}, {ii}, {oi})")
        return name

    def _inst_ref(self, inst, bi: int, ii: int) -> str:
        name = self._inst_refs.get(id(inst))
        if name is None:
            name = f"_i{len(self._inst_refs)}"
            self._inst_refs[id(inst)] = name
            self.prelude.append(f"{name} = R.inst({bi}, {ii})")
        return name

    def _fn_ref(self, func: Function) -> str:
        name = self._fn_refs.get(func.name)
        if name is None:
            name = f"_f{len(self._fn_refs)}"
            self._fn_refs[func.name] = name
            self.prelude.append(f"{name} = R.function({func.name!r})")
        return name

    def _builtin_ref(self, bname: str) -> str:
        name = self._builtin_refs.get(bname)
        if name is None:
            name = f"_h{len(self._builtin_refs)}"
            self._builtin_refs[bname] = name
            self.prelude.append(f"{name} = R.builtin({bname!r})")
        return name

    def _kernel_ref(self, opcode: str, prec: int,
                    exp_bits: Optional[int] = None) -> str:
        key = (opcode, prec, exp_bits)
        name = self._kernel_refs.get(key)
        if name is None:
            name = f"_k{len(self._kernel_refs)}"
            self._kernel_refs[key] = name
            self.prelude.append(
                f"{name} = R.kernel({opcode!r}, {prec}, {exp_bits})")
        return name

    def _mpfr_map_ref(self, op: str) -> str:
        name = self._mpfr_map_refs.get(op)
        if name is None:
            name = f"_mk{len(self._mpfr_map_refs)}"
            self._mpfr_map_refs[op] = name
            self.prelude.append(f"{name} = R.mpfr_kernels({op!r})")
        return name

    def _default_ref(self, inst, bi: int, ii: int) -> str:
        name = self._default_refs.get(id(inst))
        if name is None:
            name = f"_d{len(self._default_refs)}"
            self._default_refs[id(inst)] = name
            self.prelude.append(f"{name} = R.default({bi}, {ii})")
        return name

    # ---- per-block accounting ------------------------------------ #

    def _charge(self, category: str, field: str, mult: int = 1) -> None:
        per_field = self._charges.setdefault(category, {})
        per_field[field] = per_field.get(field, 0) + mult

    def _vp_telemetry(self, opcode: str, prec: int) -> None:
        key = (opcode, prec)
        self._tele_bits[key] = self._tele_bits.get(key, 0) + 1

    # ---- entry point --------------------------------------------- #

    def emit(self) -> str:
        func = self.func
        blocks = list(func.blocks)
        if not blocks:
            raise _Unsupported("function has no blocks")
        self.block_index = {id(b): i for i, b in enumerate(blocks)}
        entry_index = self.block_index.get(id(func.entry))
        if entry_index is None:
            raise _Unsupported("entry block not in block list")
        for i, arg in enumerate(func.args):
            self.names[id(arg)] = f"a{i}"
        n = 0
        for block in blocks:
            for inst in block.instructions:
                self.names[id(inst)] = f"v{n}"
                n += 1

        charge_defs: List[str] = []
        block_chunks: List[List[str]] = []
        for bi, block in enumerate(blocks):
            lines = self._emit_block(block, bi, blocks)
            block_chunks.append(lines)
            for seg, charges in enumerate(self._block_segments):
                prefix = f"_q{bi}" if seg == 0 else f"_q{bi}s{seg}"
                for category in sorted(charges):
                    terms = []
                    for field in sorted(charges[category]):
                        count = charges[category][field]
                        terms.append(f"_C.{field}" if count == 1
                                     else f"_C.{field} * {count}")
                    charge_defs.append(f"{prefix}_{category} = "
                                       + " + ".join(terms))

        params = ", ".join(f"a{i}" for i in range(len(func.args)))
        out: List[str] = [
            f"# vpjit v{CODEGEN_VERSION}: function {func.name!r}",
            "# Auto-generated by repro.codegen.pyjit -- straight-line"
            " Python with SSA",
            "# values in locals and per-block bulk cycle accounting;"
            " do not edit.",
            "",
            "def _make(R):",
        ]
        # 1-based line of the final source -> (block, inst index,
        # opcode), from the location tags in the line lists.
        line_map: Dict[int, tuple] = {}
        current: Optional[tuple] = None

        def put(indent: str, lines) -> None:
            nonlocal current
            for line in lines:
                if line.__class__ is tuple:
                    current = line
                    continue
                out.append(indent + line if line else "")
                if current is not None:
                    line_map[len(out)] = current

        put("    ", _PRELUDE_LINES)
        put("    ", self.prelude)
        put("    ", charge_defs)
        put("    ", self._helper_lines)
        # Hot-block attribution for traced runs: the traced call path
        # installs a counts dict on the interpreter for the duration of
        # the call; untraced runs pay one None-check per block.
        put("    ", ["",
                     f"def _fn({params}):",
                     _loc_tag("<fn>", None, None),
                     '    _chg("call", _c_call)',
                     "    _mark = _smark()",
                     f"    _bb = {entry_index}",
                     "    _cnt = _interp._block_counts",
                     "    while True:"])
        for bi, lines in enumerate(block_chunks):
            name = blocks[bi].name
            put("            ", [_loc_tag(name, None, None),
                                 f"{'if' if bi == 0 else 'elif'} "
                                 f"_bb == {bi}:",
                                 "    if _cnt is not None:",
                                 f"        _cnt[{name!r}] = "
                                 f"_cnt.get({name!r}, 0) + 1"])
            put("                ", lines)
            # Drop each chunk once copied: the unindented lines and
            # the final ones are never all alive at once.
            block_chunks[bi] = None
        current = None
        put("    ", ["        else:",
                     '            raise _VPR("vpjit: unknown block id")',
                     "",
                     "return _fn",
                     ""])
        self.line_map = line_map
        return "\n".join(out)

    # ---- blocks -------------------------------------------------- #

    def _emit_block(self, block, bi: int, blocks) -> List[str]:
        self._charges = {}
        self._mid_flushes = []
        self._tele_bits = {}
        body: List = []
        term = None
        count = 0
        for ii, inst in enumerate(block.instructions):
            if isinstance(inst, PhiInst):
                continue
            count += 1
            if isinstance(inst, (BranchInst, RetInst, UnreachableInst)):
                term = (inst, ii)
            else:
                body.append((inst, ii))

        step_lines: List[str] = []
        for inst, ii in body:
            step_lines.append(_loc_tag(block.name, ii, inst.opcode))
            self._emit_step(inst, bi, ii, step_lines)
        term_lines = []
        if term is not None:
            term_lines.append(_loc_tag(block.name, term[1],
                                       term[0].opcode))
        term_lines.extend(self._emit_terminator(block, term, bi, blocks))

        # Segment the block's bulk charges at OpenMP region markers:
        # segment 0 is charged at block entry, segment k right after
        # the k-th marker call, matching where the per-instruction
        # engines charge relative to parallel_begin/parallel_end.
        self._block_segments = self._mid_flushes + [self._charges]
        if self._mid_flushes:
            expanded: List[str] = []
            seg = 0
            for line in step_lines:
                if line == _FLUSH_MARKER:
                    seg += 1
                    for category in sorted(self._block_segments[seg]):
                        expanded.append(
                            f'_chg({category!r}, _q{bi}s{seg}_{category})')
                else:
                    expanded.append(line)
            step_lines = expanded

        lines = [
            _loc_tag(block.name, None, None),
            f"_n = _interp.steps + {count}",
            "_interp.steps = _n",
            "if _n > _LIM:",
            "    raise _XLE(_LIMMSG)",
            f"_rep.instructions += {count}",
        ]
        for category in sorted(self._block_segments[0]):
            lines.append(f'_chg({category!r}, _q{bi}_{category})')
        if self._tele_bits:
            rounding_key = "precision.rounding." + RNDN.value
            total = sum(self._tele_bits.values())
            lines.append("if _MET:")
            for (opcode, prec) in sorted(self._tele_bits):
                n = self._tele_bits[(opcode, prec)]
                lines.append(f'    _obs("precision.op.{opcode}.bits", '
                             f"{prec}, {n})")
            lines.append(f'    _minc({rounding_key!r}, {total})')
        lines.extend(step_lines)
        lines.extend(term_lines)
        return lines

    def _phi_moves(self, cur_block, target) -> List[str]:
        tbi = self.block_index[id(target)]
        lhs: List[str] = []
        rhs: List[str] = []
        for tii, phi in enumerate(target.instructions):
            if not isinstance(phi, PhiInst):
                continue
            for j, pred in enumerate(phi.incoming_blocks):
                if pred is cur_block:
                    lhs.append(self.names[id(phi)])
                    rhs.append(self.ref(phi.operands[j], tbi, tii, j))
        if not lhs:
            return []
        return [f"{', '.join(lhs)} = {', '.join(rhs)}"]

    def _emit_terminator(self, block, term, bi: int, blocks) -> List[str]:
        if term is None:
            msg = f"block {block.name} fell off the end"
            return [f"raise _VPR({msg!r})"]
        inst, ii = term
        if isinstance(inst, RetInst):
            value = "None" if inst.value is None \
                else self.ref(inst.value, bi, ii, 0)
            return ["_srel(_mark)", '_chg("ret", _c_ret)',
                    f"return {value}"]
        if isinstance(inst, BranchInst):
            self._charge("branch", "branch")
            if inst.is_conditional:
                cond = self.ref(inst.condition, bi, ii, 0)
                then_i = self.block_index[id(inst.targets[0])]
                else_i = self.block_index[id(inst.targets[1])]
                lines = [f"if {cond}:"]
                for move in self._phi_moves(block, inst.targets[0]):
                    lines.append("    " + move)
                lines.append(f"    _bb = {then_i}")
                lines.append("else:")
                for move in self._phi_moves(block, inst.targets[1]):
                    lines.append("    " + move)
                lines.append(f"    _bb = {else_i}")
                lines.append("continue")
                return lines
            target_i = self.block_index[id(inst.targets[0])]
            lines = self._phi_moves(block, inst.targets[0])
            lines.append(f"_bb = {target_i}")
            lines.append("continue")
            return lines
        # UnreachableInst
        return ['raise _VPR("executed unreachable instruction")']

    # ---- steps --------------------------------------------------- #

    def _emit_step(self, inst, bi: int, ii: int, out: List[str]) -> None:
        if isinstance(inst, BinaryInst):
            self._emit_binary(inst, bi, ii, out)
        elif isinstance(inst, CallInst):
            self._emit_call(inst, bi, ii, out)
        elif isinstance(inst, LoadInst):
            self._emit_load(inst, bi, ii, out)
        elif isinstance(inst, StoreInst):
            self._emit_store(inst, bi, ii, out)
        elif isinstance(inst, GEPInst):
            self._emit_gep(inst, bi, ii, out)
        elif isinstance(inst, ICmpInst):
            self._emit_icmp(inst, bi, ii, out)
        elif isinstance(inst, FCmpInst):
            self._emit_fcmp(inst, bi, ii, out)
        elif isinstance(inst, CastInst):
            self._emit_cast(inst, bi, ii, out)
        elif isinstance(inst, AllocaInst):
            self._emit_alloca(inst, bi, ii, out)
        elif isinstance(inst, FNegInst):
            self._emit_fneg(inst, bi, ii, out)
        elif isinstance(inst, SelectInst):
            self._emit_select(inst, bi, ii, out)
        else:
            raise _Unsupported(f"unsupported instruction {inst.opcode}")

    def _emit_binary(self, inst: BinaryInst, bi, ii, out) -> None:
        a = self.ref(inst.lhs, bi, ii, 0)
        b = self.ref(inst.rhs, bi, ii, 1)
        if inst.type.is_vpfloat:
            self._emit_vp_binary(inst, a, b, out)
        elif inst.type.is_float:
            self._emit_float_binary(inst, a, b, out)
        else:
            self._emit_int_binary(inst, a, b, out)

    def _emit_vp_binary(self, inst: BinaryInst, a, b, out) -> None:
        name = self.names[id(inst)]
        op = inst.opcode
        vptype = inst.type
        if op not in _VP_OPS:
            msg = f"{op} unsupported on vpfloat"
            out.append(f"raise _VPR({msg!r})")
            return
        if not self._vp_static_ok(vptype):
            raise _Unsupported("dynamic vpfloat attributes")
        prec = self.interp.vp_config(vptype, None)[0]
        self._charge("vpfloat_native", "f64_other", max(1, prec // 64))
        self._vp_telemetry(op, prec)
        if vptype.format == "mpfr":
            # The destination format's exponent-range clamp is folded
            # into the kernel; no per-op clamp block.
            kernel = self._kernel_ref(op, prec, vptype.exp_attr.value)
        else:  # unum: exact intermediate, no per-op re-encoding
            kernel = self._kernel_ref(op, prec)
        out.append(f"{name} = {kernel}(_AB({a}, {prec}), "
                   f"_AB({b}, {prec}))")

    def _emit_float_binary(self, inst: BinaryInst, a, b, out) -> None:
        name = self.names[id(inst)]
        op = inst.opcode
        field = _FLOAT_FIELDS.get(op)
        if field is None:
            raise _Unsupported(f"float op {op}")
        self._charge("f64", field)
        narrow = inst.type.bits == 32
        if op in _FLOAT_SYMS:
            expr = f"{a} {_FLOAT_SYMS[op]} {b}"
        elif op == "frem":
            expr = f"_fmod({a}, {b})"
        else:  # fdiv with C-style inf/nan on division by zero
            out.append(f"_x = {a}")
            out.append(f"_y = {b}")
            expr = ("_x / _y if _y != 0.0 else "
                    "(_copysign(_INF, _x) if _x != 0.0 else _NAN)")
        out.append(f"{name} = _f32({expr})" if narrow
                   else f"{name} = {expr}")

    def _emit_int_binary(self, inst: BinaryInst, a, b, out) -> None:
        name = self.names[id(inst)]
        op = inst.opcode
        bits = inst.type.bits
        umask = (1 << bits) - 1
        shmask = bits - 1
        self._charge("int", "int_op")

        def adjust():
            if bits > 1:
                out.append(f"if {name} >= {1 << (bits - 1)}:")
                out.append(f"    {name} -= {1 << bits}")

        if op in _INT_SYMS:
            out.append(f"{name} = ({a} {_INT_SYMS[op]} {b}) & {umask}")
            adjust()
        elif op in ("sdiv", "srem"):
            msg = ("integer division by zero" if op == "sdiv"
                   else "integer remainder by zero")
            out.append(f"_x = {a}")
            out.append(f"_y = {b}")
            out.append("if _y == 0:")
            out.append(f"    raise _VPR({msg!r})")
            if op == "sdiv":
                out.append(f"{name} = _tdiv(_x, _y) & {umask}")
            else:
                out.append(f"{name} = (_x - _tdiv(_x, _y) * _y) & {umask}")
            adjust()
        elif op in ("udiv", "urem"):
            msg = ("integer division by zero" if op == "udiv"
                   else "integer remainder by zero")
            out.append(f"_x = {a} & {umask}")
            out.append(f"_y = {b} & {umask}")
            out.append("if _y == 0:")
            out.append(f"    raise _VPR({msg!r})")
            out.append(f"{name} = _x {'%' if op == 'urem' else '//'} _y")
            adjust()
        elif op == "shl":
            out.append(f"{name} = ({a} << ({b} & {shmask})) & {umask}")
            adjust()
        elif op == "ashr":
            out.append(f"{name} = ({a} >> ({b} & {shmask})) & {umask}")
            adjust()
        elif op == "lshr":
            out.append(f"{name} = ({a} & {umask}) >> ({b} & {shmask})")
            adjust()
        else:
            raise _Unsupported(f"integer op {op}")

    def _emit_load(self, inst: LoadInst, bi, ii, out) -> None:
        nbytes = self._static_sizeof(inst.type)
        if nbytes is None:
            raise _Unsupported("dynamic load size")
        try:
            self.interp._default(inst.type, None)
        except Exception:
            raise _Unsupported("dynamic load default") from None
        default = self._default_ref(inst, bi, ii)
        pointer = self.ref(inst.pointer, bi, ii, 0)
        name = self.names[id(inst)]
        out.append(f"{name} = _ml(int({pointer}), {nbytes}, {default})")

    def _emit_store(self, inst: StoreInst, bi, ii, out) -> None:
        nbytes = self._static_sizeof(inst.value.type)
        if nbytes is None:
            raise _Unsupported("dynamic store size")
        value = self.ref(inst.value, bi, ii, 0)
        pointer = self.ref(inst.pointer, bi, ii, 1)
        out.append(f"_ms(int({pointer}), {value}, {nbytes})")

    def _emit_alloca(self, inst: AllocaInst, bi, ii, out) -> None:
        elem = self._static_sizeof(inst.allocated_type)
        if elem is None:
            raise _Unsupported("dynamic alloca element size")
        name = self.names[id(inst)]
        self._charge("alloca", "int_op")
        if inst.count is None:
            out.append(f"{name} = _alloc({elem})")
            return
        count = self.ref(inst.count, bi, ii, 0)
        out.append(f"_x = int({count})")
        out.append("if _x < 0:")
        out.append('    raise _VPR("negative VLA extent")')
        out.append(f"{name} = _alloc({elem} * (_x if _x > 1 else 1))")

    def _emit_gep(self, inst: GEPInst, bi, ii, out) -> None:
        pointee = inst.pointer.type.pointee
        stride0 = self._static_sizeof(pointee)
        if stride0 is None:
            raise _Unsupported("dynamic gep pointee")
        const_offset = 0
        terms: List[Tuple[str, int]] = []
        indices = inst.indices
        if isinstance(indices[0], ConstantInt):
            const_offset += indices[0].value * stride0
        else:
            terms.append((self.ref(indices[0], bi, ii, 1), stride0))
        current = pointee
        for m, index in enumerate(indices[1:], start=1):
            if isinstance(current, ArrayType):
                stride = self._static_sizeof(current.element)
                if stride is None:
                    raise _Unsupported("dynamic gep stride")
                if isinstance(index, ConstantInt):
                    const_offset += index.value * stride
                else:
                    terms.append((self.ref(index, bi, ii, 1 + m), stride))
                current = current.element
            elif isinstance(current, StructType):
                if not isinstance(index, ConstantInt):
                    raise _Unsupported("dynamic struct gep index")
                try:
                    const_offset += current.field_offset(index.value)
                except Exception:
                    raise _Unsupported("bad struct gep index") from None
                current = current.fields[index.value]
            else:
                raise _Unsupported("gep into scalar")
        pointer = self.ref(inst.pointer, bi, ii, 0)
        parts = [f"int({pointer})"]
        if const_offset:
            parts.append(repr(const_offset))
        for expr, stride in terms:
            parts.append(f"int({expr})" if stride == 1
                         else f"int({expr}) * {stride}")
        name = self.names[id(inst)]
        self._charge("addr", "int_op")
        out.append(f"{name} = " + " + ".join(parts))

    def _emit_icmp(self, inst: ICmpInst, bi, ii, out) -> None:
        a = self.ref(inst.operands[0], bi, ii, 0)
        b = self.ref(inst.operands[1], bi, ii, 1)
        pred = inst.predicate
        if pred in _SIGNED_CMPS:
            expr = f"{a} {_SIGNED_CMPS[pred]} {b}"
        elif pred in _UNSIGNED_CMPS:
            bits = (inst.operands[0].type.bits
                    if inst.operands[0].type.is_integer else 64)
            umask = (1 << bits) - 1
            expr = (f"({a} & {umask}) {_UNSIGNED_CMPS[pred]} "
                    f"({b} & {umask})")
        else:
            raise _Unsupported(f"icmp predicate {pred}")
        name = self.names[id(inst)]
        self._charge("icmp", "int_op")
        out.append(f"{name} = 1 if {expr} else 0")

    def _emit_fcmp(self, inst: FCmpInst, bi, ii, out) -> None:
        a = self.ref(inst.operands[0], bi, ii, 0)
        b = self.ref(inst.operands[1], bi, ii, 1)
        name = self.names[id(inst)]
        self._charge("fcmp", "f64_other")
        out.append(f"{name} = _fcmpv({a}, {b}, {inst.predicate!r})")

    def _emit_cast(self, inst: CastInst, bi, ii, out) -> None:
        for type_ in (inst.type, inst.source.type):
            if not self._vp_static_ok(type_):
                raise _Unsupported("dynamic vpfloat cast")
        source = self.ref(inst.source, bi, ii, 0)
        name = self.names[id(inst)]
        self._charge("cast", "int_op")
        opcode = inst.opcode
        target = inst.type
        # The simple conversions transcribe _cast_value's static cases
        # directly; everything else (fptosi, vpconv) keeps the shared
        # runtime path.
        if opcode == "zext":
            src_bits = inst.source.type.bits
            out.append(f"{name} = {source} & {(1 << src_bits) - 1}")
            return
        if opcode in ("sext", "trunc"):
            bits = target.bits
            out.append(f"{name} = int({source}) & {(1 << bits) - 1}")
            if bits > 1:
                out.append(f"if {name} >= {1 << (bits - 1)}:")
                out.append(f"    {name} -= {1 << bits}")
            return
        if opcode == "bitcast":
            out.append(f"{name} = {source}")
            return
        if opcode in ("ptrtoint", "inttoptr"):
            out.append(f"{name} = int({source})")
            return
        if opcode in ("sitofp", "uitofp"):
            if target.is_vpfloat:
                prec = self.interp.vp_config(target, None)[0]
                out.append(f"{name} = _BF.from_int(int({source}), "
                           f"{prec})")
            elif target.bits == 32:
                out.append(f"{name} = _f32(float(int({source})))")
            else:
                out.append(f"{name} = float(int({source}))")
            return
        elif opcode in ("fpext", "fptrunc"):
            if target.bits == 32:
                out.append(f"{name} = _f32({source})")
            else:
                out.append(f"{name} = float({source})")
            return
        handle = self._inst_ref(inst, bi, ii)
        out.append(f"{name} = _cast({handle}, {source}, None)")

    def _emit_fneg(self, inst: FNegInst, bi, ii, out) -> None:
        a = self.ref(inst.operands[0], bi, ii, 0)
        name = self.names[id(inst)]
        self._charge("fneg", "f64_other")
        if inst.type.is_float and inst.type.bits == 32:
            out.append(f"_x = {a}")
            out.append(f"{name} = -_x if isinstance(_x, _BF) "
                       f"else _f32(-_x)")
        else:
            out.append(f"{name} = -{a}")

    def _emit_select(self, inst: SelectInst, bi, ii, out) -> None:
        cond = self.ref(inst.condition, bi, ii, 0)
        tv = self.ref(inst.true_value, bi, ii, 1)
        fv = self.ref(inst.false_value, bi, ii, 2)
        name = self.names[id(inst)]
        self._charge("select", "int_op")
        out.append(f"{name} = {tv} if {cond} else {fv}")

    def _emit_call(self, inst: CallInst, bi, ii, out) -> None:
        if not self._vp_static_ok(inst.type):
            raise _Unsupported("dynamic vpfloat call result")
        for operand in inst.operands:
            # Dynamic literals are rounded in place (see ref); any other
            # dynamic-typed operand may reach a handler that resolves
            # its type, which needs the frame the jit does not keep.
            if not (isinstance(operand, ConstantVPFloat)
                    or self._vp_static_ok(operand.type)):
                raise _Unsupported("dynamic vpfloat call operand")
        args = [self.ref(a, bi, ii, i)
                for i, a in enumerate(inst.operands)]
        name = self.names[id(inst)]
        callee = inst.callee
        if isinstance(callee, Function) and not callee.is_declaration:
            fn = self._fn_ref(callee)
            out.append(f"{name} = _call({fn}, [{', '.join(args)}])")
            return
        bname = callee.name if isinstance(callee, Function) \
            else str(callee)
        if bname not in self.interp._builtins:
            raise _Unsupported(f"unknown builtin {bname}")
        if bname in _MPFR_INLINE and len(args) == _MPFR_INLINE[bname]:
            self._emit_mpfr_builtin(inst, bname, args, out)
            return
        handler = self._builtin_ref(bname)
        # Only the vpfloat math family reads its call instruction (for
        # the result type); every other handler gets None, as it does
        # from Interpreter.call_function.
        handle = self._inst_ref(inst, bi, ii) if bname.startswith("vp.") \
            else "None"
        out.append(f"{name} = {handler}([{', '.join(args)}], "
                   f"{handle}, None)")
        if bname in ("__omp_parallel_begin", "__omp_parallel_end"):
            # Region boundary: cycles accumulated so far stay in the
            # current charge segment (emitted before this call); start
            # a fresh segment emitted right after it, so the cost model
            # attributes this block's remaining cycles to the correct
            # side of the parallel region.
            self._mid_flushes.append(self._charges)
            self._charges = {}
            out.append(_FLUSH_MARKER)

    # ---- inlined mpfr builtins ----------------------------------- #
    #
    # The MPFR handlers are the hottest path of lowered kernels; the
    # bodies below are verbatim transcriptions of the installed
    # handlers (interpreter._install_mpfr_builtins) and the backing
    # MpfrLibrary methods, with the call layers flattened and the
    # generic arith kernel replaced by the precision-specialized one.
    # Each body is emitted once per module, as a helper nested in
    # ``_make`` that every call site of that builtin calls.  Every cold
    # or failing case (uninitialized handle, use after clear) delegates
    # to the installed handler so error types and messages stay
    # byte-identical (these handlers never read their ``inst``).

    def _emit_mpfr_builtin(self, inst, bname, args, out) -> None:
        helper = self._mpfr_helpers.get(bname)
        if helper is None:
            helper = f"_b{len(self._mpfr_helpers)}"
            self._mpfr_helpers[bname] = helper
            self._helper_lines.extend(self._mpfr_helper(helper, bname))
        out.append(f"{self.names[id(inst)]} = {helper}({', '.join(args)})")

    def _mpfr_helper(self, helper: str, bname: str) -> List[str]:
        op = bname[5:]  # mpfr_<op>
        params = [f"a{i}" for i in range(_MPFR_INLINE[bname])]
        handles = ["_x", "_y", "_z", "_w"][:1 if op in ("set_d", "set_si")
                                           else len(params)]
        lines = [f"def {helper}({', '.join(params)}):"]
        for var, param in zip(handles, params):
            lines.append(f"    {var} = _ml(int({param}), 8)")
        none = " or ".join(f"{var} is None" for var in handles)
        alive = " and ".join(f"{var}.alive" for var in handles)
        lines.append(f"    if {none} or not ({alive}):")
        lines.append(f"        return {self._builtin_ref(bname)}"
                     f"([{', '.join(params)}], None, None)")
        lines.append("    _p = _x.prec")
        if op in ("add", "sub", "mul", "div", "fma", "fms"):
            # Fused kernel with the destination handle's exponent-range
            # clamp folded in; no per-call clamp.
            operands = ", ".join(f"{var}.value" for var in handles[1:])
            lines.append(f"    _x.value = {self._mpfr_map_ref(op)}"
                         f"[_p, _x.exp_bits]({operands})")
            lines.append("    _mstats.ops += 1")
        elif op == "set":
            lines.append("    _x.value = _y.value.round_to(_p)")
            lines.append("    _mstats.sets += 1")
        else:  # set_d / set_si
            ctor = "_BF.from_float" if op == "set_d" else "_BF.from_int"
            lines.append(f"    _x.value = {ctor}(a1, _p)")
            lines.append("    _mstats.sets += 1")
        lines.append(f"    _mbump({bname!r})")
        # Limb traffic: the sources are read, then the destination is
        # written (the installed handlers' touch_limbs order).
        for var in handles[1:] + ["_x"]:
            lines.append(f"    _pv = {var}.prec")
            lines.append("    _nb = _lbc.get(_pv)")
            lines.append("    if _nb is None:")
            lines.append("        _nb = _lbytes(_pv)")
            lines.append("        _lbc[_pv] = _nb")
            lines.append(f"    _tpush(({var}.limb_addr, _nb))")
        lines.append("    if len(_trace) >= _TLIM:")
        lines.append("        _tsync()")
        lines.append("    _rep.mpfr_calls += 1")
        lines.append(f"    _cy = _mcc.get(({bname!r}, _p))")
        lines.append("    if _cy is None:")
        lines.append(f"        _cy = _mopc({bname!r}, _p)")
        lines.append(f"        _mcc[({bname!r}, _p)] = _cy")
        lines.append("    _rep.cycles += _cy")
        lines.append('    _bcat["mpfr"] += _cy')
        lines.append("    if _MET:")
        lines.append('        _obs("precision.mpfr.bits", _p)')
        return lines


def emit_function_source(interp, func: Function
                         ) -> Tuple[Optional[str], Optional[str]]:
    """(source, None) when ``func`` is jit-able, else (None, reason)."""
    try:
        return FunctionEmitter(interp, func).emit(), None
    except _Unsupported as e:
        return None, str(e)


# ----------------------------------------------------------------- #
# Store + engine
# ----------------------------------------------------------------- #

#: Bytecode magic of this interpreter, stamped on persisted code
#: objects: marshal's format is only stable within one magic.
_MAGIC = MAGIC_NUMBER.hex()


def _load_code(record: dict):
    """-> (code object, None) from a sidecar record's marshalled code,
    or (None, reason) with reason None (nothing persisted), "magic",
    "garbled" or "not-code".  Never raises."""
    blob = record.get("code")
    if blob is None:
        return None, None
    if record.get("magic") != _MAGIC:
        return None, "magic"
    try:
        code = marshal.loads(bytes.fromhex(blob))
    except Exception:
        return None, "garbled"
    if not isinstance(code, CodeType):
        return None, "not-code"
    return code, None


class CodegenStore:
    """Per-program store of codegen artifacts (status, reason, source,
    code object).

    Backed by a :class:`~repro.core.cache.CompileCache` ``.vpcgen``
    sidecar when the program came through the compile cache, so warm
    processes skip re-emission and recompilation entirely; otherwise
    purely in-memory (still skipping both across runs of one program
    object).  Code objects and line maps are held in-process in
    :attr:`codes` and :attr:`line_maps`, outside the records: the
    sidecar's text forms of both exist only while it is written.
    """

    def __init__(self, cache=None, key: Optional[str] = None):
        self.cache = cache
        self.key = key
        self.records: Dict[str, dict] = {}
        self.codes: Dict[str, CodeType] = {}
        self.line_maps: Dict[str, Dict[int, tuple]] = {}
        self._loaded = False

    def _load(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        if self.cache is None or self.key is None:
            return
        payload = self.cache.get_codegen(self.key)
        if payload:
            functions = payload.get("functions", {})
            if not isinstance(functions, dict):
                return
            for name, record in functions.items():
                # Defence in depth: get_codegen validates sidecar
                # structure, but a store can also be fed a payload
                # directly -- never admit a record _materialize would
                # crash on.
                if (isinstance(record, dict)
                        and record.get("status") in ("jit", "fallback")):
                    self.records.setdefault(name, record)

    def lookup(self, name: str) -> Optional[dict]:
        self._load()
        return self.records.get(name)

    def forget(self, name: str) -> None:
        self._load()
        self.records.pop(name, None)
        self.codes.pop(name, None)
        self.line_maps.pop(name, None)

    def record(self, name: str, status: str, reason: Optional[str] = None,
               source: Optional[str] = None,
               line_map: Optional[Dict[int, tuple]] = None,
               code: Optional[CodeType] = None) -> None:
        self._load()
        self.records[name] = {"status": status, "reason": reason,
                              "source": source}
        if line_map:
            self.line_maps[name] = line_map
        if code is not None:
            self.codes[name] = code
        if self.cache is not None and self.key is not None:
            self.cache.put_codegen(self.key, {
                "version": CODEGEN_VERSION,
                "functions": {fn: self._persisted(fn, rec)
                              for fn, rec in self.records.items()},
            })

    def _persisted(self, name: str, record: dict) -> dict:
        """``record`` as written to the sidecar: with its line map
        (JSON stringifies the line numbers) and the marshalled code
        object when they are in hand."""
        extra = {}
        line_map = self.line_maps.get(name)
        if line_map:
            extra["line_map"] = {str(lineno): list(loc)
                                 for lineno, loc in line_map.items()}
        code = self.codes.get(name)
        if code is not None:
            extra["code"] = marshal.dumps(code).hex()
            extra["magic"] = _MAGIC
        return dict(record, **extra) if extra else record

    def statuses(self) -> Dict[str, dict]:
        """name -> {status, reason} for everything decided so far."""
        self._load()
        return {name: {"status": r["status"], "reason": r["reason"]}
                for name, r in self.records.items()}


class JitEngine:
    """Per-interpreter jit front door: ``entry(func)`` returns the
    specialized callable, or None when the function fell back."""

    def __init__(self, interp, store: Optional[CodegenStore] = None):
        self.interp = interp
        self.store = store if store is not None else CodegenStore()
        self._entries: Dict[int, Optional[object]] = {}

    def entry(self, func: Function):
        cached = self._entries.get(id(func), self)
        if cached is not self:
            return cached
        tracer = self.interp.tracer
        if tracer is not None:
            with tracer.span(f"codegen:{func.name}",
                             cat=CAT_COMPILE) as span:
                entry, status, reason, was_cached = \
                    self._materialize(func)
                span.args["cached"] = was_cached
                span.args["status"] = status
                if reason:
                    span.args["reason"] = reason
        else:
            entry, status, reason, was_cached = self._materialize(func)
        metrics = self.interp.metrics
        if metrics is not None:
            if status == "jit":
                metrics.inc("codegen.functions.jit")
                metrics.inc(f"codegen.fn.{func.name}.jit")
            else:
                slug = (reason or "unknown").replace(" ", "-")
                metrics.inc("codegen.functions.fallback")
                metrics.inc(f"codegen.fn.{func.name}.fallback.{slug}")
        self._entries[id(func)] = entry
        return entry

    def _materialize(self, func: Function):
        """-> (entry | None, status, reason, cached)."""
        interp = self.interp
        metrics = interp.metrics
        store = self.store
        name = func.name
        filename = f"<vpjit:{name}>"
        record = store.lookup(name)
        fresh = record is None
        if fresh:
            t0 = time.perf_counter()
            try:
                emitter = FunctionEmitter(interp, func)
                source = emitter.emit()
            except _Unsupported as e:
                if metrics is not None:
                    metrics.observe("codegen.emit_seconds",
                                    time.perf_counter() - t0)
                store.record(name, "fallback", reason=str(e))
                return None, "fallback", str(e), False
            if metrics is not None:
                metrics.observe("codegen.emit_seconds",
                                time.perf_counter() - t0)
            LINE_MAPS[filename] = emitter.line_map
            code = self._compile(source, filename)
            if code is None:
                store.record(name, "fallback", reason="compile error")
                return None, "fallback", "compile error", False
            store.record(name, "jit", source=source,
                         line_map=emitter.line_map, code=code)
        elif record["status"] == "fallback":
            return None, "fallback", record.get("reason"), True
        else:
            code = store.codes.get(name)
            if code is None:
                code = self._revive(name, record)
                if code is None:
                    # A stale or corrupt record: drop it and re-emit.
                    store.forget(name)
                    return self._materialize(func)
                store.codes[name] = code
        namespace: Dict[str, object] = {}
        exec(code, namespace)
        try:
            entry = namespace["_make"](JitRuntime(interp, func))
        except Exception as e:
            # Bind-time resolution failed (e.g. an invalid constant):
            # the legacy walker reproduces the error at execution.
            return (None, "fallback",
                    f"bind failed: {type(e).__name__}", not fresh)
        return entry, "jit", None, not fresh

    def _revive(self, name: str, record: dict) -> Optional[CodeType]:
        """The code object of a stored jit record: the persisted one
        when this interpreter can load it, else ``compile(source)``;
        None when the record has no usable source."""
        source = record.get("source")
        if not source:
            return None
        filename = f"<vpjit:{name}>"
        # From here on the store holds the line map and code object,
        # and the sidecar is re-written from them.
        raw_map = record.pop("line_map", None)
        if isinstance(raw_map, dict):
            line_map = {
                int(lineno): tuple(loc)
                for lineno, loc in raw_map.items()
                if str(lineno).isdigit() and isinstance(loc, list)
            }
            LINE_MAPS[filename] = line_map
            self.store.line_maps[name] = line_map
        code, rejected = _load_code(record)
        record.pop("code", None)
        record.pop("magic", None)
        metrics = self.interp.metrics
        if code is not None:
            if metrics is not None:
                metrics.inc("codegen.code.loaded")
            return code
        if rejected is not None and metrics is not None:
            metrics.inc(f"codegen.code.rejected.{rejected}")
        return self._compile(source, filename)

    def _compile(self, source: str, filename: str) -> Optional[CodeType]:
        metrics = self.interp.metrics
        t0 = time.perf_counter()
        try:
            code = compile(source, filename, "exec")
        except SyntaxError:
            return None
        if metrics is not None:
            metrics.observe("codegen.compile_seconds",
                            time.perf_counter() - t0)
            metrics.inc("codegen.code.compiled")
        return code
