"""IR type system, including first-class variable-precision FP types.

Mirrors the paper's LLVM extension (§III-B): alongside the usual void /
integer / float / pointer / array / struct / function types there is
:class:`VPFloatType`, whose exponent / precision / size attributes are IR
*Values* -- constants for constant-size types, or arguments/instructions
for dynamically-sized types.  Two vpfloat types are equal only when they
hold exactly the same attributes (paper §III-A3: no subtyping, no implicit
conversion).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .values import Value


class IRType:
    """Base class of all IR types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:
        return str(self)

    @property
    def is_vpfloat(self) -> bool:
        return isinstance(self, VPFloatType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_fp(self) -> bool:
        """True for any floating-point-like type (IEEE or vpfloat)."""
        return self.is_float or self.is_vpfloat

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def size_bytes(self) -> int:
        """Static size in bytes; raises for dynamically-sized types."""
        raise TypeError(f"type {self} has no static size")


class VoidType(IRType):
    def __str__(self) -> str:
        return "void"

    def __eq__(self, other):
        return isinstance(other, VoidType)

    def __hash__(self):
        return hash("void")


class LabelType(IRType):
    """Type of basic-block references."""

    def __str__(self) -> str:
        return "label"

    def __eq__(self, other):
        return isinstance(other, LabelType)

    def __hash__(self):
        return hash("label")


class IntType(IRType):
    def __init__(self, bits: int):
        if bits < 1:
            raise ValueError(f"integer width must be >= 1, got {bits}")
        self.bits = bits

    def __str__(self) -> str:
        return f"i{self.bits}"

    def __eq__(self, other):
        return isinstance(other, IntType) and other.bits == self.bits

    def __hash__(self):
        return hash(("int", self.bits))

    def size_bytes(self) -> int:
        return max(1, (self.bits + 7) // 8)


class FloatType(IRType):
    """IEEE binary32 / binary64."""

    def __init__(self, bits: int):
        if bits not in (32, 64):
            raise ValueError(f"FloatType supports 32/64 bits, got {bits}")
        self.bits = bits

    def __str__(self) -> str:
        return "float" if self.bits == 32 else "double"

    def __eq__(self, other):
        return isinstance(other, FloatType) and other.bits == self.bits

    def __hash__(self):
        return hash(("float", self.bits))

    def size_bytes(self) -> int:
        return self.bits // 8

    @property
    def precision(self) -> int:
        """Significand bits including the hidden bit."""
        return 24 if self.bits == 32 else 53


class PointerType(IRType):
    def __init__(self, pointee: IRType):
        self.pointee = pointee

    def __str__(self) -> str:
        return f"{self.pointee}*"

    def __eq__(self, other):
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self):
        return hash(("ptr", hash(self.pointee)))

    def size_bytes(self) -> int:
        return 8


class ArrayType(IRType):
    def __init__(self, element: IRType, count: int):
        if count < 0:
            raise ValueError("array count must be >= 0")
        self.element = element
        self.count = count

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    def __eq__(self, other):
        return (
            isinstance(other, ArrayType)
            and other.element == self.element
            and other.count == self.count
        )

    def __hash__(self):
        return hash(("array", hash(self.element), self.count))

    def size_bytes(self) -> int:
        return self.element.size_bytes() * self.count


class StructType(IRType):
    def __init__(self, name: str, fields: Sequence[IRType] | None = None):
        self.name = name
        self.fields: List[IRType] = list(fields) if fields else []

    def set_body(self, fields: Sequence[IRType]) -> None:
        self.fields = list(fields)

    def __str__(self) -> str:
        return f"%{self.name}"

    def __eq__(self, other):
        return isinstance(other, StructType) and other.name == self.name

    def __hash__(self):
        return hash(("struct", self.name))

    def size_bytes(self) -> int:
        return sum(f.size_bytes() for f in self.fields)

    def field_offset(self, index: int) -> int:
        return sum(f.size_bytes() for f in self.fields[:index])


class FunctionType(IRType):
    def __init__(self, ret: IRType, params: Sequence[IRType]):
        self.ret = ret
        self.params: Tuple[IRType, ...] = tuple(params)

    def __str__(self) -> str:
        args = ", ".join(str(p) for p in self.params)
        return f"{self.ret} ({args})"

    def __eq__(self, other):
        return (
            isinstance(other, FunctionType)
            and other.ret == self.ret
            and other.params == self.params
        )

    def __hash__(self):
        return hash(("fn", hash(self.ret), self.params))


class VPFloatType(IRType):
    """``vpfloat<format, ...>`` with attribute Values (paper §III-B).

    For ``mpfr``: ``exp_attr`` is the exponent field width in bits and
    ``prec_attr`` the number of mantissa bits.  For ``unum``: ``exp_attr``
    holds *ess* and ``prec_attr`` holds *fss* (paper §III-A2), with an
    optional ``size_attr`` bounding the byte footprint.

    Attribute Values are NOT connected to the type through def-use edges;
    the owning :class:`~repro.ir.module.Module` keeps a side registry so
    RAUW updates types and a keepalive intrinsic protects them from DCE
    (paper §III-B, first bullet).
    """

    FORMATS = ("mpfr", "unum")

    def __init__(
        self,
        format: str,
        exp_attr: "Value",
        prec_attr: "Value",
        size_attr: Optional["Value"] = None,
    ):
        if format not in self.FORMATS:
            raise ValueError(f"unsupported vpfloat format {format!r}")
        self.format = format
        self.exp_attr = exp_attr
        self.prec_attr = prec_attr
        self.size_attr = size_attr

    # -------------------------------------------------------------- #

    def attributes(self) -> List["Value"]:
        attrs = [self.exp_attr, self.prec_attr]
        if self.size_attr is not None:
            attrs.append(self.size_attr)
        return attrs

    @property
    def is_static(self) -> bool:
        """True when every attribute is a compile-time constant."""
        from .values import ConstantInt

        return all(isinstance(a, ConstantInt) for a in self.attributes())

    def _const(self, attr: "Value") -> int:
        from .values import ConstantInt

        if not isinstance(attr, ConstantInt):
            raise TypeError(f"attribute of {self} is not a constant")
        return attr.value

    def static_geometry(self):
        """(exponent bits, precision bits, size bytes) for static types."""
        if self.format == "unum":
            from ..unum import UnumConfig

            size = None if self.size_attr is None else self._const(self.size_attr)
            config = UnumConfig(self._const(self.exp_attr),
                                self._const(self.prec_attr), size)
            return (config.exponent_bits, config.fraction_bits,
                    config.size_bytes)
        exp = self._const(self.exp_attr)
        prec = self._const(self.prec_attr)
        _validate_mpfr_attrs(exp, prec)
        # Storage: struct header (prec/sign/exp words) + mantissa limbs.
        from ..bigfloat import limb_bytes

        return (exp, prec, 24 + limb_bytes(prec))

    @property
    def static_precision(self) -> int:
        """Significand precision in bits (static types only)."""
        if self.format == "unum":
            return self.static_geometry()[1] + 1  # hidden bit
        return self.static_geometry()[1]

    def size_bytes(self) -> int:
        if not self.is_static:
            raise TypeError(f"dynamically-sized type {self} has no static size")
        return self.static_geometry()[2]

    # -------------------------------------------------------------- #

    def _attr_str(self, attr: Optional["Value"]) -> str:
        from .values import ConstantInt

        if attr is None:
            return ""
        if isinstance(attr, ConstantInt):
            return str(attr.value)
        return f"%{attr.name}"

    def __str__(self) -> str:
        parts = [self.format, self._attr_str(self.exp_attr),
                 self._attr_str(self.prec_attr)]
        if self.size_attr is not None:
            parts.append(self._attr_str(self.size_attr))
        return f"vpfloat<{', '.join(parts)}>"

    def __eq__(self, other):
        """Equal only with identical attributes (constants compare by value)."""
        if not isinstance(other, VPFloatType) or other.format != self.format:
            return False
        return (
            _attr_equal(self.exp_attr, other.exp_attr)
            and _attr_equal(self.prec_attr, other.prec_attr)
            and _attr_equal(self.size_attr, other.size_attr)
        )

    def __hash__(self):
        return hash(("vpfloat", self.format, _attr_key(self.exp_attr),
                     _attr_key(self.prec_attr), _attr_key(self.size_attr)))


#: MPFR backend limits: exponent field width and mantissa bits accepted by
#: the runtime checks (paper footnote 2: maximum configuration for mpfr
#: literals is 16-bit exponent; the library itself accepts up to 16384-bit
#: mantissas in this implementation).
MPFR_MAX_EXP_BITS = 16
MPFR_MIN_PREC, MPFR_MAX_PREC = 2, 16384


def _validate_mpfr_attrs(exp: int, prec: int) -> None:
    if not 1 <= exp <= MPFR_MAX_EXP_BITS:
        raise ValueError(
            f"mpfr exponent width must be in 1..{MPFR_MAX_EXP_BITS}, got {exp}"
        )
    if not MPFR_MIN_PREC <= prec <= MPFR_MAX_PREC:
        raise ValueError(
            f"mpfr precision must be in {MPFR_MIN_PREC}..{MPFR_MAX_PREC}, "
            f"got {prec}"
        )


def _attr_equal(a, b) -> bool:
    from .values import ConstantInt

    if a is None or b is None:
        return a is b
    if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
        return a.value == b.value
    return a is b


def _attr_key(a):
    from .values import ConstantInt

    if a is None:
        return None
    if isinstance(a, ConstantInt):
        return ("const", a.value)
    return ("value", id(a))


# Shared singletons for the common types.
VOID = VoidType()
LABEL = LabelType()
I1 = IntType(1)
I8 = IntType(8)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)


def pointer(pointee: IRType) -> PointerType:
    return PointerType(pointee)
