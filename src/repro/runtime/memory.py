"""Byte-addressed memory model for the IR interpreter.

Addresses are plain integers; cells hold Python runtime objects (ints,
floats, :class:`~repro.bigfloat.BigFloat` values, MPFR handles) together
with the byte span they occupy, so address arithmetic (GEP) works exactly
as in C while the cache model sees realistic byte traffic.

Stack allocation follows scope lifetimes (mark/release), heap allocation
tracks malloc/free, and every access is appended to the memory trace of
a :class:`~repro.runtime.cost_model.CostAccounting` (the cache model's
input).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .cost_model import CostAccounting

STACK_BASE = 0x1000_0000
HEAP_BASE = 0x8000_0000
GLOBAL_BASE = 0x0010_0000


class MemoryError_(RuntimeError):
    """Invalid access: bad free, overlapping store, wild pointer."""


class Memory:
    """Object-cell memory with byte addressing."""

    def __init__(self, accounting: Optional[CostAccounting] = None):
        if accounting is None:
            accounting = CostAccounting()
        self.accounting = accounting
        self.cells: Dict[int, Tuple[object, int]] = {}
        self.stack_pointer = STACK_BASE
        self.heap_pointer = HEAP_BASE
        self.global_pointer = GLOBAL_BASE
        self.heap_blocks: Dict[int, int] = {}  # base -> size
        self._trace = accounting.trace
        self._trace_limit = accounting.trace_limit
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------ #

    def alloc_stack(self, nbytes: int) -> int:
        nbytes = max(1, int(nbytes))
        addr = self.stack_pointer
        self.stack_pointer += _align(nbytes, 8)
        return addr

    def stack_mark(self) -> int:
        return self.stack_pointer

    def stack_release(self, mark: int) -> None:
        """Free everything allocated after ``mark`` (scope exit)."""
        doomed = [a for a in self.cells if mark <= a < self.stack_pointer
                  and a >= STACK_BASE and a < HEAP_BASE]
        for a in doomed:
            del self.cells[a]
        self.stack_pointer = mark

    def alloc_heap(self, nbytes: int) -> int:
        nbytes = max(1, int(nbytes))
        addr = self.heap_pointer
        self.heap_pointer += _align(nbytes, 16)
        self.heap_blocks[addr] = nbytes
        return addr

    def free_heap(self, addr: int) -> None:
        if addr == 0:
            return  # free(NULL) is a no-op
        size = self.heap_blocks.pop(addr, None)
        if size is None:
            raise MemoryError_(f"free of non-heap address {addr:#x}")
        doomed = [a for a in self.cells if addr <= a < addr + size]
        for a in doomed:
            del self.cells[a]

    def alloc_global(self, nbytes: int) -> int:
        addr = self.global_pointer
        self.global_pointer += _align(max(1, int(nbytes)), 8)
        return addr

    # ------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------ #

    def store(self, addr: int, value: object, nbytes: int) -> None:
        if addr == 0:
            raise MemoryError_("store through null pointer")
        self.cells[addr] = (value, nbytes)
        self.bytes_written += nbytes
        trace = self._trace
        trace.append((addr, nbytes))
        if len(trace) >= self._trace_limit:
            self.accounting.sync()

    def load(self, addr: int, nbytes: int, default: object = None) -> object:
        if addr == 0:
            raise MemoryError_("load through null pointer")
        self.bytes_read += nbytes
        trace = self._trace
        trace.append((addr, nbytes))
        if len(trace) >= self._trace_limit:
            self.accounting.sync()
        cell = self.cells.get(addr)
        if cell is None:
            return default  # uninitialized memory reads as the default
        return cell[0]

    def load_bytes(self, addr: int, n: int) -> bytes:
        """Raw byte view for the UNUM machine (cells must hold ints)."""
        cell = self.cells.get(addr)
        if cell is not None and isinstance(cell[0], (bytes, bytearray)):
            return bytes(cell[0][:n])
        if cell is not None and isinstance(cell[0], int):
            return int(cell[0]).to_bytes(n, "little", signed=False)
        return b"\x00" * n

    def store_bytes(self, addr: int, payload: bytes) -> None:
        self.store(addr, bytes(payload), len(payload))


def _align(n: int, a: int) -> int:
    return (n + a - 1) // a * a
