"""UNUM type-I format and the variable-precision coprocessor model.

Substrate for the paper's second backend (DESIGN.md §2): the memory
format codec (:mod:`repro.unum.format`), the internal g-layer ALU
(:mod:`repro.unum.glayer`), and the architectural coprocessor model with
ess/fss/WGP/MBB control state (:mod:`repro.unum.coprocessor`).
"""

from .coprocessor import (
    NUM_GREGISTERS,
    CoprocessorError,
    CoprocessorStats,
    MemoryCycleModel,
    MemorySubsystemErratum,
    UnumCoprocessor,
)
from .format import (
    ESS_MAX,
    ESS_MIN,
    FSS_MAX,
    FSS_MIN,
    SIZE_MAX,
    SIZE_MIN,
    UnumConfig,
    UnumConfigError,
    chunked_hex,
    decode,
    encode,
    extract_fields,
    mpfr_literal_bits,
    paper_literal_bits,
    sizeof_vpfloat,
)
from .glayer import MAX_WGP, GCycleModel, GLayerError, GLayerUnit

__all__ = [
    "UnumConfig",
    "UnumConfigError",
    "encode",
    "decode",
    "extract_fields",
    "paper_literal_bits",
    "mpfr_literal_bits",
    "chunked_hex",
    "sizeof_vpfloat",
    "ESS_MIN",
    "ESS_MAX",
    "FSS_MIN",
    "FSS_MAX",
    "SIZE_MIN",
    "SIZE_MAX",
    "GLayerUnit",
    "GLayerError",
    "GCycleModel",
    "MAX_WGP",
    "UnumCoprocessor",
    "CoprocessorError",
    "CoprocessorStats",
    "MemoryCycleModel",
    "MemorySubsystemErratum",
    "NUM_GREGISTERS",
]
