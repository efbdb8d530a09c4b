"""AST -> IR lowering (the Clang-CodeGen stand-in) and the jit engine.

Besides the frontend IR generator this package hosts the specializing
Python-source code generator (:mod:`~repro.codegen.pyjit`) and its
precision-specialized arithmetic kernels
(:mod:`~repro.codegen.kernels`); those modules are imported lazily by
the runtime so that importing :mod:`repro.codegen` (as the core
compiler pipeline does) stays cheap.
"""

from .irgen import CodegenError, IRGenerator, LITERAL_PRECISION, generate_ir

#: Version of the emitted jit-module format.  Bump whenever the shape
#: of the generated source, the JitRuntime resolution protocol, or the
#: charge-bulking scheme changes: the value participates in the compile
#: cache fingerprint and in `.vpcgen` sidecar validation, so stale
#: artifacts miss (and are unlinked) instead of being replayed.
CODEGEN_VERSION = 6

__all__ = [
    "IRGenerator",
    "generate_ir",
    "CodegenError",
    "LITERAL_PRECISION",
    "CODEGEN_VERSION",
]
