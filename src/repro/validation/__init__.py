"""Translation validation: certificates, fuzzing, minimization.

The paper's pitch is that variable-precision arithmetic drops into the
normal compiler flow "seamlessly" -- which is only credible if every
transition the toolchain offers (execution engines, the MPFR pool,
optimization levels and individual -O3 passes) is *checkably*
semantics-preserving.  This package makes that checkable:

* :mod:`~repro.validation.certificate` -- equivalence certificates:
  bit-level value witnesses plus cycle-report invariants per transition.
* :mod:`~repro.validation.harness` -- compile-and-run validators behind
  the ``--validate`` flags of ``vpfloat-cc`` and the evaluation
  drivers, with ``validate.*`` telemetry.
* :mod:`~repro.validation.fuzzer` -- random-program differential
  testing across engines, optimization levels, backends, precisions and
  all five rounding modes.
* :mod:`~repro.validation.minimize` -- deterministic delta-debugging of
  failing programs to minimal reproducers.
* :mod:`~repro.validation.corpus` -- reproducer persistence + replay.

``python -m repro.validation fuzz`` runs a fuzzing session;
``python -m repro.validation replay FILE`` re-checks a reproducer.
"""

from .certificate import (
    CERTIFICATE_VERSION,
    STRICTNESS,
    TRANSITIONS,
    Certificate,
    CertificateError,
    Check,
    compare_reports,
    make_check,
    report_snapshot,
    value_token,
    values_digest,
    values_token,
)
from .corpus import (
    DEFAULT_CORPUS_DIR,
    corpus_dir,
    load_reproducer,
    replay,
    save_reproducer,
)
from .fuzzer import (
    ALL_ROUNDING_MODES,
    ENGINE_CONFIGS,
    FuzzOp,
    FuzzProgram,
    Mismatch,
    cross_check,
    cross_check_engines,
    cross_check_rounding,
    eval_mpfr_api,
    eval_reference,
    fuzz_programs,
    generate_program,
)
from .harness import (
    certificate_for_outcomes,
    finish_certificate,
    record_certificate,
    validate_engines,
    validate_passes,
)
from .minimize import minimize

__all__ = [
    "ALL_ROUNDING_MODES",
    "CERTIFICATE_VERSION",
    "Certificate",
    "CertificateError",
    "Check",
    "DEFAULT_CORPUS_DIR",
    "ENGINE_CONFIGS",
    "FuzzOp",
    "FuzzProgram",
    "Mismatch",
    "STRICTNESS",
    "TRANSITIONS",
    "certificate_for_outcomes",
    "compare_reports",
    "corpus_dir",
    "cross_check",
    "cross_check_engines",
    "cross_check_rounding",
    "eval_mpfr_api",
    "eval_reference",
    "finish_certificate",
    "fuzz_programs",
    "generate_program",
    "load_reproducer",
    "make_check",
    "minimize",
    "record_certificate",
    "replay",
    "report_snapshot",
    "save_reproducer",
    "validate_engines",
    "validate_passes",
    "value_token",
    "values_digest",
    "values_token",
]
