#!/usr/bin/env python3
"""Residual accuracy across precisions (the paper's Table I motivation).

Runs PolyBench kernels at IEEE 32/64 and several vpfloat precisions,
comparing every result against a 700-bit reference -- including
gramschmidt, which is numerically *unstable* at IEEE precisions and only
stabilizes with extended precision (the paper's headline argument for
variable precision).

Run:  python examples/accuracy_vs_precision.py [kernel] [n]
"""

import sys

from repro.bigfloat import log10_magnitude
from repro.evaluation.harness import residual_error, run_kernel
from repro.workloads import KERNELS

TYPES = (
    ("IEEE 32", "float"),
    ("IEEE 64", "double"),
    ("96 bits", "vpfloat<mpfr, 16, 96>"),
    ("128 bits", "vpfloat<mpfr, 16, 128>"),
    ("256 bits", "vpfloat<mpfr, 16, 256>"),
    ("512 bits", "vpfloat<mpfr, 16, 512>"),
)


def main() -> None:
    kernel = sys.argv[1] if len(sys.argv) > 1 else "gramschmidt"
    if kernel not in KERNELS:
        raise SystemExit(f"unknown kernel {kernel!r}; "
                         f"choose from {', '.join(sorted(KERNELS))}")
    n = int(sys.argv[2]) if len(sys.argv) > 2 else \
        KERNELS[kernel].size_for("medium")

    print(f"kernel={kernel}  n={n}  (reference: 700-bit run)\n")
    reference = run_kernel(kernel, "vpfloat<mpfr, 16, 700>", n,
                           backend="none")
    print(f"{'type':<10}{'log10(residual)':>18}  note")
    print("-" * 44)
    for label, ftype in TYPES:
        outcome = run_kernel(kernel, ftype, n, backend="none")
        err = residual_error(outcome.outputs, reference.outputs)
        magnitude = log10_magnitude(err)
        note = ""
        if err.is_nan():
            note = "NaN -- numerically destroyed"
        elif magnitude > -6:
            note = "UNSTABLE at this precision"
        print(f"{label:<10}{magnitude:>18.1f}  {note}")

    print("\nEach extra mantissa bit buys ~0.3 decimal digits of final "
          "accuracy; for unstable kernels the gain is qualitative, not "
          "just quantitative (paper Table I).")


if __name__ == "__main__":
    main()
