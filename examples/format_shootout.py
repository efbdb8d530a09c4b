#!/usr/bin/env python3
"""Format shootout: mpfr vs unum vs posit at equal storage budgets.

The paper's thesis is that the *type system* should carry the number
format, so switching a kernel between representations is a one-line
type edit (paper §III-A).  This example demonstrates exactly that: one
dot-product kernel, recompiled with three different ``vpfloat``
formats at a 32-bit storage width, measured for accuracy against a
700-bit reference.

Two inputs probe the formats' contrasting geometry:

- values clustered near 1.0, where posit's tapered precision spends
  its regime bits well and beats a fixed-field format of equal width;
- values spanning a wide dynamic range, where the tapered fraction
  shrinks and a conventional exponent/fraction split wins back ground.

Run:  python examples/format_shootout.py [n]
"""

import sys

from repro import compile_source
from repro.bigfloat import BigFloat, add, log10_magnitude, mul

#: One kernel template; the format is the only thing that changes.
TEMPLATE = """
double dot(int n, double *X, double *Y) {
  FTYPE acc = 0.0;
  for (int i = 0; i < n; i++)
    acc = acc + (FTYPE)X[i] * (FTYPE)Y[i];
  return (double)acc;
}
"""

#: 32-bit storage budget for every contender.
FORMATS = (
    ("float (IEEE 32)", "float"),
    ("mpfr  <8, 24>", "vpfloat<mpfr, 8, 24>"),
    ("unum  <3, 5>", "vpfloat<unum, 3, 5, 4>"),
    ("posit <2, 32>", "vpfloat<posit, 2, 32>"),
)


def reference_dot(xs, ys):
    acc = BigFloat.from_int(0, 700)
    for x, y in zip(xs, ys):
        term = mul(BigFloat.from_float(x, 700),
                   BigFloat.from_float(y, 700), 700)
        acc = add(acc, term, 700)
    return acc


def relative_error(value, reference):
    ref = reference.to_float()
    if ref == 0.0:
        return abs(value)
    return abs(value - ref) / abs(ref)


def run_case(title, xs, ys, n):
    reference = reference_dot(xs, ys)
    print(f"\n--- {title} (n={n}, reference={reference.to_float():.6g}) ---")
    print(f"  {'format':16s}  {'result':>14s}  {'rel. error':>10s}")
    for label, ftype in FORMATS:
        program = compile_source(TEMPLATE.replace("FTYPE", ftype),
                                 backend="none")
        interp = program.interpreter()
        base_x = interp.memory.alloc_heap(8 * n)
        base_y = interp.memory.alloc_heap(8 * n)
        for i in range(n):
            interp.memory.store(base_x + 8 * i, xs[i], 8)
            interp.memory.store(base_y + 8 * i, ys[i], 8)
        value = interp.run("dot", [n, base_x, base_y]).value
        err = relative_error(value, reference)
        err_mag = log10_magnitude(BigFloat.from_float(err, 60))
        shown = "exact" if err == 0.0 else f"1e{err_mag:+.0f}"
        print(f"  {label:16s}  {value:>14.6g}  {shown:>10s}")


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 128

    # Near-1.0 workload: posit's sweet spot.
    xs = [1.0 + (i % 17) / 64.0 for i in range(n)]
    ys = [1.0 - (i % 13) / 96.0 for i in range(n)]
    run_case("values near 1.0 (posit sweet spot)", xs, ys, n)

    # Wide-dynamic-range workload: tapered precision pays a price.
    xs = [(1.0 + (i % 7) / 8.0) * 2.0 ** ((i % 29) - 14) for i in range(n)]
    ys = [(1.0 + (i % 5) / 8.0) * 2.0 ** (14 - (i % 23)) for i in range(n)]
    run_case("wide dynamic range (fixed exponent field wins)", xs, ys, n)

    print("\nSame kernel, four formats, one type edit each -- the paper's")
    print("'seamless integration' argument in action.")


if __name__ == "__main__":
    main()
