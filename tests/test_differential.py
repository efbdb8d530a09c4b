"""Differential testing: random programs agree across backends.

Generates small random straight-line/loop programs over a vpfloat type,
compiles each with the none / mpfr / boost backends (the unum backend is
checked at its own precision) and requires bit-identical results -- the
strongest end-to-end property of the whole flow: frontend, optimizer and
all lowerings preserve correctly-rounded semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_source

PRECISION = 160


def _value(rng_draw, depth, vars_):
    """Build a random expression string over declared variables."""
    choice = rng_draw(st.integers(0, 5 if depth < 3 else 2))
    if choice == 0:
        return rng_draw(st.sampled_from(vars_))
    if choice == 1:
        num = rng_draw(st.integers(-40, 40))
        return f"{num}.5" if rng_draw(st.booleans()) else f"{num}.0"
    if choice == 2:
        return str(rng_draw(st.integers(1, 9)))
    op = rng_draw(st.sampled_from(["+", "-", "*"]))
    lhs = _value(rng_draw, depth + 1, vars_)
    rhs = _value(rng_draw, depth + 1, vars_)
    return f"({lhs} {op} {rhs})"


@st.composite
def random_program(draw):
    n_vars = draw(st.integers(2, 4))
    vars_ = [f"v{i}" for i in range(n_vars)]
    lines = []
    for i, name in enumerate(vars_):
        init = draw(st.integers(-20, 20))
        lines.append(f"  FTYPE {name} = {init}.25;")
    n_stmts = draw(st.integers(2, 6))
    for _ in range(n_stmts):
        target = draw(st.sampled_from(vars_))
        expr = _value(draw, 0, vars_)
        lines.append(f"  {target} = {expr};")
    # A loop statement mixing the variables.
    acc = draw(st.sampled_from(vars_))
    other = draw(st.sampled_from(vars_))
    trips = draw(st.integers(1, 5))
    lines.append(f"  for (int i = 0; i < {trips}; i++) "
                 f"{acc} = {acc} * 0.5 + {other};")
    result = " + ".join(vars_)
    body = "\n".join(lines)
    return (
        "double f() {\n"
        f"{body}\n"
        f"  return (double)({result});\n"
        "}\n"
    )


@given(random_program())
@settings(max_examples=50, deadline=None)
def test_backends_bit_identical(template):
    source = template.replace("FTYPE", f"vpfloat<mpfr, 16, {PRECISION}>")
    values = {}
    for backend in ("none", "mpfr", "boost"):
        program = compile_source(source, backend=backend)
        values[backend] = program.run("f", []).value
    assert values["none"] == values["mpfr"] == values["boost"], source


@given(random_program())
@settings(max_examples=25, deadline=None)
def test_unum_backend_matches_interpreter(template):
    """The coprocessor path agrees with first-class interpretation at the
    same unum precision."""
    source = template.replace("FTYPE", "vpfloat<unum, 4, 7>")
    reference = compile_source(source, backend="none") \
        .run("f", []).value
    machine_value = compile_source(source, backend="unum") \
        .machine().run("f", [])
    assert machine_value == reference, source


@given(random_program())
@settings(max_examples=25, deadline=None)
def test_optimization_levels_agree(template):
    """-O0 (raw codegen) and -O3 produce identical results."""
    source = template.replace("FTYPE", f"vpfloat<mpfr, 16, {PRECISION}>")
    o0 = compile_source(source, backend="none", opt_level=0) \
        .run("f", []).value
    o3 = compile_source(source, backend="none", opt_level=3) \
        .run("f", []).value
    assert o0 == o3, source


@given(random_program())
@settings(max_examples=20, deadline=None)
def test_ablation_switches_preserve_semantics(template):
    source = template.replace("FTYPE", f"vpfloat<mpfr, 16, {PRECISION}>")
    base = compile_source(source, backend="mpfr") \
        .run("f", []).value
    for switch in ("reuse_objects", "specialize_scalars",
                   "in_place_stores"):
        toggled = compile_source(source, backend="mpfr",
                                 **{switch: False}) \
            .run("f", []).value
        assert toggled == base, (switch, source)
