"""The paper's own code listings, compiled (near-)verbatim.

Listing 2 (axpy/gemm with mpfr and unum types), Listing 3 (dynamic-type
interaction at call boundaries) and Listing 4 (the variable-precision
BLAS interface) are the paper's specification of the programming model;
this suite keeps the toolchain honest against them.
"""

import pytest

from repro import compile_source
from repro.bigfloat import BigFloat
from repro.lang import SemanticError, analyze, parse
from repro.runtime import VPRuntimeError

LISTING2 = """
void axpy_mpfrconst(int N,
                    vpfloat<mpfr, 16, 256> alpha,
                    vpfloat<mpfr, 16, 256> *X,
                    vpfloat<mpfr, 16, 256> *Y) {
    for (unsigned i = 0; i < N; ++i)
        Y[i] = alpha * X[i] + Y[i];
}

void axpy_mpfr(unsigned prec, int N,
               vpfloat<mpfr, 16, prec> alpha,
               vpfloat<mpfr, 16, prec> *X,
               vpfloat<mpfr, 16, prec> *Y) {
    for (unsigned i = 0; i < N; ++i)
        Y[i] = alpha * X[i] + Y[i];
}

void axpy_unumconst(int N,
                    vpfloat<unum, 4, 6, 8> alpha,
                    vpfloat<unum, 4, 6, 8> *X,
                    vpfloat<unum, 4, 6, 8> *Y) {
  for (unsigned i = 0; i < N; ++i)
    Y[i] = alpha * X[i] + Y[i];
}

void gemm_unum(unsigned prec, int M, int N,
               double *A,
               vpfloat<unum, 4, prec> alpha,
               vpfloat<unum, 4, prec> *X,
               vpfloat<unum, 4, prec> *Y) {
  for (unsigned i = 0; i < M; ++i) {
    vpfloat<unum, 4, prec> alphaAX = 0.0;
    for (unsigned j = 0; j < N; ++j)
      alphaAX += A[i*N + j] * X[j];
    Y[i] = alpha * alphaAX;
  }
}
"""


class TestListing2:
    def test_compiles_through_every_backend(self):
        compile_source(LISTING2, backend="none")
        compile_source(LISTING2, backend="mpfr")
        compile_source(LISTING2, backend="boost")

    def test_gemm_unum_executes(self):
        driver = LISTING2 + """
        double drive(unsigned prec, int m, int n) {
          double A[64];
          vpfloat<unum, 4, prec> alpha = 2.0;
          vpfloat<unum, 4, prec> X[8];
          vpfloat<unum, 4, prec> Y[8];
          for (int i = 0; i < m*n; i++) A[i] = 1.0;
          for (int i = 0; i < n; i++) X[i] = i;
          gemm_unum(prec, m, n, A, alpha, X, Y);
          double s = 0.0;
          for (int i = 0; i < m; i++) s = s + (double)Y[i];
          return s;
        }
        """
        program = compile_source(driver, backend="none")
        # sum_j j = 28 per row; alpha*28 = 56; 8 rows -> 448.
        assert program.run("drive", [7, 8, 8]).value == 448.0

    def test_axpy_variants_agree(self):
        driver = LISTING2 + """
        double drive(int n) {
          vpfloat<mpfr, 16, 256> a = 1.5;
          vpfloat<mpfr, 16, 256> X[8];
          vpfloat<mpfr, 16, 256> Y1[8];
          vpfloat<mpfr, 16, 256> Y2[8];
          for (int i = 0; i < n; i++) { X[i] = i; Y1[i] = 1.0; Y2[i] = 1.0; }
          axpy_mpfrconst(n, a, X, Y1);
          axpy_mpfr(256, n, a, X, Y2);
          double diff = 0.0;
          for (int i = 0; i < n; i++) diff = diff + (double)(Y1[i] - Y2[i]);
          return diff;
        }
        """
        program = compile_source(driver, backend="mpfr")
        assert program.run("drive", [8]).value == 0.0


LISTING3 = """
void vaxpy(unsigned precision, int n,
           vpfloat<mpfr, 16, precision> a,
           vpfloat<mpfr, 16, precision> *X,
           vpfloat<mpfr, 16, precision> *Y) {}
"""


class TestListing3:
    def test_line_10_compile_time_error(self):
        """vaxpy(100, ...) with 200-bit arguments: caught statically."""
        source = LISTING3 + """
        void example_dynamic_type(unsigned p) {
          vpfloat<mpfr, 16, 200> a;
          vpfloat<mpfr, 16, 200> X[10];
          vpfloat<mpfr, 16, 200> Y[10];
          vaxpy(100, 10, a, X, Y);
        }
        """
        with pytest.raises(SemanticError, match="compile-time mismatch"):
            analyze(parse(source))

    def test_line_11_const_match_ok(self):
        source = LISTING3 + """
        void example_dynamic_type(unsigned p) {
          vpfloat<mpfr, 16, 200> a;
          vpfloat<mpfr, 16, 200> X[10];
          vpfloat<mpfr, 16, 200> Y[10];
          vaxpy(200, 10, a, X, Y);
        }
        """
        compile_source(source, backend="none")

    def test_line_14_runtime_check(self):
        """vaxpy(200, ..., a_dyn, ...) is OK iff p == 200 at runtime."""
        source = LISTING3 + """
        void example_dynamic_type(unsigned p) {
          vpfloat<mpfr, 16, p> a_dyn;
          vpfloat<mpfr, 16, p> X_dyn[10];
          vpfloat<mpfr, 16, p> Y_dyn[10];
          vaxpy(200, 10, a_dyn, X_dyn, Y_dyn);
        }
        """
        program = compile_source(source, backend="none")
        program.run("example_dynamic_type", [200])  # OK when p == 200
        with pytest.raises(VPRuntimeError, match="attribute mismatch"):
            program.run("example_dynamic_type", [100])

    def test_line_17_mutated_attribute_error(self):
        """++p invalidates the previously-created dynamic types."""
        source = LISTING3 + """
        void example_dynamic_type(unsigned p) {
          vpfloat<mpfr, 16, p> a_dyn;
          vpfloat<mpfr, 16, p> X_dyn[10];
          vpfloat<mpfr, 16, p> Y_dyn[10];
          vaxpy(p, 10, a_dyn, X_dyn, Y_dyn);
          ++p;
          vaxpy(p, 10, a_dyn, X_dyn, Y_dyn);
        }
        """
        program = compile_source(source, backend="none")
        with pytest.raises(VPRuntimeError, match="attribute mismatch"):
            program.run("example_dynamic_type", [100])

    def test_dyn_return_type(self):
        """Listing 3's example_dyn_type_return compiles and runs."""
        source = """
        vpfloat<mpfr, 16, prec>
          example_dyn_type_return(unsigned prec) {
          vpfloat<mpfr, 16, prec> a = 1.3;
          return a;
        }
        double drive(unsigned q) {
          vpfloat<mpfr, 16, q> x;
          x = example_dyn_type_return(q);
          return (double)x;
        }
        """
        program = compile_source(source, backend="none")
        assert program.run("drive", [120]).value == pytest.approx(1.3)

    def test_dyn_return_type_error(self):
        """example_dyn_type_return_error: 'prec' undeclared."""
        source = """
        vpfloat<mpfr, 16, prec>
          example_dyn_type_return_error(unsigned p) {
          vpfloat<mpfr, 16, p> a = 1.3;
          return a;
        }
        """
        with pytest.raises(SemanticError,
                           match="does not name an in-scope"):
            analyze(parse(source))


class TestListing4:
    def test_blas_interface_runs_cg_step(self):
        """One hand-rolled CG-flavoured step over the Listing 4 BLAS."""
        from repro.blas import VBLAS_DIALECT_SOURCE

        source = VBLAS_DIALECT_SOURCE + """
        double drive(unsigned prec, int n) {
          double A[64];
          vpfloat<mpfr, 16, prec> x[8];
          vpfloat<mpfr, 16, prec> r[8];
          vpfloat<mpfr, 16, prec> one = 1.0;
          vpfloat<mpfr, 16, prec> zero = 0.0;
          for (int i = 0; i < n*n; i++) A[i] = 0.0;
          for (int i = 0; i < n; i++) {
            A[i*n+i] = 2.0;
            x[i] = 1.0;
            r[i] = 0.0;  // MPFR-initialized objects start as NaN
          }
          // r = A x  (expect all 2s), then r += x -> 3s, dot = 9n.
          vgemv(prec, n, n, one, A, x, zero, r);
          vaxpy(prec, n, one, x, r);
          vpfloat<mpfr, 16, prec> d = vdot(prec, n, r, r);
          return (double)d;
        }
        """
        program = compile_source(source, backend="mpfr")
        assert program.run("drive", [200, 8]).value == 9.0 * 8

    def test_same_source_multiple_precisions_single_compile(self):
        """'a single run of the application, without recompilation,
        enables ... multiple precision configurations' (§IV-C)."""
        from repro.blas import VBLAS_DIALECT_SOURCE

        source = VBLAS_DIALECT_SOURCE + """
        double residual(unsigned prec, int n) {
          vpfloat<mpfr, 16, prec> x[4];
          vpfloat<mpfr, 16, prec> acc = 0.0;
          for (int i = 0; i < n; i++) x[i] = 1.0;
          for (int i = 0; i < n; i++) acc = acc + x[i] / 3.0;
          return (double)(acc * 3.0 - (double)n);
        }
        """
        program = compile_source(source, backend="mpfr")  # compile ONCE
        errors = [abs(program.run("residual", [p, 4]).value)
                  for p in (60, 120, 240, 480)]
        assert errors[0] >= errors[-1]
