/* Inner kernels for the batched gemm family (lib/tensor/gemm.ml).
 *
 * Why C: ocamlopt emits scalar float code only, which caps the OCaml
 * kernels at roughly one multiply-add per cycle; these loops vectorize
 * across *independent output elements*, multiplying throughput by the
 * SIMD width without touching any individual element's reduction order.
 *
 * Bit-compatibility contract (mirrors gemm.ml / the gemv family):
 *   - every output element's floating-point operation sequence is
 *     exactly the one the documented OCaml reference performs — same
 *     products, same tree shape, same ascending inner order, same
 *     skip rule for all-zero coefficient blocks;
 *   - the build must NOT fuse multiply-adds or reassociate: compiled
 *     with -ffp-contract=off and without -ffast-math (see lib/tensor/
 *     dune).  Vector lanes and the W-wide register tiles below only
 *     group independent output elements, which cannot change any
 *     lane's result.
 *
 * Structure shared by both kernels: output columns are processed in
 * chunks of W = 16, each chunk's running sums held in fixed-size
 * locals for the entire inner reduction.  The chunk bodies take the
 * chunk width as a compile-time constant so gcc fully unrolls the
 * lane loops and keeps the accumulators in vector registers — with a
 * runtime-variable width they spill to the stack and the kernel
 * becomes store-bound at scalar speed.  The sub-W trailing chunk runs
 * the same per-element order through the variable-width fallback.
 *
 * Both stubs are [@@noalloc]: they never allocate, raise, or call back
 * into the runtime, and all operands are float64 c_layout Bigarrays.
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define W 16

/* One W-or-narrower chunk of destination row cr[jb .. jb+w): the acc
 * (gemv_t-order) accumulation c[j] += sum_l coef(l) * b[l][j] with the
 * all-zero-block / zero-single skip rule.  Coefficient l is read at
 * xr[l * cl]. */
static inline void acc_chunk(double *restrict cr, const double *xr, long cl,
                             const double *b, long boff, long brs, long k,
                             long w)
{
  double t[W];
  long l, u;
  for (u = 0; u < w; u++)
    t[u] = cr[u];
  for (l = 0; l + 4 <= k; l += 4) {
    double x0 = xr[l * cl];
    double x1 = xr[(l + 1) * cl];
    double x2 = xr[(l + 2) * cl];
    double x3 = xr[(l + 3) * cl];
    if (x0 != 0.0 || x1 != 0.0 || x2 != 0.0 || x3 != 0.0) {
      const double *restrict b0 = b + boff + l * brs;
      const double *restrict b1 = b0 + brs;
      const double *restrict b2 = b0 + 2 * brs;
      const double *restrict b3 = b0 + 3 * brs;
      for (u = 0; u < w; u++)
        t[u] += ((x0 * b0[u]) + (x1 * b1[u])) + ((x2 * b2[u]) + (x3 * b3[u]));
    }
  }
  for (; l < k; l++) {
    double xi = xr[l * cl];
    if (xi != 0.0) {
      const double *restrict bb = b + boff + l * brs;
      for (u = 0; u < w; u++)
        t[u] += xi * bb[u];
    }
  }
  for (u = 0; u < w; u++)
    cr[u] = t[u];
}

/* c[i, 0..n) += sum_l coef(i, l) * b[l, 0..n), with coef(i, l) read at
 * coefo + i*ci + l*cl so the same kernel serves gemm (row-major
 * coefficients: ci = a.rs, cl = 1) and gemm_tn (transposed
 * coefficients: ci = 1, cl = a.rs) without a packing pass. */
CAMLprim value caml_dt_gemm_acc(value vc, value vco, value vcrs, value vcoef,
                                value vcoefo, value vci, value vcl, value vb,
                                value vbo, value vbrs, value vm, value vn,
                                value vk)
{
  double *c = (double *)Caml_ba_data_val(vc);
  const double *coef = (const double *)Caml_ba_data_val(vcoef);
  const double *b = (const double *)Caml_ba_data_val(vb);
  long co = Long_val(vco), crs = Long_val(vcrs);
  long coefo = Long_val(vcoefo), ci = Long_val(vci), cl = Long_val(vcl);
  long bo = Long_val(vbo), brs = Long_val(vbrs);
  long m = Long_val(vm), n = Long_val(vn), k = Long_val(vk);
  long nW = n - (n % W);
  long i, jb;

  for (i = 0; i < m; i++) {
    double *cr = c + co + i * crs;
    const double *xr = coef + coefo + i * ci;
    for (jb = 0; jb < nW; jb += W)
      acc_chunk(cr + jb, xr, cl, b, bo + jb, brs, k, W);
    if (nW < n)
      acc_chunk(cr + nW, xr, cl, b, bo + nW, brs, k, n - nW);
  }
  return Val_unit;
}

CAMLprim value caml_dt_gemm_acc_bc(value *argv, int argn)
{
  (void)argn;
  return caml_dt_gemm_acc(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6], argv[7], argv[8], argv[9], argv[10],
                          argv[11], argv[12]);
}

/* One chunk of a gemm_nt destination row: each of the w output columns
 * keeps its own four partial sums over the packed transpose bt —
 * independent instances of gemv's four-accumulator pattern (ascending
 * blocks, trailing singles into the first accumulator, final tree
 * (s0 + s1) + (s2 + s3), gemv's beta rule). */
static inline void nt_chunk(const double *ar, const double *bt, long n,
                            long k, double *restrict cr, double beta, long w)
{
  double t0[W], t1[W], t2[W], t3[W];
  long l, u;
  for (u = 0; u < w; u++)
    t0[u] = t1[u] = t2[u] = t3[u] = 0.0;
  for (l = 0; l + 4 <= k; l += 4) {
    double a0 = ar[l], a1 = ar[l + 1], a2 = ar[l + 2], a3 = ar[l + 3];
    const double *restrict b0 = bt + l * n;
    const double *restrict b1 = b0 + n;
    const double *restrict b2 = b1 + n;
    const double *restrict b3 = b2 + n;
    for (u = 0; u < w; u++) {
      t0[u] += a0 * b0[u];
      t1[u] += a1 * b1[u];
      t2[u] += a2 * b2[u];
      t3[u] += a3 * b3[u];
    }
  }
  for (; l < k; l++) {
    double av = ar[l];
    const double *restrict bb = bt + l * n;
    for (u = 0; u < w; u++)
      t0[u] += av * bb[u];
  }
  if (beta == 0.0)
    for (u = 0; u < w; u++)
      cr[u] = (t0[u] + t1[u]) + (t2[u] + t3[u]);
  else
    for (u = 0; u < w; u++)
      cr[u] = ((t0[u] + t1[u]) + (t2[u] + t3[u])) + (beta * cr[u]);
}

/* c = a b^T + beta * c.  The scratch buffer (at least k*n doubles,
 * caller-provided) holds b packed transposed — bt[l][j] = b[j][l] — so
 * accumulator updates stream contiguously over j. */
CAMLprim value caml_dt_gemm_nt(value va, value vao, value vars, value vb,
                               value vbo, value vbrs, value vc, value vco,
                               value vcrs, value vscratch, value vm, value vn,
                               value vk, value vbeta)
{
  const double *a = (const double *)Caml_ba_data_val(va);
  const double *b = (const double *)Caml_ba_data_val(vb);
  double *c = (double *)Caml_ba_data_val(vc);
  double *bt = (double *)Caml_ba_data_val(vscratch);
  long ao = Long_val(vao), ars = Long_val(vars);
  long bo = Long_val(vbo), brs = Long_val(vbrs);
  long co = Long_val(vco), crs = Long_val(vcrs);
  long m = Long_val(vm), n = Long_val(vn), k = Long_val(vk);
  double beta = Double_val(vbeta);
  long nW = n - (n % W);
  long i, j, jb, l;

  for (j = 0; j < n; j++) {
    const double *br = b + bo + j * brs;
    for (l = 0; l < k; l++)
      bt[l * n + j] = br[l];
  }
  for (i = 0; i < m; i++) {
    const double *ar = a + ao + i * ars;
    double *cr = c + co + i * crs;
    for (jb = 0; jb < nW; jb += W)
      nt_chunk(ar, bt + jb, n, k, cr + jb, beta, W);
    if (nW < n)
      nt_chunk(ar, bt + nW, n, k, cr + nW, beta, n - nW);
  }
  return Val_unit;
}

CAMLprim value caml_dt_gemm_nt_bc(value *argv, int argn)
{
  (void)argn;
  return caml_dt_gemm_nt(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                         argv[6], argv[7], argv[8], argv[9], argv[10],
                         argv[11], argv[12], argv[13]);
}

/* ---- sanitizer poison fill / scan ----
 *
 * Exact bit-pattern operations (no FP compares involved) for the
 * autodiff tape's sanitize mode.  The pattern must match
 * Tensor.poison_bits. */

#include <stdint.h>
#include <string.h>

#define DT_POISON_BITS UINT64_C(0x7FF8DEADDEADDEAD)

CAMLprim value caml_dt_fill_poison(value vb, value vpos, value vlen)
{
  double *b = (double *)Caml_ba_data_val(vb);
  long pos = Long_val(vpos), len = Long_val(vlen);
  uint64_t bits = DT_POISON_BITS;
  double p;
  long k;
  memcpy(&p, &bits, 8);
  for (k = 0; k < len; k++)
    b[pos + k] = p;
  return Val_unit;
}

/* Flat (row-major) index of the first element whose bits equal the
 * poison pattern, or -1.  Row stride rs covers non-contiguous views. */
CAMLprim value caml_dt_scan_poison(value vb, value voff, value vrs,
                                   value vrows, value vcols)
{
  const double *b = (const double *)Caml_ba_data_val(vb);
  long off = Long_val(voff), rs = Long_val(vrs);
  long rows = Long_val(vrows), cols = Long_val(vcols);
  long i, j;
  for (i = 0; i < rows; i++) {
    const double *r = b + off + i * rs;
    for (j = 0; j < cols; j++) {
      uint64_t bits;
      memcpy(&bits, &r[j], 8);
      if (bits == DT_POISON_BITS)
        return Val_long(i * cols + j);
    }
  }
  return Val_long(-1);
}
