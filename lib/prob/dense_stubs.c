/* Row accumulation for the dense regime of Prob.Dist.convolve.
 *
 * One call adds, for every r in [r_lo, r_hi) (visited in ascending r,
 * or descending r when [descending] is true), the products
 * weights[r] * row[t] into acc[offs[r] + t], restricted to the output
 * window [w0, w1).  [row] is the padded inner operand: gaps hold -0.0,
 * and for every weight w >= 0, w * -0.0 = -0.0 and x + -0.0 = x, so a
 * gap adds nothing and leaves an untouched bucket's sign bit set.
 *
 * Every bucket receives its products in row order, exactly the order
 * of the OCaml scatter loop this replaces, and each product and sum is
 * the single IEEE-754 operation OCaml would perform: the file is built
 * with -ffp-contract=off (no fused multiply-add) and never with
 * fast-math.  Vectorising the inner loop only runs independent buckets
 * side by side, so the result is bit-identical to the scalar loop.
 *
 * The arrays are OCaml float arrays read as double *, which requires
 * the flat float array layout; dist.ml refuses to start without it.
 * The call neither allocates nor raises ([@@noalloc]); it covers one
 * window, so the OCaml caller returns to the runtime between windows
 * and a stop-the-world collection never waits on a whole convolution.
 */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>

/* An AVX2 clone beside the baseline one, picked at load time.  The
 * attribute needs GCC/Clang on x86-64 and ifunc support from glibc;
 * anywhere else the single baseline build is used. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define DENSE_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef DENSE_CLONES
#define DENSE_CLONES
#endif

DENSE_CLONES
static void dense_rows(double *restrict acc, const double *restrict row, intnat len,
                       const double *restrict weights, value offs, intnat r_lo, intnat r_hi,
                       int descending, intnat w0, intnat w1)
{
    for (intnat o = 0; o < r_hi - r_lo; o++) {
        intnat r = descending ? r_hi - 1 - o : r_lo + o;
        double w = weights[r];
        intnat off = Long_val(Field(offs, r));
        intnat lo = off > w0 ? off : w0;
        intnat hi = off + len < w1 ? off + len : w1;
        double *restrict dst = acc + lo;
        const double *restrict src = row + (lo - off);
        for (intnat t = 0; t < hi - lo; t++)
            dst[t] += w * src[t];
    }
}

CAMLprim value pwcet_dense_rows(value acc, value row, value weights, value offs,
                                value r_lo, value r_hi, value descending, value w0,
                                value w1)
{
    dense_rows((double *)acc, (const double *)row, Wosize_val(row) / Double_wosize,
               (const double *)weights, offs, Long_val(r_lo), Long_val(r_hi),
               Bool_val(descending), Long_val(w0), Long_val(w1));
    return Val_unit;
}

CAMLprim value pwcet_dense_rows_byte(value *argv, int argn)
{
    (void)argn;
    return pwcet_dense_rows(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6],
                            argv[7], argv[8]);
}
