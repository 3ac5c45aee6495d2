/* The dense regime of Prob.Dist.convolve, one output window per call.
 *
 * dist.ml walks the sum range one output window [w0, w1) of at most
 * 1,024 buckets at a time, jumping over any stretch that no row
 * overlaps, and makes one call per window.  A call adds every product
 * that lands in the window into [acc], the window-sized accumulator
 * (acc[k - w0] holds bucket k), then compacts the window in one pass:
 * each present bucket (sign bit clear) is appended to the staging area,
 * its value to [probs] and its bucket index to [buckets], and every
 * bucket of the window is reset to -0.0, so [acc] is all -0.0 between
 * calls.  The accumulator, the padded row and the staging area are
 * Bigarrays, per-domain scratch held outside the OCaml heap; dist.ml
 * sizes the row and the staging area for the whole convolution before
 * its first call, the staging area with room for one entry past every
 * bucket that can be present.
 *
 * Two calls fill the window.  pwcet_dense_rows adds, for every r in
 * [r_lo, r_hi) (visited in ascending r, or descending r when
 * [descending] is true), the products weights[r] * row[t] into bucket
 * offs[r] + t.  [row] is the padded inner operand: its len lattice
 * points sit between two margins of [margin] buckets, and margins and
 * gaps hold -0.0.  For every weight w >= 0, w * -0.0 = -0.0 and
 * x + -0.0 = x, so a margin or gap bucket adds nothing and leaves an
 * untouched bucket's sign bit set.  pwcet_dense_scatter adds the
 * products of both operands one by one, for rows too sparse to pad:
 * row i's points go in ascending j from its cursor, which records
 * where the row stopped at the previous window's end.  Either way the
 * rows overlapping the window go in the same order in every window, so
 * each bucket receives its products in ascending i, the reference
 * kernel's order.
 *
 * Rows of the padded operand go in blocks of 8: each bucket of the
 * block's span is loaded once, receives the 8 rows' products one add
 * at a time in row order, and is stored once, where the single-row
 * loop loads and stores it once per row.  A block spans the union of
 * its rows' extents, clamped to the window, and is used only when
 * every row's margins cover that span; any other block, and the last
 * rows short of 8, go one row at a time over the row's own extent.
 * Either way every bucket receives the same products in row order,
 * since a margin adds -0.0.  For fft without protection at 16x4x16,
 * pfail 1e-4, whose root convolution is 21,028 x 1,804 points,
 * blocking (with dist.ml's padding limit re-tuned from 4 to 8) took
 * the whole penalty law from 34-38 ms to 18-23 ms (release build,
 * 2-core x86-64 host with AVX2, best of 20 in each of three
 * alternating runs).
 *
 * Each product and sum is the single IEEE-754 operation OCaml would
 * perform: the file is built with -ffp-contract=off (no fused
 * multiply-add, which `make release-dist` checks in the object code)
 * and never with fast-math.  Vectorising the inner loops only runs
 * independent buckets side by side, so the result is bit-identical to
 * the scalar loop.  On x86-64 with glibc the row loop is built three
 * times, for AVX-512F (8 buckets per zmm register, with the 8-row
 * block inlined), AVX2 and the baseline, and the loader's ifunc picks
 * the widest the host supports; every clone performs the same
 * operations in the same order on each bucket, so all three give the
 * same bytes.
 *
 * pwcet_dense_emit writes a finished dense result out of the staging
 * area in one pass: the probabilities into an OCaml float array and,
 * for an uncapped result, the penalties lo + step * bucket into an
 * OCaml int array.  A capped result skips the penalties; dist.ml reads
 * only its kept points' penalties from the staging area.
 *
 * The operands' weights are OCaml float arrays read as double *, which
 * requires the flat float array layout; dist.ml refuses to start
 * without it.  The calls neither allocate nor raise ([@@noalloc]); each
 * covers one window, so the OCaml caller returns to the runtime between
 * windows and a stop-the-world collection never waits on a whole
 * convolution.
 */

#define CAML_NAME_SPACE
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/bigarray.h>

/* AVX-512F and AVX2 clones beside the baseline one, picked at load
 * time by the host's widest supported set.  The attribute needs
 * GCC/Clang on x86-64 and ifunc support from glibc; anywhere else the
 * single baseline build is used. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define DENSE_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef DENSE_CLONES
#define DENSE_CLONES
#endif

#define BLOCK 8

/* dst[t] += c[q] * s[q][t] for q = 0..7 in turn, one load and one store
 * of dst[t].  Inlined into each clone; the restrict parameters let the
 * compiler vectorise over t without alias checks. */
static inline void
add_block(double *restrict dst, intnat n, const double *c, const double *restrict s0,
          const double *restrict s1, const double *restrict s2, const double *restrict s3,
          const double *restrict s4, const double *restrict s5, const double *restrict s6,
          const double *restrict s7)
{
    double c0 = c[0], c1 = c[1], c2 = c[2], c3 = c[3];
    double c4 = c[4], c5 = c[5], c6 = c[6], c7 = c[7];
    for (intnat t = 0; t < n; t++) {
        double v = dst[t];
        v += c0 * s0[t];
        v += c1 * s1[t];
        v += c2 * s2[t];
        v += c3 * s3[t];
        v += c4 * s4[t];
        v += c5 * s5[t];
        v += c6 * s6[t];
        v += c7 * s7[t];
        dst[t] = v;
    }
}

/* One row over its own extent, clamped to the window. */
static inline void
add_row(double *restrict acc, const double *restrict row, intnat len, intnat margin, double w,
        intnat off, intnat w0, intnat w1)
{
    intnat lo = off > w0 ? off : w0;
    intnat hi = off + len < w1 ? off + len : w1;
    double *restrict dst = acc + (lo - w0);
    const double *restrict src = row + margin + (lo - off);
    for (intnat t = 0; t < hi - lo; t++)
        dst[t] += w * src[t];
}

/* The row loop: rows r_lo..r_hi-1 of the padded row into the window
 * [w0, w1) held by acc. */
DENSE_CLONES
static void dense_rows(double *restrict acc, const double *restrict row, intnat len,
                       intnat margin, const double *restrict weights, value offs, intnat r_lo,
                       intnat r_hi, int descending, intnat w0, intnat w1)
{
    intnat count = r_hi - r_lo, o = 0;
    for (; o + BLOCK <= count; o += BLOCK) {
        intnat off[BLOCK];
        double c[BLOCK];
        for (int q = 0; q < BLOCK; q++) {
            intnat r = descending ? r_hi - 1 - (o + q) : r_lo + o + q;
            off[q] = Long_val(Field(offs, r));
            c[q] = weights[r];
        }
        /* Offsets ascend in r, so the block's extremes are its first
         * and last rows. */
        intnat off_min = descending ? off[BLOCK - 1] : off[0];
        intnat off_max = descending ? off[0] : off[BLOCK - 1];
        intnat lo = off_min > w0 ? off_min : w0;
        intnat hi = off_max + len < w1 ? off_max + len : w1;
        /* Row q is read at row[margin + k - off[q]] for k in [lo, hi),
         * inside the padded row for every q exactly when this holds. */
        if (off_max - margin <= lo && hi <= off_min + len + margin) {
            const double *s[BLOCK];
            for (int q = 0; q < BLOCK; q++)
                s[q] = row + margin + (lo - off[q]);
            add_block(acc + (lo - w0), hi - lo, c, s[0], s[1], s[2], s[3], s[4], s[5], s[6],
                      s[7]);
        } else {
            for (int q = 0; q < BLOCK; q++)
                add_row(acc, row, len, margin, c[q], off[q], w0, w1);
        }
    }
    for (; o < count; o++) {
        intnat r = descending ? r_hi - 1 - o : r_lo + o;
        add_row(acc, row, len, margin, weights[r], Long_val(Field(offs, r)), w0, w1);
    }
}

/* Appends the present buckets of the window [w0, w0 + width) to the
 * staging area from index [count] on, resets the window to -0.0 and
 * returns the new count.  Branch-free: every bucket is written at
 * [count], which advances only past a present one, so the staging area
 * must hold count + width entries. */
static intnat compact(double *restrict acc, intnat width, intnat w0, double *restrict probs,
                      intnat *restrict buckets, intnat count)
{
    for (intnat k = 0; k < width; k++) {
        double v = acc[k];
        uint64_t bits;
        memcpy(&bits, &v, sizeof bits);
        probs[count] = v;
        buckets[count] = w0 + k;
        count += (intnat)(1 - (bits >> 63));
        acc[k] = -0.0;
    }
    return count;
}

CAMLprim value pwcet_dense_rows(value acc, value row, value len, value margin, value weights,
                                value offs, value r_lo, value r_hi, value descending, value w0,
                                value w1, value probs, value buckets, value count)
{
    intnat lo = Long_val(w0), hi = Long_val(w1);
    double *a = (double *)Caml_ba_data_val(acc);
    dense_rows(a, (const double *)Caml_ba_data_val(row), Long_val(len), Long_val(margin),
               (const double *)weights, offs, Long_val(r_lo), Long_val(r_hi),
               Bool_val(descending), lo, hi);
    return Val_long(compact(a, hi - lo, lo, (double *)Caml_ba_data_val(probs),
                            (intnat *)Caml_ba_data_val(buckets), Long_val(count)));
}

CAMLprim value pwcet_dense_rows_byte(value *argv, int argn)
{
    (void)argn;
    return pwcet_dense_rows(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6],
                            argv[7], argv[8], argv[9], argv[10], argv[11], argv[12], argv[13]);
}

/* The scatter loop: the products aw[i] * bw[j] of rows r_lo..r_hi-1
 * that land in [w0, w1), each row from its cursor on. */
static void dense_scatter(double *restrict acc, const double *restrict aw, value aoff,
                          const double *restrict bw, value boff, value cursor, intnat r_lo,
                          intnat r_hi, intnat w0, intnat w1)
{
    intnat m = Wosize_val(boff), width = w1 - w0;
    for (intnat i = r_lo; i < r_hi; i++) {
        intnat base = Long_val(Field(aoff, i)) - w0;
        intnat j = Long_val(Field(cursor, i));
        double pa = aw[i];
        for (; j < m; j++) {
            intnat k = base + Long_val(Field(boff, j));
            if (k >= width) break;
            acc[k] += pa * bw[j];
        }
        Store_field(cursor, i, Val_long(j));
    }
}

CAMLprim value pwcet_dense_scatter(value acc, value aw, value aoff, value bw, value boff,
                                   value cursor, value r_lo, value r_hi, value w0, value w1,
                                   value probs, value buckets, value count)
{
    intnat lo = Long_val(w0), hi = Long_val(w1);
    double *a = (double *)Caml_ba_data_val(acc);
    dense_scatter(a, (const double *)aw, aoff, (const double *)bw, boff, cursor,
                  Long_val(r_lo), Long_val(r_hi), lo, hi);
    return Val_long(compact(a, hi - lo, lo, (double *)Caml_ba_data_val(probs),
                            (intnat *)Caml_ba_data_val(buckets), Long_val(count)));
}

CAMLprim value pwcet_dense_scatter_byte(value *argv, int argn)
{
    (void)argn;
    return pwcet_dense_scatter(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6],
                               argv[7], argv[8], argv[9], argv[10], argv[11], argv[12]);
}


/* Writes a dense result out of the staging area in one pass: the first
 * [count] staged probabilities into the OCaml float array [out_probs],
 * and the penalty lo + step * bucket of the first Wosize_val(out_pens)
 * of them into the OCaml int array [out_pens] (a capped result passes
 * an empty one and reads only its kept points' penalties).  The
 * penalties are immediate integers, so storing them needs no write
 * barrier. */
CAMLprim value pwcet_dense_emit(value probs, value buckets, value count, value lo, value step,
                                value out_probs, value out_pens)
{
    intnat n = Long_val(count), base = Long_val(lo), s = Long_val(step);
    intnat np = Wosize_val(out_pens);
    const intnat *b = (const intnat *)Caml_ba_data_val(buckets);
    if (n > 0)
        memcpy((double *)out_probs, Caml_ba_data_val(probs), n * sizeof(double));
    for (intnat k = 0; k < np; k++)
        Field(out_pens, k) = Val_long(base + s * b[k]);
    return Val_unit;
}

CAMLprim value pwcet_dense_emit_byte(value *argv, int argn)
{
    (void)argn;
    return pwcet_dense_emit(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]);
}
