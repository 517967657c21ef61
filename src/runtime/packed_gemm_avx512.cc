/**
 * @file
 * AVX-512 (F+BW) tier of the packed GEMM: full-table vector LUT
 * decode of the M2XFP weight streams and an 8x16 broadcast-form FMA
 * microkernel over 8-wide double accumulators.
 *
 * Decode: the 16-entry FP4 E2M1 value table fits one zmm register,
 * so a single vpermps (_mm512_permutexvar_ps) decodes 16 codes at
 * once — no sign-split needed, unlike the AVX2 tier's 8-entry
 * magnitude permute. The four Sg-EM subgroup scales of a group are
 * staged in one xmm and expanded to per-lane scale vectors with a
 * second permutexvar, keeping the multiply order identical to the
 * scalar decode (value * (sval * mult)), so the decoded floats are
 * bit-identical to the codec_traits generic kernels (asserted by
 * tests/runtime/simd_test.cc). Activation-role row decode is shared
 * with the AVX2 tier: its Elem-EM top-1 fix-up is already
 * vectorized there and bit-identical, and re-deriving it per ISA
 * would only add surface for drift.
 *
 * Accumulate: per depth step the k-major sliver contributes two
 * 8-wide W vectors and each of the 8 A rows one broadcast — 16
 * independent FMA chains across 19 live zmm registers, deep enough
 * to cover the FMA latency at two issues per cycle; ragged row
 * counts run 4-row (8-chain) then 1-row sweeps. Each output is one
 * FMA chain in one lane, persisted in the block accumulator across
 * KC slices, so every row split gives the same bits; FMA rounding
 * differs from the scalar oracle's multiply-add, so parity with it
 * is tolerance-checked, never assumed bit-exact.
 *
 * This translation unit is compiled with -mavx2 -mfma -mavx512f
 * -mavx512bw and must only be entered through the runtime dispatch
 * (simdIsaAvailable guards).
 */

#include <immintrin.h>

#include <algorithm>

#include "runtime/codec_traits.hh"
#include "runtime/packed_gemm_kernels.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {
namespace detail {

namespace {

constexpr size_t groupSize = PackedM2xfpTensor::groupSize;

/** Scalar tables plus their vector-register forms. */
struct Avx512Tables
{
    const CodecTraits *lut;
    __m512 fp4Value;     //!< the full 16-entry FP4 table
    __m512i sgIdxLo;     //!< lane -> subgroup index, elements 0..15
    __m512i sgIdxHi;     //!< same for elements 16..31
};

const Avx512Tables &
tables()
{
    static const Avx512Tables t = [] {
        const CodecTraits &lut = CodecTraits::get(PackedCodec::ElemEm);
        return Avx512Tables{
            &lut, _mm512_loadu_ps(lut.fp4Value),
            _mm512_set_epi32(1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0,
                             0, 0, 0),
            _mm512_set_epi32(3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2,
                             2, 2, 2)};
    }();
    return t;
}

/**
 * Split one group's 16 packed bytes into 32 interleaved 4-bit codes
 * (element order: byte i's low nibble is element 2i), returned as
 * two 16-code chunks.
 */
inline void
splitNibbles(const uint8_t *bytes, __m128i chunk[2])
{
    __m128i raw = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(bytes));
    __m128i mask = _mm_set1_epi8(0x0f);
    __m128i lo = _mm_and_si128(raw, mask);
    __m128i hi = _mm_and_si128(_mm_srli_epi16(raw, 4), mask);
    chunk[0] = _mm_unpacklo_epi8(lo, hi); // codes 0..15
    chunk[1] = _mm_unpackhi_epi8(lo, hi); // codes 16..31
}

/**
 * In-register transpose of a 16x16 float block: on return r[c] holds
 * column c (element i = old r[i][c]). Three shuffle stages — 32-bit
 * pairs, 64-bit pairs, then 128-bit lanes — 64 shuffles in all.
 */
inline void
transpose16x16(__m512 r[16])
{
    __m512 t[16];
    for (int i = 0; i < 8; ++i) {
        t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    // r[4i + c], 128-bit lane L: rows 4i..4i+3 of column 4L + c.
    for (int i = 0; i < 4; ++i) {
        __m512d x0 = _mm512_castps_pd(t[4 * i]);
        __m512d x1 = _mm512_castps_pd(t[4 * i + 1]);
        __m512d y0 = _mm512_castps_pd(t[4 * i + 2]);
        __m512d y1 = _mm512_castps_pd(t[4 * i + 3]);
        r[4 * i] = _mm512_castpd_ps(_mm512_unpacklo_pd(x0, y0));
        r[4 * i + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(x0, y0));
        r[4 * i + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(x1, y1));
        r[4 * i + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(x1, y1));
    }
    for (int c = 0; c < 4; ++c) {
        __m512 a = _mm512_shuffle_f32x4(r[c], r[4 + c], 0x88);
        __m512 b = _mm512_shuffle_f32x4(r[c], r[4 + c], 0xdd);
        __m512 e = _mm512_shuffle_f32x4(r[8 + c], r[12 + c], 0x88);
        __m512 f = _mm512_shuffle_f32x4(r[8 + c], r[12 + c], 0xdd);
        t[c] = _mm512_shuffle_f32x4(a, e, 0x88);
        t[8 + c] = _mm512_shuffle_f32x4(a, e, 0xdd);
        t[4 + c] = _mm512_shuffle_f32x4(b, f, 0x88);
        t[12 + c] = _mm512_shuffle_f32x4(b, f, 0xdd);
    }
    for (int c = 0; c < 16; ++c)
        r[c] = t[c];
}

} // anonymous namespace

void
decodeWeightGroupAvx512(const PackedM2xfpTensor &t, size_t row,
                        size_t group, float *out)
{
    const Avx512Tables &tab = tables();
    float sval = tab.lut->scaleValue[t.scaleCode(row, group)];
    uint8_t meta = t.groupMetaByte(row, group);

    // The four subgroup scales, premultiplied exactly like the
    // scalar decode, then fanned out to their 8-lane spans.
    __m128 s4 = _mm_setr_ps(
        sval * tab.lut->subMult[meta & 0x3u],
        sval * tab.lut->subMult[(meta >> 2) & 0x3u],
        sval * tab.lut->subMult[(meta >> 4) & 0x3u],
        sval * tab.lut->subMult[(meta >> 6) & 0x3u]);
    __m512 s16 = _mm512_castps128_ps512(s4);
    __m512 scale_lo = _mm512_permutexvar_ps(tab.sgIdxLo, s16);
    __m512 scale_hi = _mm512_permutexvar_ps(tab.sgIdxHi, s16);

    __m128i chunk[2];
    splitNibbles(t.groupElementBytes(row, group), chunk);
    __m512 val_lo = _mm512_permutexvar_ps(
        _mm512_cvtepu8_epi32(chunk[0]), tab.fp4Value);
    __m512 val_hi = _mm512_permutexvar_ps(
        _mm512_cvtepu8_epi32(chunk[1]), tab.fp4Value);
    _mm512_storeu_ps(out, _mm512_mul_ps(val_lo, scale_lo));
    _mm512_storeu_ps(out + 16, _mm512_mul_ps(val_hi, scale_hi));
}

void
decodeWeightRowAvx512(const PackedM2xfpTensor &t, size_t row,
                      float *out)
{
    for (size_t g = 0; g < t.groupsPerRow(); ++g)
        decodeWeightGroupAvx512(t, row, g, out + g * groupSize);
}

void
decodeWeightTileAvx512(const PackedM2xfpTensor &w, size_t j0, size_t jlim,
                       size_t g0, size_t g1, double *tile)
{
    // One group of the sliver's 16 rows at a time: decode row-major
    // into an L1 staging block, transpose each 16-column half in
    // registers, and widen the columns straight into the tile.
    alignas(64) float rows[16][groupSize];
    for (size_t lane = jlim; lane < 16; ++lane)
        std::fill_n(rows[lane], groupSize, 0.0f);
    for (size_t g = g0; g < g1; ++g) {
        for (size_t lane = 0; lane < jlim; ++lane)
            decodeWeightGroupAvx512(w, j0 + lane, g, rows[lane]);
        double *out = tile + (g - g0) * groupSize * 16;
        for (size_t half = 0; half < 2; ++half) {
            __m512 r[16];
            for (int i = 0; i < 16; ++i)
                r[i] = _mm512_load_ps(rows[i] + 16 * half);
            transpose16x16(r);
            for (int c = 0; c < 16; ++c) {
                double *dst = out + (16 * half + c) * 16;
                _mm512_storeu_pd(dst, _mm512_cvtps_pd(
                                          _mm512_castps512_ps256(r[c])));
                _mm512_storeu_pd(
                    dst + 8,
                    _mm512_cvtps_pd(_mm256_castpd_ps(
                        _mm512_extractf64x4_pd(_mm512_castps_pd(r[c]),
                                               1))));
            }
        }
    }
}

void
microKernelAvx512(const double *a, size_t a_stride, const double *ws,
                  size_t nr, size_t p0, size_t p1, size_t mr_cur,
                  double *acc, size_t acc_stride)
{
    m2x_assert(nr == 16, "microKernelAvx512 expects nr=16, got %zu",
               nr);
    if (mr_cur == 8) {
        __m512d c_lo[8], c_hi[8];
        for (size_t ii = 0; ii < 8; ++ii) {
            const double *r = acc + ii * acc_stride;
            c_lo[ii] = _mm512_loadu_pd(r);
            c_hi[ii] = _mm512_loadu_pd(r + 8);
        }
        for (size_t p = p0; p < p1; ++p) {
            const double *wp = ws + p * 16;
            __m512d wl = _mm512_loadu_pd(wp);
            __m512d wh = _mm512_loadu_pd(wp + 8);
            // Fully unrolled 8-row broadcast sweep: the fixed trip
            // count lets the compiler keep all 16 accumulators in
            // registers.
            c_lo[0] = _mm512_fmadd_pd(_mm512_set1_pd(a[p]), wl,
                                      c_lo[0]);
            c_hi[0] = _mm512_fmadd_pd(_mm512_set1_pd(a[p]), wh,
                                      c_hi[0]);
            c_lo[1] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[a_stride + p]), wl, c_lo[1]);
            c_hi[1] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[a_stride + p]), wh, c_hi[1]);
            c_lo[2] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[2 * a_stride + p]), wl, c_lo[2]);
            c_hi[2] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[2 * a_stride + p]), wh, c_hi[2]);
            c_lo[3] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[3 * a_stride + p]), wl, c_lo[3]);
            c_hi[3] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[3 * a_stride + p]), wh, c_hi[3]);
            c_lo[4] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[4 * a_stride + p]), wl, c_lo[4]);
            c_hi[4] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[4 * a_stride + p]), wh, c_hi[4]);
            c_lo[5] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[5 * a_stride + p]), wl, c_lo[5]);
            c_hi[5] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[5 * a_stride + p]), wh, c_hi[5]);
            c_lo[6] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[6 * a_stride + p]), wl, c_lo[6]);
            c_hi[6] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[6 * a_stride + p]), wh, c_hi[6]);
            c_lo[7] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[7 * a_stride + p]), wl, c_lo[7]);
            c_hi[7] = _mm512_fmadd_pd(
                _mm512_set1_pd(a[7 * a_stride + p]), wh, c_hi[7]);
        }
        for (size_t ii = 0; ii < 8; ++ii) {
            double *r = acc + ii * acc_stride;
            _mm512_storeu_pd(r, c_lo[ii]);
            _mm512_storeu_pd(r + 8, c_hi[ii]);
        }
        return;
    }
    // Ragged edge (mr_cur < 8), the decode-step shape: four rows at
    // a time (8 independent chains, enough to cover the FMA latency),
    // then the rest one row at a time. Every output keeps its own
    // lane, so the bits match the 8-row tile.
    size_t ii = 0;
    for (; ii + 4 <= mr_cur; ii += 4) {
        double *r0 = acc + ii * acc_stride;
        double *r1 = r0 + acc_stride;
        double *r2 = r1 + acc_stride;
        double *r3 = r2 + acc_stride;
        const double *a0 = a + ii * a_stride;
        const double *a1 = a0 + a_stride;
        const double *a2 = a1 + a_stride;
        const double *a3 = a2 + a_stride;
        __m512d c0l = _mm512_loadu_pd(r0), c0h = _mm512_loadu_pd(r0 + 8);
        __m512d c1l = _mm512_loadu_pd(r1), c1h = _mm512_loadu_pd(r1 + 8);
        __m512d c2l = _mm512_loadu_pd(r2), c2h = _mm512_loadu_pd(r2 + 8);
        __m512d c3l = _mm512_loadu_pd(r3), c3h = _mm512_loadu_pd(r3 + 8);
        for (size_t p = p0; p < p1; ++p) {
            const double *wp = ws + p * 16;
            __m512d wl = _mm512_loadu_pd(wp);
            __m512d wh = _mm512_loadu_pd(wp + 8);
            __m512d av = _mm512_set1_pd(a0[p]);
            c0l = _mm512_fmadd_pd(av, wl, c0l);
            c0h = _mm512_fmadd_pd(av, wh, c0h);
            av = _mm512_set1_pd(a1[p]);
            c1l = _mm512_fmadd_pd(av, wl, c1l);
            c1h = _mm512_fmadd_pd(av, wh, c1h);
            av = _mm512_set1_pd(a2[p]);
            c2l = _mm512_fmadd_pd(av, wl, c2l);
            c2h = _mm512_fmadd_pd(av, wh, c2h);
            av = _mm512_set1_pd(a3[p]);
            c3l = _mm512_fmadd_pd(av, wl, c3l);
            c3h = _mm512_fmadd_pd(av, wh, c3h);
        }
        _mm512_storeu_pd(r0, c0l);
        _mm512_storeu_pd(r0 + 8, c0h);
        _mm512_storeu_pd(r1, c1l);
        _mm512_storeu_pd(r1 + 8, c1h);
        _mm512_storeu_pd(r2, c2l);
        _mm512_storeu_pd(r2 + 8, c2h);
        _mm512_storeu_pd(r3, c3l);
        _mm512_storeu_pd(r3 + 8, c3h);
    }
    for (; ii < mr_cur; ++ii) {
        double *r = acc + ii * acc_stride;
        const double *ar = a + ii * a_stride;
        __m512d cl = _mm512_loadu_pd(r);
        __m512d ch = _mm512_loadu_pd(r + 8);
        for (size_t p = p0; p < p1; ++p) {
            const double *wp = ws + p * 16;
            __m512d av = _mm512_set1_pd(ar[p]);
            cl = _mm512_fmadd_pd(av, _mm512_loadu_pd(wp), cl);
            ch = _mm512_fmadd_pd(av, _mm512_loadu_pd(wp + 8), ch);
        }
        _mm512_storeu_pd(r, cl);
        _mm512_storeu_pd(r + 8, ch);
    }
}

} // namespace detail
} // namespace runtime
} // namespace m2x
