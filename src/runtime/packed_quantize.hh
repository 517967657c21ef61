/**
 * @file
 * Fast-path online activation encoder for the packed-domain runtime.
 *
 * PackedLinear::forward must quantize its activations on every call
 * (Elem-EM-top1, Alg. 1 of the paper) before the packed GEMM can
 * start — the "quantization overhead on the critical path" that MX
 * deployments have to amortize. The functional codec
 * (ElemEmQuantizer::encodeGroup) is built for clarity: it allocates
 * two heap vectors per 32-element group and encodes every element
 * through a binary search over the minifloat value table. This
 * subsystem re-implements the same pipeline as allocation-free
 * per-ISA kernels that write the three packed streams directly:
 *
 *   group absmax -> shared E8M0 scale (any ScaleRule)
 *   FP4 E2M1 round-to-nearest-even of every scaled element
 *   per-subgroup top-1 selection in the FP4 code domain
 *   FP6 E2M3 re-round of the top-1 element -> 2-bit metadata
 *
 * The contract is *byte-exactness*, not value closeness: for the
 * paper activation config (g32/sg8, top-1, clamped bias, fixed
 * shared scale) every kernel tier must produce element/scale/meta
 * streams identical to PackedM2xfpTensor::packActivations(m, q) —
 * asserted exhaustively by tests/runtime/packed_quantize_test.cc,
 * including NaN/Inf/denormal inputs and rounding-tie boundaries.
 * Unlike the GEMM tiers (where vector accumulation reassociates the
 * sum), encoding is elementwise, so the AVX2 tier is held to the
 * same bit-exact contract as the scalar oracle.
 *
 * Tier selection goes through the same SimdIsa dispatch as the GEMM
 * microkernels (runtime/simd.hh): M2X_SIMD governs both the encode
 * and the GEMM tier. Two encoder tiers exist, scalar and AVX2; the
 * AVX-512 tier encodes with the AVX2 kernel. Rows are independent,
 * so the row loop is distributed over a ThreadPool.
 *
 * The public entry points are the PackedM2xfpTensor::packActivations
 * (pool, isa) overloads declared in core/m2xfp_packed.hh and defined
 * here in the runtime library; this header exposes the kernel table
 * and the per-group encoders for tests and benches.
 */

#ifndef M2X_RUNTIME_PACKED_QUANTIZE_HH__
#define M2X_RUNTIME_PACKED_QUANTIZE_HH__

#include <cmath>
#include <cstdint>

#include "core/m2xfp_packed.hh"
#include "quant/scale_rules.hh"
#include "runtime/simd.hh"
#include "runtime/thread_pool.hh"

namespace m2x {
namespace runtime {
namespace detail {

/**
 * Encode one row of @p cols floats into the packed streams: the
 * row's ceil(cols/32) groups of element bytes (16 per group), E8M0
 * scale codes and metadata bytes. The tail group is zero-padded
 * exactly like the functional packer.
 */
using QuantizeRowFn = void (*)(const float *src, size_t cols,
                               ScaleRule rule, uint8_t *elems,
                               uint8_t *scales, uint8_t *meta);

/** The per-ISA encoder set used by the fast-path packActivations. */
struct QuantizeKernels
{
    QuantizeRowFn quantizeActivationRow;
};

/**
 * Kernel table for @p isa. Avx512 gets the AVX2 encoder. Asking for
 * a tier that is not compiled in returns the scalar table (callers
 * guard with simdIsaAvailable).
 */
const QuantizeKernels &quantizeKernels(SimdIsa isa);

/** Scalar tier: the allocation-free bit-exact oracle. */
void quantizeActivationRowScalar(const float *src, size_t cols,
                                 ScaleRule rule, uint8_t *elems,
                                 uint8_t *scales, uint8_t *meta);

/**
 * Encode one full (32-element, caller-padded) group. Exposed for the
 * group-granular parity sweeps.
 */
void encodeActivationGroupScalar(const float *in, ScaleRule rule,
                                 uint8_t *elems, uint8_t *scale,
                                 uint8_t *meta);

#ifdef M2X_HAVE_AVX2
/** AVX2 tier: vector absmax / FP4 RNE / top-1 selection. */
void quantizeActivationRowAvx2(const float *src, size_t cols,
                               ScaleRule rule, uint8_t *elems,
                               uint8_t *scales, uint8_t *meta);

void encodeActivationGroupAvx2(const float *in, ScaleRule rule,
                               uint8_t *elems, uint8_t *scale,
                               uint8_t *meta);
#endif // M2X_HAVE_AVX2

/**
 * parallelFor grain (rows per chunk) for @p rows distributed over
 * @p lanes. Invariants (property-tested):
 *  - 1 <= grain <= max(rows, 1);
 *  - for lanes >= 2, the chunk count ceil(rows/grain) is at least
 *    min(rows, 2*lanes) — no shape serializes onto a few lanes.
 */
size_t packedQuantizeGrain(size_t rows, size_t lanes);

/**
 * FP4 E2M1 code (sign | 3-bit magnitude) of @p x with
 * round-to-nearest, ties to the even code, saturating at the largest
 * finite magnitude — bit-identical to Minifloat::fp4e2m1().encode()
 * for every float (NaN maps to +6.0, code 7). The branchless
 * threshold ladder replaces the value-table binary search: each
 * magnitude boundary is the exactly-representable midpoint between
 * adjacent FP4 values, compared strictly or inclusively so the tie
 * lands on the even code.
 */
inline uint32_t
fp4CodeRne(float x)
{
    if (std::isnan(x))
        return 7;
    uint32_t sign = std::signbit(x) ? 8u : 0u;
    float a = std::fabs(x);
    uint32_t mag = 0;
    mag += a > 0.25f;  // 0   vs 0.5: tie -> code 0
    mag += a >= 0.75f; // 0.5 vs 1  : tie -> code 2
    mag += a > 1.25f;  // 1   vs 1.5: tie -> code 2
    mag += a >= 1.75f; // 1.5 vs 2  : tie -> code 4
    mag += a > 2.5f;   // 2   vs 3  : tie -> code 4
    mag += a >= 3.5f;  // 3   vs 4  : tie -> code 6
    mag += a > 5.0f;   // 4   vs 6  : tie -> code 6
    return sign | mag;
}

/**
 * FP6 E2M3 magnitude code of @p a >= 0 (or NaN), RNE with ties to
 * the even code, saturating at 7.5 — bit-identical to
 * Minifloat::fp6e2m3().encode(a) & 0x1f. Within each binade the FP6
 * grid is uniform, so the code is the grid multiple rounded with
 * lrintf (RNE under the default rounding mode); the multiplies by
 * 8/4/2 are exact.
 */
inline uint32_t
fp6MagRne(float a)
{
    if (std::isnan(a) || a >= 7.5f)
        return 31;
    if (a < 2.0f) // subnormals + [1, 2): codes 0..16, step 0.125
        return static_cast<uint32_t>(std::lrintf(a * 8.0f));
    if (a < 4.0f) // [2, 4): codes 16..24, step 0.25
        return 8u + static_cast<uint32_t>(std::lrintf(a * 4.0f));
    // [4, 7.5): codes 24..31, step 0.5
    return 16u + static_cast<uint32_t>(std::lrintf(a * 2.0f));
}

} // namespace detail
} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_PACKED_QUANTIZE_HH__
