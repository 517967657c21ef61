/**
 * @file
 * Scalar tier of the packed GEMM kernels — the bit-exact oracle
 * every vector tier is verified against. Each output element sums
 * its K products in double precision in ascending-k order, exactly
 * like matmulNt over the unpacked operands, so blocking, threading
 * and dispatch cannot change a single ULP on this tier. The panel
 * microkernel adds every product straight into the persistent block
 * accumulator (never a lane partial), so KC depth slicing preserves
 * the same single ascending chain per output; the driver clamps the
 * scalar depth sweep to the true k (accumulatePadding=false), which
 * keeps the zero-filled tail pad out of the chains entirely. The
 * legacy PR3 tile kernel below it backs detail::packedMatmulNtTiled.
 */

#include <algorithm>

#include "runtime/decode_lut.hh"
#include "runtime/packed_gemm_kernels.hh"

namespace m2x {
namespace runtime {
namespace detail {

void
microKernelScalar(const double *a, size_t a_stride, const double *ws,
                  size_t nr, size_t p0, size_t p1, size_t mr_cur,
                  double *acc, size_t acc_stride)
{
    // p outermost, direct accumulation: each acc element's chain
    // stays a single ascending-k sum across every KC slice, while
    // adjacent outputs interleave to hide the FP add latency.
    for (size_t p = p0; p < p1; ++p) {
        const double *wp = ws + p * nr;
        for (size_t ii = 0; ii < mr_cur; ++ii) {
            double av = a[ii * a_stride + p];
            double *arow = acc + ii * acc_stride;
            for (size_t jj = 0; jj < nr; ++jj)
                arow[jj] += av * wp[jj];
        }
    }
}

void
decodeWeightTileScalar(const PackedM2xfpTensor &w, size_t j0, size_t jlim,
                       size_t g0, size_t g1, double *tile)
{
    decodeWeightTileGeneric(&decodeWeightGroup, 16, w, j0, jlim, g0, g1,
                            tile);
}

void
computeTileScalar(const PackedM2xfpTensor &w, const float *abuf,
                  size_t padded_k, size_t i0, size_t mt, size_t j0,
                  size_t nt, size_t k, Matrix &c)
{
    constexpr size_t groupSize = PackedM2xfpTensor::groupSize;

    // Independent double accumulators: each c(i,j) still sums its
    // products in ascending-k order (bit-exact vs matmulNt), but
    // adjacent outputs interleave, hiding the FP add latency.
    double acc[gemmTileM][gemmTileN] = {};
    float wtile[groupSize * gemmTileN]; // transposed: [p][jj]
    float wrow[groupSize];

    size_t n_groups = padded_k / groupSize;
    for (size_t g = 0; g < n_groups; ++g) {
        size_t base = g * groupSize;
        size_t glen = std::min(groupSize, k - base);
        for (size_t jj = 0; jj < nt; ++jj) {
            decodeWeightGroup(w, j0 + jj, g, wrow);
            for (size_t p = 0; p < glen; ++p)
                wtile[p * gemmTileN + jj] = wrow[p];
        }
        for (size_t p = 0; p < glen; ++p) {
            const float *wp = wtile + p * gemmTileN;
            for (size_t ii = 0; ii < mt; ++ii) {
                double av = abuf[ii * padded_k + base + p];
                double *arow = acc[ii];
                for (size_t jj = 0; jj < nt; ++jj)
                    arow[jj] += av * wp[jj];
            }
        }
    }

    for (size_t ii = 0; ii < mt; ++ii)
        for (size_t jj = 0; jj < nt; ++jj)
            c(i0 + ii, j0 + jj) =
                static_cast<float>(acc[ii][jj]);
}

} // namespace detail
} // namespace runtime
} // namespace m2x
