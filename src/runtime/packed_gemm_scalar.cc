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
 * keeps the zero-filled tail pad out of the chains entirely. Decode
 * is the codec_traits generic kernels.
 */

#include "runtime/codec_traits.hh"
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
    decodeWeightTileGeneric(&codecDecodeWeightGroup, 16, w, j0, jlim, g0,
                            g1, tile);
}

} // namespace detail
} // namespace runtime
} // namespace m2x
