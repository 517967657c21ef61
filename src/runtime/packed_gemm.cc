#include "runtime/packed_gemm.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/codec_traits.hh"
#include "runtime/packed_gemm_kernels.hh"
#include "runtime/telemetry.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {

namespace {

constexpr size_t groupSize = PackedM2xfpTensor::groupSize;

/**
 * Distinguishes per-thread W panel caches across GEMM calls: a
 * thread-local buffer keyed only on the panel index could alias a
 * previous call's tensor (same address, different data).
 */
std::atomic<uint64_t> call_counter{0};

} // anonymous namespace

namespace detail {

const GemmKernels &
gemmKernels(SimdIsa isa)
{
    // Cache blocks (mc/kc/nc) per tier: the decoded W panel is nc
    // slivers of padded_k doubles and the A block is mc rows of the
    // same depth, so the defaults keep panel + block + accumulator
    // inside a ~1 MiB L2 at the bench shapes while kc * nr sliver
    // slices stay L1-resident for the register-tile sweep.
    static const GemmKernels scalar{&codecDecodeActivationRow,
                                    &codecDecodeWeightRow,
                                    &decodeWeightTileScalar,
                                    &microKernelScalar,
                                    {16, 16, 64, 256, 64},
                                    /*accumulatePadding=*/false};
#ifdef M2X_HAVE_AVX2
    static const GemmKernels avx2{&decodeActivationRowAvx2,
                                  &decodeWeightRowAvx2,
                                  &decodeWeightTileAvx2,
                                  &microKernelAvx2,
                                  {4, 8, 128, 256, 128},
                                  /*accumulatePadding=*/true};
    if (isa == SimdIsa::Avx2)
        return avx2;
#endif
#ifdef M2X_HAVE_AVX512
    static const GemmKernels avx512{&decodeActivationRowAvx2,
                                    &decodeWeightRowAvx512,
                                    &decodeWeightTileAvx512,
                                    &microKernelAvx512,
                                    {8, 16, 128, 256, 128},
                                    /*accumulatePadding=*/true};
    if (isa == SimdIsa::Avx512)
        return avx512;
#endif
    (void)isa;
    return scalar;
}

GemmBlocking
normalizeBlocking(SimdIsa isa, size_t mc, size_t kc, size_t nc)
{
    GemmBlocking b = gemmKernels(isa).blocking;
    b.mc = ceilDiv(std::max<size_t>(mc, 1), b.mr) * b.mr;
    b.kc = ceilDiv(std::max<size_t>(kc, 1), groupSize) * groupSize;
    b.nc = ceilDiv(std::max<size_t>(nc, 1), b.nr) * b.nr;
    return b;
}

void
decodeWeightTileGeneric(DecodeGroupFn decode, size_t nr,
                        const PackedM2xfpTensor &w, size_t j0,
                        size_t jlim, size_t g0, size_t g1, double *tile)
{
    size_t gs = w.codecInfo().groupSize;
    float buf[groupSize];
    for (size_t lane = 0; lane < jlim; ++lane) {
        for (size_t g = g0; g < g1; ++g) {
            decode(w, j0 + lane, g, buf);
            double *t = tile + (g - g0) * gs * nr + lane;
            for (size_t q = 0; q < gs; ++q)
                t[q * nr] = buf[q];
        }
    }
    for (size_t p = 0; p < (g1 - g0) * gs; ++p)
        for (size_t lane = jlim; lane < nr; ++lane)
            tile[p * nr + lane] = 0.0;
}

GemmBlocking
gemmBlocking(SimdIsa isa)
{
    return gemmKernels(isa).blocking;
}

size_t
packedGemmGrain(size_t n_ic, size_t n_jc, size_t lanes)
{
    size_t n_tasks = n_ic * n_jc;
    if (n_tasks == 0)
        return 1;
    // A serial pool runs inline anyway; one maximal chunk skips the
    // chunking overhead.
    if (lanes <= 1)
        return n_tasks;
    // Whole panel stripes when they already balance the lanes: each
    // W panel is then decoded by exactly one thread.
    if (n_jc >= 2 * lanes)
        return n_ic;
    // Otherwise split stripes (duplicated panel decode is the price
    // of parallelism across M): target ~4 chunks per lane, rounding
    // the grain up so tiny remainders don't explode the chunk count,
    // and never let a chunk exceed one stripe. With the ceiling,
    // every grid of at least 2*lanes tasks yields at least 2*lanes
    // chunks — no block configuration can serialize onto a few
    // lanes. (The stripe cap cannot bind here: grain > n_ic would
    // need n_jc > 4*lanes, contradicting n_jc < 2*lanes.)
    size_t target = ceilDiv(n_tasks, 4 * lanes);
    return std::clamp<size_t>(target, 1, n_ic);
}

namespace {

/** Operand and tier checks shared by both blocked drivers. */
void
checkOperands(const PackedM2xfpTensor &a, const PackedM2xfpTensor &w,
              SimdIsa isa, const GemmBlocking &blocking)
{
    m2x_assert(a.cols() == w.cols(),
               "packedMatmulNt K mismatch: %zu vs %zu", a.cols(),
               w.cols());
    m2x_assert(a.codec() == w.codec(),
               "packedMatmulNt codec mismatch: %s vs %s",
               packedCodecName(a.codec()), packedCodecName(w.codec()));
    m2x_assert(simdIsaAvailable(isa),
               "packedMatmulNt: ISA tier '%s' is not available on "
               "this machine", simdIsaName(isa));
    // kc stays a multiple of the paper group (32) for every codec —
    // also a multiple of the g16 M2-NVFP4 decode group.
    m2x_assert(blocking.mc % blocking.mr == 0 &&
                   blocking.nc % blocking.nr == 0 &&
                   blocking.kc % groupSize == 0,
               "packedMatmulNtBlocked: blocking %zux%zux%zu not "
               "normalized for mr=%zu nr=%zu", blocking.mc,
               blocking.kc, blocking.nc, blocking.mr, blocking.nr);
}

/** @{
 * Per-thread scratch for the decoded A block and one decoded row,
 * shared by both drivers: a thread runs one driver at a time, and
 * the sliver driver's caller only reads its block while the job it
 * posted runs.
 */
std::vector<double> &
aBlockScratch()
{
    thread_local std::vector<double> v;
    return v;
}

std::vector<float> &
rowScratch()
{
    thread_local std::vector<float> v;
    return v;
}
/** @} */

/**
 * Byte offset past a 4 KiB boundary of the sliver driver's
 * accumulator; the A block and the weight tile start on one. Picked
 * from a sweep of 16 offsets: on a 4-vCPU AVX-512 VM the scalar
 * 16x192x192 GEMM took 200 us here and up to 335 us at others.
 */
constexpr size_t accPageOffset = 2816;

/**
 * @p n doubles of @p store starting @p offset bytes past a 4 KiB
 * boundary. The scalar microkernel keeps its accumulator in memory,
 * and a load whose address matches an in-flight accumulator store in
 * the low 12 bits waits on it (4K aliasing), so the speed of the
 * scalar GEMM followed where the heap happened to put the A block
 * relative to the accumulator. Pinning each buffer's page offset
 * fixes that layout. The store only
 * grows, so a buffer shared with the panel driver is never refilled.
 */
double *
pagePinned(std::vector<double> &store, size_t n, size_t offset)
{
    constexpr size_t page = 4096;
    size_t need = n + (page + offset) / sizeof(double);
    if (store.size() < need)
        store.resize(need);
    auto p = reinterpret_cast<uintptr_t>(store.data());
    return reinterpret_cast<double *>(((p + page - 1) & ~(page - 1)) +
                                      offset);
}

/**
 * Decode rows [i0, i0 + rows) of @p a into row-major doubles of
 * width @p padded_k, the depth pad [k, padded_k) zeroed.
 */
void
decodeABlock(DecodeRowFn decode, const PackedM2xfpTensor &a, size_t i0,
             size_t rows, size_t k, size_t padded_k, float *rowbuf,
             double *out)
{
    for (size_t ii = 0; ii < rows; ++ii) {
        decode(a, i0 + ii, rowbuf);
        double *ar = out + ii * padded_k;
        for (size_t p = 0; p < k; ++p)
            ar[p] = rowbuf[p];
        for (size_t p = k; p < padded_k; ++p)
            ar[p] = 0.0;
    }
}

} // anonymous namespace

void
packedMatmulNtBlocked(const PackedM2xfpTensor &a,
                      const PackedM2xfpTensor &w, Matrix &c,
                      ThreadPool *pool, SimdIsa isa,
                      const GemmBlocking &blocking)
{
    // One A block means no decoded panel would be reused across
    // blocks: spread NR slivers over every lane instead of NC panels
    // over a few.
    if (a.rows() <= blocking.mc)
        packedMatmulNtSlivers(a, w, c, pool, isa, blocking);
    else
        packedMatmulNtPanels(a, w, c, pool, isa, blocking);
}

void
packedMatmulNtSlivers(const PackedM2xfpTensor &a,
                      const PackedM2xfpTensor &w, Matrix &c,
                      ThreadPool *pool, SimdIsa isa,
                      const GemmBlocking &blocking)
{
    checkOperands(a, w, isa, blocking);
    size_t m = a.rows(), n = w.rows(), k = a.cols();
    c.resize(m, n);
    if (m == 0 || n == 0)
        return;

    const detail::GemmKernels &kern = detail::gemmKernels(isa);
    bool elem_em = a.codec() == PackedCodec::ElemEm;
    detail::DecodeRowFn decode_act =
        elem_em ? kern.decodeActivationRow : &codecDecodeActivationRow;
    const size_t mr = blocking.mr, nr = blocking.nr;
    const size_t kc = blocking.kc;
    size_t gs = a.codecInfo().groupSize;
    m2x_assert(gs <= groupSize && kc % gs == 0,
               "packedMatmulNtSlivers: group size %zu unsupported", gs);
    size_t padded_k = a.groupsPerRow() * gs;
    size_t p_end = kern.accumulatePadding ? padded_k : k;
    size_t n_slivers = ceilDiv(n, nr);

    // One contiguous run of slivers per lane: neighbouring lanes then
    // share output cache lines only at their run boundaries.
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    size_t grain = ceilDiv(n_slivers, tp.size());
    telemetry::TraceSpan span("gemm.packed");
    if (span.active()) {
        span.arg("m", m);
        span.arg("n", n);
        span.arg("k", k);
        span.arg("isa", simdIsaName(isa));
        span.arg("mc", blocking.mc);
        span.arg("kc", kc);
        span.arg("nc", blocking.nc);
        span.arg("tasks", n_slivers);
        span.arg("grain", grain);
        span.arg("driver", "slivers");
    }

    // A is decoded once per call on the calling thread and shared
    // read-only by every lane.
    std::vector<float> &rowbuf_store = rowScratch();
    rowbuf_store.resize(padded_k);
    double *ab = pagePinned(aBlockScratch(), m * padded_k, 0);
    decodeABlock(decode_act, a, 0, m, k, padded_k, rowbuf_store.data(),
                 ab);

    // Passed by std::ref: the closure outgrows std::function's small
    // buffer, so wrapping it by value would allocate on every call.
    auto run_slivers = [&](size_t s0, size_t s1) {
        thread_local std::vector<double> tile_store;
        thread_local std::vector<double> acc_store;
        double *tile =
            pagePinned(tile_store, std::min(kc, padded_k) * nr, 0);
        double *acc = pagePinned(acc_store, m * nr, accPageOffset);
        for (size_t sv = s0; sv < s1; ++sv) {
            size_t j0 = sv * nr;
            size_t jlim = std::min(nr, n - j0);
            std::fill_n(acc, m * nr, 0.0);
            for (size_t p0 = 0; p0 < p_end; p0 += kc) {
                size_t p1 = std::min(p0 + kc, p_end);
                size_t g0 = p0 / gs, g1 = ceilDiv(p1, gs);
                if (elem_em)
                    kern.decodeWeightTile(w, j0, jlim, g0, g1, tile);
                else
                    decodeWeightTileGeneric(&codecDecodeWeightGroup,
                                            nr, w, j0, jlim, g0, g1,
                                            tile);
                // The depth pad the vector tiers sweep holds zeros,
                // as in the panel driver's slivers.
                for (size_t p = std::max(p0, k); p < p1; ++p)
                    std::fill_n(tile + (p - p0) * nr, nr, 0.0);
                for (size_t ir = 0; ir < m; ir += mr)
                    kern.microKernel(ab + ir * padded_k + p0, padded_k,
                                     tile, nr, 0, p1 - p0,
                                     std::min(mr, m - ir),
                                     acc + ir * nr, nr);
            }
            for (size_t ii = 0; ii < m; ++ii)
                for (size_t jj = 0; jj < jlim; ++jj)
                    c(ii, j0 + jj) =
                        static_cast<float>(acc[ii * nr + jj]);
        }
    };
    tp.parallelFor(0, n_slivers, grain, std::ref(run_slivers));
}

void
packedMatmulNtPanels(const PackedM2xfpTensor &a,
                     const PackedM2xfpTensor &w, Matrix &c,
                     ThreadPool *pool, SimdIsa isa,
                     const GemmBlocking &blocking)
{
    checkOperands(a, w, isa, blocking);
    size_t m = a.rows(), n = w.rows(), k = a.cols();
    // Resize in place: a caller-provided output buffer of the right
    // capacity is reused, not reallocated. Every element of the
    // block grid is written, so skipping the zero-fill is safe.
    c.resize(m, n);
    if (m == 0 || n == 0)
        return;

    const detail::GemmKernels &kern = detail::gemmKernels(isa);
    // The codec seam: Elem-EM tensors decode through the ISA tier's
    // LUT kernels; every other codec through the generic traits
    // kernels (bit-identical scalar decode on every tier). The
    // microkernels are decode-agnostic, so only the two row decoders
    // are format-sensitive.
    bool elem_em = a.codec() == PackedCodec::ElemEm;
    detail::DecodeRowFn decode_act =
        elem_em ? kern.decodeActivationRow : &codecDecodeActivationRow;
    detail::DecodeRowFn decode_wt =
        elem_em ? kern.decodeWeightRow : &codecDecodeWeightRow;
    const size_t mr = blocking.mr, nr = blocking.nr;
    const size_t mc = blocking.mc, kc = blocking.kc;
    const size_t nc = blocking.nc;
    size_t padded_k = a.groupsPerRow() * a.codecInfo().groupSize;
    // The scalar oracle keeps each output a single ascending-k
    // summation chain over the true depth; vector tiers sweep the
    // zero-filled pad so their FMA loops need no tail handling.
    size_t p_end = kern.accumulatePadding ? padded_k : k;
    size_t n_ic = ceilDiv(m, mc);
    size_t n_jc = ceilDiv(n, nc);
    uint64_t call_id =
        call_counter.fetch_add(1, std::memory_order_relaxed) + 1;

    // Tasks enumerate ic-fastest so consecutive chunks reuse the
    // same decoded W panel (cached per thread, keyed call + panel):
    // the panel's groups are LUT-decoded once and reused across the
    // full M dimension.
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    size_t n_tasks = n_ic * n_jc;
    size_t grain = detail::packedGemmGrain(n_ic, n_jc, tp.size());
    size_t sliver_stride = padded_k * nr;
    telemetry::TraceSpan span("gemm.packed");
    if (span.active()) {
        span.arg("m", m);
        span.arg("n", n);
        span.arg("k", k);
        span.arg("isa", simdIsaName(isa));
        span.arg("mc", mc);
        span.arg("kc", kc);
        span.arg("nc", nc);
        span.arg("tasks", n_tasks);
        span.arg("grain", grain);
        span.arg("driver", "panels");
    }
    tp.parallelFor(
        0, n_tasks, grain,
        [&](size_t t0, size_t t1) {
            thread_local std::vector<double> panel_store;
            thread_local std::vector<double> acc_store;
            std::vector<double> &ablock_store = aBlockScratch();
            std::vector<float> &rowbuf_store = rowScratch();
            thread_local uint64_t cached_call = 0;
            thread_local size_t cached_jc = SIZE_MAX;
            rowbuf_store.resize(padded_k);
            float *rowbuf = rowbuf_store.data();
            for (size_t t = t0; t < t1; ++t) {
                size_t jc = t / n_ic;
                size_t ic = t % n_ic;
                size_t j0 = jc * nc;
                size_t nc_cur = std::min(nc, n - j0);
                size_t n_slivers = ceilDiv(nc_cur, nr);
                size_t acc_stride = n_slivers * nr;
                if (cached_call != call_id || cached_jc != jc) {
                    // Pack the W panel: nr-wide k-major slivers,
                    // widened to double, ragged lanes and the depth
                    // pad zero-filled so microkernels always see
                    // full nr x group-aligned slabs.
                    panel_store.resize(n_slivers * sliver_stride);
                    double *panel = panel_store.data();
                    for (size_t sv = 0; sv < n_slivers; ++sv) {
                        double *sl = panel + sv * sliver_stride;
                        size_t jbase = j0 + sv * nr;
                        size_t jlim = std::min(nr, n - jbase);
                        for (size_t lane = 0; lane < jlim; ++lane) {
                            decode_wt(w, jbase + lane, rowbuf);
                            for (size_t p = 0; p < k; ++p)
                                sl[p * nr + lane] = rowbuf[p];
                            for (size_t p = k; p < padded_k; ++p)
                                sl[p * nr + lane] = 0.0;
                        }
                        for (size_t lane = jlim; lane < nr; ++lane)
                            for (size_t p = 0; p < padded_k; ++p)
                                sl[p * nr + lane] = 0.0;
                    }
                    cached_call = call_id;
                    cached_jc = jc;
                }
                const double *panel = panel_store.data();

                // Decode the A block once per task (row-major
                // doubles, depth pad zeroed).
                size_t i0 = ic * mc;
                size_t mc_cur = std::min(mc, m - i0);
                ablock_store.resize(mc_cur * padded_k);
                double *ab = ablock_store.data();
                decodeABlock(decode_act, a, i0, mc_cur, k, padded_k,
                             rowbuf, ab);

                // The block's persistent accumulator: KC slicing
                // adds into it across depth slices, so no summation
                // chain is ever split into partial sums.
                acc_store.assign(mc_cur * acc_stride, 0.0);
                double *acc = acc_store.data();
                for (size_t p0 = 0; p0 < p_end; p0 += kc) {
                    size_t p1 = std::min(p0 + kc, p_end);
                    for (size_t sv = 0; sv < n_slivers; ++sv) {
                        const double *sl =
                            panel + sv * sliver_stride;
                        for (size_t ir = 0; ir < mc_cur; ir += mr) {
                            size_t mr_cur =
                                std::min(mr, mc_cur - ir);
                            kern.microKernel(
                                ab + ir * padded_k, padded_k, sl,
                                nr, p0, p1, mr_cur,
                                acc + ir * acc_stride + sv * nr,
                                acc_stride);
                        }
                    }
                }

                for (size_t ii = 0; ii < mc_cur; ++ii) {
                    const double *arow = acc + ii * acc_stride;
                    for (size_t jj = 0; jj < nc_cur; ++jj)
                        c(i0 + ii, j0 + jj) =
                            static_cast<float>(arow[jj]);
                }
            }
        });
}

} // namespace detail

void
packedMatmulNt(const PackedM2xfpTensor &a, const PackedM2xfpTensor &w,
               Matrix &c, ThreadPool *pool, SimdIsa isa)
{
    detail::packedMatmulNtBlocked(a, w, c, pool, isa,
                                  detail::gemmBlocking(isa));
}

void
packedMatmulNt(const PackedM2xfpTensor &a, const PackedM2xfpTensor &w,
               Matrix &c, ThreadPool *pool)
{
    packedMatmulNt(a, w, c, pool, activeSimdIsa());
}

Matrix
packedMatmulNt(const PackedM2xfpTensor &a, const PackedM2xfpTensor &w,
               ThreadPool *pool, SimdIsa isa)
{
    Matrix c;
    packedMatmulNt(a, w, c, pool, isa);
    return c;
}

Matrix
packedMatmulNt(const PackedM2xfpTensor &a, const PackedM2xfpTensor &w,
               ThreadPool *pool)
{
    return packedMatmulNt(a, w, pool, activeSimdIsa());
}

} // namespace runtime
} // namespace m2x
