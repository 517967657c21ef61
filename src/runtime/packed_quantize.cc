#include "runtime/packed_quantize.hh"

#include <algorithm>
#include <functional>

#include "core/m2xfp.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {
namespace detail {

const QuantizeKernels &
quantizeKernels(SimdIsa isa)
{
    static const QuantizeKernels scalar{&quantizeActivationRowScalar};
#ifdef M2X_HAVE_AVX2
    // The AVX2 encoder serves the AVX-512 tier too (AVX-512
    // availability implies AVX2).
    static const QuantizeKernels avx2{&quantizeActivationRowAvx2};
    if (isa == SimdIsa::Avx2 || isa == SimdIsa::Avx512)
        return avx2;
#endif
    (void)isa;
    return scalar;
}

size_t
packedQuantizeGrain(size_t rows, size_t lanes)
{
    if (rows == 0)
        return 1;
    // A serial pool runs inline anyway; one maximal chunk skips the
    // chunking overhead.
    if (lanes <= 1)
        return rows;
    // Target ~4 chunks per lane; the ceiling keeps tiny remainders
    // from exploding the chunk count while guaranteeing that any
    // range of at least 2*lanes rows yields at least 2*lanes chunks.
    return std::clamp<size_t>(ceilDiv(rows, 4 * lanes), 1, rows);
}

} // namespace detail

namespace {

/**
 * Largest SIMD encode (rows x cols elements) that runs inline on the
 * calling thread: at ~2.5 ns per element it is ~5 us of
 * work, about what a pool hand-off and the lanes' cache misses cost.
 * Covers every decode-step encode of a small batch (4 x 512).
 */
constexpr size_t inlineEncodeElems = 2048;

} // anonymous namespace
} // namespace runtime
} // namespace m2x

namespace m2x {

// Fast-path packActivations overloads declared in core/m2xfp_packed.hh
// but owned by the runtime library: core stays free of threading and
// dispatch concerns, while the packer keeps private access to the
// stream storage.

void
PackedM2xfpTensor::packActivations(const Matrix &m,
                                   const ElemEmQuantizer &q,
                                   runtime::ThreadPool *pool,
                                   runtime::SimdIsa isa,
                                   PackedM2xfpTensor &out)
{
    using namespace runtime;

    const ElemEmConfig &cfg = q.config();
    m2x_assert(cfg.groupSize == groupSize &&
               cfg.subgroupSize == subgroupSize && cfg.topK == 1 &&
               cfg.clampBias,
               "packed layout requires the paper config (g32/sg8 top1)");
    m2x_assert(!cfg.adaptiveScale,
               "fast-path packActivations requires the fixed-shared-"
               "scale activation config (adaptiveScale off)");
    m2x_assert(simdIsaAvailable(isa),
               "packActivations: ISA tier '%s' is not available on "
               "this machine", simdIsaName(isa));

    out.resizeShape(m.rows(), m.cols());
    size_t rows = m.rows();
    size_t gpr = out.groupsPerRow_;
    if (rows == 0 || gpr == 0)
        return;

    const detail::QuantizeKernels &kern = detail::quantizeKernels(isa);
    const float *src = m.data();
    size_t cols = m.cols();
    uint8_t *elems = out.elements_.data();
    uint8_t *scales = out.scales_.data();
    uint8_t *meta = out.meta_.data();
    ScaleRule rule = cfg.rule;
    auto encode = [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r)
            kern.quantizeActivationRow(
                src + r * cols, cols, rule,
                elems + r * gpr * bytesPerGroupElems,
                scales + r * gpr, meta + r * gpr);
    };
    if (rows * cols <= inlineEncodeElems) {
        encode(0, rows);
        return;
    }
    // By std::ref: the closure outgrows std::function's small buffer.
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    tp.parallelFor(0, rows, detail::packedQuantizeGrain(rows, tp.size()),
                   std::ref(encode));
}

PackedM2xfpTensor
PackedM2xfpTensor::packActivations(const Matrix &m,
                                   const ElemEmQuantizer &q,
                                   runtime::ThreadPool *pool,
                                   runtime::SimdIsa isa)
{
    PackedM2xfpTensor t;
    packActivations(m, q, pool, isa, t);
    return t;
}

PackedM2xfpTensor
PackedM2xfpTensor::packWeights(const Matrix &m, const SgEmQuantizer &q,
                               runtime::ThreadPool *pool)
{
    using namespace runtime;

    checkPaperWeightQuantizer(q);
    PackedM2xfpTensor t;
    t.reserveShape(m.rows(), m.cols());
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    tp.parallelFor(0, m.rows(),
                   detail::packedQuantizeGrain(m.rows(), tp.size()),
                   [&](size_t r0, size_t r1) {
                       for (size_t r = r0; r < r1; ++r)
                           t.packWeightRow(q, r, m.row(r));
                   });
    return t;
}

PackedM2xfpTensor
PackedM2xfpTensor::packWeightsCodec(const Matrix &m, PackedCodec codec,
                                    runtime::ThreadPool *pool)
{
    using namespace runtime;

    PackedM2xfpTensor t;
    t.setCodec(codec);
    t.reserveShape(m.rows(), m.cols());
    size_t gpr = t.groupsPerRow_;
    unsigned geb = t.groupElemBytes_;
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    tp.parallelFor(0, m.rows(),
                   detail::packedQuantizeGrain(m.rows(), tp.size()),
                   [&](size_t r0, size_t r1) {
                       for (size_t r = r0; r < r1; ++r)
                           packWeightRowCodec(
                               codec, m.row(r).data(), m.cols(),
                               t.elements_.data() + r * gpr * geb,
                               t.scales_.data() + r * gpr,
                               t.meta_.data() + r * gpr);
                   });
    return t;
}

void
PackedM2xfpTensor::appendActivationRows(const float *rows,
                                        size_t n_rows,
                                        const ElemEmQuantizer &q,
                                        runtime::SimdIsa isa,
                                        runtime::ThreadPool *pool)
{
    using namespace runtime;

    const ElemEmConfig &cfg = q.config();
    m2x_assert(cfg.groupSize == groupSize &&
               cfg.subgroupSize == subgroupSize && cfg.topK == 1 &&
               cfg.clampBias && !cfg.adaptiveScale,
               "appendActivationRows requires the fixed-shared-scale "
               "paper activation config (g32/sg8 top1)");
    m2x_assert(simdIsaAvailable(isa),
               "appendActivationRows: ISA tier '%s' is not available "
               "on this machine", simdIsaName(isa));
    m2x_assert(cols_ > 0,
               "appendActivationRows on a shapeless tensor (create "
               "via emptyActivations)");
    if (n_rows == 0)
        return;

    size_t gpr = groupsPerRow_;
    size_t old_rows = rows_;
    rows_ += n_rows;
    elements_.resize(rows_ * gpr * bytesPerGroupElems);
    scales_.resize(rows_ * gpr);
    meta_.resize(rows_ * gpr);

    const detail::QuantizeKernels &kern = detail::quantizeKernels(isa);
    auto encode = [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            size_t slot = (old_rows + r) * gpr;
            kern.quantizeActivationRow(
                rows + r * cols_, cols_, cfg.rule,
                elements_.data() + slot * bytesPerGroupElems,
                scales_.data() + slot, meta_.data() + slot);
        }
    };
    if (n_rows == 1 || n_rows * cols_ <= inlineEncodeElems) {
        // Decode-step shapes (one row per token, or a few
        // microseconds of rows): a pool hand-off would cost more
        // than the encode.
        encode(0, n_rows);
        return;
    }
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    tp.parallelFor(0, n_rows,
                   detail::packedQuantizeGrain(n_rows, tp.size()),
                   encode);
}

namespace {

// The Elem-EM fast path of the codec packers below: the per-ISA SIMD
// encoder with the paper activation config.
const ElemEmQuantizer &
paperActivationQuantizer()
{
    static const ElemEmQuantizer q = makeM2xfpActivationQuantizer();
    return q;
}

} // anonymous namespace

void
PackedM2xfpTensor::packActivationsCodec(const Matrix &m,
                                        PackedCodec codec,
                                        runtime::ThreadPool *pool,
                                        runtime::SimdIsa isa,
                                        PackedM2xfpTensor &out)
{
    using namespace runtime;

    out.setCodec(codec);
    if (codec == PackedCodec::ElemEm) {
        packActivations(m, paperActivationQuantizer(), pool, isa, out);
        return;
    }
    m2x_assert(simdIsaAvailable(isa),
               "packActivationsCodec: ISA tier '%s' is not available "
               "on this machine", simdIsaName(isa));

    out.resizeShape(m.rows(), m.cols());
    size_t rows = m.rows();
    size_t gpr = out.groupsPerRow_;
    if (rows == 0 || gpr == 0)
        return;

    // Non-Elem-EM codecs encode through the functional row encoder —
    // ISA-independent, hence byte-exact on every tier by construction;
    // only the row distribution is parallel.
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    size_t grain = detail::packedQuantizeGrain(rows, tp.size());
    const float *src = m.data();
    size_t cols = m.cols();
    uint8_t *elems = out.elements_.data();
    uint8_t *scales = out.scales_.data();
    uint8_t *meta = out.meta_.data();
    unsigned geb = out.groupElemBytes_;
    tp.parallelFor(0, rows, grain, [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r)
            packActivationRowCodec(codec, src + r * cols, cols,
                                   elems + r * gpr * geb,
                                   scales + r * gpr, meta + r * gpr);
    });
}

PackedM2xfpTensor
PackedM2xfpTensor::packActivationsCodec(const Matrix &m,
                                        PackedCodec codec,
                                        runtime::ThreadPool *pool,
                                        runtime::SimdIsa isa)
{
    PackedM2xfpTensor t;
    packActivationsCodec(m, codec, pool, isa, t);
    return t;
}

void
PackedM2xfpTensor::appendActivationRowsCodec(const float *rows,
                                             size_t n_rows,
                                             runtime::SimdIsa isa,
                                             runtime::ThreadPool *pool)
{
    using namespace runtime;

    if (codec_ == PackedCodec::ElemEm) {
        appendActivationRows(rows, n_rows, paperActivationQuantizer(),
                             isa, pool);
        return;
    }
    m2x_assert(simdIsaAvailable(isa),
               "appendActivationRowsCodec: ISA tier '%s' is not "
               "available on this machine", simdIsaName(isa));
    m2x_assert(cols_ > 0,
               "appendActivationRowsCodec on a shapeless tensor "
               "(create via emptyActivationsCodec)");
    if (n_rows == 0)
        return;

    size_t gpr = groupsPerRow_;
    size_t old_rows = rows_;
    rows_ += n_rows;
    elements_.resize(rows_ * gpr * groupElemBytes_);
    scales_.resize(rows_ * gpr);
    meta_.resize(rows_ * gpr);

    PackedCodec codec = codec_;
    auto encode = [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            size_t slot = (old_rows + r) * gpr;
            packActivationRowCodec(
                codec, rows + r * cols_, cols_,
                elements_.data() + slot * groupElemBytes_,
                scales_.data() + slot, meta_.data() + slot);
        }
    };
    if (n_rows == 1) {
        encode(0, 1);
        return;
    }
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    tp.parallelFor(0, n_rows,
                   detail::packedQuantizeGrain(n_rows, tp.size()),
                   encode);
}

} // namespace m2x
