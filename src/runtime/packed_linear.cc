#include "runtime/packed_linear.hh"

#include "core/sg_em.hh"
#include "runtime/telemetry.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {

namespace {

/** @{ Cached forward-phase metric handles (null while metrics off). */
std::atomic<telemetry::Histogram *> quantizeSlot{nullptr};
std::atomic<telemetry::Histogram *> gemmSlot{nullptr};
std::atomic<telemetry::Counter *> forwardRowsSlot{nullptr};
/** @} */

} // anonymous namespace

PackedLinear::PackedLinear(const Matrix &weight, ThreadPool *pool,
                           SimdIsa isa, PackedCodec codec)
    : inFeatures_(weight.cols()), outFeatures_(weight.rows()),
      pool_(pool), isa_(isa), codec_(codec)
{
    m2x_assert(simdIsaAvailable(isa),
               "PackedLinear: ISA tier '%s' is not available on "
               "this machine", simdIsaName(isa));
    // Weight packing is offline (construction), row-parallel on the
    // pool: elem_em packs through the paper weight quantizer, other
    // codecs through the functional codec packers.
    static const SgEmQuantizer paper_weights =
        SgEmQuantizer::paperWeights();
    weight_ = codec_ == PackedCodec::ElemEm
                  ? PackedM2xfpTensor::packWeights(weight, paper_weights,
                                                   pool_)
                  : PackedM2xfpTensor::packWeightsCodec(weight, codec_,
                                                        pool_);
}

void
PackedLinear::forwardInto(const Matrix &x, Matrix &y) const
{
    m2x_assert(x.cols() == inFeatures_,
               "linear in_features mismatch: %zu vs %zu", x.cols(),
               inFeatures_);
    // Claim the layer's workspace; a concurrent forward on the same
    // layer finds it taken and packs into per-call scratch rather
    // than racing.
    struct Claim
    {
        std::atomic<bool> &busy;
        bool held;
        ~Claim()
        {
            if (held)
                busy.store(false, std::memory_order_release);
        }
    } claim{actBusy_, !actBusy_.exchange(true, std::memory_order_acquire)};
    PackedM2xfpTensor local;
    PackedM2xfpTensor &act = claim.held ? act_ : local;

    // One nowNanos pair per phase feeds both consumers — the trace
    // span and the registry histogram — so they always agree. When
    // telemetry is off the clock is not read.
    const bool timed =
        telemetry::traceEnabled() || telemetry::metricsEnabled();

    uint64_t t0 = timed ? telemetry::nowNanos() : 0;
    PackedM2xfpTensor::packActivationsCodec(x, codec_, pool_, isa_, act);
    uint64_t t1 = timed ? telemetry::nowNanos() : 0;
    telemetry::traceComplete("linear.quantize", t0, t1);
    packedMatmulNt(act, weight_, y, pool_, isa_);
    uint64_t t2 = timed ? telemetry::nowNanos() : 0;
    telemetry::traceComplete("linear.gemm", t1, t2);

    if (telemetry::metricsEnabled()) {
        if (auto *h = telemetry::cachedHistogram(
                quantizeSlot, "linear.quantize_ns"))
            h->record(t1 - t0);
        if (auto *h = telemetry::cachedHistogram(gemmSlot,
                                                 "linear.gemm_ns"))
            h->record(t2 - t1);
        if (auto *c = telemetry::cachedCounter(
                forwardRowsSlot, "linear.forward_rows"))
            c->add(x.rows());
    }
}

Matrix
PackedLinear::forward(const Matrix &x) const
{
    Matrix y;
    forwardInto(x, y);
    return y;
}

model::LinearFactory
packedLinearFactory(ThreadPool *pool, SimdIsa isa, PackedCodec codec)
{
    return [pool, isa, codec](const Matrix &w, const std::string &,
                              const Matrix *)
               -> std::unique_ptr<LinearOp> {
        return std::make_unique<PackedLinear>(w, pool, isa, codec);
    };
}

} // namespace runtime
} // namespace m2x
