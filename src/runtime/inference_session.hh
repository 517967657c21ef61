/**
 * @file
 * InferenceSession: batched forward passes of a zoo model with every
 * linear layer executing in the packed M2XFP domain.
 *
 * The session owns a TinyTransformer rebuilt so each of its linear
 * operators is a PackedLinear (weights resident as packed streams)
 * wrapped in a timing shim, giving per-layer wall time, throughput,
 * and resident-bytes accounting — the serving-side counterpart of
 * the paper's accuracy benches, and the substrate later
 * batching/sharding work plugs into.
 */

#ifndef M2X_RUNTIME_INFERENCE_SESSION_HH__
#define M2X_RUNTIME_INFERENCE_SESSION_HH__

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/packed_codec.hh"
#include "model/config.hh"
#include "model/transformer.hh"
#include "runtime/simd.hh"
#include "runtime/thread_pool.hh"

namespace m2x {
namespace runtime {

/** Accumulated per-layer execution statistics. */
struct LayerStats
{
    std::string name;
    std::string isa;        //!< kernel tier the layer executes on
    size_t inFeatures = 0;
    size_t outFeatures = 0;
    size_t packedBytes = 0; //!< resident packed weight bytes
    size_t denseBytes = 0;  //!< fp32 equivalent
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> nanos{0};
    std::atomic<uint64_t> rows{0}; //!< total activation rows seen
    /** @{
     * Forward-pass phase split: online activation packing (the
     * fast-path encoder) vs the packed GEMM. Their sum is slightly
     * below nanos (shim overhead, buffer resizing).
     */
    std::atomic<uint64_t> quantizeNanos{0};
    std::atomic<uint64_t> gemmNanos{0};
    /** @} */

    double seconds() const { return 1e-9 * nanos.load(); }
    double quantizeSeconds() const
    {
        return 1e-9 * quantizeNanos.load();
    }
    double gemmSeconds() const { return 1e-9 * gemmNanos.load(); }

    /** Achieved GEMM throughput over all recorded calls. */
    double
    gflops() const
    {
        double s = seconds();
        if (s <= 0.0)
            return 0.0;
        double flops = 2.0 * static_cast<double>(rows.load()) *
                       static_cast<double>(inFeatures) *
                       static_cast<double>(outFeatures);
        return flops / s * 1e-9;
    }
};

/** Session construction knobs. */
struct SessionConfig
{
    /** Parallel lanes for the packed GEMM; 0 = the global pool. */
    unsigned threads = 0;
    /** Kernel tier for every layer; defaults to the dispatch pick. */
    SimdIsa isa = activeSimdIsa();
    /**
     * Packed stream codec for every layer's weight + activation
     * encode. Session-level default follows the M2X_FORMAT
     * environment override (see defaultPackedCodec()); low-level
     * APIs keep explicit elem_em defaults.
     */
    PackedCodec codec = defaultPackedCodec();
};

/**
 * A loaded model ready to serve forward passes through PackedLinear
 * layers.
 *
 * Forward calls on one session are safe from any number of threads,
 * but the fast path expects a single serving thread (parallelism
 * lives inside the packed kernels): each layer shim reuses a
 * per-layer activation-packing workspace across calls, and a
 * concurrent forward that finds it claimed falls back to per-call
 * scratch — correct, just not allocation-free.
 */
class InferenceSession
{
  public:
    explicit InferenceSession(const model::ModelConfig &model_cfg,
                              SessionConfig cfg = {});
    ~InferenceSession();

    /** Logits [tokens, vocab] for one causal forward pass. */
    Matrix forward(std::span<const int> tokens);

    /** Forward every sequence of a batch; returns per-seq logits. */
    std::vector<Matrix>
    forwardBatch(const std::vector<std::vector<int>> &batch);

    /** Per-layer stats in deterministic layer order. */
    const std::vector<std::shared_ptr<LayerStats>> &
    layerStats() const
    {
        return stats_;
    }

    /** Wall time spent inside packed linear layers since reset. */
    double linearSeconds() const;

    /** Total resident packed weight bytes across all layers. */
    size_t packedWeightBytes() const;

    /** Total fp32-equivalent weight bytes. */
    size_t denseWeightBytes() const;

    /** Zero all timing counters (keeps the packed weights). */
    void resetStats();

    /** The kernel tier every layer executes on. */
    SimdIsa simdIsa() const { return isa_; }

    /** The packed stream codec every layer executes with. */
    PackedCodec codec() const { return codec_; }

    const model::TinyTransformer &model() const { return model_; }
    const model::ModelConfig &modelConfig() const
    {
        return model_.config();
    }

  private:
    std::unique_ptr<ThreadPool> ownedPool_; //!< when threads != 0
    model::TinyTransformer model_;
    std::vector<std::shared_ptr<LayerStats>> stats_;
    SimdIsa isa_;
    PackedCodec codec_;
};

/**
 * A LinearFactory producing PackedLinear layers, for wiring the
 * packed runtime into zoo-style evaluation code. @p stats, when non
 * null, receives one LayerStats per created layer (timing shims are
 * inserted); @p pool null uses the global pool; @p isa pins the
 * kernel tier (defaults to the process-wide dispatch decision).
 */
model::LinearFactory packedLinearFactory(
    ThreadPool *pool = nullptr,
    std::vector<std::shared_ptr<LayerStats>> *stats = nullptr,
    SimdIsa isa = activeSimdIsa(),
    PackedCodec codec = PackedCodec::ElemEm);

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_INFERENCE_SESSION_HH__
