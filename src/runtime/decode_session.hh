/**
 * @file
 * DecodeSession: autoregressive generation over a batch of
 * independent sequences with every linear layer in the packed M2XFP
 * domain and the attention K/V state resident in per-sequence
 * KvCaches.
 *
 * This is the serving-shaped counterpart of InferenceSession: where
 * forwardLogits() recomputes the whole causal prefix on every call
 * (O(T^2) attention per generated token), a DecodeSession runs the
 * transformer incrementally through TinyTransformer::forwardChunk —
 * prompt chunks during prefill, then one token per sequence per
 * decode() step — against caches that grow by one row per token.
 * A decode step over a batch stacks the S next-tokens into a single
 * [S, d] chunk, so every linear layer runs one batched packed GEMM
 * for the whole batch, while the attention stage fans out over the
 * sequences on the thread pool (each sequence's cache is
 * independent).
 *
 * With KvCacheMode::Packed the cached rows live in the three packed
 * M2XFP byte streams (~4.5 bits/element, encoded on append by the
 * fast-path Elem-EM encoder) and are dequantized through the decode
 * LUTs inside the attention kernels — the KV cache becomes a
 * memory-bandwidth optimization, not just an accuracy knob. With
 * KvCacheMode::Fp32 the rows stay dense and decode reproduces
 * forwardLogits() bit-exactly (the correctness oracle and bench
 * baseline).
 *
 * Since the paged refactor every sequence's cache draws from one
 * shared KvPageArena (elastic by default — a fixed batch run to
 * completion never stalls) and the session drives the same
 * CacheAttendBackend as the ServingEngine: a DecodeSession is the
 * continuous-batching engine's fixed-batch special case, with
 * prefill() = beginChunk routing and decode() = beginRows routing
 * over a row set that never changes.
 *
 * Like InferenceSession, one DecodeSession expects a single driving
 * thread; parallelism lives inside the packed kernels and the
 * per-sequence attention fan-out.
 */

#ifndef M2X_RUNTIME_DECODE_SESSION_HH__
#define M2X_RUNTIME_DECODE_SESSION_HH__

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "model/config.hh"
#include "model/transformer.hh"
#include "runtime/inference_session.hh"
#include "runtime/kv_cache.hh"
#include "runtime/kv_page_arena.hh"
#include "runtime/serving.hh"
#include "runtime/simd.hh"
#include "runtime/thread_pool.hh"

namespace m2x {
namespace runtime {

/** DecodeSession construction knobs. */
struct DecodeConfig
{
    /** Parallel lanes; 0 = the global pool. */
    unsigned threads = 0;
    /** Kernel tier for every layer and the KV codec. */
    SimdIsa isa = activeSimdIsa();
    /** Resident representation of the KV cache. */
    KvCacheMode kvMode = KvCacheMode::Packed;
    /** Rows per KV page of the session's shared arena. */
    size_t pageRows = 16;
    /**
     * Arena capacity in pages; 0 = elastic (the arena grows on
     * demand — a fixed batch run to completion never needs to stall
     * or evict, so the session defaults to never failing a claim).
     */
    size_t arenaPages = 0;
    /**
     * Packed stream codec for the linear layers and the packed KV
     * cache. Session-level default follows the M2X_FORMAT
     * environment override (see defaultPackedCodec()).
     */
    PackedCodec codec = defaultPackedCodec();
};

/** A loaded model serving stepwise generation with a KV cache. */
class DecodeSession
{
  public:
    explicit DecodeSession(const model::ModelConfig &model_cfg,
                           DecodeConfig cfg = {});
    ~DecodeSession();

    /** Register a new (empty) sequence; returns its id. */
    size_t addSequence();

    /**
     * Run a chunk of @p tokens of sequence @p seq through the model,
     * appending their K/V rows to the sequence's cache. Returns the
     * chunk's logits [tokens, vocab]. May be called repeatedly to
     * prefill in chunks — the cache is chunk-boundary agnostic — and
     * a single-token chunk is valid (it is exactly a decode step for
     * one sequence).
     */
    Matrix prefill(size_t seq, std::span<const int> tokens);

    /**
     * One decode step over the whole batch: next[s] is the next
     * token of sequence s (every registered sequence steps).
     * Returns logits [batch, vocab], row s for sequence s. Linear
     * layers run batched over the stacked rows; attention fans out
     * per sequence on the pool.
     */
    Matrix decode(std::span<const int> next);

    size_t batchSize() const { return seqs_.size(); }

    /** Tokens cached so far for @p seq. */
    size_t length(size_t seq) const;

    /** A sequence's cache (bytes accounting, tests). */
    const KvCache &cache(size_t seq) const;

    /** Resident K/V bytes across all sequences and layers. */
    size_t kvBytes() const;

    /** Resident K/V bytes per cached token (0 while empty). */
    double kvBytesPerToken() const;

    /** Wall time spent in the attention stage since construction. */
    double
    attendSeconds() const
    {
        return 1e-9 * static_cast<double>(attendNanos_.load());
    }

    KvCacheMode kvMode() const { return cfg_.kvMode; }
    SimdIsa simdIsa() const { return isa_; }
    PackedCodec codec() const { return cfg_.codec; }

    /** The page arena every sequence's cache draws from. */
    const KvPageArena &arena() const { return arena_; }

    /** Per-linear-layer stats in deterministic layer order. */
    const std::vector<std::shared_ptr<LayerStats>> &
    layerStats() const
    {
        return stats_;
    }

    const model::TinyTransformer &model() const { return model_; }
    const model::ModelConfig &modelConfig() const
    {
        return model_.config();
    }

  private:
    struct Sequence
    {
        KvCache cache;
    };

    ThreadPool *pool() const;

    /**
     * Refresh the decode.kv_* occupancy gauges in the telemetry
     * registry (no-op cost while metrics are off; callers gate it).
     */
    void updateKvGauges() const;

    DecodeConfig cfg_;
    std::unique_ptr<ThreadPool> ownedPool_; //!< when threads != 0
    model::TinyTransformer model_;
    std::vector<std::shared_ptr<LayerStats>> stats_;
    SimdIsa isa_;
    KvPageArena arena_;
    std::vector<Sequence> seqs_;
    std::atomic<uint64_t> attendNanos_{0};
    CacheAttendBackend backend_;
    std::vector<KvCache *> rowCaches_; //!< decode() scratch
};

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_DECODE_SESSION_HH__
