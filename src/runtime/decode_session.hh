/**
 * @file
 * DecodeSession: the engine core. One session owns the model (every
 * linear layer a PackedLinear in the packed M2XFP domain), the
 * thread pool, and the KvPageArena that its sequences' K/V caches
 * draw from, and it routes the model's attention stage to those
 * caches.
 *
 * Where forwardLogits() recomputes the whole causal prefix on every
 * call (O(T^2) attention per generated token), a DecodeSession runs
 * the transformer incrementally through
 * TinyTransformer::forwardChunk — prompt chunks during prefill, then
 * one token per sequence per decode step — against caches that grow
 * by one row per token. A decode step stacks the S next tokens into
 * a single [S, d] chunk, so every linear layer runs one batched
 * packed GEMM for the whole batch, while the attention stage fans
 * out over the sequences on the thread pool (each sequence's cache
 * is independent).
 *
 * Two layers of API:
 *  - the core, prefill(KvCache &, tokens) and decode(caches,
 *    tokens), runs one forward over caches the caller holds (built
 *    by newCache()), taking every position from its cache's length.
 *    It emits no telemetry of its own; ServingEngine schedules its
 *    requests over it;
 *  - the fixed-batch API, addSequence() / prefill(seq, tokens) /
 *    decode(next), keeps its sequences' caches inside the session
 *    and adds the decode.* spans, histograms and gauges.
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
 * One DecodeSession expects a single driving thread; parallelism
 * lives inside the packed kernels and the per-sequence attention
 * fan-out.
 */

#ifndef M2X_RUNTIME_DECODE_SESSION_HH__
#define M2X_RUNTIME_DECODE_SESSION_HH__

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "model/config.hh"
#include "model/transformer.hh"
#include "runtime/kv_cache.hh"
#include "runtime/kv_page_arena.hh"
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

/**
 * A loaded model serving stepwise generation with a KV cache. The
 * session is its own attention backend: prefill and decode point
 * attend() at the caches of the forward they run.
 */
class DecodeSession : private model::AttentionBackend
{
  public:
    explicit DecodeSession(const model::ModelConfig &model_cfg,
                           DecodeConfig cfg = {});
    ~DecodeSession() override;

    /** @{ The engine core. */

    /** An empty cache on the session's arena (must not outlive it). */
    KvCache newCache();

    /**
     * Run a chunk of @p tokens through the model against @p cache
     * (from newCache()), appending their K/V rows; the chunk's
     * positions continue from cache.length(). Returns the chunk's
     * logits [tokens, vocab]. Chunking is invisible: the cache is
     * chunk-boundary agnostic, and a single-token chunk is exactly a
     * decode step for one sequence.
     */
    Matrix prefill(KvCache &cache, std::span<const int> tokens);

    /**
     * One batched step: @p tokens[r] is the next token of the
     * sequence whose cache is @p caches[r], at position
     * caches[r]->length(). Returns logits [rows, vocab]. Linear
     * layers run batched over the stacked rows; attention fans out
     * per row on the pool.
     */
    Matrix decode(std::span<KvCache *const> caches,
                  std::span<const int> tokens);
    /** @} */

    /** @{ Fixed batch: sequences whose caches the session holds. */

    /** Register a new (empty) sequence; returns its id. */
    size_t addSequence();

    /** prefill() of sequence @p seq's cache. */
    Matrix prefill(size_t seq, std::span<const int> tokens);

    /**
     * One decode step over the whole batch: next[s] is the next
     * token of sequence s (every registered sequence steps).
     * Returns logits [batch, vocab], row s for sequence s.
     */
    Matrix decode(std::span<const int> next);

    size_t batchSize() const { return seqs_.size(); }

    /** Tokens cached so far for @p seq. */
    size_t length(size_t seq) const;

    /** Resident K/V bytes across all sequences and layers. */
    size_t kvBytes() const;

    /** Resident K/V bytes per cached token (0 while empty). */
    double kvBytesPerToken() const;
    /** @} */

    /** Wall time spent in the attention stage since construction. */
    double
    attendSeconds() const
    {
        return 1e-9 * static_cast<double>(attendNanos_.load());
    }

    KvCacheMode kvMode() const { return cfg_.kvMode; }
    SimdIsa simdIsa() const { return cfg_.isa; }
    PackedCodec codec() const { return cfg_.codec; }

    /** The page arena every cache draws from. */
    const KvPageArena &arena() const { return arena_; }

    const model::TinyTransformer &model() const { return model_; }

  private:
    /**
     * Route one block's attention: a prefill appends the whole chunk
     * to its one cache, then attends with the cache's internal
     * parallelism (heads / query blocks over the pool); a decode
     * step fans the rows out over the pool, each lane appending to
     * and attending its own caches (nested attends run inline).
     */
    Matrix attend(size_t layer, const Matrix &q, const Matrix &k,
                  const Matrix &v, std::span<const size_t> positions,
                  unsigned n_heads, unsigned n_kv_heads,
                  size_t window) override;

    /**
     * Refresh the decode.kv_* occupancy gauges in the telemetry
     * registry (no-op cost while metrics are off; callers gate it).
     */
    void updateKvGauges() const;

    DecodeConfig cfg_;
    std::unique_ptr<ThreadPool> ownedPool_; //!< when threads != 0
    model::TinyTransformer model_;
    KvPageArena arena_;
    std::vector<KvCache> seqs_;
    std::atomic<uint64_t> attendNanos_{0};

    /** @{ Where attend() routes the forward in flight: one prefill
     *  cache, or one cache per decode row. */
    KvCache *chunk_ = nullptr;
    std::span<KvCache *const> rowCaches_{};
    /** @} */

    /** @{ Per-call scratch (single driving thread). */
    std::vector<size_t> positions_;
    std::vector<KvCache *> seqCaches_;
    /** @} */
};

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_DECODE_SESSION_HH__
