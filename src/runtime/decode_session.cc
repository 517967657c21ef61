#include "runtime/decode_session.hh"

#include "runtime/packed_linear.hh"
#include "runtime/telemetry.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {

namespace {

/** @{ Cached decode metric handles (null while metrics off). */
std::atomic<telemetry::Histogram *> stepSlot{nullptr};
std::atomic<telemetry::Histogram *> prefillSlot{nullptr};
std::atomic<telemetry::Counter *> stepTokensSlot{nullptr};
std::atomic<telemetry::Gauge *> kvBytesSlot{nullptr};
std::atomic<telemetry::Gauge *> kvTokensSlot{nullptr};
std::atomic<telemetry::Gauge *> kvBytesPerTokSlot{nullptr};
std::atomic<telemetry::Gauge *> sequencesSlot{nullptr};
std::atomic<telemetry::Gauge *> attendScratchSlot{nullptr};
/** @} */

} // anonymous namespace

DecodeSession::DecodeSession(const model::ModelConfig &model_cfg,
                             DecodeConfig cfg)
    : cfg_(cfg),
      ownedPool_(cfg.threads
                     ? std::make_unique<ThreadPool>(cfg.threads)
                     : nullptr),
      model_(model_cfg),
      arena_(model_cfg.kvDim(), cfg.kvMode, cfg.isa,
             KvArenaConfig{cfg.pageRows, cfg.arenaPages, cfg.codec})
{
    model_.rebuild(
        packedLinearFactory(ownedPool_.get(), cfg.isa, cfg.codec));
}

DecodeSession::~DecodeSession() = default;

KvCache
DecodeSession::newCache()
{
    return KvCache(arena_, model_.config().nLayers);
}

Matrix
DecodeSession::prefill(KvCache &cache, std::span<const int> tokens)
{
    m2x_assert(&cache.arena() == &arena_,
               "prefill: the cache is not on this session's arena");
    m2x_assert(!tokens.empty(), "prefill needs at least one token");
    size_t pos0 = cache.length();
    positions_.resize(tokens.size());
    for (size_t t = 0; t < tokens.size(); ++t)
        positions_[t] = pos0 + t;
    chunk_ = &cache;
    rowCaches_ = {};
    return model_.forwardChunk(tokens, positions_, *this);
}

Matrix
DecodeSession::decode(std::span<KvCache *const> caches,
                      std::span<const int> tokens)
{
    m2x_assert(!caches.empty(), "decode with no sequences");
    m2x_assert(tokens.size() == caches.size(),
               "decode: %zu tokens for %zu sequences", tokens.size(),
               caches.size());
    positions_.clear();
    for (KvCache *c : caches) {
        m2x_assert(&c->arena() == &arena_,
                   "decode: a cache is not on this session's arena");
        positions_.push_back(c->length());
    }
    chunk_ = nullptr;
    rowCaches_ = caches;
    return model_.forwardChunk(tokens, positions_, *this);
}

Matrix
DecodeSession::attend(size_t layer, const Matrix &q, const Matrix &k,
                      const Matrix &v, std::span<const size_t> positions,
                      unsigned n_heads, unsigned n_kv_heads,
                      size_t window)
{
    telemetry::TraceSpan span("decode.attend");
    if (span.active()) {
        span.arg("layer", layer);
        span.arg("rows", q.rows());
        span.arg("mode", chunk_ ? "prefill" : "step");
    }
    uint64_t t0 = telemetry::nowNanos();
    ThreadPool *pool = ownedPool_.get();
    size_t d = q.cols();     // n_heads * headDim
    size_t d_kv = k.cols();  // n_kv_heads * headDim (GQA: <= d)
    Matrix ctx(q.rows(), d);
    if (chunk_) {
        chunk_->append(layer, k.data(), v.data(), k.rows(), pool);
        chunk_->attend(layer, q.data(), q.rows(), positions[0],
                       n_heads, ctx.data(), pool, n_kv_heads, window);
        // Sliding window: pages every query's window has moved past
        // can never be attended again. Release them once the last
        // layer is done with this chunk (earlier layers only ever
        // see the same or later positions).
        if (window != 0 && layer + 1 == chunk_->layers()) {
            size_t end = positions[0] + q.rows();
            chunk_->releaseBefore(end > window ? end - window : 0);
        }
    } else {
        ThreadPool &tp = pool ? *pool : ThreadPool::global();
        tp.parallelFor(0, q.rows(), 1, [&](size_t s0, size_t s1) {
            for (size_t s = s0; s < s1; ++s) {
                // Per-sequence span: in step mode each lane attends
                // its own cache, so the trace shows the per-sequence
                // cost on its lane's track.
                telemetry::TraceSpan seq_span("decode.attend.seq");
                if (seq_span.active()) {
                    seq_span.arg("seq", s);
                    seq_span.arg("layer", layer);
                    seq_span.arg("pos", positions[s]);
                }
                KvCache &c = *rowCaches_[s];
                c.append(layer, k.data() + s * d_kv,
                         v.data() + s * d_kv, 1);
                c.attend(layer, q.data() + s * d, 1, positions[s],
                         n_heads, ctx.data() + s * d, pool,
                         n_kv_heads, window);
                if (window != 0 && layer + 1 == c.layers()) {
                    size_t end = positions[s] + 1;
                    c.releaseBefore(end > window ? end - window
                                                 : 0);
                }
            }
        });
    }
    attendNanos_.fetch_add(telemetry::nowNanos() - t0,
                           std::memory_order_relaxed);
    return ctx;
}

size_t
DecodeSession::addSequence()
{
    seqs_.push_back(newCache());
    return seqs_.size() - 1;
}

size_t
DecodeSession::length(size_t seq) const
{
    m2x_assert(seq < seqs_.size(), "sequence %zu out of %zu", seq,
               seqs_.size());
    return seqs_[seq].length();
}

size_t
DecodeSession::kvBytes() const
{
    size_t bytes = 0;
    for (const KvCache &c : seqs_)
        bytes += c.totalBytes();
    return bytes;
}

double
DecodeSession::kvBytesPerToken() const
{
    size_t tokens = 0;
    for (const KvCache &c : seqs_)
        tokens += c.length();
    return tokens == 0 ? 0.0
                       : static_cast<double>(kvBytes()) /
                             static_cast<double>(tokens);
}

Matrix
DecodeSession::prefill(size_t seq, std::span<const int> tokens)
{
    m2x_assert(seq < seqs_.size(), "sequence %zu out of %zu", seq,
               seqs_.size());
    telemetry::TraceSpan span("decode.prefill");
    if (span.active()) {
        span.arg("seq", seq);
        span.arg("tokens", tokens.size());
        span.arg("pos0", seqs_[seq].length());
    }
    uint64_t t0 = telemetry::metricsEnabled()
                      ? telemetry::nowNanos()
                      : 0;
    Matrix out = prefill(seqs_[seq], tokens);
    if (t0) {
        if (auto *h = telemetry::cachedHistogram(
                prefillSlot, "decode.prefill_ns"))
            h->record(telemetry::nowNanos() - t0);
        updateKvGauges();
    }
    return out;
}

Matrix
DecodeSession::decode(std::span<const int> next)
{
    m2x_assert(!seqs_.empty(), "decode with no sequences");
    seqCaches_.clear();
    for (KvCache &c : seqs_)
        seqCaches_.push_back(&c);
    telemetry::TraceSpan span("decode.step");
    if (span.active()) {
        span.arg("batch", next.size());
        span.arg("pos0", seqs_[0].length());
    }
    uint64_t t0 = telemetry::metricsEnabled()
                      ? telemetry::nowNanos()
                      : 0;
    Matrix out = decode(seqCaches_, next);
    if (t0) {
        if (auto *h = telemetry::cachedHistogram(stepSlot,
                                                 "decode.step_ns"))
            h->record(telemetry::nowNanos() - t0);
        if (auto *c = telemetry::cachedCounter(
                stepTokensSlot, "decode.step_tokens"))
            c->add(next.size());
        updateKvGauges();
    }
    return out;
}

void
DecodeSession::updateKvGauges() const
{
    size_t tokens = 0;
    for (const KvCache &c : seqs_)
        tokens += c.length();
    size_t bytes = kvBytes();
    if (auto *g = telemetry::cachedGauge(kvBytesSlot,
                                         "decode.kv_bytes"))
        g->set(static_cast<double>(bytes));
    if (auto *g = telemetry::cachedGauge(kvTokensSlot,
                                         "decode.kv_tokens"))
        g->set(static_cast<double>(tokens));
    if (auto *g = telemetry::cachedGauge(
            kvBytesPerTokSlot, "decode.kv_bytes_per_token"))
        g->set(tokens ? static_cast<double>(bytes) /
                            static_cast<double>(tokens)
                      : 0.0);
    if (auto *g = telemetry::cachedGauge(sequencesSlot,
                                         "decode.sequences"))
        g->set(static_cast<double>(seqs_.size()));
    if (auto *g = telemetry::cachedGauge(
            attendScratchSlot, "decode.attend_scratch_bytes"))
        g->set(static_cast<double>(attendScratchPeakBytes()));
}

} // namespace runtime
} // namespace m2x
