#include "runtime/decode_session.hh"

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
      model_(model_cfg), isa_(cfg.isa),
      arena_(model_cfg.kvDim(), cfg.kvMode, cfg.isa,
             KvArenaConfig{cfg.pageRows, cfg.arenaPages, cfg.codec}),
      backend_(ownedPool_.get(), &attendNanos_)
{
    model_.rebuild(
        packedLinearFactory(ownedPool_.get(), &stats_, isa_, cfg.codec));
}

DecodeSession::~DecodeSession() = default;

ThreadPool *
DecodeSession::pool() const
{
    return ownedPool_.get();
}

size_t
DecodeSession::addSequence()
{
    seqs_.push_back(
        Sequence{KvCache(arena_, model_.config().nLayers)});
    return seqs_.size() - 1;
}

size_t
DecodeSession::length(size_t seq) const
{
    m2x_assert(seq < seqs_.size(), "sequence %zu out of %zu", seq,
               seqs_.size());
    return seqs_[seq].cache.length();
}

const KvCache &
DecodeSession::cache(size_t seq) const
{
    m2x_assert(seq < seqs_.size(), "sequence %zu out of %zu", seq,
               seqs_.size());
    return seqs_[seq].cache;
}

size_t
DecodeSession::kvBytes() const
{
    size_t bytes = 0;
    for (const Sequence &s : seqs_)
        bytes += s.cache.totalBytes();
    return bytes;
}

double
DecodeSession::kvBytesPerToken() const
{
    size_t tokens = 0;
    for (const Sequence &s : seqs_)
        tokens += s.cache.length();
    return tokens == 0 ? 0.0
                       : static_cast<double>(kvBytes()) /
                             static_cast<double>(tokens);
}

Matrix
DecodeSession::prefill(size_t seq, std::span<const int> tokens)
{
    m2x_assert(seq < seqs_.size(), "sequence %zu out of %zu", seq,
               seqs_.size());
    m2x_assert(!tokens.empty(), "prefill needs at least one token");
    size_t pos0 = seqs_[seq].cache.length();
    std::vector<size_t> positions(tokens.size());
    for (size_t t = 0; t < tokens.size(); ++t)
        positions[t] = pos0 + t;
    backend_.beginChunk(seqs_[seq].cache);
    telemetry::TraceSpan span("decode.prefill");
    if (span.active()) {
        span.arg("seq", seq);
        span.arg("tokens", tokens.size());
        span.arg("pos0", pos0);
    }
    uint64_t t0 = telemetry::metricsEnabled()
                      ? telemetry::nowNanos()
                      : 0;
    Matrix out = model_.forwardChunk(tokens, positions, backend_);
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
    m2x_assert(next.size() == seqs_.size(),
               "decode: %zu tokens for %zu sequences", next.size(),
               seqs_.size());
    std::vector<size_t> positions(seqs_.size());
    rowCaches_.clear();
    for (size_t s = 0; s < seqs_.size(); ++s) {
        positions[s] = seqs_[s].cache.length();
        rowCaches_.push_back(&seqs_[s].cache);
    }
    backend_.beginRows(rowCaches_);
    telemetry::TraceSpan span("decode.step");
    if (span.active()) {
        span.arg("batch", next.size());
        span.arg("pos0", positions[0]);
    }
    uint64_t t0 = telemetry::metricsEnabled()
                      ? telemetry::nowNanos()
                      : 0;
    Matrix out = model_.forwardChunk(next, positions, backend_);
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
    for (const Sequence &s : seqs_)
        tokens += s.cache.length();
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
