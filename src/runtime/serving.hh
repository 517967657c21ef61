/**
 * @file
 * Continuous-batching serving engine over the paged packed KV cache.
 *
 * The ServingEngine is a scheduler over one DecodeSession (the
 * engine core: model, thread pool, and a fixed-capacity KvPageArena
 * built from the ServingConfig). Where the session's fixed-batch API
 * runs one batch to completion, the engine admits and retires
 * sequences mid-flight, holding each active request's KvCache and
 * driving the session's prefill(cache, tokens) and decode(caches,
 * tokens) calls. The shared arena is the shape the paper's 4.5
 * bits/element KV state is for: compressed pages are what let many
 * concurrent sequences fit one arena byte budget (~7.1x the
 * sequences dense fp32 KV could hold).
 *
 * Scheduler (one step() = one iteration):
 *  1. Admission — FCFS over the waiting queue (preempted requests
 *     resume first, in original submission order). A request is
 *     admitted only if the pages its whole history needs, plus the
 *     configured free-page watermark, fit the arena's free count;
 *     otherwise admission stalls until retirements free pages.
 *     Admission prefills the request's full token history in one
 *     chunk (prompt for fresh requests; prompt + generated tokens
 *     for resumed ones — byte-exact re-prefill is what makes
 *     eviction recoverable).
 *  2. Capacity check — the coming decode step appends one row per
 *     active sequence per layer per stream; if the worst-case fresh
 *     pages exceed the arena's free count, the youngest active
 *     sequences are preempted (pages released, token history kept)
 *     until the step fits. FCFS with preemption: the oldest work is
 *     never the victim.
 *  3. Batched step — the active set's next tokens are re-batched
 *     into a single ragged [S, d] chunk (every linear runs one
 *     batched packed GEMM; attention fans out per sequence), tokens
 *     are sampled greedily, finished sequences retire and their
 *     pages return to the free list.
 *
 * Request lifecycle: Queued -> Active -> (Preempted -> Active)* ->
 * Finished. See docs/SERVING.md for the policy rationale and the
 * page-table layout.
 *
 * Telemetry (PR 7 registry, off by default): serving.step /
 * serving.prefill trace spans, serving.step_ns / serving.token_ns /
 * serving.ttft_ns histograms, serving.tokens / serving.preemptions
 * counters, serving.occupancy / serving.active / serving.queued /
 * serving.free_pages gauges.
 *
 * Like DecodeSession, one engine expects a single driving thread;
 * parallelism lives inside the packed kernels and the per-sequence
 * attention fan-out.
 */

#ifndef M2X_RUNTIME_SERVING_HH__
#define M2X_RUNTIME_SERVING_HH__

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "model/config.hh"
#include "runtime/decode_session.hh"
#include "runtime/kv_cache.hh"
#include "runtime/kv_page_arena.hh"
#include "runtime/simd.hh"

namespace m2x {
namespace runtime {

/**
 * Streamed-token callback: invoked once per generated token at
 * harvest time (request id, the token, and whether it is the
 * request's last). Runs on the engine's driving thread inside
 * step()/activate() — keep it cheap, and don't call back into the
 * engine from inside it.
 */
using TokenCallback =
    std::function<void(size_t req_id, int token, bool is_last)>;

/** ServingEngine construction knobs. */
struct ServingConfig
{
    /** Parallel lanes; 0 = the global pool. */
    unsigned threads = 0;
    /** Kernel tier for every layer and the KV codec. */
    SimdIsa isa = activeSimdIsa();
    /** Resident representation of the KV pages. */
    KvCacheMode kvMode = KvCacheMode::Packed;
    /** Rows per KV page. */
    size_t pageRows = 16;
    /** Fixed arena capacity in pages (must be > 0). */
    size_t arenaPages = 4096;
    /** Scheduler cap on concurrently active sequences. */
    size_t maxBatch = 64;
    /**
     * Admission watermark: a request is admitted only if this
     * fraction of the arena would remain free afterwards, leaving
     * headroom for the active set's step-to-step page growth.
     */
    double admitFreeFraction = 0.05;
    /**
     * Packed stream codec for the linear layers and the packed KV
     * pages. Session-level default follows the M2X_FORMAT
     * environment override (see defaultPackedCodec()).
     */
    PackedCodec codec = defaultPackedCodec();
};

/** Where a request is in its lifecycle. */
enum class RequestState
{
    Queued,    //!< submitted, waiting for admission
    Active,    //!< holding pages, generating
    Preempted, //!< evicted under pressure, waiting to resume
    Finished,  //!< maxNewTokens generated, pages released
};

const char *requestStateName(RequestState s);

/** Per-request bookkeeping, readable any time via stats(). */
struct RequestStats
{
    RequestState state = RequestState::Queued;
    size_t promptTokens = 0;
    size_t maxNewTokens = 0;
    size_t generated = 0;
    size_t preemptions = 0;
    uint64_t submitNs = 0;     //!< submit() timestamp
    uint64_t firstTokenNs = 0; //!< first generated token (TTFT end)
    uint64_t finishNs = 0;

    double
    ttftSeconds() const
    {
        return firstTokenNs ? 1e-9 * static_cast<double>(
                                         firstTokenNs - submitNs)
                            : 0.0;
    }
};

/** A model serving a dynamic request stream over one page arena. */
class ServingEngine
{
  public:
    ServingEngine(const model::ModelConfig &model_cfg,
                  ServingConfig cfg);
    ~ServingEngine();

    /**
     * Enqueue a request: generate @p max_new_tokens greedily after
     * @p prompt. Returns the request id (dense, submission order).
     */
    size_t submit(std::vector<int> prompt, size_t max_new_tokens);

    /**
     * Install the streamed-token callback (nullable to clear).
     * Every token generated after this call — including each
     * request's TTFT token emitted during admission prefill — is
     * delivered as onToken(reqId, token, isLast) the moment it is
     * harvested, interleaved with preemption/resume exactly as the
     * scheduler sees it.
     */
    void onToken(TokenCallback cb) { tokenCb_ = std::move(cb); }

    /**
     * One scheduler iteration (admission, capacity check, batched
     * decode step). Returns false when the engine is idle — nothing
     * active and nothing waiting.
     */
    bool step();

    /** step() until idle; returns tokens generated by this call. */
    size_t runToCompletion();

    bool idle() const { return active_.empty() && waitingCount() == 0; }

    /** @{ Request introspection. */
    size_t requestCount() const { return reqs_.size(); }
    const RequestStats &stats(size_t id) const;
    /** Generated tokens so far (complete once state == Finished). */
    const std::vector<int> &generated(size_t id) const;
    /** @} */

    /** @{ Scheduler state. */
    size_t activeCount() const { return active_.size(); }
    size_t waitingCount() const
    {
        return queued_.size() + preempted_.size();
    }
    size_t finishedCount() const { return finished_; }
    size_t preemptionCount() const { return preemptions_; }
    const KvPageArena &arena() const { return session_.arena(); }
    /** @} */

    /** @{
     * Latency series for bench reporting: seconds per generated
     * token (inter-token gaps; the first token of each request is
     * its TTFT and lands in ttfts() instead), in emission order.
     */
    const std::vector<double> &tokenLatencies() const
    {
        return tokenLat_;
    }
    const std::vector<double> &ttfts() const { return ttfts_; }
    /** @} */

    /** @{ Occupancy trace over the run (sampled once per step). */
    double occupancyPeak() const { return occPeak_; }
    double
    occupancyMean() const
    {
        return steps_ ? occSum_ / static_cast<double>(steps_) : 0.0;
    }
    size_t stepCount() const { return steps_; }
    /** @} */

    PackedCodec codec() const { return session_.codec(); }

  private:
    struct Request
    {
        std::vector<int> prompt;
        std::vector<int> out; //!< generated tokens (out.back() is
                              //!< the next token to feed)
        std::unique_ptr<KvCache> cache; //!< non-null while Active
        RequestStats st;
        uint64_t lastEmitNs = 0;
    };

    /** Admit/resume waiting requests while they fit. */
    void admit();
    /** Activate one request: build its cache, prefill its history. */
    void activate(size_t id);
    /** Preempt active sequences until the next step's pages fit. */
    void ensureStepCapacity();
    void finish(Request &r, uint64_t now);
    void updateGauges();

    ServingConfig cfg_;
    /** Model, pool and arena; declared before reqs_ so every cache
     *  is destroyed before the arena it holds pages in. */
    DecodeSession session_;

    std::vector<Request> reqs_;
    std::deque<size_t> queued_;    //!< fresh, FCFS
    std::vector<size_t> preempted_; //!< kept sorted by id (FCFS)
    std::vector<size_t> active_;    //!< admission order
    size_t finished_ = 0;
    size_t preemptions_ = 0;

    TokenCallback tokenCb_;
    std::vector<double> tokenLat_;
    std::vector<double> ttfts_;
    double occPeak_ = 0.0;
    double occSum_ = 0.0;
    size_t steps_ = 0;

    /** Per-step scratch (single driving thread). */
    std::vector<KvCache *> rowCaches_;
    std::vector<int> stepTokens_;
};

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_SERVING_HH__
