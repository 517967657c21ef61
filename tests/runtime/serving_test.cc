/**
 * @file
 * ServingEngine: continuous batching over the shared page arena must
 * not change what any request generates — scheduler interleaving,
 * admission stalls, preemption and byte-exact re-prefill are all
 * invisible to the tokens, so every request's output equals a
 * single-sequence DecodeSession run bit-for-bit (both KV modes, every
 * compiled ISA tier). Also covers: admission stalling at arena
 * exhaustion, forced preemption with recovered outputs, the
 * streamed-token callback across preemption, and free-list reuse
 * keeping the arena flat across request churn.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/decode_session.hh"
#include "runtime/serving.hh"
#include "runtime_test_util.hh"
#include "util/rng.hh"

namespace m2x {
namespace runtime {
namespace {

model::ModelConfig
tinyConfig()
{
    model::ModelConfig cfg;
    cfg.name = "test-tiny";
    cfg.dModel = 64;
    cfg.nHeads = 2;
    cfg.nLayers = 2;
    cfg.dFf = 96;
    cfg.vocab = 64;
    cfg.seed = 7;
    return cfg;
}

std::vector<int>
randomTokens(size_t n, unsigned vocab, uint64_t seed)
{
    std::vector<int> toks(n);
    Rng rng(seed);
    for (auto &t : toks)
        t = static_cast<int>(rng.uniformInt(vocab));
    return toks;
}

int
argmaxRow(const Matrix &logits, size_t row)
{
    size_t best = 0;
    for (size_t c = 1; c < logits.cols(); ++c)
        if (logits(row, c) > logits(row, best))
            best = c;
    return static_cast<int>(best);
}

/**
 * The parity oracle: the same greedy generation run alone through a
 * fixed-batch DecodeSession (whose own parity against the one-shot
 * forward is covered by decode_session_test).
 */
std::vector<int>
greedyReference(const model::ModelConfig &mc, KvCacheMode mode,
                SimdIsa isa, const std::vector<int> &prompt,
                size_t max_new)
{
    DecodeSession s(mc, {.isa = isa, .kvMode = mode});
    size_t seq = s.addSequence();
    Matrix logits = s.prefill(seq, prompt);
    std::vector<int> out;
    out.push_back(argmaxRow(logits, logits.rows() - 1));
    while (out.size() < max_new) {
        int next = out.back();
        Matrix l = s.decode({&next, 1});
        out.push_back(argmaxRow(l, 0));
    }
    return out;
}

struct Workload
{
    std::vector<int> prompt;
    size_t maxNew;
};

std::vector<Workload>
mixedWorkload(const model::ModelConfig &mc)
{
    return {
        {randomTokens(6, mc.vocab, 1), 5},
        {randomTokens(3, mc.vocab, 2), 8},
        {randomTokens(9, mc.vocab, 3), 1}, // finishes at admission
        {randomTokens(5, mc.vocab, 4), 6},
    };
}

void
expectMatchesReference(ServingEngine &eng,
                       const model::ModelConfig &mc,
                       const std::vector<Workload> &work,
                       KvCacheMode mode, SimdIsa isa)
{
    for (size_t i = 0; i < work.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        const RequestStats &st = eng.stats(i);
        EXPECT_EQ(st.state, RequestState::Finished);
        EXPECT_EQ(st.generated, work[i].maxNew);
        EXPECT_GT(st.ttftSeconds(), 0.0);
        std::vector<int> want = greedyReference(
            mc, mode, isa, work[i].prompt, work[i].maxNew);
        EXPECT_EQ(eng.generated(i), want);
    }
}

TEST(ServingEngine, MatchesSingleSequenceDecodeOnEveryTier)
{
    model::ModelConfig mc = tinyConfig();
    std::vector<Workload> work = mixedWorkload(mc);
    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        for (SimdIsa isa : supportedSimdIsas()) {
            SCOPED_TRACE(std::string("mode=") +
                         kvCacheModeName(mode) +
                         " isa=" + simdIsaName(isa));
            ServingEngine eng(mc, {.isa = isa,
                                   .kvMode = mode,
                                   .pageRows = 4,
                                   .arenaPages = 256,
                                   .maxBatch = 8});
            for (const Workload &w : work)
                eng.submit(w.prompt, w.maxNew);
            eng.runToCompletion();
            EXPECT_TRUE(eng.idle());
            EXPECT_EQ(eng.finishedCount(), work.size());
            // Ample arena: the scheduler never had to preempt.
            EXPECT_EQ(eng.preemptionCount(), 0u);
            expectMatchesReference(eng, mc, work, mode, isa);
        }
    }
}

TEST(ServingEngine, AdmissionStallsAtArenaExhaustion)
{
    model::ModelConfig mc = tinyConfig();
    // One request needs 8 pages (prompt 4 + gen 4 -> 7 rows -> 2
    // pages per stream, x2 streams x2 layers); 12 total pages admit
    // exactly one at a time.
    std::vector<Workload> work = {
        {randomTokens(4, mc.vocab, 11), 4},
        {randomTokens(4, mc.vocab, 12), 4},
        {randomTokens(4, mc.vocab, 13), 4},
    };
    ServingEngine eng(mc, {.kvMode = KvCacheMode::Packed,
                           .pageRows = 4,
                           .arenaPages = 12,
                           .maxBatch = 8,
                           .admitFreeFraction = 0.0});
    for (const Workload &w : work)
        eng.submit(w.prompt, w.maxNew);
    ASSERT_TRUE(eng.step());
    // Only the first request fit; the rest stalled in the queue.
    EXPECT_EQ(eng.activeCount(), 1u);
    EXPECT_EQ(eng.waitingCount(), 2u);
    eng.runToCompletion();
    EXPECT_TRUE(eng.idle());
    EXPECT_EQ(eng.finishedCount(), 3u);
    EXPECT_EQ(eng.arena().livePages(), 0u);
    for (size_t i = 0; i < work.size(); ++i)
        EXPECT_EQ(eng.generated(i).size(), work[i].maxNew);
}

TEST(ServingEngine, PreemptionRoundTripKeepsOutputsExact)
{
    model::ModelConfig mc = tinyConfig();
    SimdIsa isa = activeSimdIsa();
    std::vector<Workload> work = {
        {randomTokens(6, mc.vocab, 21), 10},
        {randomTokens(6, mc.vocab, 22), 10},
        {randomTokens(6, mc.vocab, 23), 10},
    };
    // Tight arena: all three admit early (8 pages each) but cannot
    // all grow to their 16-page finals, so the youngest gets evicted
    // mid-generation and later resumes via byte-exact re-prefill.
    ServingEngine eng(mc, {.isa = isa,
                           .kvMode = KvCacheMode::Packed,
                           .pageRows = 4,
                           .arenaPages = 28,
                           .maxBatch = 4,
                           .admitFreeFraction = 0.0});
    for (const Workload &w : work)
        eng.submit(w.prompt, w.maxNew);
    eng.runToCompletion();
    EXPECT_TRUE(eng.idle());
    EXPECT_GT(eng.preemptionCount(), 0u);
    expectMatchesReference(eng, mc, work, KvCacheMode::Packed, isa);
    size_t preempted_total = 0;
    for (size_t i = 0; i < work.size(); ++i)
        preempted_total += eng.stats(i).preemptions;
    EXPECT_EQ(preempted_total, eng.preemptionCount());
}

TEST(ServingEngine, OnTokenStreamsEachTokenOnce)
{
    model::ModelConfig mc = tinyConfig();
    // The preemption test's tight arena, with two requests that
    // finish at admission (max_new_tokens == 1) in between.
    std::vector<Workload> work = {
        {randomTokens(6, mc.vocab, 21), 10},
        {randomTokens(6, mc.vocab, 22), 10},
        {randomTokens(4, mc.vocab, 24), 1},
        {randomTokens(6, mc.vocab, 23), 10},
        {randomTokens(3, mc.vocab, 25), 1},
    };
    ServingEngine eng(mc, {.kvMode = KvCacheMode::Packed,
                           .pageRows = 4,
                           .arenaPages = 28,
                           .maxBatch = 4,
                           .admitFreeFraction = 0.0});
    std::vector<std::vector<int>> streamed(work.size());
    std::vector<size_t> lasts(work.size(), 0);
    std::vector<bool> last_on_final(work.size(), false);
    eng.onToken([&](size_t id, int token, bool is_last) {
        ASSERT_LT(id, work.size());
        streamed[id].push_back(token);
        if (is_last) {
            ++lasts[id];
            last_on_final[id] = streamed[id].size() == work[id].maxNew;
        }
    });
    for (const Workload &w : work)
        eng.submit(w.prompt, w.maxNew);
    eng.runToCompletion();
    EXPECT_TRUE(eng.idle());
    // A resumed request re-prefills its history but streams only
    // tokens it had not emitted before its eviction.
    EXPECT_GT(eng.preemptionCount(), 0u);
    for (size_t i = 0; i < work.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        EXPECT_EQ(streamed[i], eng.generated(i));
        EXPECT_EQ(streamed[i].size(), work[i].maxNew);
        EXPECT_EQ(lasts[i], 1u);
        EXPECT_TRUE(last_on_final[i]);
    }
}

TEST(ServingEngine, ChurnDoesNotGrowArena)
{
    model::ModelConfig mc = tinyConfig();
    ServingEngine eng(mc, {.kvMode = KvCacheMode::Packed,
                           .pageRows = 4,
                           .arenaPages = 64,
                           .maxBatch = 4});
    size_t high_water_after_first = 0;
    for (int wave = 0; wave < 3; ++wave) {
        SCOPED_TRACE("wave " + std::to_string(wave));
        for (uint64_t i = 0; i < 3; ++i)
            eng.submit(randomTokens(5, mc.vocab, 31 + i), 6);
        eng.runToCompletion();
        EXPECT_TRUE(eng.idle());
        EXPECT_EQ(eng.arena().livePages(), 0u);
        if (wave == 0)
            high_water_after_first = eng.arena().highWaterPages();
        // Identical waves recycle the first wave's pages: the
        // arena's materialized set must not grow across churn.
        EXPECT_EQ(eng.arena().highWaterPages(),
                  high_water_after_first);
    }
    EXPECT_EQ(eng.finishedCount(), 9u);
    EXPECT_GT(eng.occupancyPeak(), 0.0);
    EXPECT_LE(eng.occupancyPeak(), 1.0);
    EXPECT_GT(eng.stepCount(), 0u);
    // 54 tokens total: each request's first lands in ttfts(), the
    // remaining inter-token gaps in tokenLatencies().
    EXPECT_EQ(eng.ttfts().size(), 9u);
    EXPECT_EQ(eng.tokenLatencies().size(), 9u * 6u - 9u);
}

TEST(ServingEngine, LifecycleAndStateNames)
{
    model::ModelConfig mc = tinyConfig();
    ServingEngine eng(mc, {.kvMode = KvCacheMode::Fp32,
                           .pageRows = 4,
                           .arenaPages = 64});
    size_t id = eng.submit(randomTokens(4, mc.vocab, 51), 3);
    EXPECT_EQ(eng.stats(id).state, RequestState::Queued);
    EXPECT_EQ(eng.waitingCount(), 1u);
    eng.runToCompletion();
    EXPECT_EQ(eng.stats(id).state, RequestState::Finished);
    EXPECT_EQ(eng.generated(id).size(), 3u);
    EXPECT_STREQ(requestStateName(RequestState::Queued), "queued");
    EXPECT_STREQ(requestStateName(RequestState::Active), "active");
    EXPECT_STREQ(requestStateName(RequestState::Preempted),
                 "preempted");
    EXPECT_STREQ(requestStateName(RequestState::Finished),
                 "finished");
}

} // namespace
} // namespace runtime
} // namespace m2x
