/**
 * @file
 * DecodeSession: incremental prefill + stepwise decode must
 * reproduce the one-shot full forward — bit-exactly with the fp32
 * cache (the oracle mode replicates the causal attention arithmetic
 * operation for operation), and within the established model-level
 * tolerance with the packed cache against a reference that
 * quantizes K/V through the functional §6.4 path. Covers ragged
 * batches, cache growth across prefill-chunk boundaries, and
 * single-token prefill.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/m2xfp.hh"
#include "runtime/decode_session.hh"
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

/**
 * Prefill the first @p prefill_len tokens, then decode the rest one
 * by one; returns the assembled [tokens, vocab] logits.
 */
Matrix
runPrefillDecode(DecodeSession &s, const std::vector<int> &toks,
                 size_t prefill_len)
{
    size_t seq = s.addSequence();
    std::span<const int> all(toks);
    Matrix chunk = s.prefill(seq, all.subspan(0, prefill_len));
    Matrix out(toks.size(), chunk.cols());
    for (size_t t = 0; t < prefill_len; ++t)
        for (size_t c = 0; c < chunk.cols(); ++c)
            out(t, c) = chunk(t, c);
    for (size_t t = prefill_len; t < toks.size(); ++t) {
        int tok = toks[t];
        Matrix step = s.decode({&tok, 1});
        EXPECT_EQ(step.rows(), 1u);
        for (size_t c = 0; c < step.cols(); ++c)
            out(t, c) = step(0, c);
    }
    EXPECT_EQ(s.length(seq), toks.size());
    return out;
}

/** A reference model with functionally §6.4-quantized K/V. */
model::TinyTransformer
kvQuantizedReference(const model::ModelConfig &cfg, SimdIsa isa)
{
    model::TinyTransformer ref(cfg);
    ref.rebuild(packedLinearFactory(nullptr, nullptr, isa));
    ref.setKvQuantizers(
        [] {
            return std::make_shared<ElemEmQuantizer>(
                makeM2xfpActivationQuantizer());
        },
        nullptr);
    return ref;
}

TEST(DecodeSession, Fp32CacheMatchesOneShotExactly)
{
    model::ModelConfig cfg = tinyConfig();
    std::vector<int> toks = randomTokens(13, cfg.vocab, 1);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        DecodeSession s(cfg,
                        {.isa = isa, .kvMode = KvCacheMode::Fp32});
        EXPECT_EQ(s.simdIsa(), isa);
        Matrix got = runPrefillDecode(s, toks, 6);
        // The fp32 cache replicates the full forward's arithmetic,
        // and per-row linear outputs are independent of the chunk's
        // row count on every tier — so incremental decode is
        // bit-exact against the one-shot forward, vector tiers
        // included.
        Matrix want = s.model().forwardLogits(toks);
        test::expectMatricesBitExact(got, want);
    }
}

TEST(DecodeSession, PackedCacheMatchesKvQuantizedOneShot)
{
    model::ModelConfig cfg = tinyConfig();
    std::vector<int> toks = randomTokens(13, cfg.vocab, 2);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        // Pinned to elem_em: the oracle below quantizes K/V through
        // the paper codec, whatever M2X_FORMAT says (cross-format
        // coverage lives in cross_format_parity_test).
        DecodeSession s(cfg, {.isa = isa,
                              .kvMode = KvCacheMode::Packed,
                              .codec = PackedCodec::ElemEm});
        Matrix got = runPrefillDecode(s, toks, 6);
        // The packed rows decode to exactly the values the
        // functional Elem-EM codec produces, so the only difference
        // vs the reference is attention-kernel reassociation —
        // held to the established model-level tolerance.
        model::TinyTransformer ref = kvQuantizedReference(cfg, isa);
        test::expectMatricesClose(got, ref.forwardLogits(toks),
                                  1e-5);
    }
}

TEST(DecodeSession, PackedCacheNonMultipleOf32Width)
{
    // d_model = 40: every cached row ends in a padded tail group —
    // the packed tail must decode to the same values the functional
    // codec produces for the shorter trailing group.
    model::ModelConfig cfg = tinyConfig();
    cfg.dModel = 40;
    cfg.nHeads = 2;
    std::vector<int> toks = randomTokens(9, cfg.vocab, 3);
    DecodeSession s(cfg, {.kvMode = KvCacheMode::Packed,
                          .codec = PackedCodec::ElemEm});
    Matrix got = runPrefillDecode(s, toks, 4);
    model::TinyTransformer ref =
        kvQuantizedReference(cfg, s.simdIsa());
    test::expectMatricesClose(got, ref.forwardLogits(toks), 1e-5);
}

TEST(DecodeSession, ChunkedPrefillCrossesGrowthBoundaries)
{
    model::ModelConfig cfg = tinyConfig();
    std::vector<int> toks = randomTokens(13, cfg.vocab, 4);
    std::span<const int> all(toks);
    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        SCOPED_TRACE(kvCacheModeName(mode));
        DecodeSession whole(cfg, {.kvMode = mode});
        DecodeSession chunked(cfg, {.kvMode = mode});
        size_t ws = whole.addSequence();
        size_t cs = chunked.addSequence();
        Matrix want = whole.prefill(ws, all);

        // 1 + 5 + 7 tokens: growth across chunk boundaries must be
        // invisible — identical logits (the engine is deterministic
        // whatever the chunking) and identical resident bytes.
        Matrix got(toks.size(), want.cols());
        size_t chunks[] = {1, 5, 7};
        size_t t0 = 0;
        for (size_t n : chunks) {
            Matrix part = chunked.prefill(cs, all.subspan(t0, n));
            for (size_t t = 0; t < n; ++t)
                for (size_t c = 0; c < part.cols(); ++c)
                    got(t0 + t, c) = part(t, c);
            t0 += n;
        }
        test::expectMatricesBitExact(got, want);
        EXPECT_EQ(chunked.kvBytes(), whole.kvBytes());
    }
}

TEST(DecodeSession, RaggedBatchDecode)
{
    model::ModelConfig cfg = tinyConfig();
    // Prompt lengths 5, 9 and 1 (single-token prefill edge case),
    // then four joint decode steps — every sequence must match its
    // own one-shot forward.
    std::vector<std::vector<int>> prompts = {
        randomTokens(5, cfg.vocab, 10),
        randomTokens(9, cfg.vocab, 11),
        randomTokens(1, cfg.vocab, 12),
    };
    const size_t steps = 4;
    std::vector<std::vector<int>> next(steps);
    for (size_t t = 0; t < steps; ++t)
        next[t] = randomTokens(prompts.size(), cfg.vocab, 20 + t);

    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        SCOPED_TRACE(kvCacheModeName(mode));
        DecodeSession s(cfg, {.threads = 2,
                              .kvMode = mode,
                              .codec = PackedCodec::ElemEm});
        std::vector<std::vector<int>> full = prompts;
        std::vector<std::vector<Matrix>> step_logits(prompts.size());
        for (size_t i = 0; i < prompts.size(); ++i) {
            size_t seq = s.addSequence();
            ASSERT_EQ(seq, i);
            s.prefill(seq, prompts[i]);
        }
        for (size_t t = 0; t < steps; ++t) {
            Matrix logits = s.decode(next[t]);
            ASSERT_EQ(logits.rows(), prompts.size());
            for (size_t i = 0; i < prompts.size(); ++i) {
                full[i].push_back(next[t][i]);
                Matrix row(1, logits.cols());
                for (size_t c = 0; c < logits.cols(); ++c)
                    row(0, c) = logits(i, c);
                step_logits[i].push_back(std::move(row));
            }
        }
        model::TinyTransformer ref =
            kvQuantizedReference(cfg, s.simdIsa());
        for (size_t i = 0; i < prompts.size(); ++i) {
            SCOPED_TRACE("seq " + std::to_string(i));
            EXPECT_EQ(s.length(i), full[i].size());
            Matrix want =
                mode == KvCacheMode::Fp32
                    ? s.model().forwardLogits(full[i])
                    : ref.forwardLogits(full[i]);
            // Check the decode-step rows (the last `steps` rows).
            for (size_t t = 0; t < steps; ++t) {
                size_t row = full[i].size() - steps + t;
                const Matrix &got = step_logits[i][t];
                for (size_t c = 0; c < want.cols(); ++c) {
                    double g = got(0, c), w = want(row, c);
                    if (mode == KvCacheMode::Fp32)
                        ASSERT_EQ(g, w) << "row " << row << " col "
                                        << c;
                    else
                        ASSERT_LE(std::abs(g - w),
                                  1e-5 * std::max(1.0, std::abs(w)))
                            << "row " << row << " col " << c;
                }
            }
        }
    }
}

TEST(DecodeSession, KvBytesAccounting)
{
    model::ModelConfig cfg = tinyConfig();
    std::vector<int> toks = randomTokens(12, cfg.vocab, 30);

    DecodeSession packed(cfg, {.kvMode = KvCacheMode::Packed});
    DecodeSession fp32(cfg, {.kvMode = KvCacheMode::Fp32});
    for (DecodeSession *s : {&packed, &fp32}) {
        size_t a = s->addSequence();
        size_t b = s->addSequence();
        s->prefill(a, toks);
        s->prefill(b, std::span<const int>(toks).subspan(0, 7));
    }
    size_t tokens = 12 + 7;
    // Per token per layer: K + V at groupsPerRow * 18 bytes each.
    size_t groups = cfg.dModel / 32;
    size_t packed_want = tokens * 2 * cfg.nLayers * groups * 18;
    size_t fp32_want =
        tokens * 2 * cfg.nLayers * cfg.dModel * sizeof(float);
    EXPECT_EQ(packed.kvBytes(), packed_want);
    EXPECT_EQ(fp32.kvBytes(), fp32_want);
    EXPECT_DOUBLE_EQ(fp32.kvBytesPerToken() /
                         packed.kvBytesPerToken(),
                     32.0 / 4.5);
    EXPECT_GT(packed.attendSeconds(), 0.0);
    EXPECT_EQ(packed.kvMode(), KvCacheMode::Packed);
    EXPECT_EQ(packed.batchSize(), 2u);
}

} // anonymous namespace
} // namespace runtime
} // namespace m2x
