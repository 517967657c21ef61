/**
 * @file
 * Flash-style blocked online-softmax attention: the paged attend
 * must reproduce the full-forward oracle at every page-boundary
 * context length on every tier (fp32 bit-exact, packed within the
 * model tolerance), grouped-query and sliding-window variants must
 * match the grouped/windowed oracle, per-lane attend scratch must
 * stay constant from 1k to 64k context, and the per-ISA page
 * kernels must agree with the scalar tier: the page decode bit for
 * bit, scores and value accumulation under GQA grouping to double
 * rounding.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/m2xfp.hh"
#include "runtime/decode_session.hh"
#include "runtime/kv_attend_kernels.hh"
#include "runtime/kv_cache.hh"
#include "runtime/packed_linear.hh"
#include "runtime_test_util.hh"
#include "util/rng.hh"

namespace m2x {
namespace runtime {
namespace {

model::ModelConfig
tinyConfig()
{
    model::ModelConfig cfg;
    cfg.name = "test-flash";
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

/** A reference model with functionally §6.4-quantized K/V. */
model::TinyTransformer
kvQuantizedReference(const model::ModelConfig &cfg, SimdIsa isa)
{
    model::TinyTransformer ref(cfg);
    ref.rebuild(packedLinearFactory(nullptr, isa));
    ref.setKvQuantizers(
        [] {
            return std::make_shared<ElemEmQuantizer>(
                makeM2xfpActivationQuantizer());
        },
        nullptr);
    return ref;
}

/** Prefill half, decode the rest; returns the full logits. */
Matrix
runPrefillDecode(DecodeSession &s, const std::vector<int> &toks)
{
    size_t seq = s.addSequence();
    size_t prefill_len = std::max<size_t>(1, toks.size() / 2);
    std::span<const int> all(toks);
    Matrix chunk = s.prefill(seq, all.subspan(0, prefill_len));
    Matrix out(toks.size(), chunk.cols());
    for (size_t t = 0; t < prefill_len; ++t)
        for (size_t c = 0; c < chunk.cols(); ++c)
            out(t, c) = chunk(t, c);
    for (size_t t = prefill_len; t < toks.size(); ++t) {
        int tok = toks[t];
        Matrix step = s.decode({&tok, 1});
        for (size_t c = 0; c < step.cols(); ++c)
            out(t, c) = step(0, c);
    }
    return out;
}

/**
 * End-to-end parity of prefill + decode against the one-shot oracle
 * for @p cfg: fp32 cache bit-exact on every tier, packed cache
 * within the model tolerance against the KV-quantized reference.
 */
void
expectOracleParity(const model::ModelConfig &cfg, size_t tokens,
                   uint64_t seed)
{
    std::vector<int> toks = randomTokens(tokens, cfg.vocab, seed);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa) +
                     " tokens=" + std::to_string(tokens));
        {
            DecodeSession s(
                cfg, {.isa = isa, .kvMode = KvCacheMode::Fp32});
            Matrix got = runPrefillDecode(s, toks);
            test::expectMatricesBitExact(
                got, s.model().forwardLogits(toks));
        }
        {
            // Pinned to elem_em: the KV-quantized oracle below is
            // the paper codec, whatever M2X_FORMAT says (the other
            // codecs' attend parity lives in cross_format_parity_test).
            DecodeSession s(cfg, {.isa = isa,
                                  .kvMode = KvCacheMode::Packed,
                                  .codec = PackedCodec::ElemEm});
            Matrix got = runPrefillDecode(s, toks);
            model::TinyTransformer ref = kvQuantizedReference(cfg,
                                                              isa);
            test::expectMatricesClose(got, ref.forwardLogits(toks),
                                      1e-5);
        }
    }
}

TEST(FlashAttend, OracleParityAtPageBoundaryContexts)
{
    // The default page holds 16 rows: 1 / 15 / 16 / 17 tokens cover
    // a single partial page, an exactly-full page, and the first row
    // of a fresh page — the off-by-one surface of the page walk.
    model::ModelConfig cfg = tinyConfig();
    const size_t page_rows = DecodeConfig{}.pageRows;
    uint64_t seed = 40;
    for (size_t tokens :
         {size_t(1), page_rows - 1, page_rows, page_rows + 1})
        expectOracleParity(cfg, tokens, seed++);
}

TEST(FlashAttend, OracleParityNonMultipleOf32DModel)
{
    // d_model = 40 (headDim 20): padded packed tail groups plus a
    // head dim that is not a vector-width multiple on any tier.
    model::ModelConfig cfg = tinyConfig();
    cfg.dModel = 40;
    expectOracleParity(cfg, DecodeConfig{}.pageRows + 1, 50);
}

TEST(FlashAttend, GqaMatchesGroupedOracle)
{
    // n_kv_heads ∈ {1, nHeads/2, nHeads}: MQA, grouped, and classic
    // MHA — the oracle's causalAttend implements the same grouping.
    model::ModelConfig cfg = tinyConfig();
    cfg.nHeads = 4;
    uint64_t seed = 60;
    for (unsigned kv_heads : {1u, 2u, 4u}) {
        SCOPED_TRACE("kv_heads=" + std::to_string(kv_heads));
        cfg.nKvHeads = kv_heads;
        expectOracleParity(cfg, 21, seed++);
    }
}

TEST(FlashAttend, GqaWithEqualHeadsMatchesDefaultConfig)
{
    // nKvHeads == nHeads must be indistinguishable from the MHA
    // default (0): same weights drawn, same attention arithmetic.
    model::ModelConfig mha = tinyConfig();
    model::ModelConfig gqa = tinyConfig();
    gqa.nKvHeads = gqa.nHeads;
    std::vector<int> toks = randomTokens(9, mha.vocab, 70);
    model::TinyTransformer a(mha), b(gqa);
    test::expectMatricesBitExact(a.forwardLogits(toks),
                                 b.forwardLogits(toks));
}

TEST(FlashAttend, SlidingWindowMatchesTruncatedFullAttend)
{
    // A windowed attend over T cached rows must equal a full attend
    // over a cache holding only the last W rows — the window is pure
    // masking. W both page-aligned (16) and awkward (13).
    const size_t d = 64, tokens = 50;
    const unsigned heads = 2;
    Matrix k = test::randomMatrix(tokens, d, 81, 4.0);
    Matrix v = test::randomMatrix(tokens, d, 82, 4.0);
    Matrix q = test::randomMatrix(1, d, 83, 4.0);

    for (size_t window : {size_t(16), size_t(13)}) {
        for (SimdIsa isa : supportedSimdIsas()) {
            for (KvCacheMode mode :
                 {KvCacheMode::Fp32, KvCacheMode::Packed}) {
                SCOPED_TRACE(std::string(kvCacheModeName(mode)) +
                             " isa=" + simdIsaName(isa) +
                             " window=" + std::to_string(window));
                KvCache full(1, d, mode, isa);
                full.append(0, k.data(), v.data(), tokens);
                Matrix got(1, d);
                full.attend(0, q.data(), 1, tokens - 1, heads,
                            got.data(), nullptr, heads, window);

                size_t first = tokens - window;
                KvCache trunc(1, d, mode, isa);
                trunc.append(0, k.data() + first * d,
                             v.data() + first * d, window);
                Matrix want(1, d);
                trunc.attend(0, q.data(), 1, window - 1, heads,
                             want.data());
                if (mode == KvCacheMode::Fp32) {
                    // The 3-pass streams rows in order — page
                    // alignment is invisible, so masking == truncation
                    // bitwise.
                    test::expectMatricesBitExact(got, want);
                } else {
                    // Identical decoded rows, but the online-softmax
                    // page partition differs between the two caches.
                    test::expectMatricesClose(got, want, 1e-5);
                }
            }
        }
    }
}

TEST(FlashAttend, SlidingWindowModelMatchesOracle)
{
    // End-to-end: a model config with a sliding window, decoded
    // through the paged cache, against the windowed causal oracle.
    model::ModelConfig cfg = tinyConfig();
    cfg.slidingWindow = 8;
    expectOracleParity(cfg, 21, 90);
}

TEST(FlashAttend, ReleaseBeforeKeepsWindowedAttendExact)
{
    // Out-of-window pages can be returned to the arena without
    // touching the windowed attend: releaseBefore(row) tombstones
    // the freed slots, absolute row indexing survives.
    const size_t d = 64, tokens = 64, window = 16;
    const unsigned heads = 2;
    Matrix k = test::randomMatrix(tokens, d, 91, 4.0);
    Matrix v = test::randomMatrix(tokens, d, 92, 4.0);
    Matrix q = test::randomMatrix(1, d, 93, 4.0);

    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        SCOPED_TRACE(kvCacheModeName(mode));
        KvCache cache(1, d, mode);
        cache.append(0, k.data(), v.data(), tokens);
        Matrix before(1, d);
        cache.attend(0, q.data(), 1, tokens - 1, heads,
                     before.data(), nullptr, heads, window);

        size_t held = cache.pagesHeld();
        cache.releaseBefore(tokens - window);
        // 64 rows = 4 pages of 16; the first 48 rows (3 pages per
        // stream) are wholly out of every future window.
        EXPECT_EQ(cache.pagesHeld(), held - 2 * 3);
        EXPECT_EQ(cache.length(), tokens);

        Matrix after(1, d);
        cache.attend(0, q.data(), 1, tokens - 1, heads, after.data(),
                     nullptr, heads, window);
        test::expectMatricesBitExact(after, before);

        // Appends keep working past the release: the tail page was
        // never freed.
        cache.append(0, k.data(), v.data(), 1);
        EXPECT_EQ(cache.length(), tokens + 1);
    }
}

TEST(FlashAttend, ScratchStaysConstantFrom1kTo64kContext)
{
    // The defining flash property (and the ISSUE's regression gate):
    // per-lane attend scratch at 64k context is no larger than at 1k
    // — O(pageRows · nHeads), independent of context length.
    const size_t d = 64;
    const unsigned heads = 2;
    Matrix q = test::randomMatrix(1, d, 111, 4.0);
    const size_t chunk_rows = 1024;
    Matrix rows = test::randomMatrix(chunk_rows, d, 112, 4.0);

    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        SCOPED_TRACE(kvCacheModeName(mode));
        KvCache cache(1, d, mode);
        Matrix ctx(1, d);
        auto scratch_at = [&](size_t target_len) {
            while (cache.length() < target_len)
                cache.append(0, rows.data(), rows.data(), chunk_rows);
            resetAttendScratchPeak();
            cache.attend(0, q.data(), 1, cache.length() - 1, heads,
                         ctx.data());
            return attendScratchPeakBytes();
        };
        size_t at_1k = scratch_at(1024);
        size_t at_64k = scratch_at(65536);
        EXPECT_GT(at_1k, 0u);
        EXPECT_LE(at_64k, at_1k);
    }
}

TEST(FlashAttendKernels, VectorTiersMatchScalarUnderGrouping)
{
    // Direct kernel parity on a partial page: page scores and their
    // per-head max, the page value accumulation and the exponential
    // weights on every compiled tier vs the scalar tier, at group 1
    // and 2 and a non-vector-multiple head dim.
    using namespace detail;
    const unsigned n_heads = 4;
    const size_t page_rows = 16, n_rows = 11;
    const double inv_sqrt = 0.125;
    for (size_t hd : {size_t(32), size_t(20)}) {
        for (unsigned group : {1u, 2u}) {
            SCOPED_TRACE("hd=" + std::to_string(hd) +
                         " group=" + std::to_string(group));
            size_t kv_d = (n_heads / group) * hd;
            // A decoded page slab with a padded row stride, as the
            // attend lays it out.
            size_t stride = kv_d + 12;
            Matrix q = test::randomMatrix(1, n_heads * hd, 121, 4.0);
            Matrix rows = test::randomMatrix(n_rows, stride, 122, 4.0);
            std::vector<double> w(n_heads * page_rows);
            Rng wrng(124);
            for (auto &x : w)
                x = wrng.uniform();
            std::vector<double> acc0(n_heads * hd);
            for (size_t i = 0; i < acc0.size(); ++i)
                acc0[i] = 0.01 * static_cast<double>(i % 17) - 0.05;

            const AttendKernels &ref = attendKernels(SimdIsa::Scalar);
            std::vector<double> sc_want(n_heads * page_rows, 0.0);
            std::vector<double> max_want(n_heads);
            ref.scorePage(q.data(), rows.data(), stride, n_rows, hd,
                          n_heads, group, inv_sqrt, sc_want.data(),
                          page_rows, max_want.data());
            std::vector<double> acc_want = acc0;
            ref.accumPage(w.data(), page_rows, rows.data(), stride,
                          n_rows, hd, n_heads, group, acc_want.data());
            std::vector<double> s(33);
            Rng rng(123);
            for (auto &x : s)
                x = -30.0 * rng.uniform();
            std::vector<double> exp_want(s.size());
            ref.expWeights(s.data(), 0.0, s.size(), exp_want.data());

            auto near = [](double got, double want) {
                return std::abs(got - want) <=
                       1e-9 * std::max(1.0, std::abs(want));
            };
            for (SimdIsa isa : supportedSimdIsas()) {
                if (isa == SimdIsa::Scalar)
                    continue;
                SCOPED_TRACE(simdIsaName(isa));
                const AttendKernels &kern = attendKernels(isa);
                std::vector<double> sc_got(n_heads * page_rows, 0.0);
                std::vector<double> max_got(n_heads);
                kern.scorePage(q.data(), rows.data(), stride, n_rows,
                               hd, n_heads, group, inv_sqrt,
                               sc_got.data(), page_rows,
                               max_got.data());
                for (unsigned h = 0; h < n_heads; ++h) {
                    EXPECT_TRUE(near(max_got[h], max_want[h]))
                        << "smax head " << h << ": " << max_got[h]
                        << " vs " << max_want[h];
                    for (size_t r = 0; r < n_rows; ++r) {
                        size_t i = h * page_rows + r;
                        ASSERT_TRUE(near(sc_got[i], sc_want[i]))
                            << "score head " << h << " row " << r
                            << ": " << sc_got[i] << " vs "
                            << sc_want[i];
                    }
                }
                std::vector<double> acc_got = acc0;
                kern.accumPage(w.data(), page_rows, rows.data(),
                               stride, n_rows, hd, n_heads, group,
                               acc_got.data());
                for (size_t i = 0; i < acc_want.size(); ++i)
                    ASSERT_TRUE(near(acc_got[i], acc_want[i]))
                        << "acc elem " << i << ": " << acc_got[i]
                        << " vs " << acc_want[i];
                // The vector tiers run a float polynomial exp
                // against the scalar libm double; the error grows
                // with |s - m| (range-reduction rounding) but stays
                // an order under the 1e-5 packed model tolerance.
                std::vector<double> exp_got(s.size());
                kern.expWeights(s.data(), 0.0, s.size(),
                                exp_got.data());
                for (size_t i = 0; i < s.size(); ++i)
                    ASSERT_NEAR(exp_got[i], exp_want[i],
                                5e-6 * std::max(1e-12, exp_want[i]))
                        << "elem " << i;
            }
        }
    }
}

/** Bitwise equality of rows [0, n) of two decoded page slabs. */
void
expectSlabsEqual(const std::vector<float> &got,
                 const std::vector<float> &want, size_t n,
                 size_t width, size_t stride)
{
    for (size_t r = 0; r < n; ++r)
        ASSERT_EQ(std::memcmp(got.data() + r * stride,
                              want.data() + r * stride,
                              width * sizeof(float)),
                  0)
            << "row " << r;
}

TEST(FlashAttendKernels, VectorPageDecodeIsBitIdentical)
{
    // The page decode every packed attend runs: each vector tier's
    // decodeRows must equal the scalar tier's (codecDecodeRows) bit
    // for bit.
    using namespace detail;
    const AttendKernels &ref = attendKernels(SimdIsa::Scalar);

    // Raw streams over the whole element-byte space: row b's group g
    // holds bytes (b + 17 i + 5 g) & 0xff, so every byte value sits
    // at every position and the subgroup top-1 winners move around.
    // Three groups per row reach the AVX-512 two-group loop and its
    // single-group tail.
    const size_t n_rows = 256, gpr = 3, cols = gpr * 32;
    std::vector<uint8_t> elems(n_rows * gpr * 16);
    for (size_t b = 0; b < n_rows; ++b)
        for (size_t g = 0; g < gpr; ++g)
            for (size_t i = 0; i < 16; ++i)
                elems[(b * gpr + g) * 16 + i] =
                    static_cast<uint8_t>(b + 17 * i + 5 * g);
    const size_t stride = cols + 8;
    for (uint8_t scale : {0, 64, 100, 127, 130, 200, 254}) {
        for (uint8_t meta : {0x00, 0x1b, 0x6c, 0xe4, 0xff}) {
            SCOPED_TRACE("scale=" + std::to_string(scale) +
                         " meta=" + std::to_string(meta));
            PackedM2xfpTensor t = PackedM2xfpTensor::fromRawStreams(
                n_rows, cols, elems,
                std::vector<uint8_t>(n_rows * gpr, scale),
                std::vector<uint8_t>(n_rows * gpr, meta));
            std::vector<float> want(n_rows * stride, -1.0f);
            ref.decodeRows(t, 0, n_rows, stride, want.data());
            for (SimdIsa isa : supportedSimdIsas()) {
                if (isa == SimdIsa::Scalar)
                    continue;
                SCOPED_TRACE(simdIsaName(isa));
                std::vector<float> got(n_rows * stride, -1.0f);
                attendKernels(isa).decodeRows(t, 0, n_rows, stride,
                                              got.data());
                expectSlabsEqual(got, want, n_rows, cols, stride);
            }
        }
    }

    // Real encoder output at d_model 40: a padded tail group, and a
    // partial page decoded from a row offset.
    Matrix m = test::randomMatrix(16, 40, 131, 4.0);
    PackedM2xfpTensor t = PackedM2xfpTensor::packActivations(
        m, makeM2xfpActivationQuantizer());
    const size_t padded = t.groupsPerRow() * 32;
    for (size_t row0 : {size_t(0), size_t(5)}) {
        size_t n = 16 - row0;
        std::vector<float> want(n * padded, -1.0f);
        ref.decodeRows(t, row0, n, padded, want.data());
        for (SimdIsa isa : supportedSimdIsas()) {
            if (isa == SimdIsa::Scalar)
                continue;
            SCOPED_TRACE(std::string(simdIsaName(isa)) +
                         " row0=" + std::to_string(row0));
            std::vector<float> got(n * padded, -1.0f);
            attendKernels(isa).decodeRows(t, row0, n, padded,
                                          got.data());
            expectSlabsEqual(got, want, n, padded, padded);
        }
    }
}

} // anonymous namespace
} // namespace runtime
} // namespace m2x
