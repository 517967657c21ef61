/**
 * @file
 * The cross-format differential suite: the tentpole proof that the
 * packed runtime behind the codec-traits seam executes every
 * registered format correctly on every ISA tier and in both KV cache
 * modes.
 *
 * The oracle for each format is its own functional quantizer
 * pipeline (core/packed_formats.cc): one value-parameterized fixture
 * runs encode, GEMM and paged attend per codec and holds each tier
 * to its contract — byte-/bit-exact on the scalar tier, within the
 * SIMD tolerance (1e-6 relative) on vector tiers. Sweeps include
 * randomized shapes, ragged K (tail groups that split a subgroup for
 * both group geometries), adversarial values (NaN/Inf/denormals,
 * signed zeros, FP4 rounding ties, scale-clamp boundaries) and
 * page-straddling KV appends.
 *
 * For PackedCodec::ElemEm the same suite doubles as the seam
 * identity check: the codec entry points must route to the legacy
 * byte-exact fast paths (the golden lock in elem_em_golden_test.cc
 * pins those against history).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/m2xfp.hh"
#include "core/m2xfp_packed.hh"
#include "core/packed_codec.hh"
#include "gemm/gemm.hh"
#include "runtime/kv_cache.hh"
#include "runtime/kv_page_arena.hh"
#include "runtime/packed_gemm.hh"
#include "runtime/packed_gemm_kernels.hh"
#include "runtime/thread_pool.hh"
#include "runtime_test_util.hh"

namespace m2x {
namespace runtime {
namespace {

using test::expectMatricesClose;
using test::expectMatricesMatch;
using test::expectPackedStreamsEqual;
using test::randomMatrix;

class CrossFormat : public testing::TestWithParam<PackedCodec>
{
  protected:
    PackedCodec codec() const { return GetParam(); }
    size_t groupSize() const
    {
        return packedCodecInfo(codec()).groupSize;
    }
};

/**
 * Adversarial operand: heavy-tailed fill with specials planted at
 * fixed positions — signed zeros, denormals, FP4 rounding ties at
 * clamping block scales. NaN/Inf stay out of *value* comparisons
 * (NaN breaks float equality); the encode byte-equality test below
 * covers them separately.
 */
Matrix
adversarialMatrix(size_t r, size_t c, uint64_t seed)
{
    Matrix m = randomMatrix(r, c, seed, 4.0);
    const float specials[] = {
        0.0f,   -0.0f,  1e-40f, -1e-40f, 448.0f, -448.0f,
        0.25f,  0.75f,  1.75f,  2.5f,    5.0f,   -5.0f,
        1e30f,  -1e30f, 1e-30f, -1e-30f,
        std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::max(),
    };
    size_t n = m.size();
    for (size_t i = 0; i < sizeof(specials) / sizeof(float); ++i)
        m.flat()[(i * 89) % n] = specials[i];
    return m;
}

/** The same plus NaN/Inf — byte-level comparisons only. */
Matrix
nonFiniteMatrix(size_t r, size_t c, uint64_t seed)
{
    Matrix m = adversarialMatrix(r, c, seed);
    const float inf = std::numeric_limits<float>::infinity();
    const float qnan = std::numeric_limits<float>::quiet_NaN();
    const float specials[] = {qnan, -qnan, inf, -inf};
    size_t n = m.size();
    for (size_t i = 0; i < sizeof(specials) / sizeof(float); ++i)
        m.flat()[(i * 101 + 13) % n] = specials[i];
    return m;
}

TEST_P(CrossFormat, RuntimeEncodeMatchesFunctionalOnEveryTier)
{
    // Runtime packers (pooled, per-ISA) must produce byte-identical
    // streams to the functional one-shot pack — for elem_em that is
    // the legacy SIMD-encoder contract, for the rest the shared
    // portable row encoder must agree with itself across threading.
    ThreadPool pool(3);
    for (size_t cols : {size_t{96}, size_t{100}, size_t{13}}) {
        Matrix m = adversarialMatrix(11, cols, 0xA0 + cols);
        PackedM2xfpTensor want =
            PackedM2xfpTensor::packActivationsCodec(m, codec());
        ASSERT_EQ(want.codec(), codec());
        for (SimdIsa isa : supportedSimdIsas()) {
            SCOPED_TRACE(std::string("isa=") + simdIsaName(isa) +
                         " cols=" + std::to_string(cols));
            PackedM2xfpTensor got =
                PackedM2xfpTensor::packActivationsCodec(
                    m, codec(), nullptr, isa);
            expectPackedStreamsEqual(got, want, "serial");
            PackedM2xfpTensor pooled =
                PackedM2xfpTensor::packActivationsCodec(m, codec(),
                                                        &pool, isa);
            expectPackedStreamsEqual(pooled, want, "pooled");
        }
    }
}

TEST_P(CrossFormat, EncodeNonFiniteValuesStayByteExact)
{
    // NaN/Inf/denormal inputs: every tier and the functional path
    // must agree byte-for-byte (value comparison is meaningless for
    // NaN, stream bytes are not).
    Matrix m = nonFiniteMatrix(7, 70, 0xF0);
    PackedM2xfpTensor want =
        PackedM2xfpTensor::packActivationsCodec(m, codec());
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        PackedM2xfpTensor got =
            PackedM2xfpTensor::packActivationsCodec(m, codec(),
                                                    nullptr, isa);
        expectPackedStreamsEqual(got, want, "non-finite");
    }
}

TEST_P(CrossFormat, AppendRowsMatchesOneShotPack)
{
    // The KV-cache append shape: growing a tensor row-by-row in
    // uneven chunks must equal the one-shot pack byte-for-byte on
    // every tier (row independence is what makes paging and
    // re-prefill exact).
    size_t gs = groupSize();
    for (size_t cols : {2 * gs, gs + 5}) {
        Matrix m = adversarialMatrix(20, cols, 0xB0 + cols);
        PackedM2xfpTensor want =
            PackedM2xfpTensor::packActivationsCodec(m, codec());
        for (SimdIsa isa : supportedSimdIsas()) {
            SCOPED_TRACE(std::string("isa=") + simdIsaName(isa) +
                         " cols=" + std::to_string(cols));
            PackedM2xfpTensor t =
                PackedM2xfpTensor::emptyActivationsCodec(cols,
                                                         codec());
            size_t chunks[] = {1, 7, 9, 3};
            size_t r = 0;
            for (size_t n : chunks) {
                if (codec() == PackedCodec::ElemEm)
                    t.appendActivationRows(
                        m.data() + r * cols, n,
                        makeM2xfpActivationQuantizer(), isa);
                else
                    t.appendActivationRowsCodec(m.data() + r * cols,
                                                n, isa);
                r += n;
            }
            ASSERT_EQ(r, m.rows());
            expectPackedStreamsEqual(t, want, "chunked append");
        }
    }
}

void
expectGemmParity(PackedCodec codec, size_t m, size_t n, size_t k,
                 uint64_t seed, ThreadPool *pool = nullptr)
{
    Matrix a = randomMatrix(m, k, seed, 4.0);
    Matrix w = randomMatrix(n, k, seed ^ 0xfeedu, 6.0);
    PackedM2xfpTensor pa =
        PackedM2xfpTensor::packActivationsCodec(a, codec);
    PackedM2xfpTensor pw =
        PackedM2xfpTensor::packWeightsCodec(w, codec);
    Matrix ref = matmulNt(pa.unpackActivationsCodec(),
                          pw.unpackWeightsCodec());
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa) + " " +
                     std::to_string(m) + "x" + std::to_string(n) +
                     "x" + std::to_string(k));
        Matrix got = packedMatmulNt(pa, pw, pool, isa);
        expectMatricesMatch(got, ref, isa);
    }
}

TEST_P(CrossFormat, GemmMatchesFunctionalReference)
{
    expectGemmParity(codec(), 4, 8, 2 * groupSize(), 1);
    expectGemmParity(codec(), 16, 16, 64, 2);
    expectGemmParity(codec(), 33, 20, 96, 3);
}

TEST_P(CrossFormat, GemmRaggedKSweep)
{
    size_t gs = groupSize();
    // Tail groups that are subgroup-aligned, split a subgroup, and
    // K below one group — padding must not leak into any output for
    // either group geometry.
    expectGemmParity(codec(), 5, 9, gs + gs / 4, 4);
    expectGemmParity(codec(), 12, 17, 3 * gs - 5, 5);
    expectGemmParity(codec(), 7, 21, 67, 6);
    expectGemmParity(codec(), 3, 5, 7, 7);
    expectGemmParity(codec(), 1, 1, gs - 1, 8);
}

TEST_P(CrossFormat, GemmRandomizedShapesAndThreads)
{
    Rng rng(0xC0FFEE ^ static_cast<uint64_t>(codec()));
    ThreadPool pool(4);
    for (int trial = 0; trial < 6; ++trial) {
        size_t m = 1 + rng.uniformInt(30);
        size_t n = 1 + rng.uniformInt(30);
        size_t k = 1 + rng.uniformInt(140);
        expectGemmParity(codec(), m, n, k, 500 + trial, &pool);
    }
}

TEST_P(CrossFormat, GemmAdversarialValuesScalarExact)
{
    // Scale-clamp boundaries, denormals and signed zeros through the
    // full quantize → pack → GEMM path: scalar must equal the
    // functional pipeline bit-for-bit, vector tiers to tolerance.
    // Magnitudes stay bounded so the products never overflow float —
    // ±Inf/NaN outputs would make value comparison vacuous (the
    // encode tests above cover those at the byte level).
    Matrix a = adversarialMatrix(9, 100, 0xD1);
    Matrix w = adversarialMatrix(7, 100, 0xD2);
    for (Matrix *m : {&a, &w})
        for (auto &v : m->flat())
            if (std::abs(v) > 1e4f)
                v = std::copysign(448.0f, v);
    PackedM2xfpTensor pa =
        PackedM2xfpTensor::packActivationsCodec(a, codec());
    PackedM2xfpTensor pw =
        PackedM2xfpTensor::packWeightsCodec(w, codec());
    Matrix ref = matmulNt(pa.unpackActivationsCodec(),
                          pw.unpackWeightsCodec());
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        Matrix got = packedMatmulNt(pa, pw, nullptr, isa);
        expectMatricesMatch(got, ref, isa);
    }
}

/** Bitwise equality (NaN payloads and signed zeros included). */
void
expectSameBits(const Matrix &got, const Matrix &want, const char *what)
{
    ASSERT_TRUE(got.sameShape(want)) << what;
    for (size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(std::bit_cast<uint32_t>(got.flat()[i]),
                  std::bit_cast<uint32_t>(want.flat()[i]))
            << what << ": elem " << i << " got " << got.flat()[i]
            << " want " << want.flat()[i];
}

/**
 * Random fill with the first @p gs-wide group of every row scaled by
 * 2^50. As a GEMM weight it makes every output's double sum round at
 * each later term (the first group leaves a partial sum whose ulp
 * exceeds most products), so the bits depend on the summation order;
 * plain 4.5-bit operands sum exactly in any order.
 */
Matrix
roundingProbeMatrix(size_t r, size_t c, size_t gs, uint64_t seed)
{
    Matrix m = randomMatrix(r, c, seed, 4.0);
    for (size_t i = 0; i < r; ++i)
        for (size_t j = 0; j < std::min(c, gs); ++j)
            m(i, j) = std::ldexp(m(i, j), 50);
    return m;
}

/**
 * Rows [r0, r0 + n) of a packed tensor as their own tensor: each row
 * owns a contiguous run of every stream, so this is exactly what
 * packing those rows alone gives.
 */
PackedM2xfpTensor
packedRows(const PackedM2xfpTensor &t, size_t r0, size_t n)
{
    size_t gpr = t.groupsPerRow();
    size_t geb = t.codecInfo().bytesPerGroupElems;
    auto slice = [&](const std::vector<uint8_t> &v, size_t per_row) {
        return std::vector<uint8_t>(v.begin() + r0 * per_row,
                                    v.begin() + (r0 + n) * per_row);
    };
    return PackedM2xfpTensor::fromRawStreams(
        n, t.cols(), slice(t.elementStream(), gpr * geb),
        slice(t.scaleStream(), gpr), slice(t.metadataStream(), gpr),
        t.codec());
}

TEST_P(CrossFormat, GemmRowsAreIndependentOfTheBatch)
{
    // The serving engine's batched == single-sequence oracle rests
    // on this: on every tier, row i of packedMatmulNt(A) has the bits
    // of packedMatmulNt(row i alone), for every M from 1 to past the
    // single-block bound (so across the sliver/panel switch) and for
    // a multi-block M. The weights make every sum round, so a change
    // of summation order with the row count would show.
    size_t k = 3 * groupSize() - 5;
    size_t n = 37; // ragged last sliver on every tier
    ThreadPool pool(4);
    Matrix wm = roundingProbeMatrix(n, k, groupSize(), 0x51);
    PackedM2xfpTensor pw = PackedM2xfpTensor::packWeightsCodec(wm, codec());
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        size_t bound = detail::gemmBlocking(isa).mc;
        size_t m_max = 2 * bound + 5;
        PackedM2xfpTensor pa = PackedM2xfpTensor::packActivationsCodec(
            randomMatrix(m_max, k, 0x52, 4.0), codec());
        std::vector<Matrix> alone(m_max);
        for (size_t i = 0; i < m_max; ++i)
            alone[i] =
                packedMatmulNt(packedRows(pa, i, 1), pw, &pool, isa);
        std::vector<size_t> ms;
        for (size_t m = 1; m <= bound + 2; ++m)
            ms.push_back(m);
        ms.push_back(m_max);
        for (size_t m : ms) {
            Matrix got =
                packedMatmulNt(packedRows(pa, 0, m), pw, &pool, isa);
            ASSERT_EQ(got.rows(), m);
            for (size_t i = 0; i < m; ++i) {
                Matrix row(1, n);
                std::memcpy(row.data(), got.data() + i * n,
                            n * sizeof(float));
                std::string what = "M=" + std::to_string(m) + " row " +
                                   std::to_string(i);
                expectSameBits(row, alone[i], what.c_str());
            }
        }
    }
}

TEST_P(CrossFormat, SliverDriverMatchesPanelDriverAtTheBound)
{
    // The single-block rule must never flip a bit: at the bound
    // (sliver driver) and one past it (panel driver) both drivers
    // agree with each other and with the dispatching entry point,
    // with ragged K, ragged N, depth slicing across several KC
    // slices, adversarial activations and weights whose sums round.
    size_t gs = groupSize();
    ThreadPool pool(3);
    const size_t ks[] = {gs - 3, 3 * gs - 5, 4 * gs + gs / 2 + 1};
    for (SimdIsa isa : supportedSimdIsas()) {
        const detail::GemmBlocking def = detail::gemmBlocking(isa);
        const detail::GemmBlocking blockings[] = {
            def, detail::normalizeBlocking(isa, def.mr, 32, def.nr),
            detail::normalizeBlocking(isa, 3 * def.mr, 64, 2 * def.nr)};
        for (const detail::GemmBlocking &b : blockings) {
            for (size_t k : ks) {
                Matrix wm =
                    roundingProbeMatrix(2 * b.nr + 3, k, gs, 0x61 + k);
                PackedM2xfpTensor pw =
                    PackedM2xfpTensor::packWeightsCodec(wm, codec());
                for (size_t m : {b.mc, b.mc + 1}) {
                    SCOPED_TRACE(std::string("isa=") + simdIsaName(isa) +
                                 " mc=" + std::to_string(b.mc) +
                                 " kc=" + std::to_string(b.kc) +
                                 " m=" + std::to_string(m) +
                                 " k=" + std::to_string(k));
                    Matrix am = adversarialMatrix(m, k, 0x71 + m);
                    PackedM2xfpTensor pa =
                        PackedM2xfpTensor::packActivationsCodec(am,
                                                                codec());
                    Matrix panels, slivers, blocked;
                    detail::packedMatmulNtPanels(pa, pw, panels, &pool,
                                                 isa, b);
                    detail::packedMatmulNtSlivers(pa, pw, slivers,
                                                  &pool, isa, b);
                    detail::packedMatmulNtBlocked(pa, pw, blocked,
                                                  &pool, isa, b);
                    expectSameBits(slivers, panels, "slivers vs panels");
                    expectSameBits(blocked, panels, "blocked vs panels");
                }
            }
        }
    }
}

TEST_P(CrossFormat, RowParallelWeightPackMatchesSerial)
{
    // Construction packs weights row-parallel; the streams must be
    // the serial functional packer's bytes on any lane count.
    Matrix wm = adversarialMatrix(67, 3 * groupSize() - 5, 0x81);
    PackedM2xfpTensor want =
        PackedM2xfpTensor::packWeightsCodec(wm, codec());
    for (unsigned lanes : {1u, 2u, 4u}) {
        ThreadPool pool(lanes);
        expectPackedStreamsEqual(
            PackedM2xfpTensor::packWeightsCodec(wm, codec(), &pool), want,
            "row-parallel codec weights");
        if (codec() == PackedCodec::ElemEm) {
            SgEmQuantizer q = makeM2xfpWeightQuantizer();
            expectPackedStreamsEqual(
                PackedM2xfpTensor::packWeights(wm, q, &pool),
                PackedM2xfpTensor::packWeights(wm, q),
                "row-parallel elem_em weights");
        }
    }
}

TEST_P(CrossFormat, MixedCodecGemmOperandsAreRejected)
{
    if (codec() == PackedCodec::ElemEm)
        GTEST_SKIP() << "needs a non-default codec";
    Matrix a = randomMatrix(2, 64, 1, 4.0);
    Matrix w = randomMatrix(2, 64, 2, 6.0);
    PackedM2xfpTensor pa =
        PackedM2xfpTensor::packActivationsCodec(a, codec());
    PackedM2xfpTensor pw = PackedM2xfpTensor::packWeightsCodec(
        w, PackedCodec::ElemEm);
    EXPECT_DEATH(packedMatmulNt(pa, pw), "codec");
}

TEST_P(CrossFormat, KvPagesMatchFunctionalPackAcrossBoundaries)
{
    // Page-straddling appends into a codec arena: every page's
    // streams must equal the functional one-shot pack of its row
    // slice, on every tier.
    const size_t d = 100, total = 11, page_rows = 4;
    Matrix m = adversarialMatrix(total, d, 0xE5);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        KvPageArena arena(d, KvCacheMode::Packed, isa,
                          {.pageRows = page_rows,
                           .capacityPages = 8,
                           .codec = codec()});
        EXPECT_EQ(arena.codec(), codec());
        std::vector<KvPageId> ids;
        size_t row = 0;
        while (row < total) {
            size_t n = std::min(page_rows, total - row);
            ids.push_back(arena.allocPage());
            arena.appendRows(ids.back(), m.data() + row * d, n);
            row += n;
        }
        for (size_t p = 0; p < ids.size(); ++p) {
            SCOPED_TRACE("page " + std::to_string(p));
            size_t r0 = p * page_rows;
            size_t rows = std::min(page_rows, total - r0);
            Matrix slice(rows, d);
            std::copy(m.data() + r0 * d, m.data() + (r0 + rows) * d,
                      slice.data());
            PackedM2xfpTensor want =
                PackedM2xfpTensor::packActivationsCodec(slice,
                                                        codec());
            expectPackedStreamsEqual(arena.packedPage(ids[p]), want,
                                     "page slice");
        }
    }
}

TEST_P(CrossFormat, PackedAttendMatchesFp32OracleOnQuantizedRows)
{
    // The packed attend for this codec vs the fp32 oracle fed the
    // codec's functionally round-tripped K/V rows: both kernels see
    // the same operand values, so outputs agree to the established
    // attend tolerance on every tier — for a causal prefill chunk,
    // and for one decode-step query over 1024 cached rows (64
    // pages), where the online softmax rescales across many pages.
    const size_t layers = 2, d = 64, tokens = 13, long_rows = 1024;
    const unsigned heads = 2;
    Matrix k = randomMatrix(long_rows, d, 0x11, 4.0);
    Matrix v = randomMatrix(long_rows, d, 0x12, 4.0);
    Matrix q = randomMatrix(tokens, d, 0x13, 4.0);
    Matrix kq = PackedM2xfpTensor::packActivationsCodec(k, codec())
                    .unpackActivationsCodec();
    Matrix vq = PackedM2xfpTensor::packActivationsCodec(v, codec())
                    .unpackActivationsCodec();

    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        KvCache packed(layers, d, KvCacheMode::Packed, isa,
                       codec());
        KvCache fp32(layers, d, KvCacheMode::Fp32, isa);
        for (size_t l = 0; l < layers; ++l) {
            packed.append(l, k.data(), v.data(), tokens);
            fp32.append(l, kq.data(), vq.data(), tokens);
        }
        Matrix ctx_packed(tokens, d), ctx_fp32(tokens, d);
        packed.attend(0, q.data(), tokens, 0, heads,
                      ctx_packed.data());
        fp32.attend(0, q.data(), tokens, 0, heads, ctx_fp32.data());
        expectMatricesClose(ctx_packed, ctx_fp32, 1e-6);

        packed.append(0, k.data() + tokens * d, v.data() + tokens * d,
                      long_rows - tokens);
        fp32.append(0, kq.data() + tokens * d,
                    vq.data() + tokens * d, long_rows - tokens);
        Matrix step_packed(1, d), step_fp32(1, d);
        packed.attend(0, q.data(), 1, long_rows - 1, heads,
                      step_packed.data());
        fp32.attend(0, q.data(), 1, long_rows - 1, heads,
                    step_fp32.data());
        expectMatricesClose(step_packed, step_fp32, 1e-6);
    }
}

TEST_P(CrossFormat, ChunkedAppendKeepsAttendExact)
{
    // Chunk boundaries must stay invisible: attend over a cache
    // built from ragged prefill chunks equals attend over a cache
    // built in one append, bit-for-bit (same codec, same tier).
    const size_t d = 64, tokens = 19;
    const unsigned heads = 4;
    Matrix k = randomMatrix(tokens, d, 0x21, 4.0);
    Matrix v = randomMatrix(tokens, d, 0x22, 4.0);
    Matrix q = randomMatrix(tokens, d, 0x23, 4.0);

    KvCache oneshot(1, d, KvCacheMode::Packed, activeSimdIsa(),
                    codec());
    oneshot.append(0, k.data(), v.data(), tokens);
    KvCache chunked(1, d, KvCacheMode::Packed, activeSimdIsa(),
                    codec());
    size_t chunks[] = {1, 7, 9, 2};
    size_t r = 0;
    for (size_t n : chunks) {
        chunked.append(0, k.data() + r * d, v.data() + r * d, n);
        r += n;
    }
    ASSERT_EQ(r, tokens);
    Matrix want(tokens, d), got(tokens, d);
    oneshot.attend(0, q.data(), tokens, 0, heads, want.data());
    chunked.attend(0, q.data(), tokens, 0, heads, got.data());
    test::expectMatricesBitExact(got, want);
}

TEST_P(CrossFormat, BytesPerTokenFollowsTheCodecsBitRate)
{
    const size_t d = 128, tokens = 16;
    KvCache cache(1, d, KvCacheMode::Packed, activeSimdIsa(),
                  codec());
    Matrix rows = randomMatrix(tokens, d, 0x31, 4.0);
    cache.append(0, rows.data(), rows.data(), tokens);
    const PackedCodecInfo &info = packedCodecInfo(codec());
    // K and V streams: groups/row * (nibble bytes + scale + meta).
    size_t gpr = (d + info.groupSize - 1) / info.groupSize;
    size_t want =
        2 * tokens * gpr * (info.bytesPerGroupElems + 2);
    EXPECT_EQ(cache.totalBytes(), want);
    EXPECT_NEAR(cache.bytesPerToken() * 8.0 / (2 * d),
                info.bitsPerElement, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CrossFormat, testing::ValuesIn(allPackedCodecs()),
    [](const testing::TestParamInfo<PackedCodec> &info) {
        return std::string(packedCodecName(info.param));
    });

} // anonymous namespace
} // namespace runtime
} // namespace m2x
