/**
 * @file
 * KvCache: the growable packed streams must be byte-identical to the
 * one-shot functional packer whatever the append chunking, the
 * packed attention kernel must agree with the fp32 oracle when both
 * see the same (already quantized) rows, parallel attention must be
 * deterministic, and the resident-bytes accounting must reflect the
 * 4.5 bits/element packed layout.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/m2xfp.hh"
#include "core/m2xfp_packed.hh"
#include "quant/group_quantizer.hh"
#include "runtime/kv_cache.hh"
#include "runtime_test_util.hh"

namespace m2x {
namespace runtime {
namespace {

TEST(AppendActivationRows, ChunkedAppendMatchesFunctionalPacker)
{
    ElemEmQuantizer q = makeM2xfpActivationQuantizer();
    // Tail-group width included: 40 = 32 + 8-element padded tail.
    for (size_t cols : {64u, 40u}) {
        Matrix m = test::randomMatrix(20, cols, 77, 4.0);
        PackedM2xfpTensor want =
            PackedM2xfpTensor::packActivations(m, q);
        for (SimdIsa isa : supportedSimdIsas()) {
            SCOPED_TRACE(std::string("isa=") + simdIsaName(isa) +
                         " cols=" + std::to_string(cols));
            PackedM2xfpTensor t =
                PackedM2xfpTensor::emptyActivations(cols, q);
            EXPECT_EQ(t.rows(), 0u);
            EXPECT_EQ(t.cols(), cols);
            // Uneven chunks, including a single-row append.
            size_t chunks[] = {1, 7, 9, 3};
            size_t r = 0;
            for (size_t n : chunks) {
                t.appendActivationRows(m.data() + r * cols, n, q,
                                       isa);
                r += n;
                EXPECT_EQ(t.rows(), r);
            }
            ASSERT_EQ(r, m.rows());
            test::expectPackedStreamsEqual(t, want);
        }
    }
}

TEST(KvCache, BytesAccountingMatchesPackedLayout)
{
    const size_t layers = 3, d = 64, tokens = 10;
    Matrix rows = test::randomMatrix(tokens, d, 5, 4.0);

    KvCache packed(layers, d, KvCacheMode::Packed);
    KvCache fp32(layers, d, KvCacheMode::Fp32);
    EXPECT_EQ(packed.totalBytes(), 0u);
    EXPECT_EQ(packed.bytesPerToken(), 0.0);
    for (size_t l = 0; l < layers; ++l) {
        packed.append(l, rows.data(), rows.data(), tokens);
        fp32.append(l, rows.data(), rows.data(), tokens);
    }
    EXPECT_EQ(packed.length(), tokens);
    EXPECT_EQ(fp32.length(), tokens);

    // Per token: K + V, each groupsPerRow * (16 elem + 1 scale +
    // 1 meta) bytes per layer — 4.5 bits/element when d % 32 == 0.
    size_t groups = d / 32;
    size_t packed_want = tokens * 2 * layers * groups * 18;
    size_t fp32_want = tokens * 2 * layers * d * sizeof(float);
    EXPECT_EQ(packed.totalBytes(), packed_want);
    EXPECT_EQ(fp32.totalBytes(), fp32_want);
    EXPECT_DOUBLE_EQ(packed.bytesPerToken() * tokens,
                     static_cast<double>(packed_want));
    // 32 bits vs 4.5 bits per element.
    EXPECT_DOUBLE_EQ(fp32.bytesPerToken() / packed.bytesPerToken(),
                     32.0 / 4.5);
}

TEST(KvCache, PackedAttendMatchesFp32OracleOnQuantizedRows)
{
    // Feed the fp32 oracle the functionally quantized K/V rows; the
    // packed cache quantizes the raw rows itself and decodes
    // bit-identical values, so the two kernels see the same
    // operands and may differ only by double-ulp reassociation
    // inside the score dots.
    const size_t layers = 2, d = 64, tokens = 13;
    const unsigned heads = 2;
    Matrix k = test::randomMatrix(tokens, d, 11, 4.0);
    Matrix v = test::randomMatrix(tokens, d, 12, 4.0);
    Matrix q = test::randomMatrix(tokens, d, 13, 4.0);

    ElemEmQuantizer aq = makeM2xfpActivationQuantizer();
    Matrix kq = quantizeRowsGrouped(k, aq);
    Matrix vq = quantizeRowsGrouped(v, aq);

    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        KvCache packed(layers, d, KvCacheMode::Packed, isa);
        KvCache fp32(layers, d, KvCacheMode::Fp32, isa);
        for (size_t l = 0; l < layers; ++l) {
            packed.append(l, k.data(), v.data(), tokens);
            fp32.append(l, kq.data(), vq.data(), tokens);
        }
        Matrix ctx_packed(tokens, d), ctx_fp32(tokens, d);
        packed.attend(0, q.data(), tokens, 0, heads,
                      ctx_packed.data());
        fp32.attend(0, q.data(), tokens, 0, heads, ctx_fp32.data());
        test::expectMatricesClose(ctx_packed, ctx_fp32, 1e-6);
    }
}

TEST(KvCache, AttendIsDeterministicAcrossThreadCounts)
{
    const size_t layers = 1, d = 64, tokens = 19;
    const unsigned heads = 4;
    Matrix k = test::randomMatrix(tokens, d, 21, 4.0);
    Matrix v = test::randomMatrix(tokens, d, 22, 4.0);
    Matrix q = test::randomMatrix(tokens, d, 23, 4.0);

    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        SCOPED_TRACE(kvCacheModeName(mode));
        KvCache cache(layers, d, mode);
        cache.append(0, k.data(), v.data(), tokens);
        ThreadPool p1(1), p4(4);
        Matrix a(tokens, d), b(tokens, d);
        cache.attend(0, q.data(), tokens, 0, heads, a.data(), &p1);
        cache.attend(0, q.data(), tokens, 0, heads, b.data(), &p4);
        test::expectMatricesBitExact(a, b);
    }
}

TEST(KvCache, ChunkedAppendAttendMatchesOneShot)
{
    // Growing the cache across chunk boundaries (1 + 7 + 5 rows)
    // must behave exactly like one 13-row append: same streams,
    // same attention output for the final chunk's queries.
    const size_t d = 64, tokens = 13;
    const unsigned heads = 2;
    Matrix k = test::randomMatrix(tokens, d, 31, 4.0);
    Matrix v = test::randomMatrix(tokens, d, 32, 4.0);
    Matrix q = test::randomMatrix(tokens, d, 33, 4.0);

    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        SCOPED_TRACE(kvCacheModeName(mode));
        KvCache chunked(1, d, mode);
        KvCache oneshot(1, d, mode);
        oneshot.append(0, k.data(), v.data(), tokens);
        size_t chunks[] = {1, 7, 5};
        size_t r = 0;
        Matrix got(tokens, d);
        for (size_t n : chunks) {
            chunked.append(0, k.data() + r * d, v.data() + r * d, n);
            chunked.attend(0, q.data() + r * d, n, r, heads,
                           got.data() + r * d);
            r += n;
        }
        EXPECT_EQ(chunked.totalBytes(), oneshot.totalBytes());
        Matrix want(tokens, d);
        oneshot.attend(0, q.data(), tokens, 0, heads, want.data());
        test::expectMatricesBitExact(got, want);
    }
}

} // anonymous namespace
} // namespace runtime
} // namespace m2x
