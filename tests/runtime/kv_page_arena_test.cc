/**
 * @file
 * KvPageArena: bounded arenas must fail allocation cleanly at
 * exhaustion, the free list must recycle pages without growing the
 * arena across sequence churn, page-granular packed appends must be
 * byte-identical to the corresponding row slice of the one-shot
 * functional packer (the PR 5 exactness contract is page-boundary
 * agnostic), and a released + re-prefilled cache must rebuild the
 * exact same state (what makes scheduler eviction recoverable).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/m2xfp.hh"
#include "core/m2xfp_packed.hh"
#include "runtime/kv_cache.hh"
#include "runtime/kv_page_arena.hh"
#include "runtime_test_util.hh"

namespace m2x {
namespace runtime {
namespace {

TEST(KvPageArena, BoundedExhaustionReturnsInvalidPage)
{
    KvPageArena arena(64, KvCacheMode::Fp32, SimdIsa::Scalar,
                      {.pageRows = 4, .capacityPages = 3});
    EXPECT_EQ(arena.capacityPages(), 3u);
    EXPECT_EQ(arena.freePages(), 3u);

    std::vector<KvPageId> ids;
    for (int i = 0; i < 3; ++i) {
        KvPageId id = arena.allocPage();
        ASSERT_NE(id, kvInvalidPage);
        ids.push_back(id);
    }
    EXPECT_EQ(arena.livePages(), 3u);
    EXPECT_EQ(arena.freePages(), 0u);
    EXPECT_DOUBLE_EQ(arena.occupancy(), 1.0);

    // Exhausted: the allocator reports failure instead of growing.
    EXPECT_EQ(arena.allocPage(), kvInvalidPage);

    // One retirement makes exactly one claim possible again.
    arena.freePage(ids[1]);
    EXPECT_EQ(arena.freePages(), 1u);
    KvPageId again = arena.allocPage();
    EXPECT_EQ(again, ids[1]); // recycled, not freshly materialized
    EXPECT_EQ(arena.allocPage(), kvInvalidPage);
    EXPECT_EQ(arena.highWaterPages(), 3u);
}

TEST(KvPageArena, FreeListReusePreventsGrowthAcrossChurn)
{
    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        SCOPED_TRACE(std::string("mode=") + kvCacheModeName(mode));
        KvPageArena arena(64, mode, SimdIsa::Scalar,
                          {.pageRows = 4, .capacityPages = 16});
        Matrix rows = test::randomMatrix(8, 64, 11, 4.0);

        size_t high_water_after_first = 0;
        for (int wave = 0; wave < 5; ++wave) {
            std::vector<KvPageId> ids;
            for (int i = 0; i < 6; ++i) {
                KvPageId id = arena.allocPage();
                ASSERT_NE(id, kvInvalidPage);
                arena.appendRows(id, rows.data(), 4);
                EXPECT_EQ(arena.pageUsed(id), 4u);
                ids.push_back(id);
            }
            if (wave == 0)
                high_water_after_first = arena.highWaterPages();
            // Churn never materializes fresh pages once the working
            // set has peaked — recycled pages refill in place.
            EXPECT_EQ(arena.highWaterPages(),
                      high_water_after_first);
            for (KvPageId id : ids) {
                arena.freePage(id);
                EXPECT_EQ(arena.pageUsed(id), 0u);
            }
            EXPECT_EQ(arena.livePages(), 0u);
        }
        EXPECT_EQ(arena.highWaterPages(), 6u);
        EXPECT_EQ(arena.residentBytes(), 6u * arena.pageBytes());
    }
}

TEST(KvPageArena, PackedPagesByteExactVsOneShotPacker)
{
    const size_t d = 64, page_rows = 4, total = 11;
    ElemEmQuantizer q = makeM2xfpActivationQuantizer();
    Matrix m = test::randomMatrix(total, d, 23, 4.0);

    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        KvPageArena arena(d, KvCacheMode::Packed, isa,
                          {.pageRows = page_rows, .capacityPages = 8});

        // Fill pages through uneven appends that straddle page
        // boundaries: 3 + 3 rows land 3/1 and 2/2 across pages.
        std::vector<KvPageId> ids;
        size_t filled = 0;
        size_t chunks[] = {3, 3, 1, 4};
        for (size_t n : chunks) {
            size_t left = n;
            while (left > 0) {
                if (filled % page_rows == 0)
                    ids.push_back(arena.allocPage());
                size_t take = std::min(
                    page_rows - filled % page_rows, left);
                arena.appendRows(ids.back(),
                                 m.data() + filled * d, take);
                filled += take;
                left -= take;
            }
        }
        ASSERT_EQ(filled, total);

        // Every page's streams must equal the one-shot pack of its
        // row slice — row independence makes paging invisible.
        for (size_t p = 0; p < ids.size(); ++p) {
            SCOPED_TRACE("page " + std::to_string(p));
            size_t r0 = p * page_rows;
            size_t rows = std::min(page_rows, total - r0);
            Matrix slice(rows, d);
            std::memcpy(slice.data(), m.data() + r0 * d,
                        rows * d * sizeof(float));
            PackedM2xfpTensor want =
                PackedM2xfpTensor::packActivations(slice, q);
            const PackedM2xfpTensor &got = arena.packedPage(ids[p]);
            ASSERT_EQ(got.rows(), rows);
            test::expectPackedStreamsEqual(got, want, "page slice");
        }
    }
}

TEST(KvCache, SharedArenaPageAccounting)
{
    const size_t layers = 2, d = 64;
    KvPageArena arena(d, KvCacheMode::Packed, SimdIsa::Scalar,
                      {.pageRows = 4, .capacityPages = 64});
    KvCache cache(arena, layers);
    Matrix rows = test::randomMatrix(10, d, 31, 4.0);

    // 10 rows at 4 rows/page = 3 pages per stream, x2 streams x2
    // layers = 12 pages; the next row fits in every tail page.
    EXPECT_EQ(cache.pagesNeededFor(10), 12u);
    for (size_t l = 0; l < layers; ++l)
        cache.append(l, rows.data(), rows.data(), 10);
    EXPECT_EQ(cache.pagesHeld(), 12u);
    EXPECT_EQ(arena.livePages(), 12u);
    EXPECT_EQ(cache.pagesNeededFor(1), 0u);
    // 3 more rows overflow the 2 free tail slots: one fresh page
    // per stream per layer.
    EXPECT_EQ(cache.pagesNeededFor(3), 1u * 2u * layers);

    cache.release();
    EXPECT_EQ(cache.length(), 0u);
    EXPECT_EQ(cache.pagesHeld(), 0u);
    EXPECT_EQ(arena.livePages(), 0u);
}

TEST(KvCache, EvictionRePrefillRoundTripParity)
{
    const size_t layers = 2, d = 64, tokens = 9;
    const unsigned heads = 2;
    Matrix k = test::randomMatrix(tokens, d, 41, 4.0);
    Matrix v = test::randomMatrix(tokens, d, 42, 4.0);
    Matrix q = test::randomMatrix(1, d, 43, 4.0);

    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        for (SimdIsa isa : supportedSimdIsas()) {
            SCOPED_TRACE(std::string("mode=") +
                         kvCacheModeName(mode) +
                         " isa=" + simdIsaName(isa));
            KvPageArena arena(d, mode, isa,
                              {.pageRows = 4, .capacityPages = 32});
            KvCache cache(arena, layers);
            auto fill = [&] {
                for (size_t l = 0; l < layers; ++l)
                    cache.append(l, k.data(), v.data(), tokens);
            };
            fill();
            Matrix ctx_before(1, d);
            cache.attend(0, q.data(), 1, tokens - 1, heads,
                         ctx_before.data());
            size_t high_water = arena.highWaterPages();

            // Evict (pages back to the free list), then re-prefill
            // the identical history: the rebuilt pages must carry
            // the same bytes, so attention is bit-identical and the
            // arena has not grown.
            cache.release();
            EXPECT_EQ(arena.livePages(), 0u);
            fill();
            EXPECT_EQ(cache.length(), tokens);
            EXPECT_EQ(arena.highWaterPages(), high_water);
            Matrix ctx_after(1, d);
            cache.attend(0, q.data(), 1, tokens - 1, heads,
                         ctx_after.data());
            test::expectMatricesBitExact(ctx_after, ctx_before);
        }
    }
}

TEST(KvPageArena, PackedPageCapacityMultiplierVsFp32)
{
    // The point of the paged packed cache: one fp32 page budget
    // holds >= 4x more packed pages (18 bytes per 32 elements vs
    // 128 — the paper's ~7.1x at d % 32 == 0).
    KvPageArena arena(256, KvCacheMode::Packed, SimdIsa::Scalar,
                      {.pageRows = 16, .capacityPages = 4});
    double mult = static_cast<double>(arena.fp32PageBytes()) /
                  static_cast<double>(arena.pageBytes());
    EXPECT_GE(mult, 4.0);
    EXPECT_NEAR(mult, 32.0 * 4.0 / 18.0, 1e-9);
}

} // namespace
} // namespace runtime
} // namespace m2x
