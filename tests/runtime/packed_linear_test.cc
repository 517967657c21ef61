/**
 * @file
 * PackedLinear must be a drop-in for QuantizedLinear with the
 * paper's M2XFP quantizer pair, while keeping its weight resident in
 * packed form (~4.5 bits/element): bit-exact on the scalar kernel
 * tier, within the SIMD tolerance contract on vector tiers. Its
 * reused activation workspace must make a warm forwardInto()
 * allocation-free and stay correct under concurrent forwards.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>

#include "core/m2xfp.hh"
#include "gemm/gemm.hh"
#include "model/transformer.hh"
#include "runtime/packed_linear.hh"
#include "runtime_test_util.hh"
#include "util/rng.hh"

namespace {

/** operator new calls on every thread, counted by the replacements
 *  below. */
std::atomic<size_t> allocCount{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    allocCount.fetch_add(1, std::memory_order_relaxed);
    n = n ? n : 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align,
                                       (n + align - 1) / align * align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // anonymous namespace

// Replacing every throwing form (the nothrow forms call these) and
// every delete keeps new/delete on one malloc/free pair, which the
// sanitizers' allocation-mismatch checks require.
void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace m2x {
namespace runtime {
namespace {

using test::expectMatricesBitExact;
using test::expectMatricesMatch;
using test::randomMatrix;

QuantizedLinear
referenceLinear(const Matrix &w)
{
    return QuantizedLinear(
        w,
        std::make_shared<SgEmQuantizer>(makeM2xfpWeightQuantizer()),
        std::make_shared<ElemEmQuantizer>(
            makeM2xfpActivationQuantizer()));
}

/** Forward @p x on every available tier and hold each contract. */
void
expectForwardParity(const Matrix &w, const Matrix &x)
{
    QuantizedLinear ref = referenceLinear(w);
    Matrix yr = ref.forward(x);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        PackedLinear packed(w, nullptr, isa);
        EXPECT_EQ(packed.simdIsa(), isa);
        expectMatricesMatch(packed.forward(x), yr, isa);
    }
}

TEST(PackedLinear, ForwardMatchesQuantizedLinearOnEveryTier)
{
    Matrix w = randomMatrix(48, 96, 1, 6.0);
    Matrix x = randomMatrix(9, 96, 2, 4.0);
    expectForwardParity(w, x);
}

TEST(PackedLinear, ForwardMatchesOnRaggedFeatures)
{
    // in_features 44: ragged K through the whole layer.
    Matrix w = randomMatrix(13, 44, 3, 6.0);
    Matrix x = randomMatrix(5, 44, 4, 4.0);
    expectForwardParity(w, x);
}

TEST(PackedLinear, DefaultTierIsTheDispatchDecision)
{
    Matrix w = randomMatrix(24, 64, 8, 6.0);
    Matrix x = randomMatrix(4, 64, 9, 4.0);
    PackedLinear packed(w);
    EXPECT_EQ(packed.simdIsa(), activeSimdIsa());
    PackedLinear pinned(w, nullptr, activeSimdIsa());
    expectMatricesBitExact(packed.forward(x), pinned.forward(x));
}

TEST(PackedLinear, WeightResidencyIsPacked)
{
    Matrix w = randomMatrix(64, 128, 5, 6.0);
    PackedLinear packed(w);
    EXPECT_EQ(packed.inFeatures(), 128u);
    EXPECT_EQ(packed.outFeatures(), 64u);
    EXPECT_EQ(packed.denseBytes(), 64u * 128 * 4);
    // 4.5 bits/element = 18 bytes per 32-element group.
    EXPECT_EQ(packed.residentBytes(), 64u * 4 * 18);
    EXPECT_DOUBLE_EQ(packed.packedWeight().bitsPerElement(), 4.5);
    EXPECT_LT(8.0 * static_cast<double>(packed.residentBytes()),
              0.15 * 8.0 * static_cast<double>(packed.denseBytes()));
}

TEST(PackedLinear, ForwardIntoMatchesReturningOverload)
{
    Matrix w = randomMatrix(40, 100, 10, 6.0);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        PackedLinear packed(w, nullptr, isa);
        Matrix y;
        // Varying row counts through the layer's reused workspace
        // and one reused output: stale state from a previous
        // (larger) call must never leak. The reference is a layer
        // whose workspace has seen no other shape.
        for (size_t rows : {7u, 16u, 3u, 16u}) {
            Matrix x = randomMatrix(rows, 100, 20 + rows, 4.0);
            packed.forwardInto(x, y);
            PackedLinear fresh(w, nullptr, isa);
            expectMatricesBitExact(y, fresh.forward(x));
        }
    }
}

TEST(PackedLinear, ConcurrentForwardsStayCorrect)
{
    // The workspace is claimed by one forward at a time; a
    // concurrent forward on the same layer must fall back to
    // per-call scratch and still produce identical results (packing
    // is byte-exact and the GEMM is per-element deterministic on
    // every tier, whatever the interleaving).
    Matrix w = randomMatrix(48, 96, 70, 6.0);
    Matrix x = randomMatrix(6, 96, 71, 4.0);
    ThreadPool pool(1);
    PackedLinear packed(w, &pool);
    Matrix want = packed.forward(x);

    std::vector<Matrix> got(4);
    std::vector<int> mismatches(got.size(), 0);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < got.size(); ++i)
        threads.emplace_back([&, i] {
            for (int rep = 0; rep < 50; ++rep) {
                packed.forwardInto(x, got[i]);
                auto g = got[i].flat(), r = want.flat();
                if (!std::equal(g.begin(), g.end(), r.begin(), r.end()))
                    ++mismatches[i];
            }
        });
    for (auto &t : threads)
        t.join();
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(mismatches[i], 0) << "thread " << i;
}

TEST(PackedLinear, WarmForwardIntoAllocatesNothing)
{
    // Decode-step (4 rows) and prefill-block (64 rows) shapes of one
    // 192x192 layer, inline and over four lanes: once warm, packing
    // reuses the layer's workspace, the output keeps its storage and
    // every lane's GEMM scratch is sized, so nothing allocates.
    Matrix w = randomMatrix(192, 192, 80, 6.0);
    for (unsigned lanes : {1u, 4u}) {
        ThreadPool pool(lanes);
        for (SimdIsa isa : supportedSimdIsas()) {
            PackedLinear packed(w, &pool, isa);
            for (size_t rows : {4u, 64u}) {
                SCOPED_TRACE(std::to_string(lanes) + " lanes, isa=" +
                             simdIsaName(isa) + ", " +
                             std::to_string(rows) + " rows");
                Matrix x = randomMatrix(rows, 192, 81 + rows, 4.0);
                // Warm every lane's thread-local GEMM scratch at this
                // shape: each lane runs one whole forward (nested
                // parallelFor calls run inline), and the barrier
                // keeps the items on distinct lanes.
                std::atomic<unsigned> arrived{0};
                pool.parallelFor(0, lanes, 1, [&](size_t, size_t) {
                    arrived.fetch_add(1);
                    while (arrived.load() < lanes)
                        std::this_thread::yield();
                    Matrix lane_y;
                    packed.forwardInto(x, lane_y);
                });
                Matrix y;
                for (int i = 0; i < 10; ++i)
                    packed.forwardInto(x, y);
                size_t before = allocCount.load();
                for (int i = 0; i < 100; ++i)
                    packed.forwardInto(x, y);
                EXPECT_EQ(allocCount.load() - before, 0u);
            }
        }
    }
}

TEST(PackedLinear, FactoryBuildsPackedLayers)
{
    // The factory plugs the packed runtime into a zoo model: each
    // linear it builds is a PackedLinear on the requested tier and
    // codec, and the rebuilt model runs a forward.
    model::ModelConfig cfg;
    cfg.name = "test-tiny";
    cfg.dModel = 64;
    cfg.nHeads = 2;
    cfg.nLayers = 2;
    cfg.dFf = 96;
    cfg.vocab = 64;
    cfg.seed = 7;
    SimdIsa isa = supportedSimdIsas().front();
    model::LinearFactory factory =
        packedLinearFactory(nullptr, isa, PackedCodec::SgEm);
    std::unique_ptr<LinearOp> op =
        factory(randomMatrix(24, 64, 90, 6.0), "layer0.q", nullptr);
    auto *packed = dynamic_cast<PackedLinear *>(op.get());
    ASSERT_NE(packed, nullptr);
    EXPECT_EQ(packed->simdIsa(), isa);
    EXPECT_EQ(packed->codec(), PackedCodec::SgEm);

    model::TinyTransformer t(cfg);
    t.rebuild(packedLinearFactory());
    std::vector<int> toks = {1, 5, 9, 2, 7, 3};
    Matrix logits = t.forwardLogits(toks);
    EXPECT_EQ(logits.rows(), 6u);
    EXPECT_EQ(logits.cols(), cfg.vocab);
}

TEST(PackedLinear, ExplicitPoolProducesSameResult)
{
    // Threading never changes a tile's result, whatever the tier:
    // each output element is computed by exactly one tile task.
    Matrix w = randomMatrix(40, 64, 6, 6.0);
    Matrix x = randomMatrix(21, 64, 7, 4.0);
    ThreadPool pool(4);
    PackedLinear with_pool(w, &pool);
    PackedLinear without_pool(w);
    expectMatricesBitExact(with_pool.forward(x),
                           without_pool.forward(x));
}

} // anonymous namespace
} // namespace runtime
} // namespace m2x
