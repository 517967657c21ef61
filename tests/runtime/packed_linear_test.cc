/**
 * @file
 * PackedLinear must be a drop-in for QuantizedLinear with the
 * paper's M2XFP quantizer pair, while keeping its weight resident in
 * packed form (~4.5 bits/element): bit-exact on the scalar kernel
 * tier, within the SIMD tolerance contract on vector tiers.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/m2xfp.hh"
#include "gemm/gemm.hh"
#include "runtime/packed_linear.hh"
#include "runtime_test_util.hh"
#include "util/rng.hh"

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
        PackedLinear::Workspace ws;
        ForwardBreakdown bd;
        Matrix y;
        // Varying row counts through one reused workspace/output:
        // stale state from a previous (larger) call must never leak.
        for (size_t rows : {7u, 16u, 3u, 16u}) {
            Matrix x = randomMatrix(rows, 100, 20 + rows, 4.0);
            packed.forward(x, y, &ws, &bd);
            expectMatricesBitExact(y, packed.forward(x));
        }
        // The breakdown integrates both phases of every call.
        EXPECT_GT(bd.quantizeNanos, 0u);
        EXPECT_GT(bd.gemmNanos, 0u);
    }
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
