/**
 * @file
 * PackedLinear: a LinearOp whose weight is resident as packed M2XFP
 * streams (~4.5 bits/element) instead of a dequantized fp32 matrix,
 * and whose forward pass runs the packed-domain GEMM.
 *
 * Numerically it is a drop-in for QuantizedLinear configured with
 * the paper's M2XFP pair (Sg-EM-2bit weights, Elem-EM-top1
 * activations): on the scalar ISA tier forward() produces
 * bit-identical outputs, because packing + packed GEMM reconstructs
 * exactly the values the functional codecs produce
 * (tests/runtime/packed_linear_test.cc asserts this); vector tiers
 * decode the same values but reassociate the accumulation and are
 * held to the SIMD tolerance contract. What changes is the cost
 * model: ~7.1x less resident weight memory, and a blocked
 * multi-threaded SIMD kernel instead of the naive reference loop.
 */

#ifndef M2X_RUNTIME_PACKED_LINEAR_HH__
#define M2X_RUNTIME_PACKED_LINEAR_HH__

#include <atomic>

#include "core/m2xfp_packed.hh"
#include "gemm/gemm.hh"
#include "model/transformer.hh"
#include "runtime/packed_gemm.hh"

namespace m2x {
namespace runtime {

/**
 * y = x W^T with W resident in packed M2XFP form.
 *
 * Forward calls are safe from any number of threads. Each layer
 * keeps one packed-activation workspace that a warm forwardInto()
 * reuses, so the steady-state forward allocates nothing; a
 * concurrent forward that finds it claimed packs into per-call
 * scratch instead — correct, just not allocation-free.
 */
class PackedLinear : public LinearOp
{
  public:
    /**
     * Quantize and pack @p weight [out_features, in_features] at
     * construction (offline, like the paper's weight calibration).
     *
     * @param pool thread pool for forward(); null = global pool
     * @param isa  kernel tier for forward(); defaults to the
     *        process-wide dispatch decision (must be available)
     * @param codec packed stream format for the resident weight and
     *        the online activation encode (the format axis of the
     *        codec-traits seam); each codec uses its paper quantizers
     */
    explicit PackedLinear(const Matrix &weight,
                          ThreadPool *pool = nullptr,
                          SimdIsa isa = activeSimdIsa(),
                          PackedCodec codec = PackedCodec::ElemEm);

    /** Pack x as activations (online) and multiply in packed form. */
    Matrix forward(const Matrix &x) const override;

    /**
     * Same, writing into the caller-provided output @p y (resized in
     * place, storage reused). Both phases run on the layer's thread
     * pool and ISA tier.
     */
    void forwardInto(const Matrix &x, Matrix &y) const override;

    size_t inFeatures() const override { return inFeatures_; }
    size_t outFeatures() const override { return outFeatures_; }

    /** The resident packed weight streams. */
    const PackedM2xfpTensor &packedWeight() const { return weight_; }

    /** Resident weight bytes (all three packed streams). */
    size_t residentBytes() const { return weight_.totalBytes(); }

    /** Bytes the dequantized fp32 weight would occupy. */
    size_t
    denseBytes() const
    {
        return inFeatures_ * outFeatures_ * sizeof(float);
    }

    /** The kernel tier forward() executes on. */
    SimdIsa simdIsa() const { return isa_; }

    /** The packed stream format of the weight and activations. */
    PackedCodec codec() const { return codec_; }

  private:
    PackedM2xfpTensor weight_;
    size_t inFeatures_;
    size_t outFeatures_;
    ThreadPool *pool_;
    SimdIsa isa_;
    PackedCodec codec_;
    /** @{ The reused packed-activation workspace and its claim. */
    mutable PackedM2xfpTensor act_;
    mutable std::atomic<bool> actBusy_{false};
    /** @} */
};

/**
 * A LinearFactory producing PackedLinear layers, for wiring the
 * packed runtime into zoo-style evaluation code. @p pool null uses
 * the global pool; @p isa pins the kernel tier (defaults to the
 * process-wide dispatch decision).
 */
model::LinearFactory
packedLinearFactory(ThreadPool *pool = nullptr,
                    SimdIsa isa = activeSimdIsa(),
                    PackedCodec codec = PackedCodec::ElemEm);

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_PACKED_LINEAR_HH__
