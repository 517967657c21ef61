/**
 * @file
 * Packed-domain runtime throughput: online activation packing
 * (functional codec vs the fast-path encoder, per ISA tier), packed
 * GEMM (per ISA kernel tier, the cache-blocked panel driver) and
 * PackedLinear forward vs the reference quantized path — with the
 * quantize/GEMM wall-time split — at several shapes and thread
 * counts (1/2/4/8 capped at the hardware width), plus a
 * per-block-size MC/KC/NC sweep, an autoregressive decode run
 * (tokens/s and resident KV bytes per token, packed M2XFP cache vs
 * the fp32-cache oracle baseline), single-query flash attends at
 * growing context lengths and one decode run per registered codec.
 * Writes the machine-readable BENCH_runtime.json — the repo's perf
 * trajectory point for the execution runtime, including which SIMD
 * tier ran — which tools/check_bench_regression.py compares against
 * the committed baseline in CI.
 *
 * Numerical verification precedes every timing loop: the scalar
 * GEMM tier must be bit-exact against matmulNt over the unpacked
 * operands, vector GEMM tiers within 1e-6 relative of it, and every
 * encoder tier byte-identical to the functional packer. Activation
 * packing is timed on the tiers with an encoder of their own
 * (scalar, avx2); the avx512 tier encodes with the avx2 kernel.
 *
 * Thread counts are limited to what the machine can actually run in
 * parallel: on a 1-hardware-thread box multi-thread rows measure
 * nothing but scheduler noise, so only the 1-thread rows are
 * emitted (hardware_threads in the JSON records the truth).
 *
 * The decode section runs with the telemetry metrics registry
 * enabled: per-step latency lands in the `decode.step_ns` histogram
 * and the JSON gains `step_latency_p50/p95/p99_s` plus thread-pool
 * busy-time/utilization per mode (see docs/OBSERVABILITY.md). The
 * earlier sections time with telemetry in its default (off) state so
 * their rows keep measuring the uninstrumented hot path; the forward
 * rows' quantize/GEMM split comes from a separate metrics-on pass
 * over the `linear.quantize_ns` and `linear.gemm_ns` histograms.
 *
 * Usage: throughput_runtime [--quick] [--out PATH] [--trace PATH]
 *   --quick  one small shape, short timing windows (CI smoke)
 *   --out    output path (default BENCH_runtime.json)
 *   --trace  also collect a Chrome trace_event JSON of the run
 *            (equivalent to M2X_TRACE=PATH; load it in Perfetto)
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/m2xfp.hh"
#include "gemm/gemm.hh"
#include "model/config.hh"
#include "model/transformer.hh"
#include "runtime/decode_session.hh"
#include "runtime/kv_cache.hh"
#include "runtime/packed_gemm.hh"
#include "runtime/packed_gemm_kernels.hh"
#include "runtime/packed_linear.hh"
#include "runtime/simd.hh"
#include "runtime/telemetry.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace {

using namespace m2x;
using namespace m2x::runtime;
using bench::Stopwatch;

Matrix
randomMatrix(size_t r, size_t c, uint64_t seed, double dof)
{
    Matrix m(r, c);
    Rng rng(seed);
    for (auto &v : m.flat())
        v = static_cast<float>(rng.studentT(dof));
    return m;
}

/** One timing window: seconds per call over @p reps calls. */
template <typename F>
double
windowSeconds(F &&fn, int reps)
{
    Stopwatch sw;
    for (int i = 0; i < reps; ++i)
        fn();
    return sw.seconds() / reps;
}

/**
 * Repetition count whose window just reaches @p min_s. Runs the
 * workload while calibrating, so it doubles as warm-up (decode
 * tables, allocator, pool); @p first_s gets the calibrating window's
 * per-call seconds.
 */
template <typename F>
int
calibrateReps(F &&fn, double min_s, double *first_s = nullptr)
{
    fn(); // warm up
    int reps = 1;
    for (;;) {
        double t = windowSeconds(fn, reps) * reps;
        if (t >= min_s) {
            if (first_s)
                *first_s = t / reps;
            return reps;
        }
        int grow = t <= 1e-9
                       ? reps * 16
                       : static_cast<int>(std::ceil(
                             static_cast<double>(reps) * 1.3 *
                             min_s / t));
        reps = std::max(reps + 1, grow);
    }
}

/**
 * Seconds per call, measured over an adaptive repetition count.
 * Returns the fastest of three >= min_s windows: scheduler and
 * frequency noise on a shared machine only ever slows a window down,
 * so the minimum is the estimator closest to the true cost — and the
 * one that keeps same-run ratios (packed-vs-fp32) stable enough to
 * gate on.
 */
template <typename F>
double
timeIt(F &&fn, double min_s)
{
    double best;
    int reps = calibrateReps(fn, min_s, &best);
    for (int w = 0; w < 2; ++w)
        best = std::min(best, windowSeconds(fn, reps));
    return best;
}

double
gflops(size_t m, size_t n, size_t k, double seconds)
{
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k) / seconds * 1e-9;
}

/**
 * Share of @p layer's forward time spent packing activations: the
 * `linear.quantize_ns` sum over the `linear.quantize_ns` +
 * `linear.gemm_ns` sums, from a pass of at least @p min_s with the
 * metrics registry on (restored to its prior state afterwards).
 */
double
quantizeShare(const PackedLinear &layer, const Matrix &x, Matrix &y,
              double min_s)
{
    telemetry::MetricRegistry &reg = telemetry::MetricRegistry::global();
    bool metrics_were_on = telemetry::metricsEnabled();
    telemetry::setMetricsEnabled(true);
    reg.reset();
    calibrateReps([&] { layer.forwardInto(x, y); }, min_s);
    const telemetry::Histogram *q = reg.findHistogram("linear.quantize_ns");
    const telemetry::Histogram *g = reg.findHistogram("linear.gemm_ns");
    m2x_assert(q && g && q->count() > 0 && q->count() == g->count(),
               "linear.quantize_ns / linear.gemm_ns missing or "
               "miscounted");
    telemetry::setMetricsEnabled(metrics_were_on);
    double qs = static_cast<double>(q->sum());
    return qs / (qs + static_cast<double>(g->sum()));
}

struct Shape
{
    size_t m, n, k;
};

void
requireBitExact(const Matrix &got, const Matrix &want,
                const char *what)
{
    m2x_assert(got.sameShape(want), "%s shape mismatch", what);
    for (size_t i = 0; i < want.size(); ++i)
        m2x_assert(got.flat()[i] == want.flat()[i],
                   "%s not bit-exact at element %zu", what, i);
}

void
requireClose(const Matrix &got, const Matrix &want, double rel,
             const char *what)
{
    m2x_assert(got.sameShape(want), "%s shape mismatch", what);
    for (size_t i = 0; i < want.size(); ++i) {
        double g = got.flat()[i], w = want.flat()[i];
        double tol = rel * std::max(1.0, std::abs(w));
        m2x_assert(std::abs(g - w) <= tol,
                   "%s outside tolerance at element %zu "
                   "(got %g want %g)", what, i, g, w);
    }
}

/** Hold @p got to the contract of the tier that produced it. */
void
requireMatch(const Matrix &got, const Matrix &want, SimdIsa isa,
             double rel, const char *what)
{
    if (isa == SimdIsa::Scalar)
        requireBitExact(got, want, what);
    else
        requireClose(got, want, rel, what);
}

/** The machine's true parallel capacity (never the M2X_THREADS knob). */
unsigned
hardwareThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

/**
 * Thread counts worth measuring: the 1/2/4/8 ladder plus the machine
 * width, but never more lanes than the hardware has — an
 * oversubscribed row reports contention, not scaling, so a
 * 1-hardware-thread box honestly emits only 1-thread rows.
 */
std::vector<unsigned>
threadCounts(bool quick)
{
    unsigned hw = hardwareThreads();
    std::vector<unsigned> candidates =
        quick ? std::vector<unsigned>{1, 4}
              : std::vector<unsigned>{1, 2, 4, 8};
    std::vector<unsigned> counts;
    for (unsigned c : candidates)
        if (c <= hw)
            counts.push_back(c);
    if (counts.empty())
        counts.push_back(1);
    if (hw > 1 &&
        std::find(counts.begin(), counts.end(), hw) == counts.end())
        counts.push_back(hw);
    return counts;
}

void
requireStreamsEqual(const PackedM2xfpTensor &got,
                    const PackedM2xfpTensor &want, const char *what)
{
    m2x_assert(got.elementStream() == want.elementStream() &&
               got.scaleStream() == want.scaleStream() &&
               got.metadataStream() == want.metadataStream(),
               "%s streams differ from the functional packer", what);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out_path = "BENCH_runtime.json";
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--trace") == 0 &&
                   i + 1 < argc) {
            trace_path = argv[++i];
        } else {
            m2x_fatal("usage: %s [--quick] [--out PATH] "
                      "[--trace PATH]", argv[0]);
        }
    }
    if (!trace_path.empty())
        runtime::telemetry::traceStart(trace_path);

    bench::banner("RUNTIME", "packed-domain execution throughput");
    double min_s = quick ? 0.02 : 0.2;
    // The quick shape is one of the full-run shapes so the smoke
    // rows match the committed baseline's section/shape/isa/threads
    // keys and check_bench_regression.py can compare them.
    std::vector<Shape> shapes =
        quick ? std::vector<Shape>{{16, 192, 192}}
              : std::vector<Shape>{{16, 192, 192},
                                   {64, 512, 192},
                                   {64, 192, 512},
                                   {128, 512, 512},
                                   {512, 512, 512}};
    std::vector<unsigned> counts = threadCounts(quick);
    std::vector<SimdIsa> isas = supportedSimdIsas();

    std::printf("SIMD dispatch: active %s (supported:",
                activeSimdIsaName());
    for (SimdIsa isa : isas)
        std::printf(" %s", simdIsaName(isa));
    std::printf(")\n\n");

    FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out)
        m2x_fatal("cannot open '%s' for writing", out_path.c_str());
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"throughput_runtime\",\n"
                 "  \"quick\": %s,\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"default_threads\": %u,\n"
                 "  \"simd\": {\"active\": \"%s\", \"supported\": [",
                 quick ? "true" : "false", hardwareThreads(),
                 ThreadPool::defaultThreads(), activeSimdIsaName());
    for (size_t i = 0; i < isas.size(); ++i)
        std::fprintf(out, "%s\"%s\"", i ? ", " : "",
                     simdIsaName(isas[i]));
    std::fprintf(out, "]},\n  \"gemm\": [");

    ElemEmQuantizer aq = makeM2xfpActivationQuantizer();
    SgEmQuantizer wq = makeM2xfpWeightQuantizer();

    for (size_t si = 0; si < shapes.size(); ++si) {
        const Shape &sh = shapes[si];
        Matrix a = randomMatrix(sh.m, sh.k, 10 + si, 4.0);
        Matrix w = randomMatrix(sh.n, sh.k, 20 + si, 6.0);
        PackedM2xfpTensor pa =
            PackedM2xfpTensor::packActivations(a, aq);
        PackedM2xfpTensor pw = PackedM2xfpTensor::packWeights(w, wq);
        Matrix a_deq = pa.unpackActivations(aq);
        Matrix w_deq = pw.unpackWeights(wq);

        // Verify before timing: the scalar tier is the bit-exact
        // oracle, every vector tier is held to 1e-6 relative.
        Matrix ref_out = matmulNt(a_deq, w_deq);
        for (SimdIsa isa : isas)
            requireMatch(packedMatmulNt(pa, pw, nullptr, isa),
                         ref_out, isa, 1e-6, "packed GEMM");

        // Reference: dense GEMM on already-dequantized operands.
        double ref_s =
            timeIt([&] { matmulNt(a_deq, w_deq); }, min_s);
        // Storage-codec path the repo had before this runtime:
        // unpack both operands, then dense GEMM.
        double unpack_s = timeIt(
            [&] {
                matmulNt(pa.unpackActivations(aq),
                         pw.unpackWeights(wq));
            },
            min_s);

        std::printf("GEMM %zux%zux%zu  ref %.1f GF  unpack+ref "
                    "%.1f GF\n",
                    sh.m, sh.n, sh.k,
                    gflops(sh.m, sh.n, sh.k, ref_s),
                    gflops(sh.m, sh.n, sh.k, unpack_s));

        size_t dense_a = sh.m * sh.k * sizeof(float);
        size_t dense_w = sh.n * sh.k * sizeof(float);
        std::fprintf(
            out,
            "%s\n    {\"m\": %zu, \"n\": %zu, \"k\": %zu,\n"
            "     \"bytes_packed_a\": %zu, \"bytes_packed_w\": %zu,\n"
            "     \"bytes_dense_a\": %zu, \"bytes_dense_w\": %zu,\n"
            "     \"bits_per_element\": %.3f,\n"
            "     \"ref_gemm_s\": %.6e, \"ref_gemm_gflops\": %.3f,\n"
            "     \"unpack_gemm_s\": %.6e,\n"
            "     \"results\": [",
            si ? "," : "", sh.m, sh.n, sh.k, pa.totalBytes(),
            pw.totalBytes(), dense_a, dense_w, pw.bitsPerElement(),
            ref_s, gflops(sh.m, sh.n, sh.k, ref_s), unpack_s);

        // Indexed by SimdIsa: [scalar, avx2, avx512].
        double single_thread_s[3] = {0.0, 0.0, 0.0};
        bool first_entry = true;
        for (SimdIsa isa : isas) {
            for (unsigned tc : counts) {
                ThreadPool pool(tc);
                double s = timeIt(
                    [&] { packedMatmulNt(pa, pw, &pool, isa); },
                    min_s);
                if (tc == 1)
                    single_thread_s[static_cast<size_t>(isa)] = s;
                std::printf("  packed/%-6s @%2u threads: %6.1f GF  "
                            "(%.2fx ref, %.2fx unpack+ref)\n",
                            simdIsaName(isa), tc,
                            gflops(sh.m, sh.n, sh.k, s), ref_s / s,
                            unpack_s / s);
                std::fprintf(out,
                             "%s\n      {\"isa\": \"%s\", "
                             "\"threads\": %u, "
                             "\"packed_gemm_s\": %.6e, "
                             "\"gflops\": %.3f, "
                             "\"speedup_vs_ref_gemm\": %.3f, "
                             "\"speedup_vs_unpack_gemm\": %.3f}",
                             first_entry ? "" : ",",
                             simdIsaName(isa), tc, s,
                             gflops(sh.m, sh.n, sh.k, s), ref_s / s,
                             unpack_s / s);
                first_entry = false;
            }
        }
        std::fprintf(out, "\n    ]");
        if (single_thread_s[1] > 0.0) {
            double ratio =
                single_thread_s[0] / single_thread_s[1];
            std::printf("  avx2 vs scalar @1 thread: %.2fx\n",
                        ratio);
            std::fprintf(out,
                         ",\n     \"avx2_vs_scalar_1t\": %.3f",
                         ratio);
        }
        if (single_thread_s[2] > 0.0) {
            double ratio =
                single_thread_s[0] / single_thread_s[2];
            std::printf("  avx512 vs scalar @1 thread: %.2fx\n",
                        ratio);
            std::fprintf(out,
                         ",\n     \"avx512_vs_scalar_1t\": %.3f",
                         ratio);
        }
        std::fprintf(out, "}");
    }

    // Per-block-size sweep: the blocked driver's MC/KC/NC space on
    // the best available tier at 1 thread — the data behind the
    // per-ISA blocking choices.
    std::fprintf(out, "\n  ],\n  \"gemm_block_sweep\": {");
    {
        Shape sw = quick ? Shape{16, 192, 192}
                         : Shape{512, 512, 512};
        SimdIsa sweep_isa = isas.back();
        Matrix a = randomMatrix(sw.m, sw.k, 70, 4.0);
        Matrix w = randomMatrix(sw.n, sw.k, 71, 6.0);
        PackedM2xfpTensor spa =
            PackedM2xfpTensor::packActivations(a, aq);
        PackedM2xfpTensor spw =
            PackedM2xfpTensor::packWeights(w, wq);
        struct Cfg
        {
            size_t mc, kc, nc;
        };
        std::vector<Cfg> cfgs =
            quick ? std::vector<Cfg>{{32, 128, 32}, {64, 256, 64}}
                  : std::vector<Cfg>{{32, 128, 32},
                                     {64, 256, 64},
                                     {128, 256, 128},
                                     {256, 256, 256},
                                     {128, 512, 256}};
        ThreadPool sweep_pool(1);
        std::fprintf(out,
                     "\n    \"m\": %zu, \"n\": %zu, \"k\": %zu, "
                     "\"isa\": \"%s\", \"threads\": 1,\n"
                     "    \"rows\": [",
                     sw.m, sw.n, sw.k, simdIsaName(sweep_isa));
        Matrix sweep_out;
        for (size_t ci = 0; ci < cfgs.size(); ++ci) {
            detail::GemmBlocking blk = detail::normalizeBlocking(
                sweep_isa, cfgs[ci].mc, cfgs[ci].kc, cfgs[ci].nc);
            double s = timeIt(
                [&] {
                    detail::packedMatmulNtBlocked(
                        spa, spw, sweep_out, &sweep_pool, sweep_isa,
                        blk);
                },
                min_s);
            std::printf("block sweep mc=%3zu kc=%3zu nc=%3zu: "
                        "%6.1f GF\n",
                        blk.mc, blk.kc, blk.nc,
                        gflops(sw.m, sw.n, sw.k, s));
            std::fprintf(out,
                         "%s\n      {\"mc\": %zu, \"kc\": %zu, "
                         "\"nc\": %zu, \"gemm_s\": %.6e, "
                         "\"gflops\": %.3f}",
                         ci ? "," : "", blk.mc, blk.kc, blk.nc, s,
                         gflops(sw.m, sw.n, sw.k, s));
        }
        std::fprintf(out, "\n    ]\n  },\n  \"pack_activations\": [");
    }

    // Online activation packing: the forward hot path's encode side.
    // The functional ElemEmQuantizer packer is the baseline the
    // fast-path rows are normalized against; every tier is verified
    // byte-identical before any timing, and the tiers with their own
    // encoder (scalar, avx2) are timed.
    for (size_t si = 0; si < shapes.size(); ++si) {
        const Shape &sh = shapes[si];
        Matrix a = randomMatrix(sh.m, sh.k, 50 + si, 4.0);
        PackedM2xfpTensor want =
            PackedM2xfpTensor::packActivations(a, aq);
        for (SimdIsa isa : isas)
            requireStreamsEqual(
                PackedM2xfpTensor::packActivations(a, aq, nullptr,
                                                   isa),
                want, simdIsaName(isa));

        double func_s = timeIt(
            [&] { PackedM2xfpTensor::packActivations(a, aq); },
            min_s);
        double bytes =
            static_cast<double>(sh.m * sh.k) * sizeof(float);
        std::printf("pack %zux%zu  functional %.3f GB/s\n", sh.m,
                    sh.k, bytes / func_s * 1e-9);
        std::fprintf(out,
                     "%s\n    {\"rows\": %zu, \"cols\": %zu, "
                     "\"input_bytes\": %zu,\n"
                     "     \"functional_pack_s\": %.6e, "
                     "\"functional_gb_per_s\": %.3f,\n"
                     "     \"results\": [",
                     si ? "," : "", sh.m, sh.k,
                     sh.m * sh.k * sizeof(float), func_s,
                     bytes / func_s * 1e-9);

        // Indexed by SimdIsa: [scalar, avx2].
        double single_thread_s[2] = {0.0, 0.0};
        bool first_entry = true;
        for (SimdIsa isa : isas) {
            if (isa == SimdIsa::Avx512)
                continue;
            for (unsigned tc : counts) {
                ThreadPool pool(tc);
                PackedM2xfpTensor buf;
                double s = timeIt(
                    [&] {
                        PackedM2xfpTensor::packActivations(
                            a, aq, &pool, isa, buf);
                    },
                    min_s);
                if (tc == 1)
                    single_thread_s[static_cast<size_t>(isa)] = s;
                std::printf("  fast/%-6s @%2u threads: %6.2f GB/s "
                            "(%.2fx functional)\n",
                            simdIsaName(isa), tc, bytes / s * 1e-9,
                            func_s / s);
                std::fprintf(out,
                             "%s\n      {\"isa\": \"%s\", "
                             "\"threads\": %u, "
                             "\"pack_s\": %.6e, "
                             "\"gb_per_s\": %.3f, "
                             "\"speedup_vs_functional\": %.3f}",
                             first_entry ? "" : ",",
                             simdIsaName(isa), tc, s,
                             bytes / s * 1e-9, func_s / s);
                first_entry = false;
            }
        }
        std::fprintf(out, "\n    ]");
        if (single_thread_s[0] > 0.0)
            std::fprintf(out,
                         ",\n     \"scalar_vs_functional_1t\": %.3f",
                         func_s / single_thread_s[0]);
        if (single_thread_s[1] > 0.0) {
            std::printf("  avx2 vs scalar @1 thread: %.2fx, "
                        "vs functional: %.2fx\n",
                        single_thread_s[0] / single_thread_s[1],
                        func_s / single_thread_s[1]);
            std::fprintf(out,
                         ",\n     \"avx2_vs_scalar_1t\": %.3f"
                         ",\n     \"avx2_vs_functional_1t\": %.3f",
                         single_thread_s[0] / single_thread_s[1],
                         func_s / single_thread_s[1]);
        }
        std::fprintf(out, "}");
    }
    std::fprintf(out, "\n  ],\n  \"forward\": [");

    // Layer-level forward: reference QuantizedLinear (online act
    // quantization + dense GEMM) vs PackedLinear (online packing +
    // packed GEMM on the active tier).
    for (size_t si = 0; si < shapes.size(); ++si) {
        const Shape &sh = shapes[si];
        Matrix w = randomMatrix(sh.n, sh.k, 30 + si, 6.0);
        Matrix x = randomMatrix(sh.m, sh.k, 40 + si, 4.0);
        QuantizedLinear ref_lin(
            w,
            std::make_shared<SgEmQuantizer>(
                makeM2xfpWeightQuantizer()),
            std::make_shared<ElemEmQuantizer>(
                makeM2xfpActivationQuantizer()));
        double ref_s =
            timeIt([&] { ref_lin.forward(x); }, min_s);

        std::fprintf(out,
                     "%s\n    {\"m\": %zu, \"n\": %zu, \"k\": %zu,\n"
                     "     \"isa\": \"%s\",\n"
                     "     \"ref_quantized_forward_s\": %.6e,\n"
                     "     \"results\": [",
                     si ? "," : "", sh.m, sh.n, sh.k,
                     activeSimdIsaName(), ref_s);
        for (size_t ci = 0; ci < counts.size(); ++ci) {
            ThreadPool pool(counts[ci]);
            PackedLinear packed(w, &pool);
            requireMatch(packed.forward(x), ref_lin.forward(x),
                         packed.simdIsa(), 1e-6, "packed forward");
            // Steady-state serving shape: the layer's reused
            // workspace and one reused output buffer.
            Matrix y;
            double s =
                timeIt([&] { packed.forwardInto(x, y); }, min_s);
            double qfrac = quantizeShare(packed, x, y, min_s);
            std::printf("forward %zux%zux%zu @%2u threads: "
                        "%.2fx reference (%.0f%% quantize)\n",
                        sh.m, sh.n, sh.k, counts[ci], ref_s / s,
                        100.0 * qfrac);
            std::fprintf(out,
                         "%s\n      {\"threads\": %u, "
                         "\"packed_forward_s\": %.6e, "
                         "\"quantize_s\": %.6e, "
                         "\"gemm_s\": %.6e, "
                         "\"speedup_vs_ref\": %.3f}",
                         ci ? "," : "", counts[ci], s, s * qfrac,
                         s * (1.0 - qfrac), ref_s / s);
        }
        std::fprintf(out, "\n    ]}");
    }

    std::fprintf(out, "\n  ],\n  \"decode\": ");

    // Autoregressive decode: prefill a batch of sequences, then
    // generate token by token against a persistent KV cache. The
    // fp32 cache is the bit-exactness oracle (it replicates the
    // full forward's double-precision attention arithmetic); the
    // packed cache keeps K/V resident in the M2XFP streams at 4.5
    // bits/element and fuses LUT decode into the blocked attention
    // kernels. Parity of both modes against the one-shot forward is
    // verified on a small model before any timing.
    {
        model::ModelConfig vc = model::llama2_7b();
        vc.nLayers = 1;
        vc.vocab = 128;
        std::vector<int> vtoks(12);
        {
            Rng rng(123);
            for (auto &t : vtoks)
                t = static_cast<int>(rng.uniformInt(vc.vocab));
        }
        auto run_split = [&](DecodeSession &s,
                             std::span<const int> toks) {
            size_t seq = s.addSequence();
            Matrix first =
                s.prefill(seq, toks.subspan(0, toks.size() - 2));
            Matrix all(toks.size(), first.cols());
            size_t t0 = 0;
            auto put = [&](const Matrix &m) {
                for (size_t r = 0; r < m.rows(); ++r, ++t0)
                    for (size_t c = 0; c < m.cols(); ++c)
                        all(t0, c) = m(r, c);
            };
            put(first);
            for (size_t t = toks.size() - 2; t < toks.size(); ++t) {
                int tok = toks[t];
                put(s.decode({&tok, 1}));
            }
            return all;
        };
        {
            DecodeSession s(vc, {.kvMode = KvCacheMode::Fp32});
            requireBitExact(run_split(s, vtoks),
                            s.model().forwardLogits(vtoks),
                            "fp32-cache decode logits");
        }
        {
            DecodeSession s(vc, {.kvMode = KvCacheMode::Packed});
            model::TinyTransformer ref(vc);
            ref.rebuild(packedLinearFactory(nullptr, s.simdIsa()));
            ref.setKvQuantizers(
                [] {
                    return std::make_shared<ElemEmQuantizer>(
                        makeM2xfpActivationQuantizer());
                },
                nullptr);
            requireClose(run_split(s, vtoks),
                         ref.forwardLogits(vtoks), 1e-5,
                         "packed-cache decode logits");
        }

        model::ModelConfig dc = model::llama2_7b();
        if (quick) {
            dc.nLayers = 1;
            dc.vocab = 128;
        }
        size_t batch = quick ? 4 : 8;
        size_t prefill_tokens = quick ? 8 : 256;
        size_t decode_steps = quick ? 4 : 32;
        unsigned dec_threads = ThreadPool::defaultThreads();

        std::fprintf(out,
                     "{\n"
                     "    \"model\": \"%s\", \"layers\": %u, "
                     "\"d_model\": %u,\n"
                     "    \"batch\": %zu, \"prefill_tokens\": %zu, "
                     "\"decode_steps\": %zu,\n"
                     "    \"threads\": %u, \"isa\": \"%s\",\n"
                     "    \"modes\": [",
                     dc.name.c_str(), dc.nLayers, dc.dModel, batch,
                     prefill_tokens, decode_steps, dec_threads,
                     activeSimdIsaName());

        double tokens_per_s[2] = {0.0, 0.0}; // [fp32, packed]
        KvCacheMode modes[2] = {KvCacheMode::Fp32,
                                KvCacheMode::Packed};
        // The decode loops run with the metrics registry on: the
        // per-step latency distribution comes straight from the
        // decode.step_ns histogram and lane utilization from the
        // pool.lane*.busy_ns counters. Restored to the prior state
        // afterwards (off unless M2X_METRICS was set).
        bool metrics_were_on = telemetry::metricsEnabled();
        telemetry::setMetricsEnabled(true);
        for (int mi = 0; mi < 2; ++mi) {
            KvCacheMode mode = modes[mi];
            DecodeSession s(dc, {.threads = dec_threads,
                                 .kvMode = mode});
            Rng rng(321);
            Stopwatch pre_sw;
            for (size_t b = 0; b < batch; ++b) {
                std::vector<int> prompt(prefill_tokens);
                for (auto &t : prompt)
                    t = static_cast<int>(rng.uniformInt(dc.vocab));
                s.prefill(s.addSequence(), prompt);
            }
            double prefill_s = pre_sw.seconds();

            // Zero the metric values (prefill included) so the
            // histogram and busy counters describe the decode loop
            // alone.
            telemetry::MetricRegistry::global().reset();
            std::vector<int> next(batch);
            Stopwatch dec_sw;
            for (size_t t = 0; t < decode_steps; ++t) {
                for (auto &n : next)
                    n = static_cast<int>(rng.uniformInt(dc.vocab));
                s.decode(next);
            }
            double decode_s = dec_sw.seconds();
            double tps = static_cast<double>(batch * decode_steps) /
                         decode_s;
            tokens_per_s[mi] = tps;
            double bpt = s.kvBytesPerToken();
            double bits_per_elem =
                bpt * 8.0 / (2.0 * dc.nLayers * dc.dModel);

            const telemetry::Histogram *sh =
                telemetry::MetricRegistry::global().findHistogram(
                    "decode.step_ns");
            m2x_assert(sh && sh->count() == decode_steps,
                       "decode.step_ns histogram missing or "
                       "miscounted");
            double p50 = 1e-9 * sh->quantile(0.50);
            double p95 = 1e-9 * sh->quantile(0.95);
            double p99 = 1e-9 * sh->quantile(0.99);
            double pool_busy_s =
                1e-9 * static_cast<double>(
                           telemetry::MetricRegistry::global()
                               .counterSumByPrefix("pool.lane"));
            double pool_util =
                decode_s > 0.0
                    ? pool_busy_s / (decode_s * dec_threads)
                    : 0.0;

            std::printf("decode/%-6s batch %zu, %zu+%zu tokens "
                        "@%u threads: %7.1f tok/s, "
                        "%.0f KV bytes/token (%.2f bits/elem)\n"
                        "    step latency p50/p95/p99: "
                        "%.3f/%.3f/%.3f ms, pool utilization "
                        "%.0f%%\n",
                        kvCacheModeName(mode), batch,
                        prefill_tokens, decode_steps, dec_threads,
                        tps, bpt, bits_per_elem, p50 * 1e3,
                        p95 * 1e3, p99 * 1e3, 100.0 * pool_util);
            std::fprintf(out,
                         "%s\n      {\"kv_cache\": \"%s\", "
                         "\"prefill_s\": %.6e, "
                         "\"decode_s\": %.6e, "
                         "\"tokens_per_s\": %.3f, "
                         "\"attend_s\": %.6e,\n"
                         "       \"step_latency_p50_s\": %.6e, "
                         "\"step_latency_p95_s\": %.6e, "
                         "\"step_latency_p99_s\": %.6e,\n"
                         "       \"pool_busy_s\": %.6e, "
                         "\"pool_utilization\": %.4f,\n"
                         "       \"kv_bytes\": %zu, "
                         "\"kv_bytes_per_token\": %.3f, "
                         "\"kv_bits_per_element\": %.4f}",
                         mi ? "," : "", kvCacheModeName(mode),
                         prefill_s, decode_s, tps,
                         s.attendSeconds(), p50, p95, p99,
                         pool_busy_s, pool_util, s.kvBytes(), bpt,
                         bits_per_elem);
        }
        telemetry::setMetricsEnabled(metrics_were_on);
        double ratio = tokens_per_s[1] / tokens_per_s[0];
        std::printf("decode packed vs fp32 cache: %.2fx tokens/s\n",
                    ratio);
        std::fprintf(out,
                     "\n    ],\n"
                     "    \"packed_vs_fp32_tokens_per_s\": %.3f\n"
                     "  },\n  \"long_context\": {",
                     ratio);
    }

    // Long-context attend: the flash-style blocked online-softmax
    // attend at growing context lengths, measured at the KvCache
    // level (one layer, single-query decode shape, 1 thread — the
    // per-sequence serving fan-out unit), packed against fp32 pages
    // of the same rows. Attend scratch must stay constant as context
    // grows 256x — asserted before the JSON is usable.
    {
        const size_t lc_d = 192;     // the llama2_7b width
        const unsigned lc_heads = 4; // headDim 48
        // Single-query attends are microseconds at the quick
        // contexts; floor the window so the quick run's
        // packed-vs-fp32 ratio is not pure timer noise.
        double lc_min_s = std::max(min_s, 0.1);
        std::vector<size_t> contexts =
            quick ? std::vector<size_t>{256, 1024}
                  : std::vector<size_t>{256, 1024, 4096, 16384,
                                        65536};
        ThreadPool pool1(1);
        Matrix lq = randomMatrix(1, lc_d, 81, 4.0);
        std::fprintf(out,
                     "\n    \"d_model\": %zu, \"heads\": %u,\n"
                     "    \"rows\": [",
                     lc_d, lc_heads);
        KvCacheMode lc_modes[2] = {KvCacheMode::Packed,
                                   KvCacheMode::Fp32};
        // flash seconds per (mode, context) for the packed-vs-fp32
        // summary below.
        std::vector<double> flash_s_of[2];
        bool first_row = true;
        for (int mi = 0; mi < 2; ++mi) {
            KvCacheMode mode = lc_modes[mi];
            KvCache cache(1, lc_d, mode);
            const size_t chunk_rows = 256;
            Matrix kv_rows = randomMatrix(chunk_rows, lc_d, 82, 4.0);
            size_t scratch_first = 0;
            for (size_t ctx_len : contexts) {
                while (cache.length() < ctx_len)
                    cache.append(0, kv_rows.data(), kv_rows.data(),
                                 chunk_rows, &pool1);

                Matrix flash_out(1, lc_d);
                auto flash_fn = [&] {
                    cache.attend(0, lq.data(), 1, ctx_len - 1,
                                 lc_heads, flash_out.data(), &pool1);
                };
                resetAttendScratchPeak();
                double flash_s = timeIt(flash_fn, lc_min_s);
                size_t scratch = attendScratchPeakBytes();
                if (scratch_first == 0)
                    scratch_first = scratch;
                m2x_assert(scratch <= scratch_first,
                           "flash attend scratch grew with context "
                           "(%zu bytes at %zu vs %zu at %zu rows)",
                           scratch, ctx_len, scratch_first,
                           contexts.front());
                flash_s_of[mi].push_back(flash_s);

                double bpt = cache.bytesPerToken();
                std::printf(
                    "long-context %-6s ctx %6zu: flash %8.1f "
                    "attends/s, scratch %zu B, %.0f KV B/token\n",
                    kvCacheModeName(mode), ctx_len, 1.0 / flash_s,
                    scratch, bpt);
                std::fprintf(
                    out,
                    "%s\n      {\"context\": %zu, \"mode\": \"%s\", "
                    "\"isa\": \"%s\", \"threads\": 1, "
                    "\"window_s\": %.3f,\n"
                    "       \"flash_attend_s\": %.6e, "
                    "\"attends_per_s\": %.3f,\n"
                    "       \"scratch_bytes\": %zu, "
                    "\"kv_bytes_per_token\": %.3f}",
                    first_row ? "" : ",", ctx_len,
                    kvCacheModeName(mode), activeSimdIsaName(),
                    lc_min_s, flash_s, 1.0 / flash_s, scratch, bpt);
                first_row = false;
            }
        }
        // Same-run packed-vs-fp32 attend ratio per context (resident
        // decode bandwidth is what separates them at long context).
        std::fprintf(out, "\n    ],\n    \"packed_vs_fp32\": [");
        for (size_t ci = 0; ci < contexts.size(); ++ci)
            std::fprintf(out,
                         "%s\n      {\"context\": %zu, "
                         "\"ratio\": %.3f}",
                         ci ? "," : "", contexts[ci],
                         flash_s_of[1][ci] / flash_s_of[0][ci]);
        std::fprintf(out, "\n    ]\n  },\n  \"cross_format\": [");
    }

    // Cross-format runtime: every registered codec through the
    // packed GEMM driver and the full decode loop. Two numbers per
    // format: the packed GEMM's accuracy against the exact fp32
    // product (the format's quantization error — kernel parity
    // against each format's own functional pipeline is verified
    // first, and exhaustively in cross_format_parity_test), and
    // decode tokens/s with the format's generic kernels resident in
    // the linear layers and KV pages. Rows are emitted in ascending
    // rel_rmse order, so the committed JSON records the accuracy
    // ranking of the formats — the bench-smoke gate asserts the
    // ordering and positive throughput for >= 3 formats.
    {
        Matrix ga = randomMatrix(24, 512, 71, 4.0);
        Matrix gw = randomMatrix(32, 512, 72, 6.0);
        Matrix exact = matmulNt(ga, gw);

        model::ModelConfig cc = model::llama2_7b();
        cc.nLayers = 1;
        cc.vocab = 128;
        size_t cf_batch = 2;
        size_t cf_prefill = quick ? 8 : 32;
        size_t cf_steps = quick ? 4 : 16;
        unsigned cf_threads = ThreadPool::defaultThreads();

        struct FormatRow
        {
            PackedCodec codec;
            double rmse, rel_rmse, tps, bits;
        };
        std::vector<FormatRow> rows;
        for (PackedCodec codec : allPackedCodecs()) {
            PackedM2xfpTensor pa =
                PackedM2xfpTensor::packActivationsCodec(ga, codec);
            PackedM2xfpTensor pw =
                PackedM2xfpTensor::packWeightsCodec(gw, codec);
            Matrix got = packedMatmulNt(pa, pw);
            requireMatch(got,
                         matmulNt(pa.unpackActivationsCodec(),
                                  pw.unpackWeightsCodec()),
                         activeSimdIsa(), 1e-6,
                         "cross-format gemm parity");
            double se = 0.0, ref2 = 0.0;
            for (size_t i = 0; i < exact.size(); ++i) {
                double d = got.flat()[i] - exact.flat()[i];
                se += d * d;
                ref2 += static_cast<double>(exact.flat()[i]) *
                        static_cast<double>(exact.flat()[i]);
            }
            double rmse =
                std::sqrt(se / static_cast<double>(exact.size()));
            double rel_rmse = std::sqrt(se / ref2);

            DecodeSession s(cc, {.threads = cf_threads,
                                 .kvMode = KvCacheMode::Packed,
                                 .codec = codec});
            Rng rng(777);
            for (size_t b = 0; b < cf_batch; ++b) {
                std::vector<int> prompt(cf_prefill);
                for (auto &t : prompt)
                    t = static_cast<int>(rng.uniformInt(cc.vocab));
                s.prefill(s.addSequence(), prompt);
            }
            std::vector<int> next(cf_batch);
            Stopwatch sw;
            for (size_t t = 0; t < cf_steps; ++t) {
                for (auto &n : next)
                    n = static_cast<int>(rng.uniformInt(cc.vocab));
                s.decode(next);
            }
            double tps =
                static_cast<double>(cf_batch * cf_steps) /
                sw.seconds();
            rows.push_back(
                {codec, rmse, rel_rmse, tps,
                 packedCodecInfo(codec).bitsPerElement});
            std::printf("cross-format %-9s: rel_rmse %.5f, "
                        "%7.1f tok/s (%.2f bits/elem)\n",
                        packedCodecName(codec), rel_rmse, tps,
                        packedCodecInfo(codec).bitsPerElement);
        }
        std::sort(rows.begin(), rows.end(),
                  [](const FormatRow &a, const FormatRow &b) {
                      return a.rel_rmse < b.rel_rmse;
                  });
        for (size_t i = 0; i < rows.size(); ++i)
            std::fprintf(out,
                         "%s\n    {\"format\": \"%s\", "
                         "\"bits_per_element\": %.4f, "
                         "\"gemm_rmse_vs_fp32\": %.6e, "
                         "\"gemm_rel_rmse_vs_fp32\": %.6e, "
                         "\"decode_tokens_per_s\": %.3f, "
                         "\"isa\": \"%s\", \"threads\": %u}",
                         i ? "," : "",
                         packedCodecName(rows[i].codec),
                         rows[i].bits, rows[i].rmse,
                         rows[i].rel_rmse, rows[i].tps,
                         activeSimdIsaName(), cf_threads);
        std::fprintf(out, "\n  ]\n}\n");
    }
    std::fclose(out);
    std::printf("\nwrote %s\n", out_path.c_str());
    if (!trace_path.empty()) {
        size_t n = runtime::telemetry::traceStop();
        std::printf("wrote %zu trace events to %s\n", n,
                    trace_path.c_str());
    }
    return 0;
}
