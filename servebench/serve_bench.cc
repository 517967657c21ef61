/**
 * @file
 * Serving benchmark driver: runs one named traffic mix through the
 * public ServingEngine API from a single driving thread and prints a
 * one-line JSON report as the last line of stdout.
 *
 * Every run, before anything is timed, re-decodes a fixed sample of
 * the workload's requests through a single-sequence DecodeSession
 * (the expected tokens) and scores the packed logits of a fixed
 * prompt sample against the fp32-weight TinyTransformer. After the
 * timed window the engine's outputs must match the expected tokens
 * token for token and every request must have finished; otherwise
 * the run is reported as incorrect with all requests failed.
 *
 * --trace 0 measures the end-to-end metrics with telemetry off.
 * --trace 1 runs the same schedule twice, untraced and then with the
 * trace and the metrics registry on, writes the Chrome trace to
 * --trace-out, and reports the driver-side per-layer inputs (pool and
 * linear counters, arena samples, generator lateness, machine
 * ceilings); trace_agg.py derives the span-based layer metrics.
 *
 * Usage: serve_bench --workload NAME --seed N --seconds S
 *                    --trace 0|1 [--trace-out PATH]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "core/packed_codec.hh"
#include "model/config.hh"
#include "model/transformer.hh"
#include "runtime/decode_session.hh"
#include "runtime/serving.hh"
#include "runtime/simd.hh"
#include "runtime/telemetry.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace {

using namespace m2x;
using namespace m2x::runtime;
using telemetry::nowNanos;
using telemetry::TraceSpan;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/** One named traffic mix. Lengths are inclusive ranges. */
struct Workload
{
    const char *name;
    PackedCodec codec;
    bool openLoop;
    double ratePerS;  //!< open loop: Poisson arrival rate
    unsigned clients; //!< closed loop: requests kept in flight
    size_t promptLo, promptHi;
    size_t genLo, genHi;
    size_t arenaPages;
    size_t maxBatch;
    double ttftTailQ; //!< the fixed "tail" quantile of TTFT
    double itlTailQ;  //!< the fixed "tail" quantile of ITL
    size_t checkRequests; //!< requests re-decoded by the oracle
};

/*
 * Why each mix exists is in README.md. chat_poisson's 12 req/s is about
 * a quarter of the ~46 req/s saturation rate measured at this commit,
 * which leaves room for a host that runs twice as slow without the
 * queue growing; its 320-page arena makes admission stall on free
 * pages in bursts.
 */
const Workload kWorkloads[] = {
    {"chat_poisson", PackedCodec::ElemEm, true, 12.0, 0, 48, 192, 16,
     64, 320, 16, 0.80, 0.99, 4},
    {"decode_small_batch", PackedCodec::ElemEm, false, 0.0, 4, 24, 40,
     192, 320, 1024, 8, 0.75, 0.99, 2},
    {"long_prompt", PackedCodec::ElemEm, false, 0.0, 1, 1024, 4096, 16,
     32, 2048, 4, 0.75, 0.90, 2},
    {"decode_sg_em", PackedCodec::SgEm, false, 0.0, 4, 24, 40, 192,
     320, 1024, 8, 0.75, 0.99, 2},
};

/** Rows per KV page, for the engine and the oracle alike. */
constexpr size_t kPageRows = 16;
/** Setup repetitions; setup_s is their median. */
constexpr int kSetupReps = 3;
/** Prompt rows scored for logit_rel_rmse, and the per-prompt cap. */
constexpr size_t kQualityRows = 2048;
constexpr size_t kQualityTokens = 256;
/** Grid values per block of stratified length draws (odd). */
constexpr uint32_t kStrata = 9;
/** Open-loop arrivals per block of stratified gaps (one second at 12/s). */
constexpr size_t kArrivalBlock = 12;
/**
 * Generator lateness (p99, seconds) beyond which the generator has
 * fallen behind its schedule and the run is invalid. A single-threaded
 * generator is always up to one engine step late; a second is far
 * beyond any step.
 */
constexpr double kMaxLagS = 1.0;

unsigned
benchLanes()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 4u);
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/** Continued fraction of the incomplete beta function (modified Lentz). */
double
betaContinuedFraction(double a, double b, double x)
{
    constexpr double kTiny = 1e-300, kEps = 1e-13;
    auto guard = [](double v) {
        return std::fabs(v) < kTiny ? kTiny : v;
    };
    double c = 1.0;
    double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    double h = d;
    for (int m = 1; m <= 100000; ++m) {
        double m2 = 2.0 * m;
        double even = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        double odd =
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        h *= d * c;
        if (std::fabs(d * c - 1.0) < kEps)
            break;
    }
    return h;
}

/** Regularized incomplete beta function I_x(a, b). */
double
betaRegularized(double a, double b, double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                            std::lgamma(b) + a * std::log(x) +
                            b * std::log1p(-x));
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaContinuedFraction(a, b, x) / a;
    return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

/**
 * Harrell-Davis estimate of quantile q of an unsorted sample (0 when
 * empty); q = 0.5 is the median. It weights every order statistic by a
 * beta distribution centred on q instead of reading one or two of
 * them, so with a few dozen samples (the closed-loop TTFTs) it moves
 * less from seed to seed when the samples cluster, as TTFTs do around
 * one and two prefills per step. Callers pass 0 < q < 1.
 */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const double a = (n + 1.0) * q, b = (n + 1.0) * (1.0 - q);
    double est = 0.0, below = 0.0;
    for (size_t i = 0; i < v.size(); ++i) {
        double upto =
            betaRegularized(a, b, static_cast<double>(i + 1) / n);
        est += (upto - below) * v[i];
        below = upto;
    }
    return est;
}

double
seconds(uint64_t ns)
{
    return 1e-9 * static_cast<double>(ns);
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

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Request generation (a pure function of the seed)
// ---------------------------------------------------------------------------

/**
 * Lengths in [lo, hi] on a grid of kStrata evenly spaced values (the
 * stratum midpoints), drawn by stratified antithetic sampling: each
 * block of kStrata draws visits every grid value once, as mirror pairs
 * (i, kStrata-1-i) and the middle value, in a seeded order. Every
 * block boundary leaves a length mix symmetric about the middle value,
 * so the mix a run completes, and its median, barely move with the
 * seed.
 */
class StratifiedInt
{
  public:
    StratifiedInt(size_t lo, size_t hi, uint64_t seed)
        : lo_(lo), span_(hi - lo + 1), rng_(seed)
    {}

    size_t
    next()
    {
        if (pos_ == block_.size()) {
            block_.clear();
            for (uint32_t i : rng_.permutation(kStrata / 2 + 1)) {
                size_t a = at(i), b = at(kStrata - 1 - i);
                if (i == kStrata / 2) {
                    block_.push_back(a);
                    continue;
                }
                if (rng_.uniform() < 0.5)
                    std::swap(a, b);
                block_.push_back(a);
                block_.push_back(b);
            }
            pos_ = 0;
        }
        return block_[pos_++];
    }

  private:
    size_t
    at(uint32_t stratum) const
    {
        return lo_ + static_cast<size_t>((stratum + 0.5) / kStrata *
                                         static_cast<double>(span_));
    }

    size_t lo_, span_;
    Rng rng_;
    std::vector<size_t> block_;
    size_t pos_ = 0;
};

struct Request
{
    std::vector<int> prompt;
    size_t maxNew = 0;
};

/** The workload's request sequence; request j is fixed by the seed. */
class RequestStream
{
  public:
    RequestStream(const Workload &w, unsigned vocab, uint64_t seed)
        : vocab_(vocab),
          promptLen_(w.promptLo, w.promptHi, seed * 3 + 1),
          genLen_(w.genLo, w.genHi, seed * 3 + 2),
          tokens_(seed * 3 + 3)
    {}

    const Request &
    at(size_t j)
    {
        while (reqs_.size() <= j) {
            Request r;
            r.prompt.resize(promptLen_.next());
            for (int &t : r.prompt)
                t = static_cast<int>(tokens_.uniformInt(vocab_));
            r.maxNew = genLen_.next();
            reqs_.push_back(std::move(r));
        }
        return reqs_[j];
    }

  private:
    unsigned vocab_;
    StratifiedInt promptLen_, genLen_;
    Rng tokens_;
    std::vector<Request> reqs_;
};

/**
 * Open-loop due times (seconds from the window start) of a Poisson
 * process with the workload's rate: rate * window arrivals whose
 * exponential inter-arrival gaps are drawn by Latin hypercube
 * sampling in blocks of kArrivalBlock (each block takes one gap from
 * each of its kArrivalBlock equal-probability strata, in a seeded
 * order), scaled so the last arrival lands at the window's end. Every
 * block then spans about the same time, so the seed only reorders
 * short and long gaps within a block: bursts of a few arrivals occur
 * in every run, while the rare long clusters that set a whole run's
 * TTFT tail when gaps are ordered freely across the window do not.
 */
std::vector<double>
poissonSchedule(double rate, double window_s, uint64_t seed)
{
    size_t n = std::max<size_t>(
        1, static_cast<size_t>(std::lround(rate * window_s)));
    Rng rng(seed * 3 + 4);
    std::vector<double> due(n);
    double t = 0.0;
    for (size_t i0 = 0; i0 < n; i0 += kArrivalBlock) {
        uint32_t k = static_cast<uint32_t>(
            std::min<size_t>(kArrivalBlock, n - i0));
        std::vector<uint32_t> strata = rng.permutation(k);
        for (uint32_t j = 0; j < k; ++j) {
            double u = (strata[j] + rng.uniform()) / k;
            t += -std::log(1.0 - u) / rate;
            due[i0 + j] = t;
        }
    }
    for (double &d : due)
        d *= window_s / t;
    return due;
}

// ---------------------------------------------------------------------------
// Oracle and quality (outside every timed window)
// ---------------------------------------------------------------------------

/** The oracle's expectations for one workload and seed. */
struct Reference
{
    /** Greedy tokens of requests 0..checkRequests-1. */
    std::vector<std::vector<int>> expected;
    /**
     * rel-RMSE of the packed prompt logits against the fp32
     * TinyTransformer over the stream's first prompts, each cut to
     * kQualityTokens tokens, until kQualityRows rows are scored.
     */
    double logitRelRmse = 0.0;
};

Reference
reference(const model::ModelConfig &mc, const Workload &w,
          unsigned lanes, RequestStream &stream)
{
    Reference ref;
    std::unique_ptr<DecodeSession> s;
    for (size_t i = 0; i < w.checkRequests; ++i) {
        // A fresh single-sequence session per checked request.
        s = std::make_unique<DecodeSession>(
            mc, DecodeConfig{.threads = lanes,
                             .pageRows = kPageRows,
                             .codec = w.codec});
        const Request &r = stream.at(i);
        Matrix logits = s->prefill(s->addSequence(), r.prompt);
        std::vector<int> out{argmaxRow(logits, logits.rows() - 1)};
        while (out.size() < r.maxNew) {
            int next = out.back();
            Matrix l = s->decode({&next, 1});
            out.push_back(argmaxRow(l, 0));
        }
        ref.expected.push_back(std::move(out));
    }

    // Prefill-only sequences never step, so the last session's packed
    // weights serve the quality sample too.
    model::TinyTransformer fp32(mc);
    double err = 0.0, norm = 0.0;
    for (size_t i = 0, rows = 0; rows < kQualityRows; ++i) {
        const std::vector<int> &p = stream.at(i).prompt;
        std::span<const int> toks(
            p.data(), std::min(p.size(), kQualityTokens));
        Matrix got = s->prefill(s->addSequence(), toks);
        Matrix want = fp32.forwardLogits(toks);
        rows += want.rows();
        for (size_t r = 0; r < want.rows(); ++r)
            for (size_t c = 0; c < want.cols(); ++c) {
                double d = static_cast<double>(got(r, c)) - want(r, c);
                err += d * d;
                norm += static_cast<double>(want(r, c)) * want(r, c);
            }
    }
    ref.logitRelRmse = std::sqrt(err / norm);
    return ref;
}

// ---------------------------------------------------------------------------
// Setup and the timed window
// ---------------------------------------------------------------------------

/**
 * Engine construction (model build, weight packing, pool and arena)
 * plus one warm-up request run to completion.
 */
std::unique_ptr<ServingEngine>
setupEngine(const model::ModelConfig &mc, const Workload &w,
            unsigned lanes)
{
    auto eng = std::make_unique<ServingEngine>(
        mc, ServingConfig{.threads = lanes,
                          .pageRows = kPageRows,
                          .arenaPages = w.arenaPages,
                          .maxBatch = w.maxBatch,
                          .codec = w.codec});
    std::vector<int> warm(32);
    for (size_t i = 0; i < warm.size(); ++i)
        warm[i] = static_cast<int>((i * 37) % mc.vocab);
    eng->submit(std::move(warm), 4);
    eng->runToCompletion();
    return eng;
}

/** One request the generator sent, in the driver's bookkeeping. */
struct Sent
{
    size_t index = 0; //!< position in the workload's request stream
    size_t id = 0;    //!< engine request id
    uint64_t dueNs = 0;
    uint64_t submitNs = 0;
    uint64_t doneNs = 0;
    unsigned client = 0;
};

/** What one timed window observed. */
struct Window
{
    std::vector<Sent> sent;
    uint64_t startNs = 0;
    size_t tokens = 0;      //!< tokens streamed so far
    size_t latencyBase = 0; //!< engine tokenLatencies() before it
    /**
     * @{ At the end of the last step that finished while the generator
     * was still sending: the time, tokens streamed and the engine's
     * tokenLatencies() size. The drain after the window runs with a
     * shrinking batch whose length depends on the seed's last outputs,
     * so throughput and ITL are taken up to here.
     */
    uint64_t sendingEndNs = 0;
    size_t sendingTokens = 0;
    size_t latencyEnd = 0;
    /** @} */
    size_t steps = 0;
    /** @{ Per-step samples of the public accessors. */
    double liveBytes = 0.0;  //!< sum over steps
    double cachedRows = 0.0; //!< sum over steps
    double occSum = 0.0;
    double occPeak = 0.0;
    /** @} */
};

/**
 * Drive one window: the generator sends for @p window_s seconds
 * (open loop: on the Poisson schedule; closed loop: each client
 * resends when its request finishes), then the engine drains.
 * Arrivals are timed from their due time.
 */
Window
runWindow(ServingEngine &eng, const Workload &w, RequestStream &stream,
          const std::vector<double> &schedule, double window_s)
{
    Window win;
    win.latencyBase = eng.tokenLatencies().size();
    const size_t first_id = eng.requestCount(); // ids are dense
    std::vector<size_t> in_flight;
    std::vector<uint64_t> client_free(w.clients, 0);
    std::vector<unsigned> free_clients;
    size_t page_bytes = eng.arena().pageBytes();

    eng.onToken([&](size_t id, int, bool last) {
        TraceSpan span("bench.token");
        ++win.tokens;
        if (!last)
            return;
        Sent &s = win.sent[id - first_id];
        s.doneNs = nowNanos();
        if (!w.openLoop) {
            client_free[s.client] = s.doneNs;
            free_clients.push_back(s.client);
        }
        if (span.active())
            span.arg("request", id);
    });

    auto send = [&](uint64_t due, unsigned client) {
        const Request &r = stream.at(win.sent.size());
        Sent s;
        s.index = win.sent.size();
        s.dueNs = due;
        s.client = client;
        {
            TraceSpan span("bench.submit");
            if (span.active())
                span.arg("request", eng.requestCount());
            s.id = eng.submit(r.prompt, r.maxNew);
        }
        s.submitNs = nowNanos();
        in_flight.push_back(s.id);
        win.sent.push_back(s);
    };

    auto sample = [&] {
        TraceSpan span("bench.sample");
        size_t rows = 0;
        size_t w_out = 0;
        for (size_t id : in_flight) {
            const RequestStats &st = eng.stats(id);
            if (st.state == RequestState::Finished)
                continue;
            if (st.state == RequestState::Active)
                rows += st.promptTokens + st.generated - 1;
            in_flight[w_out++] = id;
        }
        in_flight.resize(w_out);
        win.liveBytes += static_cast<double>(eng.arena().livePages() *
                                             page_bytes);
        win.cachedRows += static_cast<double>(rows);
        double occ = eng.arena().occupancy();
        win.occSum += occ;
        win.occPeak = std::max(win.occPeak, occ);
        ++win.steps;
    };

    uint64_t end_ns = 0;
    auto step = [&] {
        {
            TraceSpan span("bench.step");
            eng.step();
        }
        uint64_t now = nowNanos();
        if (now <= end_ns) {
            win.sendingEndNs = now;
            win.sendingTokens = win.tokens;
            win.latencyEnd = eng.tokenLatencies().size();
        }
        sample();
    };

    win.startNs = nowNanos();
    end_ns = win.startNs + static_cast<uint64_t>(window_s * 1e9);
    win.latencyEnd = win.latencyBase;
    if (w.openLoop) {
        std::vector<uint64_t> due(schedule.size());
        for (size_t i = 0; i < due.size(); ++i)
            due[i] = win.startNs + static_cast<uint64_t>(schedule[i] * 1e9);
        size_t next = 0;
        while (next < due.size() || !eng.idle()) {
            while (next < due.size() && due[next] <= nowNanos()) {
                send(due[next], 0);
                ++next;
            }
            if (!eng.idle()) {
                step();
            } else if (next < due.size()) {
                uint64_t now = nowNanos();
                if (due[next] > now)
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(due[next] - now));
            }
        }
    } else {
        for (unsigned c = 0; c < w.clients; ++c)
            send(win.startNs, c);
        std::vector<unsigned> ready;
        while (!eng.idle()) {
            step();
            ready.swap(free_clients);
            for (unsigned c : ready) {
                // The client's next request is due the moment its
                // previous one finished.
                if (client_free[c] < end_ns)
                    send(client_free[c], c);
            }
            ready.clear();
        }
    }
    eng.onToken(nullptr);
    return win;
}

// ---------------------------------------------------------------------------
// Machine ceilings (traced runs only)
// ---------------------------------------------------------------------------

/** Run @p body(lane) on @p lanes threads; returns wall seconds. */
template <typename Body>
double
onLanes(unsigned lanes, Body body)
{
    std::vector<std::thread> threads;
    uint64_t t0 = nowNanos();
    for (unsigned l = 0; l < lanes; ++l)
        threads.emplace_back(body, l);
    for (auto &t : threads)
        t.join();
    return seconds(nowNanos() - t0);
}

/** STREAM triad a = b + s*c over 3 x 32 MiB, best of 5, GB/s. */
double
triadGbps(unsigned lanes)
{
    const size_t n = size_t{4} << 20;
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        double s = onLanes(lanes, [&](unsigned l) {
            size_t lo = n * l / lanes, hi = n * (l + 1) / lanes;
            for (size_t i = lo; i < hi; ++i)
                a[i] = b[i] + 3.0 * c[i];
        });
        best = std::max(best, 24.0 * static_cast<double>(n) / s / 1e9);
    }
    volatile double sink = a[n / 2];
    (void)sink;
    return best;
}

constexpr int kFmaChains = 12;

double
fmaScalar(size_t iters)
{
    double acc[kFmaChains];
    for (int j = 0; j < kFmaChains; ++j)
        acc[j] = 1.0 + j;
    for (size_t i = 0; i < iters; ++i)
        for (int j = 0; j < kFmaChains; ++j)
            acc[j] = std::fma(acc[j], 0.999999, 1e-7);
    double s = 0.0;
    for (double v : acc)
        s += v;
    return s;
}

#if defined(__x86_64__) && defined(M2X_HAVE_AVX2)
__attribute__((target("avx2,fma"))) double
fmaAvx2(size_t iters)
{
    __m256d acc[kFmaChains];
    for (int j = 0; j < kFmaChains; ++j)
        acc[j] = _mm256_set1_pd(1.0 + j);
    const __m256d m = _mm256_set1_pd(0.999999);
    const __m256d b = _mm256_set1_pd(1e-7);
    for (size_t i = 0; i < iters; ++i)
        for (int j = 0; j < kFmaChains; ++j)
            acc[j] = _mm256_fmadd_pd(acc[j], m, b);
    double s = 0.0;
    for (auto v : acc) {
        alignas(32) double lanes[4];
        _mm256_store_pd(lanes, v);
        s += lanes[0] + lanes[1] + lanes[2] + lanes[3];
    }
    return s;
}
#endif

#if defined(__x86_64__) && defined(M2X_HAVE_AVX512)
__attribute__((target("avx512f"))) double
fmaAvx512(size_t iters)
{
    __m512d acc[kFmaChains];
    for (int j = 0; j < kFmaChains; ++j)
        acc[j] = _mm512_set1_pd(1.0 + j);
    const __m512d m = _mm512_set1_pd(0.999999);
    const __m512d b = _mm512_set1_pd(1e-7);
    for (size_t i = 0; i < iters; ++i)
        for (int j = 0; j < kFmaChains; ++j)
            acc[j] = _mm512_fmadd_pd(acc[j], m, b);
    double s = 0.0;
    for (auto v : acc) {
        alignas(64) double lanes[8];
        _mm512_store_pd(lanes, v);
        for (double x : lanes)
            s += x;
    }
    return s;
}
#endif

/**
 * Peak fp64 FMA rate (the packed GEMM accumulates in double) at the
 * active ISA tier over every lane, best of 3, GFLOP/s.
 */
double
fmaGflops(unsigned lanes)
{
    SimdIsa isa = activeSimdIsa();
    double (*kernel)(size_t) = &fmaScalar;
    double width = 1.0;
#if defined(__x86_64__) && defined(M2X_HAVE_AVX2)
    if (isa == SimdIsa::Avx2) {
        kernel = &fmaAvx2;
        width = 4.0;
    }
#endif
#if defined(__x86_64__) && defined(M2X_HAVE_AVX512)
    if (isa == SimdIsa::Avx512) {
        kernel = &fmaAvx512;
        width = 8.0;
    }
#endif
    const size_t iters = size_t{20} << 20;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<double> sink(lanes);
        double s = onLanes(lanes, [&](unsigned l) {
            sink[l] = kernel(iters);
        });
        double flops = 2.0 * width * kFmaChains *
                       static_cast<double>(iters) * lanes;
        best = std::max(best, flops / s / 1e9);
    }
    return best;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/** An ordered name -> (value, unit) list, printed as JSON. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        items_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (size_t i = 0; i < items_.size(); ++i)
            out += strFormat("%s\"%s\": {\"value\": %.17g, "
                             "\"unit\": \"%s\"}",
                             i ? ", " : "", items_[i].name.c_str(),
                             items_[i].value, items_[i].unit);
        return out + "}";
    }

    void
    print() const
    {
        for (const Item &it : items_)
            std::printf("  %-28s %14.6g %s\n", it.name.c_str(),
                        it.value, it.unit);
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Item> items_;
};

/** Outcome of checking one window's outputs. */
struct Check
{
    size_t attempted = 0;
    size_t failed = 0;
    bool correct = true;
};

Check
checkWindow(const ServingEngine &eng, const Window &win,
            RequestStream &stream,
            const std::vector<std::vector<int>> &expected,
            unsigned vocab)
{
    Check c;
    c.attempted = win.sent.size();
    for (const Sent &s : win.sent) {
        const RequestStats &st = eng.stats(s.id);
        const std::vector<int> &out = eng.generated(s.id);
        bool ok = st.state == RequestState::Finished &&
                  out.size() == stream.at(s.index).maxNew;
        for (int t : out)
            ok = ok && t >= 0 && static_cast<unsigned>(t) < vocab;
        if (s.index < expected.size() && out != expected[s.index]) {
            std::fprintf(stderr,
                         "serve_bench: request %zu diverged from the "
                         "single-sequence reference\n", s.index);
            c.correct = false;
        }
        if (!ok)
            ++c.failed;
    }
    for (size_t i = 0; i < expected.size(); ++i)
        if (i >= win.sent.size()) {
            std::fprintf(stderr,
                         "serve_bench: checked request %zu was never "
                         "sent\n", i);
            c.correct = false;
        }
    if (c.failed)
        c.correct = false;
    if (!c.correct)
        c.failed = c.attempted; // a mismatch fails the whole run
    return c;
}

/** Generator lateness samples (due -> submit), seconds. */
std::vector<double>
lags(const Window &win)
{
    std::vector<double> v;
    for (const Sent &s : win.sent)
        v.push_back(seconds(s.submitNs - s.dueNs));
    return v;
}

/** Tokens streamed while the generator was sending, per second. */
double
tokensPerS(const Window &win)
{
    if (win.sendingTokens == 0)
        return 0.0;
    return static_cast<double>(win.sendingTokens) /
           seconds(win.sendingEndNs - win.startNs);
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut = "serve_bench_trace.json";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (k == "--trace-out")
            a.traceOut = v;
        else {
            std::fprintf(stderr, "serve_bench: unknown flag %s\n",
                         k.c_str());
            std::exit(2);
        }
    }
    if (argc % 2 == 0 || !(a.seconds > 0.0)) {
        std::fprintf(stderr,
                     "usage: serve_bench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--trace-out PATH]\n");
        std::exit(2);
    }
    return a;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const Workload *wp = nullptr;
    for (const Workload &w : kWorkloads)
        if (args.workload == w.name)
            wp = &w;
    if (!wp) {
        std::fprintf(stderr, "serve_bench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const Workload &w = *wp;
    // Every workload serves the same model: 3 blocks, d=192, vocab 512.
    const model::ModelConfig mc = model::llama2_7b();
    const unsigned lanes = benchLanes();

    // A traced run splits its time between the untraced pass and the
    // traced replay of the same schedule.
    const double window_s = args.trace ? args.seconds / 2 : args.seconds;
    RequestStream stream(w, mc.vocab, args.seed);
    std::vector<double> schedule;
    if (w.openLoop)
        schedule = poissonSchedule(w.ratePerS, window_s, args.seed);

    // Expected outputs and quality, before anything is timed.
    const Reference ref = reference(mc, w, lanes, stream);

    std::printf("servebench %s seed=%llu seconds=%g lanes=%u isa=%s "
                "codec=%s trace=%d\n",
                w.name, static_cast<unsigned long long>(args.seed),
                args.seconds, lanes, activeSimdIsaName(),
                packedCodecName(w.codec), args.trace ? 1 : 0);

    std::vector<double> setups;
    std::unique_ptr<ServingEngine> eng;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        eng.reset();
        uint64_t t0 = nowNanos();
        eng = setupEngine(mc, w, lanes);
        setups.push_back(seconds(nowNanos() - t0));
    }

    Window win = runWindow(*eng, w, stream, schedule, window_s);
    Check check = checkWindow(*eng, win, stream, ref.expected, mc.vocab);
    std::vector<double> lag = lags(win);
    double lag_p99 = quantile(lag, 0.99);

    std::vector<double> ttft;
    for (const Sent &s : win.sent)
        ttft.push_back(
            seconds(eng->stats(s.id).firstTokenNs - s.dueNs));
    const auto &lat = eng->tokenLatencies();
    std::vector<double> itl(
        lat.begin() + static_cast<std::ptrdiff_t>(win.latencyBase),
        lat.begin() + static_cast<std::ptrdiff_t>(win.latencyEnd));
    double tps = tokensPerS(win);

    Metrics m;
    std::string detail;
    if (!args.trace) {
        m.add("output_tokens_per_s", tps, "tokens/s");
        m.add("ttft_p50_s", quantile(ttft, 0.5), "s");
        m.add("ttft_tail_s", quantile(ttft, w.ttftTailQ), "s");
        m.add("itl_p50_s", quantile(itl, 0.5), "s");
        m.add("itl_tail_s", quantile(itl, w.itlTailQ), "s");
        m.add("ok_frac",
              1.0 - static_cast<double>(check.failed) /
                        static_cast<double>(check.attempted),
              "frac");
        m.add("logit_rel_rmse", ref.logitRelRmse, "ratio");
        m.add("kv_bytes_per_token", win.liveBytes / win.cachedRows,
              "B/token");
        m.add("peak_rss_mib", peakRssMiB(), "MiB");
        m.add("setup_s", quantile(setups, 0.5), "s");
    } else {
        // The traced pass replays the same schedule on a fresh engine
        // with the trace and the metrics registry on.
        eng.reset();
        auto teng = setupEngine(mc, w, lanes);
        telemetry::setMetricsEnabled(true);
        telemetry::MetricRegistry::global().reset();
        telemetry::traceStart(args.traceOut);
        uint64_t t0 = nowNanos();
        Window twin = runWindow(*teng, w, stream, schedule, window_s);
        double traced_wall = seconds(nowNanos() - t0);
        size_t events = telemetry::traceStop();
        telemetry::setMetricsEnabled(false);
        Check tcheck =
            checkWindow(*teng, twin, stream, ref.expected, mc.vocab);
        check.correct = check.correct && tcheck.correct;
        check.failed += tcheck.failed;
        check.attempted += tcheck.attempted;
        std::vector<double> tlag = lags(twin);
        lag_p99 = std::max(lag_p99, quantile(tlag, 0.99));

        const auto &reg = telemetry::MetricRegistry::global();
        auto counter = [&](const char *name) {
            const telemetry::Counter *c = reg.findCounter(name);
            return c ? static_cast<double>(c->value()) : 0.0;
        };
        auto hcount = [&](const char *name) {
            const telemetry::Histogram *h = reg.findHistogram(name);
            return h ? static_cast<double>(h->count()) : 0.0;
        };
        double busy = static_cast<double>(
            reg.counterSumByPrefix("pool.lane"));
        double inline_jobs = counter("pool.jobs_inline");
        double pooled_jobs = counter("pool.jobs_submitted");

        m.add("gen.sent", static_cast<double>(twin.sent.size()),
              "count");
        m.add("gen.ok",
              static_cast<double>(twin.sent.size() - tcheck.failed),
              "count");
        m.add("gen.failed", static_cast<double>(tcheck.failed),
              "count");
        m.add("gen.lag_p99_s", quantile(tlag, 0.99), "s");
        m.add("serving.preemptions",
              static_cast<double>(teng->preemptionCount()), "count");
        m.add("linear.rows_per_call",
              counter("linear.forward_rows") /
                  std::max(1.0, hcount("linear.quantize_ns")),
              "rows");
        m.add("arena.occupancy_mean",
              twin.occSum / std::max<double>(1.0, twin.steps), "frac");
        m.add("arena.occupancy_peak", twin.occPeak, "frac");
        m.add("arena.high_water_pages",
              static_cast<double>(teng->arena().highWaterPages()),
              "pages");
        m.add("pool.utilization", 1e-9 * busy / (lanes * traced_wall),
              "frac");
        m.add("pool.inline_frac",
              inline_jobs / std::max(1.0, inline_jobs + pooled_jobs),
              "frac");
        double traced_tps = tokensPerS(twin);
        m.add("trace_overhead_frac", 1.0 - traced_tps / tps, "frac");
        m.add("machine.triad_gbps", triadGbps(lanes), "GB/s");
        m.add("machine.fma_gflops", fmaGflops(lanes), "GFLOP/s");
        detail = strFormat(", \"trace_events\": %zu, "
                           "\"untraced_tokens_per_s\": %.6g, "
                           "\"traced_tokens_per_s\": %.6g",
                           events, tps, traced_tps);
    }
    if (lag_p99 > kMaxLagS) {
        std::fprintf(stderr,
                     "serve_bench: generator fell behind its schedule "
                     "(lag p99 %.3f s > %.3f s); run invalid\n",
                     lag_p99, kMaxLagS);
        check.correct = false;
    }

    detail = strFormat(
        "\"workload\": \"%s\", \"lanes\": %u, \"isa\": \"%s\", "
        "\"codec\": \"%s\", \"bits_per_element\": %.4g, "
        "\"kv_dim\": %u, \"layers\": %u, \"max_batch\": %zu, "
        "\"ttft_tail_pct\": %.4g, \"ttft_samples\": %zu, "
        "\"itl_tail_pct\": %.4g, \"itl_samples\": %zu, "
        "\"gen_lag_p99_s\": %.6g, \"setup_samples\": %d",
        w.name, lanes, activeSimdIsaName(), packedCodecName(w.codec),
        packedCodecInfo(w.codec).bitsPerElement, mc.kvDim(),
        mc.nLayers, w.maxBatch, 100.0 * w.ttftTailQ, ttft.size(),
        100.0 * w.itlTailQ, itl.size(), lag_p99, kSetupReps) + detail;

    std::printf("requests %zu (failed %zu), ttft tail p%.4g over %zu, "
                "itl tail p%.4g over %zu, lag p99 %.3g s\n",
                check.attempted, check.failed, 100.0 * w.ttftTailQ,
                ttft.size(), 100.0 * w.itlTailQ, itl.size(), lag_p99);
    m.print();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s, \"detail\": {%s}}\n",
                check.correct ? "true" : "false", check.attempted,
                check.failed, m.json().c_str(), detail.c_str());
    return 0;
}
