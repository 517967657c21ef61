/**
 * @file
 * Tests for the runtime ThreadPool: full coverage of ranges, chunk
 * boundaries, nesting, reuse across jobs, and the spin-then-park
 * hand-off protocol (join, close, drain, shutdown). Run under
 * ASan/UBSan and TSan in the CI sanitizer jobs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/telemetry.hh"
#include "runtime/thread_pool.hh"

namespace m2x {
namespace runtime {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(0, hits.size(), 7, [&](size_t b, size_t e) {
        EXPECT_LE(e - b, 7u);
        for (size_t i = b; i < e; ++i)
            hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SerialPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::vector<int> hits(64, 0); // not atomic: must be single-threaded
    pool.parallelFor(0, hits.size(), 8,
                     [&](size_t b, size_t e) {
                         for (size_t i = b; i < e; ++i)
                             ++hits[i];
                     });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ThreadPool, EmptyAndTinyRanges)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> total{0};
    pool.parallelFor(10, 13, 100, [&](size_t b, size_t e) {
        total.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, NonZeroBegin)
{
    ThreadPool pool(3);
    std::atomic<uint64_t> sum{0};
    pool.parallelFor(100, 200, 9, [&](size_t b, size_t e) {
        uint64_t s = 0;
        for (size_t i = b; i < e; ++i)
            s += i;
        sum.fetch_add(s);
    });
    EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2);
}

TEST(ThreadPool, ManySequentialJobsReuseWorkers)
{
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> total{0};
        pool.parallelFor(0, 128, 4, [&](size_t b, size_t e) {
            total.fetch_add(static_cast<int>(e - b));
        });
        ASSERT_EQ(total.load(), 128) << round;
    }
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::atomic<int> inner_total{0};
    pool.parallelFor(0, 8, 1, [&](size_t, size_t) {
        // Nested call must not deadlock waiting on busy workers.
        pool.parallelFor(0, 16, 4, [&](size_t b, size_t e) {
            inner_total.fetch_add(static_cast<int>(e - b));
        });
    });
    EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, ConcurrentCallersFromDifferentThreads)
{
    // Only one caller at a time owns the workers; the others must
    // fall back to inline execution, never corrupt the job slot or
    // deadlock. Exercised under ASan/UBSan in CI.
    ThreadPool pool(4);
    constexpr int n_callers = 3;
    constexpr int rounds = 25;
    std::vector<std::atomic<uint64_t>> sums(n_callers);
    std::vector<std::thread> callers;
    for (int c = 0; c < n_callers; ++c) {
        callers.emplace_back([&, c] {
            for (int round = 0; round < rounds; ++round) {
                pool.parallelFor(0, 256, 8,
                                 [&](size_t b, size_t e) {
                                     for (size_t i = b; i < e; ++i)
                                         sums[c].fetch_add(i);
                                 });
            }
        });
    }
    for (auto &t : callers)
        t.join();
    uint64_t expect = 255u * 256u / 2 * rounds;
    for (int c = 0; c < n_callers; ++c)
        EXPECT_EQ(sums[c].load(), expect) << c;
}

TEST(ThreadPool, ExceptionOnInlinePathLeavesPoolUsable)
{
    // Inline-path throws (serial pool, or a range that fits one
    // chunk) must propagate and restore the in-job state so later
    // jobs still run — including parallel dispatch afterwards.
    ThreadPool serial(1), pool(4);
    auto boom = [](size_t, size_t) {
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(serial.parallelFor(0, 8, 2, boom),
                 std::runtime_error);
    EXPECT_THROW(pool.parallelFor(0, 2, 8, boom),
                 std::runtime_error);
    for (ThreadPool *p : {&serial, &pool}) {
        std::atomic<int> total{0};
        p->parallelFor(0, 256, 8, [&](size_t b, size_t e) {
            total.fetch_add(static_cast<int>(e - b));
        });
        EXPECT_EQ(total.load(), 256);
    }
}

TEST(ThreadPool, ExceptionOnWorkerLaneRethrownOnCaller)
{
    // Regression: a body throw on a *worker* lane used to escape
    // workerLoop and std::terminate the process. The contract is the
    // exception-safe drain: capture the first exception, finish the
    // job on every lane, rethrow on the calling thread.
    ThreadPool pool(4);
    std::atomic<bool> worker_threw{false};
    std::thread::id caller = std::this_thread::get_id();
    try {
        pool.parallelFor(0, 1000, 1, [&](size_t, size_t) {
            if (std::this_thread::get_id() == caller) {
                // Pin the calling lane until a worker has thrown, so
                // the caller cannot drain the whole range by itself
                // and the throw is guaranteed to happen off-caller.
                while (!worker_threw.load())
                    std::this_thread::yield();
            } else {
                worker_threw.store(true);
                throw std::runtime_error("worker boom");
            }
        });
        FAIL() << "expected the worker exception on the caller";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "worker boom");
        EXPECT_EQ(std::this_thread::get_id(), caller);
    }
    EXPECT_TRUE(worker_threw.load());

    // The drain must leave the pool fully usable, including
    // parallel dispatch of later jobs.
    std::atomic<int> total{0};
    pool.parallelFor(0, 256, 8, [&](size_t b, size_t e) {
        total.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(total.load(), 256);
}

TEST(ThreadPool, FirstOfManyConcurrentExceptionsWins)
{
    // Every lane throws; exactly one exception must surface (any of
    // them), the others are dropped, and nothing terminates.
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> started{0};
        EXPECT_THROW(
            pool.parallelFor(0, 64, 1,
                             [&](size_t b, size_t) {
                                 started.fetch_add(1);
                                 throw std::out_of_range(
                                     "lane " + std::to_string(b));
                             }),
            std::out_of_range)
            << round;
        EXPECT_GE(started.load(), 1) << round;
    }
}

/** Long enough for every idle worker to pass the spin and park. */
void
letWorkersPark()
{
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(4 * ThreadPool::spinNanos) +
        std::chrono::milliseconds(2));
}

TEST(ThreadPool, LateWorkerNeverRunsAClosedJob)
{
    // A worker that wakes after its job closed must skip it: the
    // job (and the body it points to) lives on the caller's stack
    // and is gone once parallelFor returns. Each job's body checks
    // that its own job is still the live one; a late worker running
    // a stale job would see a newer job id or a finished flag.
    ThreadPool pool(4);
    std::atomic<int> live_job{-1};
    std::atomic<int> stale_runs{0};
    for (int round = 0; round < 2000; ++round) {
        if (round % 500 == 0)
            letWorkersPark(); // exercise wake-from-park too
        std::atomic<bool> returned{false};
        live_job.store(round);
        std::atomic<int> covered{0};
        pool.parallelFor(0, 8, 1, [&, round](size_t b, size_t e) {
            if (live_job.load() != round || returned.load())
                stale_runs.fetch_add(1);
            covered.fetch_add(static_cast<int>(e - b));
        });
        returned.store(true);
        ASSERT_EQ(covered.load(), 8) << round;
    }
    EXPECT_EQ(stale_runs.load(), 0);
}

TEST(ThreadPool, CallerDoesNotWaitForLanesThatNeverJoined)
{
    // Parked workers take a kernel wake-up to see a new job; a tiny
    // job the caller drains by itself must close and return without
    // them. Worker lanes that join record pool.queue_wait_ns, so its
    // sample count is the number of worker joins: a pool that waited
    // for every worker would record 3 per job here, while a job that
    // closes before a parked worker wakes records none.
    auto &reg = telemetry::MetricRegistry::global();
    bool was_enabled = telemetry::metricsEnabled();
    telemetry::setMetricsEnabled(true);
    ThreadPool pool(4);
    telemetry::Histogram &joins = reg.histogram("pool.queue_wait_ns");
    constexpr int jobs = 40;
    uint64_t before = joins.count();
    for (int j = 0; j < jobs; ++j) {
        letWorkersPark();
        std::atomic<int> total{0};
        pool.parallelFor(0, 2, 1, [&](size_t b, size_t e) {
            total.fetch_add(static_cast<int>(e - b));
        });
        ASSERT_EQ(total.load(), 2);
    }
    uint64_t worker_joins = joins.count() - before;
    telemetry::setMetricsEnabled(was_enabled);
    EXPECT_LT(worker_joins, uint64_t{3} * jobs);
}

TEST(ThreadPool, HundredThousandTinyJobsBackToBack)
{
    ThreadPool pool(4);
    uint64_t total = 0;
    for (int j = 0; j < 100000; ++j) {
        std::atomic<uint64_t> sum{0};
        pool.parallelFor(0, 4, 1, [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i)
                sum.fetch_add(i + 1);
        });
        total += sum.load();
    }
    EXPECT_EQ(total, uint64_t{10} * 100000);
}

TEST(ThreadPool, WorkerExceptionAfterParkingStillRethrows)
{
    // The exception-safe drain across a park/wake cycle: the
    // throwing lane is a worker woken from its condition variable.
    ThreadPool pool(2);
    std::thread::id caller = std::this_thread::get_id();
    for (int round = 0; round < 3; ++round) {
        letWorkersPark();
        std::atomic<bool> worker_threw{false};
        try {
            pool.parallelFor(0, 2, 1, [&](size_t, size_t) {
                if (std::this_thread::get_id() == caller) {
                    while (!worker_threw.load())
                        std::this_thread::yield();
                } else {
                    worker_threw.store(true);
                    throw std::runtime_error("parked boom");
                }
            });
            FAIL() << "expected the worker exception on the caller";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "parked boom");
        }
    }
}

TEST(ThreadPool, DestructionJoinsSpinningAndParkedWorkersPromptly)
{
    using clock = std::chrono::steady_clock;
    auto run_one = [](ThreadPool &pool) {
        std::atomic<int> total{0};
        pool.parallelFor(0, 64, 1, [&](size_t b, size_t e) {
            total.fetch_add(static_cast<int>(e - b));
        });
        EXPECT_EQ(total.load(), 64);
    };
    // Spinning: destroyed right after a job, inside the spin window.
    for (int i = 0; i < 20; ++i) {
        auto t0 = clock::now();
        {
            ThreadPool pool(4);
            run_one(pool);
        }
        EXPECT_LT(clock::now() - t0, std::chrono::seconds(2));
    }
    // Parked: destroyed long after the spin window closed.
    auto t0 = clock::now();
    {
        ThreadPool pool(4);
        run_one(pool);
        letWorkersPark();
        t0 = clock::now();
    }
    EXPECT_LT(clock::now() - t0, std::chrono::seconds(2));
    // Never used: workers park without ever seeing a job.
    t0 = clock::now();
    {
        ThreadPool pool(4);
    }
    EXPECT_LT(clock::now() - t0, std::chrono::seconds(2));
}

namespace {

/** Sets (or unsets, for nullptr) an env var; restores on scope exit. */
struct ScopedEnv
{
    std::string name;
    std::string saved;
    bool had;

    ScopedEnv(const char *n, const char *value) : name(n)
    {
        const char *old = std::getenv(n);
        had = old != nullptr;
        if (had)
            saved = old;
        if (value)
            setenv(n, value, 1);
        else
            unsetenv(n);
    }
    ~ScopedEnv()
    {
        if (had)
            setenv(name.c_str(), saved.c_str(), 1);
        else
            unsetenv(name.c_str());
    }
};

unsigned
hwFallback()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

} // anonymous namespace

TEST(ThreadPool, DefaultThreadsHonorsValidEnv)
{
    ScopedEnv env("M2X_THREADS", "8");
    EXPECT_EQ(ThreadPool::defaultThreads(), 8u);
}

TEST(ThreadPool, DefaultThreadsClampsHugeValues)
{
    ScopedEnv env("M2X_THREADS", "4096");
    EXPECT_EQ(ThreadPool::defaultThreads(), 1024u);
}

TEST(ThreadPool, DefaultThreadsRejectsTrailingGarbage)
{
    // Regression: strtol(env, nullptr, 10) silently accepted "8x".
    ScopedEnv env("M2X_THREADS", "8x");
    EXPECT_EQ(ThreadPool::defaultThreads(), hwFallback());
}

TEST(ThreadPool, DefaultThreadsRejectsZeroNegativeAndEmpty)
{
    {
        ScopedEnv env("M2X_THREADS", "0");
        EXPECT_EQ(ThreadPool::defaultThreads(), hwFallback());
    }
    {
        ScopedEnv env("M2X_THREADS", "-3");
        EXPECT_EQ(ThreadPool::defaultThreads(), hwFallback());
    }
    {
        ScopedEnv env("M2X_THREADS", "");
        EXPECT_EQ(ThreadPool::defaultThreads(), hwFallback());
    }
    {
        ScopedEnv env("M2X_THREADS", "threads");
        EXPECT_EQ(ThreadPool::defaultThreads(), hwFallback());
    }
}

TEST(ThreadPool, DefaultThreadsRejectsOverflow)
{
    // Regression: ERANGE was not detected, so LONG_MAX saturation
    // produced a silently-clamped bogus lane count.
    ScopedEnv env("M2X_THREADS", "99999999999999999999999999");
    EXPECT_EQ(ThreadPool::defaultThreads(), hwFallback());
}

TEST(ThreadPool, DefaultThreadsUnsetUsesHardware)
{
    ScopedEnv env("M2X_THREADS", nullptr);
    EXPECT_EQ(ThreadPool::defaultThreads(), hwFallback());
}

TEST(ThreadPool, FreeFunctionUsesGlobalPool)
{
    std::atomic<int> total{0};
    parallelFor(0, 33, 5, [&](size_t b, size_t e) {
        total.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(total.load(), 33);
}

TEST(ThreadPool, DefaultThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

} // anonymous namespace
} // namespace runtime
} // namespace m2x
