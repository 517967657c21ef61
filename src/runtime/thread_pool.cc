#include "runtime/thread_pool.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string>

#include "runtime/telemetry.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {

namespace {

/** True while the current thread is executing a job body. */
thread_local bool in_job = false;

/** @{
 * Cached pool metric handles (see telemetry::cachedCounter): null —
 * and unregistered — until metrics are enabled.
 *
 *  - pool.jobs_submitted / pool.jobs_completed: jobs that ran on the
 *    workers; pool.jobs_inline: top-level parallelFor calls that ran
 *    serially (serial pool, tiny range, or contended job slot).
 *  - pool.queue_wait_ns: post-to-pickup latency per worker per job.
 *  - pool.task_run_ns: per-lane busy interval per job (workers and
 *    the participating caller alike).
 *  - pool.lane<N>.busy_ns counters (lane 0 = callers) accumulate the
 *    same intervals per lane for utilization reporting.
 */
std::atomic<telemetry::Counter *> jobsSubmittedSlot{nullptr};
std::atomic<telemetry::Counter *> jobsCompletedSlot{nullptr};
std::atomic<telemetry::Counter *> jobsInlineSlot{nullptr};
std::atomic<telemetry::Counter *> lane0BusySlot{nullptr};
std::atomic<telemetry::Histogram *> queueWaitSlot{nullptr};
std::atomic<telemetry::Histogram *> taskRunSlot{nullptr};
/** @} */

/** Record one lane-busy interval (histogram + per-lane counter). */
void
recordLaneBusy(telemetry::Counter *&lane_busy, unsigned lane,
               uint64_t busy_ns)
{
    if (!lane_busy)
        lane_busy = &telemetry::MetricRegistry::global().counter(
            "pool.lane" + std::to_string(lane) + ".busy_ns");
    lane_busy->add(busy_ns);
    if (auto *h = telemetry::cachedHistogram(taskRunSlot,
                                             "pool.task_run_ns"))
        h->record(busy_ns);
}

/** Lane-busy for the calling thread (lane 0), via the cached slot. */
void
recordCallerBusy(uint64_t busy_ns)
{
    if (auto *c = telemetry::cachedCounter(lane0BusySlot,
                                           "pool.lane0.busy_ns"))
        c->add(busy_ns);
    if (auto *h = telemetry::cachedHistogram(taskRunSlot,
                                             "pool.task_run_ns"))
        h->record(busy_ns);
}

/**
 * One step of a spin-wait, @p i counting from 1. The first steps are
 * CPU pause hints (they free issue slots for the sibling hyperthread
 * and avoid the memory-order flush on exit); later ones yield the
 * core, so a spinning lane costs little when other runnable threads
 * (another process, another pool) need it.
 */
inline void
spinPause(unsigned i)
{
    if (i > 256) {
        std::this_thread::yield();
        return;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Marks the current thread in-job; restores the flag on unwind. */
struct InJobScope
{
    bool outer;
    InJobScope() : outer(!in_job) { in_job = true; }
    ~InJobScope()
    {
        if (outer)
            in_job = false;
    }
};

} // anonymous namespace

unsigned
ThreadPool::defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    unsigned fallback = hw >= 1 ? hw : 1;
    const char *env = std::getenv("M2X_THREADS");
    if (!env)
        return fallback;
    // Full-string validation: trailing garbage ("8x") and
    // out-of-range values (ERANGE) must not be silently accepted.
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE || v < 1) {
        m2x_warn("ignoring bad M2X_THREADS value '%s' (want an "
                 "integer >= 1); using %u threads", env, fallback);
        return fallback;
    }
    return static_cast<unsigned>(std::min(v, 1024l));
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool(unsigned n_threads)
    : nLanes_(n_threads ? n_threads : defaultThreads())
{
    m2x_assert(nLanes_ - 1 <= joinMask,
               "ThreadPool: %u lanes exceed the join counter", nLanes_);
    workers_.reserve(nLanes_ - 1);
    for (unsigned i = 0; i + 1 < nLanes_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i + 1); });
}

ThreadPool::~ThreadPool()
{
    stop_.store(true);
    // Taking the park mutex orders the flag before any parked
    // worker's next predicate check, so the notify cannot be lost.
    { std::lock_guard<std::mutex> lock(parkMutex_); }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::runChunks(Job &job)
{
    for (;;) {
        size_t begin = job.next.fetch_add(job.grain,
                                          std::memory_order_relaxed);
        if (begin >= job.end)
            return;
        size_t end = std::min(begin + job.grain, job.end);
        try {
            (*job.body)(begin, end);
        } catch (...) {
            // First thrower wins the error slot (the write is safe:
            // only the CAS winner touches it, and the caller reads
            // it only after the drain synchronizes with every joined
            // lane). Parking the cursor at the end makes every lane
            // stop handing out chunks, so the drain finishes
            // promptly.
            bool expected = false;
            if (job.failed.compare_exchange_strong(expected, true))
                job.error = std::current_exception();
            job.next.store(job.end, std::memory_order_relaxed);
            return;
        }
    }
}

uint64_t
ThreadPool::awaitEpoch(uint64_t seen)
{
    uint64_t deadline = telemetry::nowNanos() + spinNanos;
    for (unsigned i = 1;; ++i) {
        uint64_t s = state_.load(std::memory_order_acquire);
        if ((s >> epochShift) != seen ||
            stop_.load(std::memory_order_relaxed))
            return s;
        if (i % 16 == 0 && telemetry::nowNanos() >= deadline)
            break;
        spinPause(i);
    }
    // Park. The counter is raised before the predicate reads the
    // epoch (both seq_cst) and the poster bumps the epoch before
    // reading the counter, so either this check sees the new job or
    // the poster sees a sleeper and notifies under the mutex.
    std::unique_lock<std::mutex> lock(parkMutex_);
    parkedWorkers_.fetch_add(1);
    uint64_t s = 0;
    wake_.wait(lock, [&] {
        s = state_.load();
        return (s >> epochShift) != seen || stop_.load();
    });
    parkedWorkers_.fetch_sub(1);
    return s;
}

void
ThreadPool::awaitJoined(unsigned joined)
{
    // Joined lanes are already running (they saw the job open), so
    // this almost always ends inside the spin.
    uint64_t deadline = telemetry::nowNanos() + spinNanos;
    for (unsigned i = 1;; ++i) {
        if (finished_.load(std::memory_order_acquire) == joined)
            return;
        if (i % 16 == 0 && telemetry::nowNanos() >= deadline)
            break;
        spinPause(i);
    }
    std::unique_lock<std::mutex> lock(parkMutex_);
    callerParked_.store(true);
    done_.wait(lock, [&] { return finished_.load() == joined; });
    callerParked_.store(false);
}

void
ThreadPool::workerLoop(unsigned lane)
{
    telemetry::setCurrentThreadName("pool-worker-" +
                                    std::to_string(lane));
    uint64_t seen = 0;
    telemetry::Counter *lane_busy = nullptr;
    for (;;) {
        uint64_t s = awaitEpoch(seen);
        if (stop_.load(std::memory_order_acquire))
            return;
        seen = s >> epochShift;
        // Join the job this epoch names while it is still open. A
        // closed (or already superseded) job is skipped without
        // touching it: its Job object may be gone with the caller's
        // stack frame.
        bool joined = false;
        while ((s & openBit) && (s >> epochShift) == seen) {
            if (state_.compare_exchange_weak(
                    s, s + 1, std::memory_order_acquire,
                    std::memory_order_acquire)) {
                joined = true;
                break;
            }
        }
        if (!joined)
            continue;
        Job &job = *job_.load(std::memory_order_relaxed);
        // Sampled once per job so the begin/end bookkeeping stays
        // paired even if metrics are toggled mid-job.
        const bool instrument = telemetry::metricsEnabled();
        uint64_t t0 = 0;
        if (instrument) {
            t0 = telemetry::nowNanos();
            if (auto *h = telemetry::cachedHistogram(
                    queueWaitSlot, "pool.queue_wait_ns"))
                h->record(t0 - job.postNanos);
        }
        in_job = true;
        runChunks(job);
        in_job = false;
        if (instrument)
            recordLaneBusy(lane_busy, lane,
                           telemetry::nowNanos() - t0);
        // The last touch of the job: after this increment the
        // caller may return and pop the frame that holds it.
        finished_.fetch_add(1);
        if (callerParked_.load()) {
            std::lock_guard<std::mutex> lock(parkMutex_);
            done_.notify_one();
        }
    }
}

void
ThreadPool::parallelFor(size_t begin, size_t end, size_t grain,
                        const std::function<void(size_t, size_t)> &body)
{
    if (begin >= end)
        return;
    m2x_assert(grain >= 1, "parallelFor grain must be positive");

    // Serial pool, tiny range, a nested call from inside a job body
    // (workers are busy with the outer job, so waiting on them could
    // deadlock), or another thread currently owns the workers: run
    // inline on the calling thread.
    std::unique_lock<std::mutex> job_lock(jobMutex_,
                                          std::defer_lock);
    if (workers_.empty() || end - begin <= grain || in_job ||
        !job_lock.try_lock()) {
        // Only a top-level inline call is a "job" worth accounting;
        // nested calls already run inside an accounted interval.
        const bool instrument =
            telemetry::metricsEnabled() && !in_job;
        uint64_t t0 = 0;
        if (instrument) {
            t0 = telemetry::nowNanos();
            if (auto *c = telemetry::cachedCounter(
                    jobsInlineSlot, "pool.jobs_inline"))
                c->add();
        }
        InJobScope scope;
        for (size_t b = begin; b < end; b += grain)
            body(b, std::min(b + grain, end));
        if (instrument)
            recordCallerBusy(telemetry::nowNanos() - t0);
        return;
    }

    const bool instrument = telemetry::metricsEnabled();
    telemetry::TraceSpan span("pool.run");
    if (span.active()) {
        span.arg("begin", begin);
        span.arg("end", end);
        span.arg("grain", grain);
        span.arg("lanes", nLanes_);
    }

    Job job;
    job.body = &body;
    job.next.store(begin, std::memory_order_relaxed);
    job.end = end;
    job.grain = grain;
    if (instrument) {
        job.postNanos = telemetry::nowNanos();
        if (auto *c = telemetry::cachedCounter(
                jobsSubmittedSlot, "pool.jobs_submitted"))
            c->add();
    }
    // Publish: the job pointer and the reset finish count are
    // released by the epoch bump that opens the job.
    job_.store(&job, std::memory_order_relaxed);
    finished_.store(0, std::memory_order_relaxed);
    uint64_t epoch =
        (state_.load(std::memory_order_relaxed) >> epochShift) + 1;
    state_.store((epoch << epochShift) | openBit);
    if (parkedWorkers_.load() > 0) {
        { std::lock_guard<std::mutex> lock(parkMutex_); }
        wake_.notify_all();
    }

    // The job lives on this stack frame. runChunks never lets an
    // exception escape (failures are captured in the job), so the
    // close and the drain below always run: closing stops further
    // workers from joining, and the drain waits for exactly the
    // lanes that did.
    {
        InJobScope scope;
        uint64_t t0 = instrument ? telemetry::nowNanos() : 0;
        runChunks(job);
        if (instrument)
            recordCallerBusy(telemetry::nowNanos() - t0);
    }
    unsigned joined =
        static_cast<unsigned>(state_.fetch_and(~openBit) & joinMask);
    if (joined)
        awaitJoined(joined);
    job_.store(nullptr, std::memory_order_relaxed);
    if (span.active())
        span.arg("joined", joined);
    if (instrument)
        if (auto *c = telemetry::cachedCounter(
                jobsCompletedSlot, "pool.jobs_completed"))
            c->add();
    // Exception-safe drain contract: a body throw on *any* lane —
    // worker or caller — surfaces here, on the calling thread, after
    // the workers have let go of the job.
    if (job.failed.load(std::memory_order_relaxed))
        std::rethrow_exception(job.error);
}

void
parallelFor(size_t begin, size_t end, size_t grain,
            const std::function<void(size_t, size_t)> &body,
            ThreadPool *pool)
{
    (pool ? *pool : ThreadPool::global())
        .parallelFor(begin, end, grain, body);
}

} // namespace runtime
} // namespace m2x
