#include "exec/parallel_executor.h"

#include <chrono>
#include <cstdlib>

#include "common/logging.h"

namespace ta {

namespace {

uint64_t
nowNanos()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * The pools this thread is inside, innermost first: a pool's own
 * worker threads for their lifetime, a caller for the length of its
 * run(). A run() on any of them from this thread would wait for
 * itself (on callMu_, or on a worker that is this thread).
 */
struct PoolScope
{
    const ParallelExecutor *pool;
    const PoolScope *outer;
};

thread_local const PoolScope *tlsPools = nullptr;

/** Enters `pool` on this thread until destroyed. */
class EnterPool
{
  public:
    explicit EnterPool(const ParallelExecutor *pool)
        : scope_{pool, tlsPools}
    {
        for (const PoolScope *s = tlsPools; s != nullptr; s = s->outer)
            TA_ASSERT(s->pool != pool,
                      "re-entrant ParallelExecutor::run: this thread is "
                      "already inside this pool and would wait on itself");
        tlsPools = &scope_;
    }
    ~EnterPool() { tlsPools = scope_.outer; }

    EnterPool(const EnterPool &) = delete;
    EnterPool &operator=(const EnterPool &) = delete;

  private:
    const PoolScope scope_;
};

} // namespace

int
ParallelExecutor::defaultThreads()
{
    const char *env = std::getenv("TA_THREADS");
    if (env != nullptr) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<int>(v);
        TA_WARN("ignoring TA_THREADS=", env, " (want an integer >= 1)");
    }
    return 1;
}

size_t
ParallelExecutor::shardBegin(size_t n, int shard, int shards)
{
    return n * static_cast<size_t>(shard) / static_cast<size_t>(shards);
}

ParallelExecutor::ParallelExecutor(int threads)
    : threads_(threads >= 1 ? threads : defaultThreads())
{
    busyNanos_.assign(threads_, 0);
    // Worker w handles shard w + 1; shard 0 runs on the calling thread.
    workers_.reserve(threads_ - 1);
    for (int w = 0; w + 1 < threads_; ++w)
        workers_.emplace_back(&ParallelExecutor::workerLoop, this, w);
}

ParallelExecutor::~ParallelExecutor()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
ParallelExecutor::runShard(int shard, const ShardFn &fn)
{
    const size_t begin = shardBegin(jobItems_, shard, threads_);
    const size_t end = shardBegin(jobItems_, shard + 1, threads_);
    const uint64_t t0 = nowNanos();
    fn(shard, begin, end);
    busyNanos_[shard] += nowNanos() - t0;
}

void
ParallelExecutor::workerLoop(int worker)
{
    const int shard = worker + 1;
    const EnterPool inside(this);
    uint64_t seen = 0;
    for (;;) {
        const ShardFn *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            job = job_;
        }
        std::exception_ptr err;
        try {
            runShard(shard, *job);
        } catch (...) {
            err = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (err && !firstError_)
                firstError_ = err;
            if (--pending_ == 0)
                doneCv_.notify_all();
        }
    }
}

void
ParallelExecutor::run(size_t n, const ShardFn &fn)
{
    const EnterPool inside(this);
    std::lock_guard<std::mutex> call(callMu_);
    if (threads_ == 1 || n == 0) {
        jobItems_ = n;
        runShard(0, fn);
        ++runs_;
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        job_ = &fn;
        jobItems_ = n;
        pending_ = threads_ - 1;
        firstError_ = nullptr;
        ++generation_;
    }
    workCv_.notify_all();

    std::exception_ptr err;
    try {
        runShard(0, fn);
    } catch (...) {
        err = std::current_exception();
    }

    std::unique_lock<std::mutex> lock(mu_);
    doneCv_.wait(lock, [&] { return pending_ == 0; });
    job_ = nullptr;
    ++runs_;
    if (!firstError_ && err)
        firstError_ = err;
    if (firstError_) {
        const std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        lock.unlock();
        std::rethrow_exception(e);
    }
}

} // namespace ta
