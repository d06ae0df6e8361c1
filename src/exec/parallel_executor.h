/**
 * @file
 * Deterministic thread-pool executor for the simulator's embarrassingly
 * parallel sub-tile loops. No work stealing: work item ranges are split
 * into one contiguous shard per worker, fixed by (n, threads) alone, so
 * any per-shard partial results can be merged in shard order and the
 * final result is bit-identical for every thread count (including 1).
 * This is rule 1 of the determinism contract in docs/ARCHITECTURE.md.
 *
 * Thread safety: run() may be called from any thread, including
 * concurrently — calls are serialized internally (one loop at a time).
 * It must not be re-entered: a call from inside a shard callback (on
 * the caller's thread or a pool worker) would wait on itself forever,
 * so it panics instead.
 * The shard callback runs concurrently on pool workers and must only
 * write shard- or slot-local state; shardBusyNanos()/runsCompleted()
 * are maintenance counters to be read only between run() calls.
 */

#ifndef TA_EXEC_PARALLEL_EXECUTOR_H
#define TA_EXEC_PARALLEL_EXECUTOR_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ta {

class ParallelExecutor
{
  public:
    /**
     * Shard callback: process items [begin, end) as shard `shard` of
     * threads() total. Shards never overlap and cover [0, n) exactly.
     */
    using ShardFn = std::function<void(int shard, size_t begin,
                                       size_t end)>;

    /** threads <= 0 resolves through defaultThreads(). */
    explicit ParallelExecutor(int threads = 0);
    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    int threads() const { return threads_; }

    /**
     * Run fn over [0, n) split into threads() contiguous shards; shard
     * s always covers [shardBegin(n, s), shardBegin(n, s + 1)).
     * Blocks until every shard finished; rethrows the first worker
     * exception. Calls are serialized: the pool runs one loop at a time.
     * A re-entrant call (from inside this pool's run()) panics.
     */
    void run(size_t n, const ShardFn &fn);

    /** First item of shard `shard` when n items split `shards` ways. */
    static size_t shardBegin(size_t n, int shard, int shards);

    /**
     * Thread-count default: the TA_THREADS environment variable when
     * set (>= 1), otherwise 1 — simulation results never depend on it,
     * only wall-clock time does.
     */
    static int defaultThreads();

    /** Cumulative busy nanoseconds per worker (utilization counter). */
    const std::vector<uint64_t> &shardBusyNanos() const
    {
        return busyNanos_;
    }

    /** Number of run() invocations so far. */
    uint64_t runsCompleted() const { return runs_; }

  private:
    void workerLoop(int worker);
    void runShard(int shard, const ShardFn &fn);

    int threads_;
    std::vector<std::thread> workers_;
    std::vector<uint64_t> busyNanos_;
    uint64_t runs_ = 0;

    // Job hand-off state, guarded by mu_.
    std::mutex mu_;
    std::mutex callMu_; ///< serializes concurrent run() calls
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    const ShardFn *job_ = nullptr;
    size_t jobItems_ = 0;
    uint64_t generation_ = 0;
    int pending_ = 0;
    bool stop_ = false;
    std::exception_ptr firstError_;
};

} // namespace ta

#endif // TA_EXEC_PARALLEL_EXECUTOR_H
