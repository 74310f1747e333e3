/**
 * @file
 * Fixed-size worker pool for embarrassingly parallel simulation work:
 * independent scenario replications, sweep grids, bench trial
 * fan-out, and (through TaskGroup) per-step engine stepping. Tasks
 * must not submit further tasks and then block on them from inside
 * a worker (classic self-deadlock); the intended
 * pattern is a driver thread submitting leaf work. parallelFor /
 * parallelChunks enforce the rule at runtime (they assert the caller
 * is not one of this pool's own workers), and the queue state is
 * annotated for clang's thread-safety analysis (scripts/check.sh
 * build-clang leg).
 */

#ifndef TAPAS_COMMON_THREADPOOL_HH
#define TAPAS_COMMON_THREADPOOL_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/thread_annotations.hh"

namespace tapas {

/** Work-queue thread pool; destruction drains and joins. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 = hardware concurrency. */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const
    { return static_cast<unsigned>(workers.size()); }

    /**
     * Process-wide shared pool (hardware concurrency), created on
     * first use. For coarse construction-time parallelism (batched
     * profile refits) where plumbing a pool through every
     * constructor is not worth it, and for the request-level
     * step's engine fan-out. Callers go through sharedForFanOut(),
     * which falls back to serial execution inside a pool (sweep
     * jobs construct simulators on worker threads).
     */
    static ThreadPool &shared();

    /** True when the calling thread is any ThreadPool's worker. */
    static bool onWorkerThread();

    /**
     * The shared pool where fanning out can pay, else null (run
     * serially): null on a pool worker (sweep jobs; nested blocking
     * could deadlock) or when the shared pool has one worker.
     */
    static ThreadPool *sharedForFanOut();

    /** Enqueue a task; the future carries its result/exception. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> result = task->get_future();
        {
            MutexLock lock(queueMutex);
            queue.emplace_back([task]() { (*task)(); });
        }
        queueCv.notify_one();
        return result;
    }

    /**
     * Run fn(index) for every index in [0, count), distributing
     * fixed chunks across the pool; blocks until all complete. The
     * chunking is deterministic in @p chunks (not in thread count),
     * so per-chunk seeding yields machine-independent results.
     * @p chunks 0 picks 4 chunks per worker.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn,
                     std::size_t chunks = 0);

    /**
     * Chunk-granular variant: fn(chunk_index, begin, end) per chunk.
     * Use when each chunk carries its own state (e.g. an Rng seeded
     * by chunk index). Asserts the caller is not one of this pool's
     * own workers: blocking on futures served by the queue you are
     * currently draining is the self-deadlock the file comment bans.
     */
    void parallelChunks(
        std::size_t count,
        const std::function<void(std::size_t, std::size_t,
                                 std::size_t)> &fn,
        std::size_t chunks = 0);

  private:
    std::vector<std::thread> workers;
    Mutex queueMutex;
    std::deque<std::function<void()>> queue
        TAPAS_GUARDED_BY(queueMutex);
    bool stopping TAPAS_GUARDED_BY(queueMutex) = false;
    /** _any: waits on the annotated UniqueLock, not std::mutex. */
    std::condition_variable_any queueCv;

    void workerLoop();
};

/**
 * Fork-join group over a pool: run() hands tasks to the pool, wait()
 * joins them. wait() claims and runs on the caller every task no
 * worker has started yet, so the join never idles while work is
 * queued; it drains every task before it rethrows the first
 * exception. Without a pool, run() executes the task inline (its
 * exception propagates from run()). A group must be waited on (the
 * destructor joins) by the thread that created it.
 */
class TaskGroup
{
  public:
    /** @param pool where tasks run; null runs each one inline. */
    explicit TaskGroup(ThreadPool *pool) : pool(pool) {}
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    void run(std::function<void()> fn);

    /** Join every task; rethrow the first exception, if any. */
    void wait();

  private:
    struct Task
    {
        /** Set by whichever thread (worker or waiter) runs it. */
        std::atomic<bool> claimed{false};
        std::packaged_task<void()> work;
    };
    struct Pending
    {
        std::shared_ptr<Task> task;
        std::future<void> done;
    };

    ThreadPool *pool;
    std::vector<Pending> pending;
};

} // namespace tapas

#endif // TAPAS_COMMON_THREADPOOL_HH
