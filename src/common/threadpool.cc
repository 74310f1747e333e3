#include "common/threadpool.hh"

#include <algorithm>
#include <exception>

#include "common/logging.hh"

namespace tapas {

namespace {
/**
 * Pool whose workerLoop owns this thread (null on non-worker
 * threads). Tracking the owning pool — not just a bool — lets
 * parallelChunks distinguish the fatal case (blocking on your own
 * pool's queue from inside it) from the benign one (a worker of pool
 * A fanning out across pool B, whose workers make progress
 * independently).
 */
thread_local const ThreadPool *worker_pool = nullptr;
} // namespace

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

bool
ThreadPool::onWorkerThread()
{
    return worker_pool != nullptr;
}

ThreadPool *
ThreadPool::sharedForFanOut()
{
    if (onWorkerThread())
        return nullptr;
    ThreadPool &pool = shared();
    return pool.size() > 1 ? &pool : nullptr;
}

ThreadPool::ThreadPool(unsigned threads)
{
    unsigned n = threads;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(queueMutex);
        stopping = true;
    }
    queueCv.notify_all();
    for (std::thread &worker : workers)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    worker_pool = this;
    for (;;) {
        std::function<void()> task;
        {
            UniqueLock lock(queueMutex);
            // Manual predicate loop (not wait(lock, pred)): the
            // predicate reads queue/stopping, which the analysis
            // only accepts with queueMutex visibly held — true here,
            // opaque inside a lambda handed to wait().
            while (!stopping && queue.empty())
                queueCv.wait(lock);
            if (queue.empty()) {
                // stopping && drained
                return;
            }
            task = std::move(queue.front());
            queue.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelChunks(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        &fn,
    std::size_t chunks)
{
    if (count == 0)
        return;
    // The ThreadPool self-deadlock rule, enforced: every chunk below
    // waits on a future served by this pool's queue, so blocking
    // here from one of this pool's own workers can wedge the whole
    // pool (all workers parked in f.get(), nobody left to drain).
    tapas_assert(worker_pool != this,
                 "ThreadPool::parallelChunks called from one of this "
                 "pool's own workers (self-deadlock); submit leaf "
                 "work from a driver thread instead");
    std::size_t n = chunks != 0
        ? chunks
        : static_cast<std::size_t>(size()) * 4;
    n = std::clamp<std::size_t>(n, 1, count);

    std::vector<std::future<void>> pending;
    pending.reserve(n);
    const std::size_t per = count / n;
    const std::size_t extra = count % n;
    std::size_t begin = 0;
    for (std::size_t c = 0; c < n; ++c) {
        const std::size_t len = per + (c < extra ? 1 : 0);
        const std::size_t end = begin + len;
        pending.push_back(
            submit([&fn, c, begin, end]() { fn(c, begin, end); }));
        begin = end;
    }
    tapas_assert(begin == count, "chunking must cover the range");
    // Drain every chunk before rethrowing: unwinding while workers
    // still run tasks that reference the caller's frame would be a
    // use-after-free. The first exception wins; later ones drop.
    std::exception_ptr first_error;
    for (std::future<void> &f : pending) {
        try {
            f.get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn,
                        std::size_t chunks)
{
    parallelChunks(
        count,
        [&fn](std::size_t, std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                fn(i);
        },
        chunks);
}

TaskGroup::~TaskGroup()
{
    // Tasks reference the creator's frame: join them even when the
    // group unwinds without wait(), on an exception in the caller.
    // That exception wins; a task's own error is logged.
    try {
        wait();
    } catch (const std::exception &e) {
        warn("task group: a task failed during unwinding: %s",
             e.what());
    } catch (...) {
        warn("task group: a task failed during unwinding");
    }
}

void
TaskGroup::run(std::function<void()> fn)
{
    if (!pool) {
        fn();
        return;
    }
    auto task = std::make_shared<Task>();
    task->work = std::packaged_task<void()>(std::move(fn));
    pending.push_back({task, task->work.get_future()});
    // The queued closure owns the task: it may run after wait() has
    // claimed and finished it (then it only reads the flag).
    pool->submit([task]() {
        if (!task->claimed.exchange(true))
            task->work();
    });
}

void
TaskGroup::wait()
{
    for (Pending &p : pending) {
        if (!p.task->claimed.exchange(true))
            p.task->work();
    }
    std::exception_ptr first_error;
    for (Pending &p : pending) {
        try {
            p.done.get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    pending.clear();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace tapas
