/**
 * @file
 * Unit tests for TaskGroup, the fork-join primitive the request-level
 * step uses to overlap engine stepping with routing: inline execution
 * without a pool or on a pool worker, the caller running unstarted
 * tasks in wait(), and draining every task before the first
 * exception is rethrown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/threadpool.hh"

namespace tapas {
namespace {

TEST(TaskGroup, RunsInlineWithoutAPool)
{
    const std::thread::id caller = std::this_thread::get_id();
    TaskGroup group(nullptr);
    std::vector<int> order;
    group.run([&]() {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(1);
    });
    // Inline: done before run() returns, in submission order.
    EXPECT_EQ(order, std::vector<int>{1});
    group.run([&]() { order.push_back(2); });
    group.wait();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TaskGroup, InlineExceptionPropagatesFromRun)
{
    TaskGroup group(nullptr);
    EXPECT_THROW(group.run([]() { throw std::runtime_error("x"); }),
                 std::runtime_error);
    EXPECT_NO_THROW(group.wait());
}

TEST(TaskGroup, FansOutSeriallyOnAPoolWorker)
{
    ThreadPool pool(2);
    const bool inline_on_worker =
        pool.submit([]() {
                const std::thread::id worker =
                    std::this_thread::get_id();
                // The fan-out rule: no shared pool on a worker.
                if (ThreadPool::sharedForFanOut() != nullptr)
                    return false;
                TaskGroup group(ThreadPool::sharedForFanOut());
                bool same_thread = true;
                for (int i = 0; i < 8; ++i) {
                    group.run([&]() {
                        same_thread = same_thread &&
                            std::this_thread::get_id() == worker;
                    });
                }
                group.wait();
                return same_thread;
            })
            .get();
    EXPECT_TRUE(inline_on_worker);
}

TEST(TaskGroup, WaitRunsUnstartedTasksOnTheCaller)
{
    // Park the pool's only worker so nothing queued can start; wait()
    // must then run every task itself instead of idling. (A wait()
    // that idles is released by the timeout, and the tasks then run
    // on the worker.)
    ThreadPool pool(1);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> parked;
    pool.submit([&parked, released]() {
        parked.set_value();
        released.wait_for(std::chrono::seconds(5));
    });
    parked.get_future().wait();

    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on(5);
    TaskGroup group(&pool);
    for (std::size_t i = 0; i < ran_on.size(); ++i)
        group.run([&ran_on, i]() {
            ran_on[i] = std::this_thread::get_id();
        });
    group.wait();
    for (const std::thread::id &id : ran_on)
        EXPECT_EQ(id, caller);
    release.set_value();
}

TEST(TaskGroup, EveryTaskRunsExactlyOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> runs(200);
    TaskGroup group(&pool);
    for (std::size_t i = 0; i < runs.size(); ++i)
        group.run([&runs, i]() { runs[i].fetch_add(1); });
    group.wait();
    for (const std::atomic<int> &n : runs)
        EXPECT_EQ(n.load(), 1);
    // The group is reusable after a join.
    group.run([&runs]() { runs[0].fetch_add(1); });
    group.wait();
    EXPECT_EQ(runs[0].load(), 2);
}

TEST(TaskGroup, DestructorJoinsTasksLeftUnwaited)
{
    ThreadPool pool(2);
    std::atomic<int> finished{0};
    {
        TaskGroup group(&pool);
        for (int i = 0; i < 6; ++i) {
            group.run([&finished]() {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
                finished.fetch_add(1);
            });
        }
        group.run([]() { throw std::runtime_error("logged"); });
    }
    EXPECT_EQ(finished.load(), 6);
}

TEST(TaskGroup, DrainsEveryTaskBeforeRethrowingTheFirstError)
{
    ThreadPool pool(2);
    std::atomic<int> finished{0};
    std::promise<void> started;
    TaskGroup group(&pool);
    group.run([]() { throw std::runtime_error("first"); });
    // Still running on a worker when the first error is collected.
    group.run([&]() {
        started.set_value();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        finished.fetch_add(1);
    });
    for (int i = 0; i < 4; ++i) {
        group.run([&finished]() {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            finished.fetch_add(1);
        });
    }
    group.run([]() { throw std::runtime_error("second"); });
    started.get_future().wait();
    std::string caught;
    try {
        group.wait();
    } catch (const std::runtime_error &e) {
        caught = e.what();
    }
    EXPECT_EQ(caught, "first");
    // Nothing still runs against this frame once wait() unwinds.
    EXPECT_EQ(finished.load(), 5);
}

} // namespace
} // namespace tapas
