/**
 * @file
 * Determinism of the request-level step's pipeline: the next step's
 * arrivals are generated and the engines of a routed endpoint step on
 * the shared pool while the next endpoint routes, and a simulator
 * driven from a pool worker takes the serial path instead. Both must
 * stay stateDigest-identical after every step, across a save ->
 * restore mid-run and at the last boundary before the horizon.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common/threadpool.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"

namespace tapas {
namespace {

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

TEST(RequestPipeline, FanOutMatchesSerialAfterEveryStep)
{
    SimConfig cfg = realClusterScenario(31).asTapas();
    cfg.horizon = 12 * kMinute;
    const int total = static_cast<int>(cfg.horizon / cfg.stepLength);
    const int save_at = 5;

    // Tasks of a pool take the serial path (no fan-out from a worker);
    // this thread fans out over the shared pool on a multi-core host.
    ThreadPool worker(1);
    const auto on_worker = [&worker](auto fn) {
        return worker.submit(fn).get();
    };

    auto fanned = std::make_unique<ClusterSim>(cfg);
    std::unique_ptr<ClusterSim> serial = on_worker(
        [&cfg]() { return std::make_unique<ClusterSim>(cfg); });
    ASSERT_EQ(fanned->stateDigest(),
              on_worker([&]() { return serial->stateDigest(); }));

    for (int step = 0; step < total; ++step) {
        if (step == save_at) {
            // Each side resumes from its own snapshot in a fresh sim
            // (engines come back through their restore path).
            const std::string fanned_path =
                tmpPath("pipeline_fanned.ckpt");
            const std::string serial_path =
                tmpPath("pipeline_serial.ckpt");
            ASSERT_TRUE(fanned->saveCheckpoint(fanned_path).ok());
            ASSERT_TRUE(on_worker([&]() {
                return serial->saveCheckpoint(serial_path).ok();
            }));
            fanned = std::make_unique<ClusterSim>(cfg);
            ASSERT_TRUE(fanned->restoreCheckpoint(fanned_path).ok());
            serial = on_worker([&]() {
                auto sim = std::make_unique<ClusterSim>(cfg);
                return sim->restoreCheckpoint(serial_path).ok()
                    ? std::move(sim)
                    : nullptr;
            });
            ASSERT_NE(serial, nullptr);
        }
        fanned->runSteps(1);
        const std::uint64_t serial_digest = on_worker([&]() {
            serial->runSteps(1);
            return serial->stateDigest();
        });
        ASSERT_EQ(fanned->stateDigest(), serial_digest)
            << "diverged at step " << step;
    }
    // The run exercised the request path.
    EXPECT_GT(fanned->metrics().requestsCompleted, 0u);
    EXPECT_EQ(fanned->metrics().requestsCompleted,
              serial->metrics().requestsCompleted);
}

TEST(RequestPipeline, RestoreAtTheLastBoundaryEndsEqual)
{
    SimConfig cfg = realClusterScenario(31).asTapas();
    cfg.horizon = 6 * kMinute;
    const int total = static_cast<int>(cfg.horizon / cfg.stepLength);

    ThreadPool worker(1);
    const auto on_worker = [&worker](auto fn) {
        return worker.submit(fn).get();
    };

    // Straight through, then resumed from the boundary before the
    // last step: the next-to-last step prefetched the last window,
    // so the save is taken with that prefetch outstanding, and the
    // last window has none after the restore.
    const auto resumed_digest = [&cfg, total](const char *name) {
        ClusterSim straight(cfg);
        straight.run();
        const std::uint64_t want = straight.stateDigest();
        ClusterSim first(cfg);
        first.runSteps(total - 1);
        EXPECT_FALSE(first.finished());
        const std::string path = tmpPath(name);
        EXPECT_TRUE(first.saveCheckpoint(path).ok());
        ClusterSim resumed(cfg);
        EXPECT_TRUE(resumed.restoreCheckpoint(path).ok());
        resumed.runSteps(total);
        EXPECT_TRUE(resumed.finished());
        EXPECT_EQ(resumed.stateDigest(), want);
        return want;
    };
    const std::uint64_t fanned = resumed_digest("last_fanned.ckpt");
    const std::uint64_t serial = on_worker(
        [&]() { return resumed_digest("last_serial.ckpt"); });
    EXPECT_EQ(fanned, serial);
}

} // namespace
} // namespace tapas
