/**
 * @file
 * Checkpoint restore-equivalence property suite: for N randomly
 * chosen step boundaries, under both policies, with stochastic
 * faults and sensor corruption live, a run restored at that boundary
 * must be bit-identical to the straight-through run — on
 * stateDigest() at the restore point, on stateDigest() at the
 * horizon, and on the full serialized metric state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/serialize.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"

namespace tapas {
namespace {

std::string
tmpPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + name;
}

std::vector<std::uint8_t>
metricsBytes(const SimMetrics &metrics)
{
    SimMetrics copy = metrics;
    Archive ar = Archive::writer();
    copy.checkpointState(ar);
    EXPECT_TRUE(ar.ok());
    return ar.takeBuffer();
}

/** 4h small-cluster scenario with every fault class live. */
SimConfig
faultyScenario(std::uint64_t seed)
{
    SimConfig cfg = smallTestScenario(seed);
    cfg.horizon = 4 * kHour;
    cfg.vmTrace.horizon = 4 * kHour;
    cfg.policy.sensorQuarantineEnabled = true;
    // Aggressive rates so faults actually fire inside 4 hours.
    cfg.faults.ahu.mtbfS = 4.0 * static_cast<double>(kHour);
    cfg.faults.ahu.mttrS = static_cast<double>(kHour);
    cfg.faults.sensor.mtbfS = 2.0 * static_cast<double>(kHour);
    cfg.faults.sensor.mttrS = static_cast<double>(kHour);
    ScriptedFault chiller;
    chiller.kind = FaultKind::Chiller;
    chiller.at = kHour;
    chiller.until = 3 * kHour;
    chiller.remainingFrac = 0.8;
    cfg.faults.scripted.push_back(chiller);
    // The paper's power emergency (UPS at 75%), live across both of
    // ChainedRestoresStayExact's checkpoints, so restores carry a
    // UPS derate as well as aisle derates.
    ScriptedFault ups;
    ups.kind = FaultKind::Ups;
    ups.target = 0;
    ups.at = kHour;
    ups.until = 7 * kHour / 2;
    ups.remainingFrac = 0.75;
    cfg.faults.scripted.push_back(ups);
    return cfg;
}

class CheckpointRestoreEquivalence
    : public ::testing::TestWithParam<bool> // true = TAPAS policy
{
};

TEST_P(CheckpointRestoreEquivalence, RestoreAtRandomEpochsIsExact)
{
    const bool tapas_policy = GetParam();
    const SimConfig cfg = tapas_policy
        ? faultyScenario(601).asTapas()
        : faultyScenario(601).asBaseline();
    const int total =
        static_cast<int>(cfg.horizon / cfg.stepLength);

    // Straight-through reference plus its per-boundary digests.
    ClusterSim reference(cfg);
    reference.run();
    const std::uint64_t final_digest = reference.stateDigest();
    const std::vector<std::uint8_t> final_metrics =
        metricsBytes(reference.metrics());

    // N random interior step boundaries (deterministic stream so
    // failures reproduce).
    Rng rng(tapas_policy ? 0xc0ffee01u : 0xc0ffee02u);
    constexpr int kBoundaries = 6;
    for (int trial = 0; trial < kBoundaries; ++trial) {
        const int boundary = 1 + static_cast<int>(
            rng.uniformInt(0, total - 2));
        SCOPED_TRACE("restore at step " +
                     std::to_string(boundary));
        const std::string path = tmpPath(
            std::string("ckpt_prop_") +
            (tapas_policy ? "tapas_" : "base_") +
            std::to_string(trial) + ".tapasckp");

        ClusterSim writer(cfg);
        writer.runSteps(boundary);
        ASSERT_TRUE(writer.saveCheckpoint(path).ok());

        ClusterSim restored(cfg);
        ASSERT_TRUE(restored.restoreCheckpoint(path).ok());
        ASSERT_EQ(restored.stateDigest(), writer.stateDigest());

        restored.runSteps(total - boundary);
        ASSERT_TRUE(restored.finished());
        EXPECT_EQ(restored.stateDigest(), final_digest);
        EXPECT_EQ(metricsBytes(restored.metrics()), final_metrics);
        removeFileIfExists(path);
    }
}

TEST_P(CheckpointRestoreEquivalence, ChainedRestoresStayExact)
{
    // Restore-of-a-restore: checkpoint at T1, restore, run to T2,
    // checkpoint again, restore again, finish. Error would compound
    // if any restore were only approximately faithful.
    const bool tapas_policy = GetParam();
    const SimConfig cfg = tapas_policy
        ? faultyScenario(603).asTapas()
        : faultyScenario(603).asBaseline();
    const int total =
        static_cast<int>(cfg.horizon / cfg.stepLength);
    const int t1 = total / 3;
    const int t2 = 2 * total / 3;
    const std::string path = tmpPath(
        std::string("ckpt_chain_") +
        (tapas_policy ? "tapas" : "base") + ".tapasckp");

    ClusterSim reference(cfg);
    reference.run();

    ClusterSim first(cfg);
    first.runSteps(t1);
    ASSERT_DOUBLE_EQ(first.powerHierarchy().upsDerate(UpsId(0)), 0.75);
    ASSERT_TRUE(first.saveCheckpoint(path).ok());

    ClusterSim second(cfg);
    ASSERT_TRUE(second.restoreCheckpoint(path).ok());
    EXPECT_DOUBLE_EQ(second.powerHierarchy().upsDerate(UpsId(0)),
                     0.75);
    second.runSteps(t2 - t1);
    ASSERT_TRUE(second.powerHierarchy().anyFailure());
    ASSERT_TRUE(second.saveCheckpoint(path).ok());

    ClusterSim third(cfg);
    ASSERT_TRUE(third.restoreCheckpoint(path).ok());
    EXPECT_DOUBLE_EQ(third.powerHierarchy().datacenterDerate(), 0.75);
    third.runSteps(total - t2);
    ASSERT_TRUE(third.finished());

    EXPECT_EQ(third.stateDigest(), reference.stateDigest());
    EXPECT_EQ(metricsBytes(third.metrics()),
              metricsBytes(reference.metrics()));
    removeFileIfExists(path);
}

INSTANTIATE_TEST_SUITE_P(Policies, CheckpointRestoreEquivalence,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>
                                &info) {
                             return info.param ? "Tapas"
                                               : "Baseline";
                         });

} // namespace
} // namespace tapas
