/**
 * @file
 * FaultEngine behavior: scripted window timing with exact plant
 * restore, min-composition of overlapping component faults (chiller
 * floor under every aisle), seed-determinism of the stochastic
 * timeline, and the four sensor corruption modes on both observation
 * paths.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/faults.hh"
#include "fixture.hh"
#include "telemetry/history.hh"

namespace tapas {
namespace {

class FaultEngineFixture : public CoreFixture
{
  protected:
    FaultEngineFixture()
    {
        for (const Aisle &aisle : dc.aisles()) {
            designAirflow.push_back(
                cooling.effectiveProvision(aisle.id).value());
        }
    }

    std::vector<double> designAirflow;
};

TEST_F(FaultEngineFixture, ScriptedWindowAppliesAndRestoresExactly)
{
    FaultPlan plan;
    ScriptedFault ahu;
    ahu.kind = FaultKind::Ahu;
    ahu.target = 0;
    ahu.at = 2 * kHour;
    ahu.until = 5 * kHour;
    ahu.remainingFrac = 0.8;
    plan.scripted.push_back(ahu);
    ScriptedFault ups;
    ups.kind = FaultKind::Ups;
    ups.target = 1;
    ups.at = 3 * kHour;
    ups.until = 5 * kHour;
    ups.remainingFrac = 0.75;
    plan.scripted.push_back(ups);
    const double design_row_w =
        hierarchy.effectiveRowProvision(RowId(0)).value();

    FaultEngine engine(plan, dc, kDay, 7);
    EXPECT_EQ(engine.instanceCount(), 2u);

    engine.advanceTo(0, cooling, hierarchy);
    EXPECT_FALSE(engine.anyComponentFaultActive());
    EXPECT_DOUBLE_EQ(cooling.effectiveProvision(AisleId(0)).value(),
                     designAirflow[0]);

    // The window is [at, until): active at the start edge...
    engine.advanceTo(2 * kHour, cooling, hierarchy);
    EXPECT_TRUE(engine.anyComponentFaultActive());
    EXPECT_DOUBLE_EQ(engine.composedAisleDerate(AisleId(0)), 0.8);
    EXPECT_DOUBLE_EQ(cooling.effectiveProvision(AisleId(0)).value(),
                     designAirflow[0] * 0.8);
    // ...untouched aisles keep design capacity...
    EXPECT_DOUBLE_EQ(cooling.effectiveProvision(AisleId(1)).value(),
                     designAirflow[1]);
    EXPECT_FALSE(hierarchy.anyFailure());

    // A UPS window derates every row budget through the hierarchy.
    engine.advanceTo(3 * kHour, cooling, hierarchy);
    EXPECT_DOUBLE_EQ(engine.composedUpsDerate(UpsId(1)), 0.75);
    EXPECT_DOUBLE_EQ(hierarchy.upsDerate(UpsId(1)), 0.75);
    EXPECT_DOUBLE_EQ(hierarchy.datacenterDerate(), 0.75);

    // ...and cleared at the end edge, restoring the exact design
    // value (not a near-1.0 product of derate and un-derate).
    engine.advanceTo(5 * kHour, cooling, hierarchy);
    EXPECT_FALSE(engine.anyComponentFaultActive());
    EXPECT_DOUBLE_EQ(engine.composedAisleDerate(AisleId(0)), 1.0);
    EXPECT_DOUBLE_EQ(cooling.effectiveProvision(AisleId(0)).value(),
                     designAirflow[0]);
    EXPECT_FALSE(cooling.anyFailure());
    EXPECT_FALSE(hierarchy.anyFailure());
    EXPECT_EQ(hierarchy.effectiveRowProvision(RowId(0)).value(),
              design_row_w);
    EXPECT_EQ(engine.startsProcessed(), 2u);
    EXPECT_EQ(engine.endsProcessed(), 2u);
}

TEST_F(FaultEngineFixture, ChillerFloorsEveryAisleAndComposesByMin)
{
    FaultPlan plan;
    ScriptedFault chiller;
    chiller.kind = FaultKind::Chiller;
    chiller.at = 1 * kHour;
    chiller.until = 4 * kHour;
    chiller.remainingFrac = 0.75;
    plan.scripted.push_back(chiller);

    ScriptedFault ahu;
    ahu.kind = FaultKind::Ahu;
    ahu.target = 0;
    ahu.at = 2 * kHour;
    ahu.until = 3 * kHour;
    ahu.remainingFrac = 0.6;
    plan.scripted.push_back(ahu);

    FaultEngine engine(plan, dc, kDay, 7);

    // Chiller alone: every aisle floors at 0.75.
    engine.advanceTo(1 * kHour, cooling, hierarchy);
    EXPECT_DOUBLE_EQ(engine.composedAisleDerate(AisleId(0)), 0.75);
    EXPECT_DOUBLE_EQ(engine.composedAisleDerate(AisleId(1)), 0.75);
    EXPECT_DOUBLE_EQ(cooling.effectiveProvision(AisleId(1)).value(),
                     designAirflow[1] * 0.75);

    // Overlap: the deeper AHU fault wins on aisle 0 only.
    engine.advanceTo(2 * kHour, cooling, hierarchy);
    EXPECT_DOUBLE_EQ(engine.composedAisleDerate(AisleId(0)), 0.6);
    EXPECT_DOUBLE_EQ(engine.composedAisleDerate(AisleId(1)), 0.75);
    EXPECT_DOUBLE_EQ(cooling.effectiveProvision(AisleId(0)).value(),
                     designAirflow[0] * 0.6);

    // AHU repaired mid-chiller-derate: aisle 0 falls back to the
    // chiller floor, not to design.
    engine.advanceTo(3 * kHour, cooling, hierarchy);
    EXPECT_DOUBLE_EQ(engine.composedAisleDerate(AisleId(0)), 0.75);
    EXPECT_DOUBLE_EQ(cooling.effectiveProvision(AisleId(0)).value(),
                     designAirflow[0] * 0.75);

    // Chiller repaired: exact design restore everywhere.
    engine.advanceTo(4 * kHour, cooling, hierarchy);
    EXPECT_FALSE(engine.anyComponentFaultActive());
    for (const Aisle &aisle : dc.aisles()) {
        EXPECT_DOUBLE_EQ(
            cooling.effectiveProvision(aisle.id).value(),
            designAirflow[aisle.id.index]);
    }
}

TEST_F(FaultEngineFixture, StochasticTimelineIsSeedDeterministic)
{
    FaultPlan plan;
    plan.ahu = {6.0 * kHour, 1.0 * kHour, 0.85};
    plan.ups = {8.0 * kHour, 2.0 * kHour, 0.8};
    plan.chiller = {12.0 * kHour, 3.0 * kHour, 0.9};
    plan.sensor = {4.0 * kHour, 2.0 * kHour, 1.0};

    FaultEngine a(plan, dc, kWeek, 1234);
    FaultEngine b(plan, dc, kWeek, 1234);
    ASSERT_GT(a.instanceCount(), 0u);
    ASSERT_EQ(a.instanceCount(), b.instanceCount());

    // Replaying the two engines step by step must produce identical
    // composed state at every step.
    for (SimTime t = 0; t <= kWeek; t += 5 * kMinute) {
        a.advanceTo(t, cooling, hierarchy);
        b.advanceTo(t, cooling, hierarchy);
        ASSERT_EQ(a.activeComponentCount(),
                  b.activeComponentCount());
        ASSERT_EQ(a.activeSensorCount(), b.activeSensorCount());
        ASSERT_EQ(a.startsProcessed(), b.startsProcessed());
        for (const Aisle &aisle : dc.aisles()) {
            ASSERT_DOUBLE_EQ(a.composedAisleDerate(aisle.id),
                             b.composedAisleDerate(aisle.id));
        }
        for (const Ups &ups : dc.upses()) {
            ASSERT_DOUBLE_EQ(a.composedUpsDerate(ups.id),
                             b.composedUpsDerate(ups.id));
        }
    }
    EXPECT_GT(a.startsProcessed(), 0u);

    // A different seed materializes a different timeline (the trace
    // of active-fault counts cannot match over a whole week of
    // events).
    FaultEngine c(plan, dc, kWeek, 4321);
    bool any_difference = c.instanceCount() != a.instanceCount();
    FaultEngine a2(plan, dc, kWeek, 1234);
    for (SimTime t = 0; t <= kWeek && !any_difference;
         t += 5 * kMinute) {
        a2.advanceTo(t, cooling, hierarchy);
        c.advanceTo(t, cooling, hierarchy);
        any_difference = a2.activeComponentCount() !=
                c.activeComponentCount() ||
            a2.activeSensorCount() != c.activeSensorCount();
    }
    EXPECT_TRUE(any_difference);
}

TEST_F(FaultEngineFixture, StuckSensorFreezesObservations)
{
    const int gpus = dc.specs().front().gpusPerServer;
    FaultPlan plan;
    ScriptedFault fault;
    fault.kind = FaultKind::Sensor;
    fault.target = 3;
    fault.at = kHour;
    fault.until = 3 * kHour;
    fault.sensor = SensorFaultKind::StuckAt;
    plan.scripted.push_back(fault);

    FaultEngine engine(plan, dc, kDay, 7);
    EXPECT_TRUE(engine.planHasSensorFaults());

    engine.advanceTo(0, cooling, hierarchy);
    EXPECT_FALSE(engine.sensorFaultActive(ServerId(3)));

    engine.advanceTo(kHour, cooling, hierarchy);
    ASSERT_TRUE(engine.sensorFaultActive(ServerId(3)));
    EXPECT_EQ(engine.sensorFaultKind(ServerId(3)),
              SensorFaultKind::StuckAt);
    // No physics effect: a sensor fault never counts as a component
    // fault or touches the plant.
    EXPECT_FALSE(engine.anyComponentFaultActive());
    EXPECT_FALSE(cooling.anyFailure());

    // First observation under the fault is captured as the frozen
    // value...
    std::vector<double> obs(gpus, 200.0);
    engine.corruptObservedGpuPower(ServerId(3), kHour, obs.data(),
                                   gpus);
    EXPECT_DOUBLE_EQ(obs[0], 200.0);
    // ...and later (different) truth is replaced by it.
    std::vector<double> later(gpus, 350.0);
    engine.corruptObservedGpuPower(ServerId(3), 2 * kHour,
                                   later.data(), gpus);
    for (int g = 0; g < gpus; ++g)
        EXPECT_DOUBLE_EQ(later[g], 200.0);

    // The telemetry path freezes the server-local channels too.
    ServerSample first;
    first.time = kHour;
    first.inletC = 25.0f;
    first.serverPowerW = 1600.0f;
    ASSERT_TRUE(engine.corruptSample(ServerId(3), kHour, first));
    ServerSample second;
    second.time = 2 * kHour;
    second.inletC = 31.0f;
    second.serverPowerW = 2400.0f;
    ASSERT_TRUE(
        engine.corruptSample(ServerId(3), 2 * kHour, second));
    EXPECT_FLOAT_EQ(second.inletC, 25.0f);
    EXPECT_FLOAT_EQ(second.serverPowerW, 1600.0f);

    // After repair the observation path is a no-op again.
    engine.advanceTo(3 * kHour, cooling, hierarchy);
    EXPECT_FALSE(engine.sensorFaultActive(ServerId(3)));
    std::vector<double> healthy(gpus, 350.0);
    engine.corruptObservedGpuPower(ServerId(3), 4 * kHour,
                                   healthy.data(), gpus);
    EXPECT_DOUBLE_EQ(healthy[0], 350.0);
}

TEST_F(FaultEngineFixture, DriftNoiseAndDropModes)
{
    const int gpus = dc.specs().front().gpusPerServer;
    FaultPlan plan;
    ScriptedFault drift;
    drift.kind = FaultKind::Sensor;
    drift.target = 0;
    drift.at = 0;
    drift.until = kDay;
    drift.sensor = SensorFaultKind::BiasDrift;
    drift.driftWPerHour = 40.0;
    drift.driftCPerHour = 0.5;
    plan.scripted.push_back(drift);

    ScriptedFault noise = drift;
    noise.target = 1;
    noise.sensor = SensorFaultKind::NoiseBurst;
    noise.noiseSigmaW = 120.0;
    plan.scripted.push_back(noise);

    ScriptedFault dropped = drift;
    dropped.target = 2;
    dropped.sensor = SensorFaultKind::Dropped;
    plan.scripted.push_back(dropped);

    FaultEngine engine(plan, dc, kDay, 7);
    engine.advanceTo(0, cooling, hierarchy);

    // BiasDrift: zero at onset, then the observed *sum* moves by
    // driftWPerHour per hour, spread across the GPUs.
    std::vector<double> at_onset(gpus, 300.0);
    engine.corruptObservedGpuPower(ServerId(0), 0, at_onset.data(),
                                   gpus);
    EXPECT_DOUBLE_EQ(at_onset[0], 300.0);
    std::vector<double> later(gpus, 300.0);
    engine.corruptObservedGpuPower(ServerId(0), 2 * kHour,
                                   later.data(), gpus);
    double sum = 0.0;
    for (int g = 0; g < gpus; ++g)
        sum += later[g];
    EXPECT_NEAR(sum, 300.0 * gpus + 2.0 * 40.0, 1e-9);

    ServerSample drift_sample;
    drift_sample.inletC = 25.0f;
    drift_sample.serverPowerW = 2000.0f;
    ASSERT_TRUE(engine.corruptSample(ServerId(0), 2 * kHour,
                                     drift_sample));
    EXPECT_FLOAT_EQ(drift_sample.inletC, 26.0f); // +0.5C/h * 2h

    // NoiseBurst perturbs the reading but is a pure function of
    // (seed, server, time): replaying the same instant through a
    // twin engine reproduces it bit-for-bit.
    FaultEngine twin(plan, dc, kDay, 7);
    twin.advanceTo(0, cooling, hierarchy);
    std::vector<double> noisy(gpus, 300.0);
    std::vector<double> twin_noisy(gpus, 300.0);
    engine.corruptObservedGpuPower(ServerId(1), kHour, noisy.data(),
                                   gpus);
    twin.corruptObservedGpuPower(ServerId(1), kHour,
                                 twin_noisy.data(), gpus);
    bool perturbed = false;
    for (int g = 0; g < gpus; ++g) {
        EXPECT_DOUBLE_EQ(noisy[g], twin_noisy[g]);
        perturbed = perturbed || noisy[g] != 300.0;
    }
    EXPECT_TRUE(perturbed);

    // Dropped: telemetry samples vanish (caller must not record);
    // the risk path sees the last value it had (stuck-at behavior).
    ServerSample gone;
    EXPECT_FALSE(engine.corruptSample(ServerId(2), kHour, gone));
    std::vector<double> seen(gpus, 250.0);
    engine.corruptObservedGpuPower(ServerId(2), kHour, seen.data(),
                                   gpus);
    std::vector<double> changed(gpus, 400.0);
    engine.corruptObservedGpuPower(ServerId(2), 2 * kHour,
                                   changed.data(), gpus);
    EXPECT_DOUBLE_EQ(changed[0], 250.0);
}

} // namespace
} // namespace tapas
