/**
 * @file
 * Unit tests for the instance configurator: limit compliance,
 * quality-as-last-resort ordering, hysteresis, and emergency
 * behavior.
 */

#include "fixture.hh"

#include "core/configurator.hh"
#include "telemetry/profile_lanes.hh"

namespace tapas {
namespace {

class ConfiguratorTest : public CoreFixture
{
  protected:
    ConfiguratorTest()
        : configurator(perf, TapasPolicyConfig{}),
          refProfile(perf.profile(referenceConfig()))
    {}

    InstanceLimits
    looseLimits()
    {
        InstanceLimits limits;
        limits.maxServerPowerW = 1e9;
        limits.maxGpuTempC = 200.0;
        limits.maxAirflowCfm = 1e9;
        limits.inletC = 24.0;
        return limits;
    }

    InstanceConfigurator configurator;
    ConfigProfile refProfile;
};

TEST_F(ConfiguratorTest, LooseLimitsRightSizeWithoutQualityLoss)
{
    // Low demand under loose limits: right-sizing may pick a
    // cheaper config, but never at a quality or demand-coverage
    // cost, and never via a reload (frequency/batch only).
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, looseLimits(), 100.0, 0.999, refProfile);
    EXPECT_FALSE(decision.infeasible);
    EXPECT_DOUBLE_EQ(decision.profile.quality, 1.0);
    EXPECT_GE(decision.profile.goodputTps, 100.0 * 1.5);
    EXPECT_FALSE(decision.profile.config.requiresReload(
        referenceConfig()));
}

TEST_F(ConfiguratorTest, SaturatingDemandKeepsReferenceConfig)
{
    // At saturating demand the reference config is the optimum;
    // the configurator must not churn away from it.
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, looseLimits(), refProfile.goodputTps,
        0.999, refProfile);
    EXPECT_FALSE(decision.changed);
    EXPECT_EQ(decision.profile.config, referenceConfig());
}

TEST_F(ConfiguratorTest, PowerCapForcesLowerFrequency)
{
    InstanceLimits limits = looseLimits();
    // Cap below the reference config's full-load draw.
    const double full =
        perf.estimateServerPower(refProfile, 1.0).value();
    limits.maxServerPowerW = 0.8 * full;
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, limits, refProfile.goodputTps * 0.9,
        0.999, refProfile);
    EXPECT_TRUE(decision.changed);
    // Quality must not be sacrificed for a power cap in normal ops.
    EXPECT_DOUBLE_EQ(decision.profile.quality, 1.0);
    // The chosen config must actually fit the cap at its demand.
    EXPECT_TRUE(configurator.feasible(ServerId(0), bank, limits,
                                      decision.profile,
                                      refProfile.goodputTps * 0.9));
}

TEST_F(ConfiguratorTest, TempCapRespectedByProjection)
{
    InstanceLimits limits = looseLimits();
    limits.maxGpuTempC = 70.0;
    limits.inletC = 28.0;
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, limits, 200.0, 0.999, refProfile);
    const double util = std::min(
        1.0, 200.0 / decision.profile.goodputTps);
    const double gpu_w =
        perf.estimateGpuPower(decision.profile, util).value();
    EXPECT_LE(oneHottestGpuC(bank, ServerId(0), 28.0, gpu_w),
              70.0 + 1e-9);
}

TEST_F(ConfiguratorTest, QualityFloorBlocksSmallModels)
{
    InstanceLimits limits = looseLimits();
    limits.maxServerPowerW =
        onePowerW(bank, ServerId(0), 0.0) + 100.0;
    // At near-saturating demand nothing quality-1.0 fits this cap;
    // with a 0.999 floor the configurator must NOT dip to 13B/7B,
    // only report infeasible.
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, limits, refProfile.goodputTps, 0.999,
        refProfile);
    // Under the 0.999 floor the configurator must not dip to
    // 13B/7B: quality holds at 1.0 and service degrades instead
    // (the chosen config cannot cover the demand).
    EXPECT_DOUBLE_EQ(decision.profile.quality, 1.0);
    EXPECT_LT(decision.profile.goodputTps,
              refProfile.goodputTps);
}

TEST_F(ConfiguratorTest, EmergencyFloorUnlocksSmallerModels)
{
    InstanceLimits limits = looseLimits();
    // A cap that quality-1.0 70B configs cannot meet at this demand,
    // but a quantized variant can (Table 2 last-resort behavior).
    const double idle = onePowerW(bank, ServerId(0), 0.0);
    limits.maxServerPowerW = idle + 500.0;
    const double demand = 0.5 * refProfile.goodputTps;
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, limits, demand, 0.60, refProfile);
    EXPECT_FALSE(decision.infeasible);
    EXPECT_LT(decision.profile.quality, 1.0);
    // Smaller model meets the demand (Table 2: perf maintained).
    EXPECT_GE(decision.profile.goodputTps, demand);
}

TEST_F(ConfiguratorTest, PrefersQualityOverGoodputInEmergency)
{
    // Even with a relaxed floor, if a 70B config fits the limits,
    // it must win over a faster 7B config.
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, looseLimits(), 100.0, 0.60, refProfile);
    EXPECT_DOUBLE_EQ(decision.profile.quality, 1.0);
}

TEST_F(ConfiguratorTest, HysteresisHoldsNearEquivalentConfigs)
{
    // Current config slightly below the best: stay put.
    InstanceConfig near_best = referenceConfig();
    near_best.freqFrac = 1.0;
    near_best.maxBatchSize = 64;
    const ConfigProfile current = perf.profile(near_best);
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, looseLimits(), 50.0, 0.999, current);
    EXPECT_FALSE(decision.changed);
}

TEST_F(ConfiguratorTest, InfeasibleFallbackIsMildest)
{
    InstanceLimits limits = looseLimits();
    limits.maxServerPowerW = 1.0; // impossible
    const double demand = refProfile.goodputTps;
    const ConfigDecision decision = configurator.choose(
        ServerId(0), bank, limits, demand, 0.999, refProfile);
    EXPECT_TRUE(decision.infeasible);
    // Fallback = lowest power at the current demand (within a small
    // tolerance), preferring higher goodput among near-equals. At
    // saturating demand this is a downsized configuration.
    auto power_at = [&](const ConfigProfile &p) {
        const double util =
            std::min(1.0, demand / std::max(1.0, p.goodputTps));
        return perf.estimateServerPower(p, util).value();
    };
    double min_power = 1e300;
    for (const ConfigProfile &p : configurator.profileSpace()) {
        if (p.quality >= 0.999 && p.goodputTps > 0.0)
            min_power = std::min(min_power, power_at(p));
    }
    EXPECT_LE(power_at(decision.profile), min_power * 1.03);
    EXPECT_LT(power_at(decision.profile), power_at(refProfile));
}

TEST_F(ConfiguratorTest, FeasibleChecksAirflow)
{
    InstanceLimits limits = looseLimits();
    limits.maxAirflowCfm =
        oneAirflowCfm(bank, ServerId(0), 0.05);
    EXPECT_FALSE(configurator.feasible(
        ServerId(0), bank, limits, refProfile,
        refProfile.goodputTps));
    EXPECT_TRUE(configurator.feasible(
        ServerId(0), bank, limits, refProfile, 0.0));
}

TEST_F(ConfiguratorTest, SpaceSortedQualityFirst)
{
    const auto &space = configurator.profileSpace();
    ASSERT_GT(space.size(), 10u);
    for (std::size_t i = 1; i < space.size(); ++i) {
        EXPECT_GE(space[i - 1].quality, space[i].quality);
        if (space[i - 1].quality == space[i].quality) {
            EXPECT_GE(space[i - 1].goodputTps,
                      space[i].goodputTps);
        }
    }
}

} // namespace
} // namespace tapas
