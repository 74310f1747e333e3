/**
 * @file
 * Unit tests for the instance configurator: limit compliance,
 * quality-as-last-resort ordering, hysteresis, and emergency
 * behavior.
 */

#include "fixture.hh"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/configurator.hh"
#include "telemetry/profile_lanes.hh"

namespace tapas {
namespace {

/** Limit checks at an evaluated operating point (the pre-group
 *  feasibility body). */
bool
referenceFeasibleAt(const PerfModel &perf, ServerId server,
                    const ProfileBank &profiles,
                    const InstanceLimits &limits,
                    const ConfigProfile &profile,
                    const PerfModel::OperatingPoint &op)
{
    if (op.serverPower.value() > limits.maxServerPowerW)
        return false;
    const double gpu_power = op.gpuPower.value();
    double hottest = 0.0;
    profiles.predictHottestGpuCandidates(server, limits.inletC,
                                         &gpu_power, 1, &hottest);
    if (hottest > limits.maxGpuTempC)
        return false;
    const double heat =
        perf.heatFraction(op.gpuPower.value(), profile.activeGpus);
    double airflow = 0.0;
    profiles.predictAirflowCandidates(server, &heat, 1, &airflow);
    return airflow <= limits.maxAirflowCfm;
}

/**
 * Oracle: the block walk choose() ran before the power-ordered group
 * pick, without its operating-point memo (which was bit-identical by
 * construction). @p space is the configurator's sorted space.
 */
ConfigDecision
referenceChoose(const PerfModel &perf, const TapasPolicyConfig &cfg,
                const std::vector<ConfigProfile> &space,
                ServerId server, const ProfileBank &profiles,
                const InstanceLimits &limits, double demand_tps,
                double quality_floor, const ConfigProfile &current)
{
    const double target_tps = demand_tps * 1.5;
    auto power_at_demand = [&](const ConfigProfile &p) {
        const double capped =
            std::min(demand_tps, std::max(1.0, p.goodputTps));
        return perf.operatingPointAt(p, capped).serverPower.value();
    };
    const ConfigProfile *best = nullptr;
    bool best_meets = false;
    double best_power = 1e300;
    double best_raw_power_w = 1e300;

    // Candidates scored in blocks growing 1 -> 2 -> 4 -> 8; the
    // prune reads the best state as of the last flushed block.
    constexpr std::size_t kBlock = 8;
    std::size_t flush_target = 1;
    const ConfigProfile *cands[kBlock];
    double feas_demands[kBlock];
    PerfModel::OperatingPoint ops[kBlock];
    double gpu_power[kBlock];
    double heat[kBlock];
    double hottest[kBlock];
    double airflow[kBlock];
    std::size_t pending = 0;

    auto flush = [&]() {
        if (pending == 0)
            return;
        perf.operatingPointBatch(cands, feas_demands, pending, ops);
        for (std::size_t i = 0; i < pending; ++i) {
            gpu_power[i] = ops[i].gpuPower.value();
            heat[i] = perf.heatFraction(gpu_power[i],
                                        cands[i]->activeGpus);
        }
        profiles.predictHottestGpuCandidates(
            server, limits.inletC, gpu_power, pending, hottest);
        profiles.predictAirflowCandidates(server, heat, pending,
                                          airflow);
        for (std::size_t i = 0; i < pending; ++i) {
            const ConfigProfile &cand = *cands[i];
            const PerfModel::OperatingPoint &op = ops[i];
            if (op.serverPower.value() > limits.maxServerPowerW)
                continue;
            if (hottest[i] > limits.maxGpuTempC)
                continue;
            if (airflow[i] > limits.maxAirflowCfm)
                continue;
            const double feas_demand =
                std::min(demand_tps, cand.goodputTps);
            const double rank_demand =
                std::min(demand_tps, std::max(1.0, cand.goodputTps));
            const double rank_power_w = rank_demand == feas_demand
                ? op.serverPower.value()
                : perf.operatingPointAt(cand, rank_demand)
                      .serverPower.value();
            const bool meets = cand.goodputTps >= target_tps;
            const double power =
                cand.config.requiresReload(current.config)
                ? rank_power_w * cfg.reloadHysteresisGain
                : rank_power_w;
            bool take = false;
            if (!best) {
                take = true;
            } else if (cand.quality > best->quality) {
                take = true;
            } else if (cand.quality == best->quality) {
                if (meets && !best_meets) {
                    take = true;
                } else if (meets == best_meets) {
                    take = meets
                        ? power < best_power
                        : cand.goodputTps > best->goodputTps;
                }
            } else if (meets && !best_meets) {
                take = true;
            }
            if (take) {
                best = &cand;
                best_meets = meets;
                best_power = power;
                best_raw_power_w = rank_power_w;
            }
        }
        pending = 0;
    };

    for (const ConfigProfile &cand : space) {
        if (best_meets && (cand.quality < best->quality ||
                           cand.goodputTps < target_tps)) {
            break;
        }
        if (cand.quality < quality_floor)
            continue;
        if (cand.goodputTps <= 0.0)
            continue;
        cands[pending] = &cand;
        feas_demands[pending] = std::min(demand_tps, cand.goodputTps);
        ++pending;
        if (pending == flush_target) {
            flush();
            flush_target = std::min(kBlock, flush_target * 2);
        }
    }
    flush();

    ConfigDecision out;
    if (!best) {
        const ConfigProfile *mildest = nullptr;
        double mildest_w = 1e300;
        for (const ConfigProfile &cand : space) {
            if (cand.quality < quality_floor ||
                cand.goodputTps <= 0.0) {
                continue;
            }
            const double w = power_at_demand(cand);
            const bool better = w < mildest_w * 0.98 ||
                (w < mildest_w * 1.02 && mildest &&
                 cand.goodputTps > mildest->goodputTps);
            if (!mildest || better) {
                mildest_w = std::min(mildest_w, w);
                mildest = &cand;
            }
        }
        out.profile = *mildest;
        out.infeasible = true;
        out.changed = !(out.profile.config == current.config);
        return out;
    }

    if (!(best->config == current.config) &&
        current.quality >= quality_floor &&
        current.goodputTps > 0.0) {
        const double cur_feas_demand =
            std::min(demand_tps, current.goodputTps);
        const PerfModel::OperatingPoint cur_op =
            perf.operatingPointAt(current, cur_feas_demand);
        if (referenceFeasibleAt(perf, server, profiles, limits,
                                current, cur_op)) {
            const bool current_meets =
                current.goodputTps >= target_tps;
            const double cur_rank_demand = std::min(
                demand_tps, std::max(1.0, current.goodputTps));
            const double current_power =
                cur_rank_demand == cur_feas_demand
                ? cur_op.serverPower.value()
                : perf.operatingPointAt(current, cur_rank_demand)
                      .serverPower.value();
            const double gain_bar =
                best->config.requiresReload(current.config)
                ? cfg.reloadHysteresisGain
                : cfg.hysteresisGain;
            const bool marginal_gain =
                best_raw_power_w * gain_bar >= current_power;
            if (best_meets == current_meets &&
                best->quality <= current.quality && marginal_gain) {
                out.profile = current;
                out.changed = false;
                return out;
            }
        }
    }

    out.profile = *best;
    out.changed = !(best->config == current.config);
    return out;
}

/** Every decision field equal, with a trace of the inputs. */
void
expectSameDecision(const ConfigDecision &got, const ConfigDecision &want,
                   const char *what, double demand, double floor)
{
    EXPECT_EQ(got.profile.config, want.profile.config)
        << what << " demand " << demand << " floor " << floor << ": "
        << got.profile.config.label() << " vs "
        << want.profile.config.label();
    EXPECT_EQ(got.changed, want.changed)
        << what << " demand " << demand << " floor " << floor;
    EXPECT_EQ(got.infeasible, want.infeasible)
        << what << " demand " << demand << " floor " << floor;
}

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

TEST_F(ConfiguratorTest, GroupPickMatchesBlockWalkOverGrid)
{
    // Every decision of the power-ordered group pick equals the block
    // walk, across demands (zero, sub-1, ramps, saturating, beyond
    // capacity), tight and loose power/temperature/airflow limits,
    // normal and emergency floors, and incumbents in and out of the
    // winners' reload class. One group table serves the whole grid
    // (cleared once halfway), and a one-off table must agree.
    const TapasPolicyConfig cfg;
    const std::vector<ConfigProfile> &space = configurator.profileSpace();
    const double full =
        perf.estimateServerPower(refProfile, 1.0).value();
    InstanceConfig tp4 = referenceConfig();
    tp4.tensorParallel = 4;
    InstanceConfig slow = referenceConfig();
    slow.freqFrac = 0.7;
    InstanceConfig small = referenceConfig();
    small.model = ModelSize::B13;
    // An incumbent with a space config but other fields: the group's
    // solve of that config must not stand in for it.
    ConfigProfile drifted = refProfile;
    drifted.decodePowerBatch1W += 40.0;
    drifted.decodePowerBatchMaxW += 40.0;
    const ConfigProfile currents[] = {refProfile, perf.profile(tp4),
                                      perf.profile(slow),
                                      perf.profile(small), drifted};
    const double demands[] = {0.0,
                              0.5,
                              37.5,
                              450.0,
                              1200.0,
                              2500.0,
                              0.5 * refProfile.goodputTps,
                              refProfile.goodputTps,
                              2.0 * refProfile.goodputTps};
    const double floors[] = {cfg.normalQualityFloor,
                             cfg.emergencyQualityFloor};
    struct Thermal
    {
        double maxGpuTempC;
        double inletC;
    };
    const Thermal thermals[] = {{200.0, 24.0}, {77.0, 29.5},
                                {70.0, 28.0}};

    InstanceConfigurator::GroupTable table;
    std::size_t decisions = 0;
    std::size_t infeasible = 0;
    std::size_t changed = 0;
    for (const ServerId server : {ServerId(0), ServerId(17)}) {
        const double idle = onePowerW(bank, server, 0.0);
        const double powers[] = {1e9, 0.8 * full, idle + 500.0,
                                 idle + 100.0, 1.0};
        const double airflows[] = {1e9,
                                   oneAirflowCfm(bank, server, 0.3),
                                   oneAirflowCfm(bank, server, 0.05)};
        if (server.index == 17)
            table.clear();
        for (const double power_w : powers) {
            for (const Thermal &thermal : thermals) {
                for (const double airflow : airflows) {
                    InstanceLimits limits;
                    limits.maxServerPowerW = power_w;
                    limits.maxGpuTempC = thermal.maxGpuTempC;
                    limits.inletC = thermal.inletC;
                    limits.maxAirflowCfm = airflow;
                    for (const double floor : floors) {
                        for (const double demand : demands) {
                            for (const ConfigProfile &current :
                                 currents) {
                                const ConfigDecision want =
                                    referenceChoose(
                                        perf, cfg, space, server,
                                        bank, limits, demand, floor,
                                        current);
                                expectSameDecision(
                                    configurator.choose(
                                        server, bank, limits, demand,
                                        floor, current, &table),
                                    want, "shared table", demand,
                                    floor);
                                expectSameDecision(
                                    configurator.choose(
                                        server, bank, limits, demand,
                                        floor, current),
                                    want, "one-off table", demand,
                                    floor);
                                ++decisions;
                                infeasible += want.infeasible;
                                changed += want.changed;
                            }
                        }
                    }
                }
            }
        }
    }
    // The grid reaches both the feasible and the all-infeasible
    // fallback, and both held and changed decisions.
    EXPECT_GT(infeasible, decisions / 10);
    EXPECT_LT(infeasible, decisions);
    EXPECT_GT(changed, 0u);
    EXPECT_LT(changed, decisions);
    EXPECT_EQ(table.groups(), 2 * std::size(demands));
}

TEST_F(ConfiguratorTest, GroupPickMatchesBlockWalkOnSubTokenGoodput)
{
    // Hand-built space: a top tier with no goodput at all, a tier
    // whose goodput cannot serve 1 token/s (re-ranked at 1 token/s by
    // the sequential rules, the incumbent check and the mildest
    // fallback), and a lower tier mixing both.
    const std::vector<ConfigProfile> &real = configurator.profileSpace();
    std::vector<ConfigProfile> hand;
    std::size_t next = 0;
    auto add = [&](double quality, double goodput) {
        ConfigProfile p = real[next++];
        p.quality = quality;
        p.goodputTps = goodput;
        hand.push_back(p);
    };
    for (const double g : {0.0, 0.0, 0.0})
        add(1.0, g);
    for (const double g : {0.9, 0.6, 0.5, 0.3, 0.2, 0.0})
        add(0.97, g);
    for (const double g : {2.0, 1.2, 0.4, 0.05})
        add(0.88, g);
    const TapasPolicyConfig cfg;
    const InstanceConfigurator hand_cfg(perf, cfg, hand);
    const std::vector<ConfigProfile> &space = hand_cfg.profileSpace();

    ConfigProfile sub_token_out_of_space = hand[4];
    sub_token_out_of_space.config.tensorParallel = 4;
    sub_token_out_of_space.goodputTps = 0.4;
    const ConfigProfile currents[] = {hand[5], sub_token_out_of_space,
                                      refProfile};
    // Loose, a cap that splits the sub-token tier, and impossible.
    const double split_w =
        perf.operatingPointAt(hand[5], 0.5).serverPower.value();
    InstanceConfigurator::GroupTable table;
    std::size_t infeasible = 0;
    for (const double power_w : {1e9, split_w, 1.0}) {
        InstanceLimits limits = looseLimits();
        limits.maxServerPowerW = power_w;
        for (const double floor : {0.95, 0.85, 0.5}) {
            for (const double demand : {0.0, 0.05, 0.1, 0.2, 0.35, 0.45,
                                        0.7, 0.95, 1.5, 3.0}) {
                for (const ConfigProfile &current : currents) {
                    const ConfigDecision want = referenceChoose(
                        perf, cfg, space, ServerId(0), bank, limits,
                        demand, floor, current);
                    expectSameDecision(
                        hand_cfg.choose(ServerId(0), bank, limits,
                                        demand, floor, current, &table),
                        want, "sub-token space", demand, floor);
                    infeasible += want.infeasible;
                }
            }
        }
    }
    EXPECT_GT(infeasible, 0u);
}

TEST_F(ConfiguratorTest, EqualAdjustedPowerGoesToLowestSpaceIndex)
{
    // Hand-built exact ties. At a demand where the decode batch stays
    // at 1, only the cached batch-1 decode power and the shared
    // solver inputs set the operating point, so configs that differ
    // in frequency or TP draw the same power.
    const ConfigProfile base = refProfile;
    // A reload-gain rounding tie: C sits one ulp of server power
    // above D, yet both round to one adjusted power at x1.20.
    const TapasPolicyConfig cfg;
    double demand = 0.0;
    ConfigProfile c = base;
    bool found = false;
    for (double d = 150.0; d <= 300.0 && !found; d += 10.0) {
        const double p_d = perf.operatingPointAt(base, d)
                               .serverPower.value();
        ConfigProfile nudged = base;
        for (int k = 0; k < 64; ++k) {
            nudged.decodePowerBatch1W =
                std::nextafter(nudged.decodePowerBatch1W, 1e9);
            const double p_c = perf.operatingPointAt(nudged, d)
                                   .serverPower.value();
            if (p_c == p_d)
                continue;
            if (p_c == std::nextafter(p_d, 1e300) &&
                p_c * cfg.reloadHysteresisGain ==
                    p_d * cfg.reloadHysteresisGain) {
                demand = d;
                c = nudged;
                found = true;
            }
            break;
        }
    }
    ASSERT_TRUE(found) << "no x1.20 rounding tie near the reference";
    ASSERT_EQ(perf.operatingPointAt(base, demand).decodeBatch, 1.0);

    // Incumbent on TP4 with no goodput: both tied candidates need a
    // reload, and the incumbent check does not run.
    ConfigProfile current = base;
    current.config.tensorParallel = 4;
    current.goodputTps = 0.0;

    ConfigProfile d_prof = base;
    d_prof.config.freqFrac = 0.8;
    d_prof.goodputTps = 4900.0;
    c.config.freqFrac = 0.9;
    c.goodputTps = 5000.0;
    {
        // C (higher raw power) comes first in the space, D first in
        // raw power order: the equal adjusted power goes to C.
        const InstanceConfigurator tie(perf, cfg, {d_prof, c});
        InstanceConfigurator::GroupTable table;
        const ConfigDecision got = tie.choose(
            ServerId(0), bank, looseLimits(), demand, 0.999, current,
            &table);
        EXPECT_EQ(got.profile.config, c.config);
        expectSameDecision(got,
                           referenceChoose(perf, cfg, tie.profileSpace(),
                                           ServerId(0), bank,
                                           looseLimits(), demand, 0.999,
                                           current),
                           "rounding tie", demand, 0.999);
    }

    // Free versus reload at equal raw power with a unit reload gain:
    // whichever class holds the lower space index wins.
    TapasPolicyConfig unit = cfg;
    unit.reloadHysteresisGain = 1.0;
    current.config = base.config;
    ConfigProfile free_p = base;
    free_p.config.freqFrac = 0.9;
    ConfigProfile reload_p = base;
    reload_p.config.tensorParallel = 4;
    for (const bool reload_first : {false, true}) {
        free_p.goodputTps = reload_first ? 4900.0 : 5000.0;
        reload_p.goodputTps = reload_first ? 5000.0 : 4900.0;
        for (const TapasPolicyConfig &policy : {unit, cfg}) {
            const InstanceConfigurator tie(perf, policy,
                                           {free_p, reload_p});
            InstanceConfigurator::GroupTable table;
            const ConfigDecision got = tie.choose(
                ServerId(0), bank, looseLimits(), demand, 0.999,
                current, &table);
            const bool unit_gain = policy.reloadHysteresisGain == 1.0;
            EXPECT_EQ(got.profile.config,
                      unit_gain && reload_first ? reload_p.config
                                                : free_p.config)
                << "reload first " << reload_first << " gain "
                << policy.reloadHysteresisGain;
            expectSameDecision(
                got,
                referenceChoose(perf, policy, tie.profileSpace(),
                                ServerId(0), bank, looseLimits(), demand,
                                0.999, current),
                "class tie", demand, 0.999);
        }
    }
}

} // namespace
} // namespace tapas
