/**
 * @file
 * The incremental aisle-demand decomposition must agree with the full
 * per-server recompute — across random load vectors, AHU failures and
 * restores, and layout extension (oversubscription racks).
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "dcsim/layout.hh"
#include "dcsim/thermal.hh"

namespace tapas {
namespace {

void
expectDemandsMatch(CoolingPlant &cooling, const DatacenterLayout &dc,
                   const std::vector<double> &loads)
{
    cooling.updateDemands(loads);
    for (const Aisle &aisle : dc.aisles()) {
        const double full = cooling.demand(aisle.id, loads).value();
        const double inc = cooling.cachedDemand(aisle.id).value();
        EXPECT_NEAR(inc, full,
                    1e-9 * std::max(1.0, std::abs(full)))
            << "aisle " << aisle.id.index;

        const double full_over =
            cooling.overdrawFraction(aisle.id, loads);
        const double inc_over =
            cooling.cachedOverdrawFraction(aisle.id);
        EXPECT_NEAR(inc_over, full_over, 1e-9)
            << "aisle " << aisle.id.index;
    }
}

TEST(CoolingIncremental, MatchesFullRecomputeAcrossRandomLoads)
{
    LayoutConfig cfg;
    cfg.aisleCount = 3;
    cfg.rowsPerAisle = 2;
    cfg.racksPerRow = 4;
    cfg.serversPerRack = 4;
    DatacenterLayout dc(cfg);
    ThermalModel thermal(dc, ThermalConfig{}, 11);
    CoolingPlant cooling(dc, thermal);

    Rng rng(123);
    for (int round = 0; round < 50; ++round) {
        std::vector<double> loads(dc.serverCount());
        for (double &l : loads) {
            // Includes out-of-range values the fan curve clamps.
            l = rng.uniform(-0.2, 1.3);
        }
        expectDemandsMatch(cooling, dc, loads);
    }
}

TEST(CoolingIncremental, MatchesAcrossAhuFailureAndRestore)
{
    LayoutConfig cfg;
    cfg.aisleCount = 2;
    cfg.rowsPerAisle = 2;
    cfg.racksPerRow = 3;
    cfg.serversPerRack = 4;
    DatacenterLayout dc(cfg);
    ThermalModel thermal(dc, ThermalConfig{}, 7);
    CoolingPlant cooling(dc, thermal);

    Rng rng(9);
    std::vector<double> loads(dc.serverCount());
    for (double &l : loads)
        l = rng.uniform(0.0, 1.0);

    expectDemandsMatch(cooling, dc, loads);

    cooling.setAhuDerate(AisleId(0), 0.9);
    expectDemandsMatch(cooling, dc, loads);
    // Overdraw reflects the derated provision.
    EXPECT_GE(cooling.cachedOverdrawFraction(AisleId(0)), 0.0);

    cooling.setAhuDerate(AisleId(0), 1.0);
    expectDemandsMatch(cooling, dc, loads);
}

TEST(CoolingIncremental, CoversServersAddedAfterConstruction)
{
    LayoutConfig cfg;
    cfg.aisleCount = 1;
    cfg.rowsPerAisle = 2;
    cfg.racksPerRow = 2;
    cfg.serversPerRack = 4;
    DatacenterLayout dc(cfg);
    ThermalModel thermal(dc, ThermalConfig{}, 3);
    CoolingPlant cooling(dc, thermal);

    const Cfm frozen = cooling.provision(AisleId(0));

    // Oversubscription: racks added after provisioning froze.
    dc.addRack(RowId(0));
    thermal.extend();

    Rng rng(77);
    std::vector<double> loads(dc.serverCount());
    for (double &l : loads)
        l = rng.uniform(0.0, 1.0);

    expectDemandsMatch(cooling, dc, loads);
    // Provisioning must stay frozen (paper Fig. 21 semantics).
    EXPECT_DOUBLE_EQ(cooling.provision(AisleId(0)).value(),
                     frozen.value());
}

} // namespace
} // namespace tapas
