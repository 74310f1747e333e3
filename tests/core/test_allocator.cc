/**
 * @file
 * Unit tests for the placement policies.
 */

#include "fixture.hh"

#include <map>

#include "core/allocator.hh"
#include "core/budget.hh"
#include "telemetry/profile_lanes.hh"

namespace tapas {
namespace {

class AllocatorTest : public CoreFixture
{
  protected:
    PlacementRequest
    makeRequest(VmKind kind, double peak = 0.9)
    {
        PlacementRequest req;
        req.id = VmId(1000);
        req.kind = kind;
        req.predictedPeakLoad = peak;
        if (kind == VmKind::SaaS) {
            req.endpoint = EndpointId(0);
        } else {
            req.customer = CustomerId(0);
        }
        return req;
    }
};

TEST_F(AllocatorTest, BaselinePlacesOnEmptyCluster)
{
    BaselineAllocator alloc;
    const auto pick = alloc.place(makeRequest(VmKind::IaaS), view);
    ASSERT_TRUE(pick.has_value());
    EXPECT_FALSE(view.occupied[pick->index]);
}

TEST_F(AllocatorTest, BaselinePacksIntoPartialRacks)
{
    BaselineAllocator alloc;
    // Occupy one server in rack 5; the next placement must land in
    // the same rack (packing preference).
    const RackId target(5);
    occupy(dc.rack(target).servers[0], VmKind::IaaS, 0.9);
    const auto pick = alloc.place(makeRequest(VmKind::IaaS), view);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(dc.server(*pick).rack, target);
}

TEST_F(AllocatorTest, BaselineReturnsNulloptWhenFull)
{
    BaselineAllocator alloc;
    for (const Server &server : dc.servers())
        occupy(server.id, VmKind::IaaS, 0.5);
    EXPECT_FALSE(
        alloc.place(makeRequest(VmKind::IaaS), view).has_value());
}

TEST_F(AllocatorTest, TapasPrefersColdServersForIaas)
{
    TapasAllocator alloc{TapasPolicyConfig{}};
    const auto pick = alloc.place(makeRequest(VmKind::IaaS), view);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(bank.thermalClass(*pick), ThermalClass::Cold);
}

TEST_F(AllocatorTest, TapasPrefersWarmServersForSaas)
{
    TapasAllocator alloc{TapasPolicyConfig{}};
    const auto pick =
        alloc.place(makeRequest(VmKind::SaaS, 0.6), view);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(bank.thermalClass(*pick), ThermalClass::Warm);
}

TEST_F(AllocatorTest, TapasValidatorBlocksOverdrawnRow)
{
    TapasAllocator alloc{TapasPolicyConfig{}};
    // Fill one row with peak-load VMs and add an oversubscription
    // rack to it so the row cannot admit more peak load.
    const RowId crowded(0);
    for (ServerId sid : dc.row(crowded).servers)
        occupy(sid, VmKind::IaaS, 1.0, 1.0);
    dc.addRack(crowded);
    // Mirror the production oversubscription sequence (sim/cluster.cc):
    // materialize the new servers in the thermal model before
    // profiling them.
    thermal.extend();
    bank.profileNewServers(thermal, powerModel, 9);
    view.occupied.resize(dc.serverCount(), false);
    view.serverLoads.resize(dc.serverCount(), 0.0);

    const auto pick = alloc.place(makeRequest(VmKind::IaaS, 1.0),
                                  view);
    ASSERT_TRUE(pick.has_value());
    EXPECT_NE(dc.server(*pick).row, crowded);
}

TEST_F(AllocatorTest, TapasSpreadsPeakAcrossRows)
{
    // Placing a stream of high-peak VMs must not concentrate them in
    // one row the way packing does.
    TapasAllocator tapas{TapasPolicyConfig{}};
    BaselineAllocator baseline;

    std::map<std::uint32_t, int> tapas_rows;
    for (int i = 0; i < 12; ++i) {
        const auto pick =
            tapas.place(makeRequest(VmKind::IaaS, 0.95), view);
        ASSERT_TRUE(pick.has_value());
        occupy(*pick, VmKind::IaaS, 0.95);
        ++tapas_rows[dc.server(*pick).row.index];
    }
    // 12 VMs across 4 rows: spread means every row got some.
    EXPECT_EQ(tapas_rows.size(), dc.rowCount());
}

TEST_F(AllocatorTest, TapasBalancesIaasAndSaasWithinRows)
{
    TapasAllocator alloc{TapasPolicyConfig{}};
    for (int i = 0; i < 16; ++i) {
        const VmKind kind =
            i % 2 == 0 ? VmKind::IaaS : VmKind::SaaS;
        const auto pick = alloc.place(makeRequest(kind, 0.8), view);
        ASSERT_TRUE(pick.has_value());
        occupy(*pick, kind, 0.8);
    }
    // Every row that hosts VMs should host both kinds.
    std::map<std::uint32_t, std::pair<int, int>> mix;
    for (const PlacedVmView &vm : view.vms) {
        auto &entry = mix[dc.server(vm.server).row.index];
        if (vm.kind == VmKind::IaaS) {
            ++entry.first;
        } else {
            ++entry.second;
        }
    }
    for (const auto &[row, counts] : mix) {
        EXPECT_GT(counts.first, 0) << "row " << row;
        EXPECT_GT(counts.second, 0) << "row " << row;
    }
}

TEST_F(AllocatorTest, PredictedRowPowerCountsIdleServers)
{
    // An empty row still draws idle power for provisioned servers.
    BudgetLedger ledger;
    ledger.fillPeaks(view);
    const double idle_draw =
        onePowerW(bank, ServerId(0), 0.0);
    EXPECT_GT(ledger.rowPowerW(RowId(0)), 0.8 * idle_draw *
              static_cast<double>(dc.row(RowId(0)).servers.size()));
}

TEST_F(AllocatorTest, PredictedAirflowGrowsWithExtraVm)
{
    const AisleId aisle(0);
    const ServerId target = dc.aisle(aisle).servers.front();
    BudgetLedger ledger;
    ledger.fillPeaks(view);
    const double before = ledger.aisleAirflowCfm(aisle);
    occupy(target, VmKind::IaaS, 1.0);
    ledger.fillPeaks(view);
    EXPECT_GT(ledger.aisleAirflowCfm(aisle), before);
}

TEST_F(AllocatorTest, TapasReturnsNulloptWhenAllRowsBlocked)
{
    TapasAllocator alloc{TapasPolicyConfig{}};
    for (const Server &server : dc.servers())
        occupy(server.id, VmKind::IaaS, 1.0, 1.0);
    EXPECT_FALSE(
        alloc.place(makeRequest(VmKind::IaaS, 1.0), view)
            .has_value());
}

} // namespace
} // namespace tapas
