/**
 * @file
 * Unit tests for the Eq. 3/4 budget ledger and the validators that
 * read it.
 */

#include "fixture.hh"

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "core/allocator.hh"
#include "core/budget.hh"
#include "core/risk.hh"
#include "telemetry/profile_lanes.hh"

namespace tapas {
namespace {

class BudgetLedgerTest : public CoreFixture
{
  protected:
    /** Fitted Eq. 3 summed over one aisle, a test-local loop. */
    double
    oracleAisleCfm(const Aisle &aisle, const std::vector<double> &loads,
                   const char *skip) const
    {
        double total = 0.0;
        for (ServerId sid : aisle.servers) {
            if (skip && skip[sid.index])
                continue;
            total += oneAirflowCfm(bank, sid, loads[sid.index]);
        }
        return total;
    }

    /** Fitted Eq. 4 summed over one row, a test-local loop. */
    double
    oracleRowW(const Row &row, const std::vector<double> &loads,
               const char *skip) const
    {
        double total = 0.0;
        for (ServerId sid : row.servers) {
            if (skip && skip[sid.index])
                continue;
            total += onePowerW(bank, sid, loads[sid.index]);
        }
        return total;
    }

    PlacementRequest
    fullLoadIaas() const
    {
        PlacementRequest req;
        req.id = VmId(1000);
        req.kind = VmKind::IaaS;
        req.customer = CustomerId(0);
        req.predictedPeakLoad = 1.0;
        return req;
    }
};

TEST_F(BudgetLedgerTest, SumsMatchPerGroupOracle)
{
    // Oversubscribed racks join existing rows after the plants froze
    // their provisioning; a UPS and an AHU derate are live.
    dc.addRack(RowId(0));
    dc.addRack(RowId(3));
    thermal.extend();
    bank.profileNewServers(thermal, powerModel, 21);
    hierarchy.setUpsDerate(UpsId(0), 0.75);
    cooling.setAhuDerate(AisleId(1), 0.9);

    const std::size_t n = dc.serverCount();
    ASSERT_GT(n, 48u);
    Rng rng(11);
    std::vector<double> loads(n);
    for (double &l : loads)
        l = rng.uniform(0.0, 1.0);
    std::vector<char> skip(n);
    for (char &s : skip)
        s = rng.bernoulli(0.3) ? 1 : 0;

    BudgetLedger ledger;
    for (const char *mask : {static_cast<const char *>(nullptr),
                             static_cast<const char *>(skip.data())}) {
        ledger.fill(dc, bank, cooling, hierarchy, loads.data(), mask);
        for (const Server &server : dc.servers()) {
            // Masked servers are still predicted.
            EXPECT_EQ(ledger.serverPowerW(server.id),
                      onePowerW(bank, server.id,
                                loads[server.id.index]));
            EXPECT_EQ(ledger.serverAirflowCfm(server.id),
                      oneAirflowCfm(bank, server.id,
                                    loads[server.id.index]));
        }
        for (const Row &row : dc.rows()) {
            EXPECT_EQ(ledger.rowPowerW(row.id),
                      oracleRowW(row, loads, mask))
                << "row " << row.id.index;
            EXPECT_EQ(ledger.rowProvisionW(row.id),
                      hierarchy.effectiveRowProvision(row.id).value());
        }
        for (const Aisle &aisle : dc.aisles()) {
            EXPECT_EQ(ledger.aisleAirflowCfm(aisle.id),
                      oracleAisleCfm(aisle, loads, mask))
                << "aisle " << aisle.id.index;
            EXPECT_EQ(ledger.aisleProvisionCfm(aisle.id),
                      cooling.effectiveProvision(aisle.id).value());
        }
    }
    // The derates reach the provisions.
    EXPECT_DOUBLE_EQ(ledger.rowProvisionW(RowId(0)),
                     0.75 * hierarchy.rowProvision(RowId(0)).value());
    EXPECT_DOUBLE_EQ(ledger.aisleProvisionCfm(AisleId(1)),
                     0.9 * cooling.provision(AisleId(1)).value());
    EXPECT_EQ(ledger.aisleProvisionCfm(AisleId(0)),
              cooling.provision(AisleId(0)).value());
}

TEST_F(BudgetLedgerTest, PeaksCountSaasAtTheControllableFloor)
{
    occupy(ServerId(2), VmKind::SaaS, 0.9);
    occupy(ServerId(3), VmKind::SaaS, 0.3);
    occupy(ServerId(5), VmKind::IaaS, 0.7);
    BudgetLedger ledger;
    ledger.fillPeaks(view);
    EXPECT_EQ(ledger.serverPowerW(ServerId(2)),
              onePowerW(bank, ServerId(2),
                        BudgetLedger::kSaasControllableLoad));
    EXPECT_EQ(ledger.serverPowerW(ServerId(3)),
              onePowerW(bank, ServerId(3), 0.3));
    EXPECT_EQ(ledger.serverPowerW(ServerId(5)),
              onePowerW(bank, ServerId(5), 0.7));
    // An empty server counts at idle.
    EXPECT_EQ(ledger.serverAirflowCfm(ServerId(0)),
              oneAirflowCfm(bank, ServerId(0), 0.0));
}

TEST_F(BudgetLedgerTest, AhuDerateBindsThroughTheAisleValidator)
{
    // Derate every AHU to half its aisle's idle airflow: no server
    // passes Eq. 3, while every row could still take a full-load VM
    // on any of its servers under Eq. 4.
    BudgetLedger ledger;
    ledger.fillPeaks(view);
    for (const Aisle &aisle : dc.aisles()) {
        cooling.setAhuDerate(aisle.id,
                             0.5 * ledger.aisleAirflowCfm(aisle.id) /
                                 cooling.provision(aisle.id).value());
    }
    ledger.fillPeaks(view);
    for (const Row &row : dc.rows()) {
        double worst_extra = 0.0;
        for (ServerId sid : row.servers) {
            worst_extra = std::max(worst_extra,
                                   onePowerW(bank, sid, 1.0) -
                                       onePowerW(bank, sid, 0.0));
        }
        EXPECT_LT(ledger.rowPowerW(row.id) + worst_extra,
                  ledger.rowProvisionW(row.id));
    }
    for (const Aisle &aisle : dc.aisles()) {
        EXPECT_GT(ledger.aisleAirflowCfm(aisle.id),
                  ledger.aisleProvisionCfm(aisle.id));
    }

    TapasAllocator alloc{TapasPolicyConfig{}};
    EXPECT_FALSE(alloc.place(fullLoadIaas(), view).has_value());

    RiskAssessor assessor{TapasPolicyConfig{}};
    const std::vector<double> gpu_w(dc.serverCount() * 8, 60.0);
    assessor.refresh(view, gpu_w);
    for (const Server &server : dc.servers()) {
        EXPECT_TRUE(assessor.risk(server.id).airflowRisk);
        EXPECT_FALSE(assessor.risk(server.id).powerRisk);
    }

    // Restoring one AHU reopens exactly its aisle.
    cooling.setAhuDerate(AisleId(1), 1.0);
    const auto pick = alloc.place(fullLoadIaas(), view);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(dc.server(*pick).aisle, AisleId(1));
    assessor.refresh(view, gpu_w);
    for (const Server &server : dc.servers()) {
        EXPECT_EQ(assessor.risk(server.id).airflowRisk,
                  server.aisle == AisleId(0));
    }
}

} // namespace
} // namespace tapas
