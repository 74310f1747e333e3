#include "core/budget.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tapas {

void
BudgetLedger::peakLoadByServer(const ClusterView &view,
                               std::vector<double> &peaks)
{
    peaks.assign(view.layout->serverCount(), 0.0);
    for (const PlacedVmView &vm : view.vms) {
        tapas_assert(view.occupied[vm.server.index],
                     "view VM %u on unoccupied server %u",
                     vm.id.index, vm.server.index);
        double peak = vm.predictedPeakLoad;
        if (vm.kind == VmKind::SaaS)
            peak = std::min(peak, kSaasControllableLoad);
        peaks[vm.server.index] = peak;
    }
}

void
BudgetLedger::fill(const DatacenterLayout &layout,
                   const ProfileBank &profiles,
                   const CoolingPlant &cooling,
                   const PowerHierarchy &power, const double *loads,
                   const char *skip)
{
    // Sized outside the hot region: the fleet only grows between
    // fills (oversubscription racks), so after the first fill these
    // are capacity checks.
    const std::size_t servers = layout.serverCount();
    serverPower.resize(servers);
    serverAirflow.resize(servers);
    rowPower.resize(layout.rowCount());
    rowProvision.resize(layout.rowCount());
    aisleAirflow.resize(layout.aisleCount());
    aisleProvision.resize(layout.aisleCount());

    // tapas-hot begin(budget-fill): runs inside the risk-refresh and
    // configure-pass sweeps and per placement; member arrays only.
    profiles.predictPowerBatch(loads, servers, serverPower.data());
    profiles.predictAirflowBatch(loads, servers, serverAirflow.data());
    // One walk in ascending server id order: every validator's sums
    // accumulate in the same order, so they agree to the bit.
    std::fill(rowPower.begin(), rowPower.end(), 0.0);
    std::fill(aisleAirflow.begin(), aisleAirflow.end(), 0.0);
    for (const Server &server : layout.servers()) {
        if (skip && skip[server.id.index])
            continue;
        rowPower[server.row.index] += serverPower[server.id.index];
        aisleAirflow[server.aisle.index] +=
            serverAirflow[server.id.index];
    }
    for (const Row &row : layout.rows()) {
        rowProvision[row.id.index] =
            power.effectiveRowProvision(row.id).value();
    }
    for (const Aisle &aisle : layout.aisles()) {
        aisleProvision[aisle.id.index] =
            cooling.effectiveProvision(aisle.id).value();
    }
    // tapas-hot end(budget-fill)
}

void
BudgetLedger::fillPeaks(const ClusterView &view)
{
    tapas_assert(view.profiles, "budget accounting needs profiles");
    view.assertFresh();
    peakLoadByServer(view, peakLoads);
    fill(*view.layout, *view.profiles, *view.cooling, *view.power,
         peakLoads.data());
}

} // namespace tapas
