/**
 * @file
 * Shared test fixture: a small profiled datacenter with plant models,
 * used by the core-policy unit tests.
 */

#ifndef TAPAS_TESTS_CORE_FIXTURE_HH
#define TAPAS_TESTS_CORE_FIXTURE_HH

#include <gtest/gtest.h>

#include "core/context.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "llm/perf.hh"
#include "telemetry/profiles.hh"

namespace tapas {

/** A 2-aisle, 4-row, 48-server profiled cluster. */
class CoreFixture : public ::testing::Test
{
  protected:
    CoreFixture()
        : dc(makeLayout()), thermal(dc, ThermalConfig{}, 42),
          powerModel(PowerConfig{}), cooling(dc, thermal),
          hierarchy(dc, powerModel), bank(dc),
          perf(PerfModel::withReferenceSlo(
              dc.specs().front(),
              PerfParams::forSku(dc.specs().front().sku)))
    {
        bank.offlineProfile(thermal, powerModel, 8);
        view.layout = &dc;
        view.cooling = &cooling;
        view.power = &hierarchy;
        view.profiles = &bank;
        view.now = 0;
        view.outsideC = 24.0;
        view.dcLoadFrac = 0.5;
        view.serverLoads.assign(dc.serverCount(), 0.0);
        view.occupied.assign(dc.serverCount(), false);
    }

    static LayoutConfig
    makeLayout()
    {
        LayoutConfig cfg;
        cfg.aisleCount = 2;
        cfg.rowsPerAisle = 2;
        cfg.racksPerRow = 3;
        cfg.serversPerRack = 4;
        return cfg;
    }

    /** Mark a server occupied by a VM view. */
    void
    occupy(ServerId sid, VmKind kind, double peak_load,
           double current_load = 0.5)
    {
        PlacedVmView vm;
        vm.id = VmId(static_cast<std::uint32_t>(view.vms.size()));
        vm.kind = kind;
        vm.server = sid;
        vm.predictedPeakLoad = peak_load;
        if (kind == VmKind::SaaS)
            vm.endpoint = EndpointId(0);
        view.vms.push_back(vm);
        view.occupied[sid.index] = true;
        view.serverLoads[sid.index] = current_load;
    }

    DatacenterLayout dc;
    ThermalModel thermal;
    PowerModel powerModel;
    CoolingPlant cooling;
    PowerHierarchy hierarchy;
    ProfileBank bank;
    PerfModel perf;
    ClusterView view;
};

} // namespace tapas

#endif // TAPAS_TESTS_CORE_FIXTURE_HH
