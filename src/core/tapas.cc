#include "core/tapas.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace tapas {

TapasController::TapasController(const TapasPolicyConfig &config,
                                 const DatacenterLayout &layout_,
                                 CoolingPlant &cooling_,
                                 PowerHierarchy &power_,
                                 const ProfileBank *profiles_,
                                 const PerfModel *perf_)
    : cfg(config), layout(layout_), cooling(cooling_), power(power_),
      profiles(profiles_), perf(perf_)
{
    if (cfg.placeEnabled) {
        tapas_assert(profiles, "Place policy needs fitted profiles");
        alloc = std::make_unique<TapasAllocator>(cfg);
    } else {
        alloc = std::make_unique<BaselineAllocator>();
    }
    if (cfg.routeEnabled) {
        tapas_assert(profiles, "Route policy needs fitted profiles");
        route = std::make_unique<TapasRouter>(cfg);
        risk = std::make_unique<RiskAssessor>(cfg);
    } else {
        route = std::make_unique<BaselineRouter>();
    }
    if (cfg.configEnabled) {
        tapas_assert(profiles && perf,
                     "Config policy needs profiles and a perf model");
        configurator = std::make_unique<InstanceConfigurator>(*perf,
                                                              cfg);
    }
}

void
TapasController::maybeRefreshRisk(
    const ClusterView &view, const std::vector<double> &gpu_power_w)
{
    if (risk)
        risk->maybeRefresh(view, gpu_power_w);
}

void
TapasController::configurePass(
    const ClusterView &view,
    const std::vector<SaasInstanceRef> &instances)
{
    if (!configurator || instances.empty())
        return;
    view.assertFresh();
    // Size the dwell table before entering the hot region: the one
    // growth this pass may need happens here, so the per-instance
    // dwell reads/writes below are plain indexed accesses.
    std::uint32_t max_vm = 0;
    for (const SaasInstanceRef &inst : instances)
        max_vm = std::max(max_vm, inst.id.index);
    if (lastReloadAt.size() <= max_vm)
        lastReloadAt.resize(max_vm + 1, kNeverReloaded);
    // tapas-hot begin(configure-pass): near-every-step reconfig
    // sweep; member scratch only (R3) — capacity persists across
    // passes, so the steady state allocates nothing.

    // --- Per-row/aisle SaaS instance counts, and the budget ledger
    // at the unreconfigurable loads with the instance servers masked
    // out of the sums. An instance's server carries zero fixed load,
    // so the ledger's per-server prediction there is its zero-load
    // power/airflow floor under the current fitted models (a power
    // refit replaces them between passes). ---
    rowSaasScratch.assign(layout.rowCount(), 0);
    aisleSaasScratch.assign(layout.aisleCount(), 0);
    saasServerScratch.assign(layout.serverCount(), 0);
    std::vector<int> &row_saas = rowSaasScratch;
    std::vector<int> &aisle_saas = aisleSaasScratch;
    std::vector<char> &saas_server = saasServerScratch;
    for (const SaasInstanceRef &inst : instances) {
        if (saas_server[inst.server.index])
            continue;
        saas_server[inst.server.index] = 1;
        const Server &server = layout.server(inst.server);
        ++row_saas[server.row.index];
        ++aisle_saas[server.aisle.index];
    }

    const std::size_t servers = layout.serverCount();
    fixedLoadScratch.resize(servers);
    inletScratch.resize(servers);
    for (std::size_t s = 0; s < servers; ++s) {
        fixedLoadScratch[s] = view.occupied[s] && !saas_server[s]
            ? view.serverLoads[s]
            : 0.0;
    }
    ledger.fill(layout, *profiles, cooling, power,
                fixedLoadScratch.data(), saas_server.data());
    profiles->predictInletBatch(view.outsideC, view.dcLoadFrac,
                                servers, inletScratch.data());

    const bool emergency =
        cooling.anyFailure() || power.anyFailure();
    const double quality_floor = emergency
        ? cfg.emergencyQualityFloor
        : cfg.normalQualityFloor;

    // Instances at one demand share a candidate group (operating
    // points depend only on candidate and demand). Decisions are
    // per-instance independent, so they run in the caller's order.
    groupTableScratch.clear();
    for (const SaasInstanceRef &inst : instances) {
        if (inst.engine->reconfiguring())
            continue;
        // Freeze reconfiguration on quarantined servers: every
        // reconfig decision reads this server's (untrusted) sensor
        // state, so hold the instance at its current configuration
        // until the sensors check out again. Unaffected servers'
        // limits are computed per-pass from plant budgets and are
        // untouched by the skip.
        if (risk && risk->quarantined(inst.server))
            continue;
        const Server &server = layout.server(inst.server);
        const ServerSpec &spec = layout.specOf(inst.server);

        InstanceLimits limits;
        const int saas_in_row =
            std::max(1, row_saas[server.row.index]);
        limits.maxServerPowerW = std::max(
            (ledger.rowProvisionW(server.row) -
             ledger.rowPowerW(server.row)) /
                saas_in_row,
            ledger.serverPowerW(inst.server));

        const int saas_in_aisle =
            std::max(1, aisle_saas[server.aisle.index]);
        limits.maxAirflowCfm = std::max(
            (ledger.aisleProvisionCfm(server.aisle) -
             ledger.aisleAirflowCfm(server.aisle)) /
                saas_in_aisle,
            ledger.serverAirflowCfm(inst.server));

        limits.maxGpuTempC =
            spec.throttleTemp.value() - cfg.gpuTempMarginC;
        limits.inletC = inletScratch[inst.server.index];

        const ConfigDecision decision = configurator->choose(
            inst.server, *profiles, limits, inst.demandTps,
            quality_floor, inst.engine->profile(),
            &groupTableScratch);
        if (!decision.changed)
            continue;
        // Dwell gate: quality-restoring reloads wait out the dwell
        // window — and never fire while the emergency is still
        // active — so instances do not oscillate across feasibility
        // boundaries; necessity downgrades pass immediately.
        const ConfigProfile &current = inst.engine->profile();
        if (decision.profile.config.requiresReload(
                current.config)) {
            const bool upgrade =
                decision.profile.quality >= current.quality;
            const SimTime last = lastReloadAt[inst.id.index];
            const bool dwelling = last != kNeverReloaded &&
                view.now - last < cfg.reloadDwell;
            if (upgrade && current.quality < 1.0 &&
                (emergency || dwelling)) {
                continue;
            }
            if (upgrade && dwelling)
                continue;
            lastReloadAt[inst.id.index] = view.now;
        }
        inst.engine->requestReconfig(decision.profile,
                                     cfg.reloadDelayS);
        ++reconfigCount;
    }
    // tapas-hot end(configure-pass)
}

void
TapasController::checkpointState(Archive &ar)
{
    // Serialized as index-sorted (vm, time) pairs — the same bytes
    // the former unordered_map representation produced after its
    // canonicalizing sort, so checkpoints cross the dense-vector
    // rewrite unchanged. Never-reloaded slots do not travel.
    std::vector<std::pair<std::uint32_t, SimTime>> reloads;
    for (std::uint32_t vm = 0; vm < lastReloadAt.size(); ++vm) {
        if (lastReloadAt[vm] != kNeverReloaded)
            reloads.emplace_back(vm, lastReloadAt[vm]);
    }
    ar.each(reloads,
            [](Archive &a, std::pair<std::uint32_t, SimTime> &e) {
                a.value(e.first);
                a.value(e.second);
            });
    if (!ar.writing()) {
        std::fill(lastReloadAt.begin(), lastReloadAt.end(),
                  kNeverReloaded);
        for (const auto &[vm, at] : reloads) {
            if (vm >= lastReloadAt.size())
                lastReloadAt.resize(vm + 1, kNeverReloaded);
            lastReloadAt[vm] = at;
        }
    }
    ar.value(reconfigCount);
    route->checkpointState(ar);
    bool has_risk = risk != nullptr;
    ar.value(has_risk);
    if (has_risk != (risk != nullptr)) {
        // Policy flags decide whether a risk cache exists; the
        // checkpoint must agree with this sim's configuration.
        ar.fail();
        return;
    }
    if (risk)
        risk->checkpointState(ar);
}

} // namespace tapas
