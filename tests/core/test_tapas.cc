/**
 * @file
 * Unit tests for the TapasController facade.
 */

#include "fixture.hh"

#include <algorithm>
#include <memory>

#include "common/serialize.hh"
#include "core/tapas.hh"
#include "llm/engine.hh"
#include "telemetry/history.hh"
#include "telemetry/profile_lanes.hh"

namespace tapas {
namespace {

class TapasControllerTest : public CoreFixture
{
  protected:
    TapasControllerTest()
        : refProfile(perf.profile(referenceConfig()))
    {
        gpuPower.assign(dc.serverCount() * 8, 60.0);
    }

    TapasPolicyConfig
    allOn()
    {
        TapasPolicyConfig cfg;
        cfg.placeEnabled = true;
        cfg.routeEnabled = true;
        cfg.configEnabled = true;
        return cfg;
    }

    SaasInstanceRef
    makeInstance(std::uint32_t id, ServerId server, double demand)
    {
        engines.push_back(std::make_unique<InferenceEngine>(
            refProfile, perf.slo()));
        occupy(server, VmKind::SaaS, 0.8, 0.5);
        SaasInstanceRef ref;
        ref.id = VmId(id);
        ref.server = server;
        ref.engine = engines.back().get();
        ref.demandTps = demand;
        return ref;
    }

    ConfigProfile refProfile;
    std::vector<std::unique_ptr<InferenceEngine>> engines;
    std::vector<double> gpuPower;
};

TEST_F(TapasControllerTest, PolicyFlagsSelectImplementations)
{
    TapasPolicyConfig baseline;
    baseline.placeEnabled = false;
    baseline.routeEnabled = false;
    baseline.configEnabled = false;
    TapasController base(baseline, dc, cooling, hierarchy, &bank,
                         &perf);
    EXPECT_STREQ(base.allocator().name(), "baseline");
    EXPECT_STREQ(base.router().name(), "baseline");
    EXPECT_EQ(base.riskAssessor(), nullptr);
    EXPECT_FALSE(base.capIaasFirst());

    TapasController full(allOn(), dc, cooling, hierarchy, &bank,
                         &perf);
    EXPECT_STREQ(full.allocator().name(), "tapas");
    EXPECT_STREQ(full.router().name(), "tapas");
    EXPECT_NE(full.riskAssessor(), nullptr);
    EXPECT_TRUE(full.capIaasFirst());
}

TEST_F(TapasControllerTest, RiskRefreshGoesThroughController)
{
    TapasController controller(allOn(), dc, cooling, hierarchy,
                               &bank, &perf);
    view.now = 0;
    controller.maybeRefreshRisk(view, gpuPower);
    ASSERT_NE(controller.riskAssessor(), nullptr);
    EXPECT_TRUE(controller.riskAssessor()->fresh());
}

TEST_F(TapasControllerTest, ConfigurePassIsNoopWhenDisabled)
{
    TapasPolicyConfig cfg = allOn();
    cfg.configEnabled = false;
    TapasController controller(cfg, dc, cooling, hierarchy, &bank,
                               &perf);
    std::vector<SaasInstanceRef> instances;
    instances.push_back(makeInstance(0, ServerId(0), 100.0));
    controller.configurePass(view, instances);
    EXPECT_EQ(controller.reconfigsIssued(), 0u);
    EXPECT_EQ(engines[0]->profile().config, referenceConfig());
}

TEST_F(TapasControllerTest, ConfigurePassRightSizesUnderSlack)
{
    TapasController controller(allOn(), dc, cooling, hierarchy,
                               &bank, &perf);
    std::vector<SaasInstanceRef> instances;
    instances.push_back(makeInstance(0, ServerId(0), 100.0));
    controller.configurePass(view, instances);
    // Plenty of row headroom and low demand: the instance is
    // right-sized to a cheaper same-quality config without a
    // reload blackout.
    EXPECT_DOUBLE_EQ(engines[0]->profile().quality, 1.0);
    EXPECT_TRUE(engines[0]->accepting());
    EXPECT_GE(engines[0]->profile().goodputTps, 100.0 * 1.5);
}

TEST_F(TapasControllerTest, PowerEmergencyTriggersReconfigs)
{
    TapasController controller(allOn(), dc, cooling, hierarchy,
                               &bank, &perf);

    // Fill row 0: one SaaS instance per server, all loaded.
    std::vector<SaasInstanceRef> instances;
    std::uint32_t id = 0;
    for (ServerId sid : dc.row(RowId(0)).servers) {
        instances.push_back(makeInstance(
            id++, sid, 0.9 * refProfile.goodputTps));
        view.serverLoads[sid.index] = 0.9;
    }

    hierarchy.setUpsDerate(UpsId(0), 0.60);
    controller.configurePass(view, instances);
    // Budgets dropped sharply: at least some instances must be
    // reconfigured down.
    EXPECT_GT(controller.reconfigsIssued(), 0u);
}

TEST_F(TapasControllerTest, ConfigurePassSkipsReconfiguringEngines)
{
    TapasController controller(allOn(), dc, cooling, hierarchy,
                               &bank, &perf);
    std::vector<SaasInstanceRef> instances;
    instances.push_back(makeInstance(0, ServerId(0), 100.0));
    InstanceConfig smaller = referenceConfig();
    smaller.model = ModelSize::B13;
    engines[0]->requestReconfig(perf.profile(smaller), 30.0);
    ASSERT_TRUE(engines[0]->reconfiguring());
    controller.configurePass(view, instances);
    EXPECT_EQ(controller.reconfigsIssued(), 0u);
}

TEST_F(TapasControllerTest, ConfigurePassIsOrderIndependent)
{
    // Decisions are per-instance independent, so the pass must not
    // depend on the order of its instance list: the same instances
    // in two orders end with equal engine profiles, reconfig counts
    // and dwell tables (the controller checkpoint), through a power
    // emergency (reload downgrades) and its recovery (dwell-gated
    // upgrades). Demands repeat, so instances share candidate groups.
    const double g = refProfile.goodputTps;
    const double demands[] = {0.9 * g, 0.5 * g, 100.0, 0.9 * g,
                              0.3 * g, 100.0};
    std::vector<SaasInstanceRef> forward;
    std::vector<SaasInstanceRef> shuffled;
    std::uint32_t id = 0;
    for (const RowId row : {RowId(0), RowId(1)}) {
        for (ServerId sid : dc.row(row).servers) {
            const double demand =
                demands[id % std::size(demands)];
            forward.push_back(makeInstance(id, sid, demand));
            shuffled.push_back(makeInstance(id, sid, demand));
            view.serverLoads[sid.index] = 0.9;
            ++id;
        }
    }
    // Reverse, then interleave the halves.
    std::reverse(shuffled.begin(), shuffled.end());
    std::vector<SaasInstanceRef> order;
    for (std::size_t i = 0; i < shuffled.size() / 2; ++i) {
        order.push_back(shuffled[i]);
        order.push_back(shuffled[shuffled.size() / 2 + i]);
    }
    if (shuffled.size() % 2 != 0)
        order.push_back(shuffled.back());
    ASSERT_EQ(order.size(), forward.size());

    TapasController a(allOn(), dc, cooling, hierarchy, &bank, &perf);
    TapasController b(allOn(), dc, cooling, hierarchy, &bank, &perf);
    auto run_both = [&]() {
        a.configurePass(view, forward);
        b.configurePass(view, order);
        for (std::size_t i = 0; i < forward.size(); ++i) {
            forward[i].engine->step(0.0, 3600.0);
            shuffled[i].engine->step(0.0, 3600.0);
        }
    };
    hierarchy.setUpsDerate(UpsId(0), 0.55);
    run_both();
    const std::uint64_t emergency_reconfigs = a.reconfigsIssued();
    hierarchy.setUpsDerate(UpsId(0), 1.0);
    view.now += 600;
    run_both();

    EXPECT_GT(emergency_reconfigs, 0u);
    EXPECT_EQ(a.reconfigsIssued(), b.reconfigsIssued());
    for (std::size_t i = 0; i < forward.size(); ++i) {
        // shuffled[] is reversed: instance i sits at the mirror slot.
        const SaasInstanceRef &twin =
            shuffled[shuffled.size() - 1 - i];
        ASSERT_EQ(twin.id, forward[i].id);
        EXPECT_EQ(forward[i].engine->profile().config,
                  twin.engine->profile().config)
            << "instance " << i;
    }
    Archive ar_a = Archive::writer();
    Archive ar_b = Archive::writer();
    a.checkpointState(ar_a);
    b.checkpointState(ar_b);
    EXPECT_EQ(ar_a.buffer(), ar_b.buffer());
}

TEST_F(TapasControllerTest, AcceptedRefitMovesZeroLoadFloors)
{
    // The zero-load power floor must follow the current fitted
    // model: after an accepted power refit, a controller that has
    // already run a pass decides exactly as a freshly built one (a
    // restored simulation builds a fresh controller).
    const ServerId sid = dc.row(RowId(0)).servers.front();
    TapasController warm(allOn(), dc, cooling, hierarchy, &bank,
                         &perf);
    {
        // The warm-up instance is mid-reload, so this pass evaluates
        // the fleet's floors but decides nothing and leaves no dwell
        // history behind.
        std::vector<SaasInstanceRef> busy;
        busy.push_back(makeInstance(0, sid, 100.0));
        InstanceConfig smaller = referenceConfig();
        smaller.model = ModelSize::B13;
        engines.back()->requestReconfig(perf.profile(smaller), 30.0);
        warm.configurePass(view, busy);
        ASSERT_EQ(warm.reconfigsIssued(), 0u);
    }

    // Accept a refit that reads every load 400 W higher than the
    // offline model (inside the refit envelope).
    const ProfileBank before = bank;
    TelemetryStore store;
    SimTime t = 0;
    for (int i = 0; i < 24; ++i) {
        const double load = 0.1 + 0.8 * i / 23.0;
        const double power_w = onePowerW(bank, sid, load);
        ServerSample sample;
        sample.time = t;
        sample.gpuLoad = static_cast<float>(load);
        sample.serverPowerW = static_cast<float>(power_w + 400.0);
        store.recordServer(sid, sample);
        t += 10 * kMinute;
    }
    bank.refitPowerFromTelemetry(store);
    ASSERT_EQ(bank.refitsAccepted(), 1u);

    // Drop the row budget below the new idle draw: the zero-load
    // floor is the binding server power limit.
    hierarchy.setUpsDerate(UpsId(0), 0.05);

    auto settled_choice = [&](TapasController &controller) {
        std::vector<SaasInstanceRef> one;
        one.push_back(makeInstance(1, sid, 0.5 * refProfile.goodputTps));
        controller.configurePass(view, one);
        // Step the idle engine past any reload it was asked for.
        engines.back()->step(0.0, 3600.0);
        return engines.back()->profile().config;
    };
    TapasController fresh(allOn(), dc, cooling, hierarchy, &bank,
                          &perf);
    TapasController pre_refit(allOn(), dc, cooling, hierarchy,
                              &before, &perf);
    const InstanceConfig want = settled_choice(fresh);
    // The scenario discriminates: the pre-refit floor decides
    // otherwise.
    ASSERT_NE(settled_choice(pre_refit), want);
    EXPECT_EQ(settled_choice(warm), want);
}

TEST_F(TapasControllerTest, ControllerWithoutProfilesPanics)
{
    EXPECT_DEATH(TapasController(allOn(), dc, cooling, hierarchy,
                                 nullptr, &perf),
                 "profiles");
}

} // namespace
} // namespace tapas
