/**
 * @file
 * Microbenchmarks (google-benchmark) for the TAPAS decision
 * components: placement, routing, risk refresh, configuration
 * choice, request generation, Zipf sampling, and the ground-truth
 * model evaluations.
 * These bound the control-plane overheads the paper's Section 4.5
 * claims are lightweight.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "core/allocator.hh"
#include "core/configurator.hh"
#include "core/risk.hh"
#include "core/router.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "llm/engine.hh"
#include "telemetry/profiles.hh"
#include "workload/requests.hh"

namespace {

using namespace tapas;

/** Shared medium-size fixture (480 servers). */
struct World
{
    World()
        : dc(makeLayout()), thermal(dc, ThermalConfig{}, 42),
          power(PowerConfig{}), cooling(dc, thermal),
          hierarchy(dc, power), bank(dc),
          perf(PerfModel::withReferenceSlo(
              ServerSpec::a100(), PerfParams::forSku(GpuSku::A100)))
    {
        bank.offlineProfile(thermal, power, 7);
        view.layout = &dc;
        view.cooling = &cooling;
        view.power = &hierarchy;
        view.profiles = &bank;
        view.outsideC = 26.0;
        view.dcLoadFrac = 0.6;
        view.serverLoads.assign(dc.serverCount(), 0.5);
        view.occupied.assign(dc.serverCount(), false);
        Rng rng(3);
        for (std::size_t s = 0; s < dc.serverCount(); s += 2) {
            PlacedVmView vm;
            vm.id = VmId(static_cast<std::uint32_t>(s));
            vm.kind = s % 4 == 0 ? VmKind::IaaS : VmKind::SaaS;
            vm.server = ServerId(static_cast<std::uint32_t>(s));
            vm.predictedPeakLoad = rng.uniform(0.4, 1.0);
            view.vms.push_back(vm);
            view.occupied[s] = true;
        }
        gpuPower.assign(dc.serverCount() * 8, 200.0);
    }

    static LayoutConfig
    makeLayout()
    {
        LayoutConfig cfg;
        cfg.aisleCount = 6;
        cfg.rowsPerAisle = 2;
        cfg.racksPerRow = 10;
        cfg.serversPerRack = 4;
        return cfg;
    }

    DatacenterLayout dc;
    ThermalModel thermal;
    PowerModel power;
    CoolingPlant cooling;
    PowerHierarchy hierarchy;
    ProfileBank bank;
    PerfModel perf;
    ClusterView view;
    std::vector<double> gpuPower;
};

World &
world()
{
    static World instance;
    return instance;
}

void
BM_TapasPlacement(benchmark::State &state)
{
    World &w = world();
    TapasAllocator alloc{TapasPolicyConfig{}};
    PlacementRequest request;
    request.kind = VmKind::IaaS;
    request.predictedPeakLoad = 0.9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(alloc.place(request, w.view));
    }
}
BENCHMARK(BM_TapasPlacement);

void
BM_BaselinePlacement(benchmark::State &state)
{
    World &w = world();
    BaselineAllocator alloc;
    PlacementRequest request;
    for (auto _ : state) {
        benchmark::DoNotOptimize(alloc.place(request, w.view));
    }
}
BENCHMARK(BM_BaselinePlacement);

void
BM_RiskRefresh(benchmark::State &state)
{
    World &w = world();
    RiskAssessor assessor{TapasPolicyConfig{}};
    for (auto _ : state) {
        assessor.refresh(w.view, w.gpuPower);
        benchmark::DoNotOptimize(assessor.flaggedCount());
    }
}
BENCHMARK(BM_RiskRefresh);

void
BM_RouterDecision(benchmark::State &state)
{
    World &w = world();
    TapasRouter router{TapasPolicyConfig{}};
    const ConfigProfile profile =
        w.perf.profile(referenceConfig());
    std::vector<std::unique_ptr<InferenceEngine>> engines;
    std::vector<RouteCandidate> candidates;
    // Mid-step routing state: every request of the step is enqueued
    // before any engine steps, so each candidate holds an active
    // prefill plus a ~100-deep queue.
    Request queued;
    queued.outputTokens = 128;
    for (std::uint32_t i = 0; i < 50; ++i) {
        engines.push_back(std::make_unique<InferenceEngine>(
            profile, w.perf.slo()));
        InferenceEngine &engine = *engines.back();
        const std::uint32_t depth = 90 + (i * 7) % 21;
        for (std::uint32_t q = 0; q <= depth; ++q) {
            queued.id = RequestId(i * 1000 + q);
            queued.promptTokens = 128 + static_cast<int>(
                (queued.id.index * 7919u) % 769u);
            engine.enqueue(queued);
            // Start the first prefill and leave it a third done.
            if (q == 0) {
                engine.step(0.0, 0.3 * queued.promptTokens /
                                     profile.prefill.throughputTps);
            }
        }
        candidates.push_back({VmId(i), ServerId(i * 2), &engine});
    }
    Request request;
    request.customer = CustomerId(7);
    request.promptTokens = 512;
    request.outputTokens = 128;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            router.route(request, candidates, nullptr));
    }
}
BENCHMARK(BM_RouterDecision);

void
BM_ZipfSample(benchmark::State &state)
{
    // Customer pick of the request generator's default endpoint.
    const ZipfSampler zipf(50, 1.1);
    Rng rng(11);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

void
BM_RequestGenerate(benchmark::State &state)
{
    // One request-level step's arrivals, the work the simulator
    // prefetches on the pool: 10 endpoints over one minute at peak
    // demand, ~600 requests each. Reported as time per request.
    std::vector<EndpointDemand> endpoints;
    for (std::uint32_t e = 0; e < 10; ++e) {
        EndpointDemand ep;
        ep.id = EndpointId(e);
        ep.peakTokensPerS = 6500.0;
        ep.customerCount = 40 + 10 * static_cast<int>(e % 4);
        endpoints.push_back(ep);
    }
    RequestGenerator gen(std::move(endpoints), LengthDistribution{}, 7);
    const SimTime from = 14 * kHour;
    double requests = 0.0;
    for (auto _ : state) {
        gen.loadWindow(from, from + kMinute);
        for (const EndpointDemand &ep : gen.endpoints())
            requests += static_cast<double>(gen.arrivals(ep.id).size());
        benchmark::DoNotOptimize(requests);
    }
    state.counters["per_request"] = benchmark::Counter(
        requests, benchmark::Counter::kIsRate |
                      benchmark::Counter::kInvert);
}
BENCHMARK(BM_RequestGenerate);

void
BM_ConfiguratorChoice(benchmark::State &state)
{
    World &w = world();
    InstanceConfigurator configurator(w.perf, TapasPolicyConfig{});
    const ConfigProfile current =
        w.perf.profile(referenceConfig());
    InstanceLimits limits;
    limits.maxServerPowerW = 5200.0;
    limits.maxGpuTempC = 77.0;
    limits.maxAirflowCfm = 1000.0;
    limits.inletC = 26.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(configurator.choose(
            ServerId(3), w.bank, limits, 2500.0, 0.999, current));
    }
}
BENCHMARK(BM_ConfiguratorChoice);

void
BM_ConfiguratorPass(benchmark::State &state)
{
    // One configure pass in fleet_week's shape: ~190 instances at
    // ~80 distinct demands (800-3200 tokens/s, log-uniform) deciding
    // on one group table under loose power and tight-ish
    // temperature/airflow limits. Each incumbent is the instance's
    // own decision at 12% lower demand, as after a demand move.
    World &w = world();
    InstanceConfigurator configurator(w.perf, TapasPolicyConfig{});
    struct Instance
    {
        ServerId server;
        double demandTps;
        ConfigProfile current;
        InstanceLimits limits;
    };
    Rng rng(11);
    std::vector<double> levels(80);
    for (double &level : levels)
        level = std::exp(rng.uniform(std::log(800.0), std::log(3200.0)));
    const ConfigProfile reference = w.perf.profile(referenceConfig());
    std::vector<Instance> instances;
    for (std::uint32_t i = 0; i < 190; ++i) {
        Instance inst{ServerId((2 * i) %
                               static_cast<std::uint32_t>(
                                   w.dc.serverCount())),
                      levels[static_cast<std::size_t>(
                          rng.uniformInt(0, 79))],
                      reference, InstanceLimits{}};
        inst.limits.maxServerPowerW = rng.uniform(7400.0, 13500.0);
        inst.limits.maxGpuTempC = 77.0;
        inst.limits.maxAirflowCfm = rng.uniform(1300.0, 2000.0);
        inst.limits.inletC = rng.uniform(29.4, 30.4);
        inst.current = configurator
                           .choose(inst.server, w.bank, inst.limits,
                                   0.88 * inst.demandTps, 0.999,
                                   reference)
                           .profile;
        instances.push_back(inst);
    }
    InstanceConfigurator::GroupTable table;
    for (auto _ : state) {
        table.clear();
        for (const Instance &inst : instances) {
            benchmark::DoNotOptimize(configurator.choose(
                inst.server, w.bank, inst.limits, inst.demandTps,
                0.999, inst.current, &table));
        }
    }
    state.counters["per_decision"] = benchmark::Counter(
        static_cast<double>(instances.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_ConfiguratorPass);

void
BM_InletModelEval(benchmark::State &state)
{
    World &w = world();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            w.thermal.inletTemperature(ServerId(5), Celsius(28.0),
                                       0.7, 0.02));
    }
}
BENCHMARK(BM_InletModelEval);

void
BM_FittedInletPrediction(benchmark::State &state)
{
    // One fleet pass of the fitted inlet spline, reported per server
    // (per_server is seconds per server).
    World &w = world();
    const std::size_t servers = w.dc.serverCount();
    std::vector<double> inlet(servers);
    for (auto _ : state) {
        w.bank.predictInletBatch(28.0, 0.7, servers, inlet.data());
        benchmark::DoNotOptimize(inlet.data());
        benchmark::ClobberMemory();
    }
    state.counters["per_server"] = benchmark::Counter(
        static_cast<double>(servers),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_FittedInletPrediction);

void
BM_EngineStepBusy(benchmark::State &state)
{
    World &w = world();
    const ConfigProfile profile =
        w.perf.profile(referenceConfig());
    for (auto _ : state) {
        state.PauseTiming();
        InferenceEngine engine(profile, w.perf.slo());
        Request request;
        request.promptTokens = 512;
        request.outputTokens = 128;
        for (std::uint32_t i = 0; i < 32; ++i) {
            request.id = RequestId(i);
            engine.enqueue(request);
        }
        state.ResumeTiming();
        engine.step(0.0, 60.0);
        benchmark::DoNotOptimize(engine.stats().completed);
    }
}
BENCHMARK(BM_EngineStepBusy);

} // namespace

BENCHMARK_MAIN();
