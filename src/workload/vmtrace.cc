#include "workload/vmtrace.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tapas {

VmTraceGenerator::VmTraceGenerator(const VmTraceConfig &config,
                                   std::uint64_t seed)
    : cfg(config), noiseSeed(mixSeed(seed, 0x6e6f6973ULL))
{
    tapas_assert(cfg.targetVmCount > 0, "need a positive VM target");
    tapas_assert(cfg.saasFraction >= 0.0 && cfg.saasFraction <= 1.0,
                 "SaaS fraction must be in [0,1]");
    Rng rng(mixSeed(seed, 0x766d7472ULL));

    // Customer load patterns: shared diurnal shape per customer.
    customerPatterns.resize(
        static_cast<std::size_t>(cfg.iaasCustomerCount));
    for (LoadPattern &pattern : customerPatterns) {
        pattern.base = rng.uniform(0.35, 0.7);
        pattern.amplitude = rng.uniform(0.15, 0.3);
        pattern.peakHour = rng.uniform(0.0, 24.0);
        pattern.noiseSigma = rng.uniform(0.02, 0.07);
    }

    // Endpoint sizes: Zipf over ranks, matching the paper's skew
    // where large endpoints hold most SaaS VMs (Fig. 12b).
    endpointSizes.assign(
        static_cast<std::size_t>(cfg.endpointCount), 0);
    const ZipfSampler endpoint_ranks(cfg.endpointCount,
                                     cfg.endpointZipfS);

    std::uint32_t next_id = 0;
    std::vector<SimTime> departures;

    // IaaS customers deploy fleets in bursts; consecutive IaaS VMs
    // share a customer while a burst is open. Packing allocators
    // co-locate such bursts, synchronizing row power peaks (the
    // heavy-tail imbalance of Fig. 10).
    int burst_remaining = 0;
    CustomerId burst_customer;

    auto make_vm = [&](SimTime arrival, bool initial) {
        VmRecord vm;
        vm.id = VmId(next_id++);
        vm.kind = rng.bernoulli(cfg.saasFraction) ? VmKind::SaaS
                                                  : VmKind::IaaS;
        vm.arrival = arrival;
        SimTime life = sampleLifetime(rng);
        if (initial) {
            // Initial population: VMs arrived in the past; keep the
            // residual lifetime so t=0 is mid-steady-state.
            life = static_cast<SimTime>(
                rng.uniform(0.1, 1.0) * static_cast<double>(life));
        }
        vm.departure = arrival + std::max<SimTime>(life, kHour);
        if (vm.kind == VmKind::SaaS) {
            const int rank = endpoint_ranks.sample(rng);
            vm.endpoint =
                EndpointId(static_cast<std::uint32_t>(rank - 1));
            ++endpointSizes[vm.endpoint.index];
        } else {
            if (burst_remaining > 0) {
                vm.customer = burst_customer;
                --burst_remaining;
            } else {
                vm.customer = CustomerId(static_cast<std::uint32_t>(
                    rng.uniformInt(0, cfg.iaasCustomerCount - 1)));
                if (rng.bernoulli(0.6)) {
                    burst_remaining =
                        static_cast<int>(rng.uniformInt(1, 5));
                    burst_customer = vm.customer;
                }
            }
            vm.pattern = customerPatterns[vm.customer.index];
            // Per-VM jitter on the shared customer pattern.
            vm.pattern.base = std::clamp(
                vm.pattern.base + rng.gaussian(0.0, 0.05), 0.1, 0.85);
            vm.pattern.peakHour +=
                rng.gaussian(0.0, 0.5);
        }
        trace.push_back(vm);
        return vm;
    };

    // Initial population at t=0.
    for (int i = 0; i < cfg.targetVmCount; ++i)
        departures.push_back(make_vm(0, true).departure);

    // Replacement arrivals: whenever a VM departs within the horizon,
    // a successor arrives shortly after, holding population steady.
    std::sort(departures.begin(), departures.end());
    std::size_t cursor = 0;
    while (cursor < departures.size()) {
        const SimTime dep = departures[cursor++];
        if (dep >= cfg.horizon)
            continue;
        const SimTime arrival = dep + static_cast<SimTime>(
            rng.exponential(1.0 / (2.0 * kHour)));
        if (arrival >= cfg.horizon)
            continue;
        const VmRecord vm = make_vm(arrival, false);
        // Keep the departure list sorted-enough: insert in order.
        auto pos = std::lower_bound(departures.begin() + cursor,
                                    departures.end(), vm.departure);
        departures.insert(pos, vm.departure);
    }

    std::sort(trace.begin(), trace.end(),
              [](const VmRecord &a, const VmRecord &b) {
                  if (a.arrival != b.arrival)
                      return a.arrival < b.arrival;
                  return a.id < b.id;
              });
}

SimTime
VmTraceGenerator::sampleLifetime(Rng &rng) const
{
    double days = 0.0;
    if (rng.bernoulli(cfg.shortLivedFraction)) {
        days = rng.exponential(1.0 / cfg.shortMeanDays);
    } else {
        days = rng.uniform(cfg.longMinDays, cfg.longMaxDays);
    }
    return static_cast<SimTime>(days * kDay);
}

double
VmTraceGenerator::iaasLoadAt(const VmRecord &vm, SimTime t) const
{
    tapas_assert(vm.kind == VmKind::IaaS,
                 "load pattern queried for a SaaS VM");
    const double hour =
        static_cast<double>(t % kDay) / static_cast<double>(kHour);
    const double diurnal = vm.pattern.amplitude *
        std::cos(2.0 * M_PI * (hour - vm.pattern.peakHour) / 24.0);
    // Counter-based noise: exact replay for any (vm, t).
    Rng noise(mixSeed(noiseSeed,
                      mixSeed(vm.id.index,
                              static_cast<std::uint64_t>(t))));
    const double sample = vm.pattern.base + diurnal +
        noise.gaussian(0.0, vm.pattern.noiseSigma);
    return std::clamp(sample, 0.0, 1.0);
}

} // namespace tapas
