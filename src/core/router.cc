#include "core/router.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace tapas {

VmId
BaselineRouter::route(const Request &request,
                      const std::vector<RouteCandidate> &candidates,
                      const RiskAssessor *risk)
{
    (void)request;
    (void)risk;
    VmId best;
    double best_ttft = 1e300;
    for (const RouteCandidate &cand : candidates) {
        if (!cand.engine->accepting())
            continue;
        const double ttft = cand.engine->estimatedTtftS();
        if (ttft < best_ttft) {
            best_ttft = ttft;
            best = cand.vm;
        }
    }
    return best;
}

VmId
TapasRouter::route(const Request &request,
                   const std::vector<RouteCandidate> &candidates,
                   const RiskAssessor *risk)
{
    // Load thresholds expressed against the TTFT SLO: a VM whose
    // projected TTFT already consumes most of the SLO is a
    // performance risk; one under the concentration bar can absorb
    // more load without endangering latency.
    const double slo_ttft = candidates.empty()
        ? 1.0
        : candidates.front().engine->slo().ttftS;
    const double perf_bar = cfg.perfRiskLoad * slo_ttft;
    const double concentrate_bar =
        cfg.concentrationCeiling * slo_ttft;

    // --- Stage 0: risk filter at server/row/aisle levels. ---
    std::vector<const RouteCandidate *> &safe = safeScratch;
    safe.clear();
    for (const RouteCandidate &cand : candidates) {
        if (!cand.engine->accepting())
            continue;
        if (risk && risk->fresh() && risk->risk(cand.server).any())
            continue;
        if (cand.engine->estimatedTtftS() > perf_bar)
            continue;
        safe.push_back(&cand);
    }
    // Never drop a request on the floor: if everything is filtered,
    // fall back to any accepting VM (least loaded).
    if (safe.empty()) {
        return BaselineRouter().route(request, candidates, nullptr);
    }

    tapas_assert(request.customer.valid(),
                 "request %u has no customer", request.id.index);
    const std::uint32_t customer = request.customer.index;
    if (customer >= affinity.size())
        affinity.resize(customer + 1);
    auto commit = [&](VmId vm) {
        affinity[customer] = vm;
        return vm;
    };

    // --- Stage 1: KV-cache affinity. ---
    const VmId last = affinity[customer];
    if (last.valid()) {
        for (const RouteCandidate *cand : safe) {
            if (cand->vm == last)
                return commit(cand->vm);
        }
    }

    // --- Stage 2: energy concentration — pick the most loaded VM
    // still under the concentration bar. ---
    const RouteCandidate *concentrated = nullptr;
    double concentrated_ttft = -1.0;
    for (const RouteCandidate *cand : safe) {
        const double ttft = cand->engine->estimatedTtftS();
        if (ttft <= concentrate_bar && ttft > concentrated_ttft) {
            concentrated_ttft = ttft;
            concentrated = cand;
        }
    }
    if (concentrated)
        return commit(concentrated->vm);

    // --- Stage 3: performance spread — least loaded. ---
    const RouteCandidate *spread = nullptr;
    double spread_ttft = 1e300;
    for (const RouteCandidate *cand : safe) {
        const double ttft = cand->engine->estimatedTtftS();
        if (ttft < spread_ttft) {
            spread_ttft = ttft;
            spread = cand;
        }
    }
    tapas_assert(spread, "non-empty safe set must yield a pick");
    return commit(spread->vm);
}

std::size_t
TapasRouter::affinityEntries() const
{
    return static_cast<std::size_t>(
        std::count_if(affinity.begin(), affinity.end(),
                      [](VmId vm) { return vm.valid(); }));
}

void
TapasRouter::checkpointState(Archive &ar)
{
    // The table travels as (customer, VM) pairs in customer order,
    // valid slots only: canonical bytes however the dense table grew.
    std::vector<std::pair<std::uint32_t, VmId>> entries;
    for (std::uint32_t c = 0; c < affinity.size(); ++c) {
        if (affinity[c].valid())
            entries.emplace_back(c, affinity[c]);
    }
    ar.each(entries,
            [](Archive &a, std::pair<std::uint32_t, VmId> &e) {
                a.value(e.first);
                a.value(e.second);
            });
    if (!ar.writing()) {
        affinity.clear();
        for (const auto &[customer, vm] : entries) {
            if (customer >= affinity.size())
                affinity.resize(customer + 1);
            affinity[customer] = vm;
        }
    }
}

} // namespace tapas
