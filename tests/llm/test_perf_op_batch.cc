/**
 * @file
 * Equivalence suite for the operating-point solver: the branch-free
 * batch kernel behind every PerfModel entry point (the batch calls
 * and the one-lane operatingPointAt) must reproduce the scalar
 * reference solve below bit for bit across every configuration
 * profile and every demand regime (zero, sub-saturated, saturated,
 * clamped-batch), in the default FP mode (-ffp-contract=off pins
 * per-operation IEEE semantics even under -march=native).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "llm/perf.hh"

namespace tapas {
namespace {

PerfModel
makeModel()
{
    return PerfModel::withReferenceSlo(
        ServerSpec::a100(), PerfParams::forSku(GpuSku::A100));
}

/**
 * Independent scalar reference of the operating-point solve, written
 * with plain branches: decode runs continuously whenever sequences
 * are in flight, either sub-saturated at batch 1 or filling all
 * non-prefill time at the batch the demand sustains. With
 * @p server_power false, serverPower stays 0 (the GPU-only solve).
 */
PerfModel::OperatingPoint
referenceOp(const PerfModel &model, const ConfigProfile &profile,
            double demand_tps, bool server_power = true)
{
    PerfModel::OperatingPoint out;
    const double demand = std::max(0.0, demand_tps);
    const double fp = model.params().mix.prefillFraction();
    const double fd = model.params().mix.decodeFraction();

    // Prefill is bursty: busy exactly its work fraction.
    const double u_p = std::min(
        1.0, demand * fp / profile.prefill.throughputTps);

    const double r = demand * fd; // decode tokens/s
    const double tau1 = profile.decodeWeightS + profile.decodeKvS;
    double u_d = 0.0;
    double batch = 0.0;
    if (r > 0.0) {
        const double share = std::max(0.05, 1.0 - u_p);
        if (r * tau1 < share) {
            // Sub-saturated even at batch 1: idles between tokens.
            batch = 1.0;
            u_d = r * tau1;
        } else {
            // Batch grows until share * B / tau(B) = r.
            const double denom = share - profile.decodeKvS * r;
            batch = denom > 1e-9
                ? profile.decodeWeightS * r / denom
                : static_cast<double>(profile.config.maxBatchSize);
            batch = std::clamp(
                batch, 1.0,
                static_cast<double>(profile.config.maxBatchSize));
            u_d = share;
        }
    }

    out.busyFrac = std::min(1.0, u_p + u_d);
    out.prefillShare =
        out.busyFrac > 0.0 ? u_p / (u_p + u_d) : 0.0;
    out.decodeBatch = batch;

    const double idle = model.spec().gpuIdlePower.value();
    const double decode_w = u_d > 0.0
        ? model.decodeGpuPowerAt(profile, batch).value()
        : 0.0;
    const double prefill_w = profile.prefill.gpuPower.value();
    out.gpuPower = Watts(idle * (1.0 - out.busyFrac) +
                         u_p * prefill_w + u_d * decode_w);
    if (server_power) {
        out.serverPower = model.serverPowerFromGpu(
            out.gpuPower.value(), profile.activeGpus);
    }
    return out;
}

/**
 * Demand grid stressing every solver regime for one profile:
 * negative and zero demand, deep sub-saturation (batch 1), points
 * around the saturation boundary, the goodput/capacity band, and
 * demands large enough to clamp the decode batch at its max.
 */
std::vector<double>
demandGridFor(const ConfigProfile &p)
{
    const double anchor =
        p.goodputTps > 0.0 ? p.goodputTps : p.capacityTps;
    std::vector<double> grid = {-5.0, 0.0, 1e-6, 0.01, 0.1, 1.0};
    for (const double frac :
         {0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.2, 1.5,
          2.0, 4.0, 16.0, 256.0}) {
        grid.push_back(anchor * frac);
    }
    return grid;
}

void
expectPointsIdentical(const PerfModel::OperatingPoint &got,
                      const PerfModel::OperatingPoint &ref,
                      const ConfigProfile &p, double demand)
{
    const std::string at =
        p.config.label() + " @ " + std::to_string(demand);
    EXPECT_EQ(got.busyFrac, ref.busyFrac) << at;
    EXPECT_EQ(got.prefillShare, ref.prefillShare) << at;
    EXPECT_EQ(got.decodeBatch, ref.decodeBatch) << at;
    EXPECT_EQ(got.gpuPower.value(), ref.gpuPower.value()) << at;
    EXPECT_EQ(got.serverPower.value(), ref.serverPower.value()) << at;
}

TEST(PerfOpBatch, PointerLanesBitIdenticalToScalarAllProfiles)
{
    const PerfModel model = makeModel();
    const std::vector<ConfigProfile> profiles = model.allProfiles();
    ASSERT_FALSE(profiles.empty());

    for (const ConfigProfile &p : profiles) {
        const std::vector<double> demands = demandGridFor(p);
        std::vector<const ConfigProfile *> lanes(demands.size(), &p);
        std::vector<PerfModel::OperatingPoint> full(demands.size());
        std::vector<PerfModel::OperatingPoint> gpu(demands.size());
        model.operatingPointBatch(lanes.data(), demands.data(),
                                  demands.size(), full.data());
        model.operatingGpuPointBatch(lanes.data(), demands.data(),
                                     demands.size(), gpu.data());
        for (std::size_t i = 0; i < demands.size(); ++i) {
            const double d = demands[i];
            expectPointsIdentical(full[i], referenceOp(model, p, d), p,
                                  d);
            expectPointsIdentical(
                gpu[i], referenceOp(model, p, d, false), p, d);
            expectPointsIdentical(model.operatingPointAt(p, d),
                                  referenceOp(model, p, d), p, d);
        }
    }
}

TEST(PerfOpBatch, PointerLanesHeterogeneousProfilesBitIdentical)
{
    const PerfModel model = makeModel();
    const std::vector<ConfigProfile> profiles = model.allProfiles();
    ASSERT_GT(profiles.size(), 1u);

    // Interleave every profile against a shared demand grid so one
    // batch call mixes regimes and configs across its chunks.
    std::vector<const ConfigProfile *> lanes;
    std::vector<double> demands;
    const std::vector<double> shared =
        demandGridFor(profiles.front());
    for (std::size_t d = 0; d < shared.size(); ++d) {
        for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
            lanes.push_back(&profiles[pi]);
            demands.push_back(shared[d] *
                              (1.0 + 0.013 * static_cast<double>(pi)));
        }
    }

    std::vector<PerfModel::OperatingPoint> full(lanes.size());
    std::vector<PerfModel::OperatingPoint> gpu(lanes.size());
    model.operatingPointBatch(lanes.data(), demands.data(),
                              lanes.size(), full.data());
    model.operatingGpuPointBatch(lanes.data(), demands.data(),
                                 lanes.size(), gpu.data());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const ConfigProfile &p = *lanes[i];
        const double d = demands[i];
        expectPointsIdentical(full[i], referenceOp(model, p, d), p, d);
        expectPointsIdentical(gpu[i], referenceOp(model, p, d, false),
                              p, d);
    }
}

TEST(PerfOpBatch, UncachedDecodeEndpointsFallBackIdentically)
{
    const PerfModel model = makeModel();
    // Strip the precomputed decode-power endpoints: the batch kernel
    // must route those lanes through the same full formula the
    // reference uses.
    ConfigProfile p = model.profile(referenceConfig());
    p.decodePowerBatch1W = -1.0;
    p.decodePowerBatchMaxW = -1.0;

    const std::vector<double> demands = demandGridFor(p);
    std::vector<const ConfigProfile *> lanes(demands.size(), &p);
    std::vector<PerfModel::OperatingPoint> full(demands.size());
    model.operatingPointBatch(lanes.data(), demands.data(),
                              demands.size(), full.data());
    for (std::size_t i = 0; i < demands.size(); ++i) {
        expectPointsIdentical(full[i],
                              referenceOp(model, p, demands[i]), p,
                              demands[i]);
        expectPointsIdentical(model.operatingPointAt(p, demands[i]),
                              referenceOp(model, p, demands[i]), p,
                              demands[i]);
    }
}

TEST(PerfOpBatch, ChunkBoundariesCoverEveryResidue)
{
    // Lane counts straddling the kernel's internal chunking must all
    // produce the same per-lane answers (no tail mishandling).
    const PerfModel model = makeModel();
    const ConfigProfile p = model.profile(referenceConfig());
    for (const std::size_t n : {1u, 2u, 7u, 31u, 32u, 33u, 64u, 65u,
                                100u}) {
        std::vector<const ConfigProfile *> lanes(n, &p);
        std::vector<double> demands(n);
        for (std::size_t i = 0; i < n; ++i) {
            demands[i] =
                p.goodputTps * 1.3 * static_cast<double>(i) /
                static_cast<double>(n);
        }
        std::vector<PerfModel::OperatingPoint> out(n);
        model.operatingPointBatch(lanes.data(), demands.data(), n,
                                  out.data());
        for (std::size_t i = 0; i < n; ++i) {
            expectPointsIdentical(out[i],
                                  referenceOp(model, p, demands[i]),
                                  p, demands[i]);
        }
    }
}

} // namespace
} // namespace tapas
