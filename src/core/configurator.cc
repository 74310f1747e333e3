#include "core/configurator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tapas {

namespace {
/** Demand headroom factor for right-sized configurations. */
constexpr double kDemandHeadroom = 1.5;
} // namespace

InstanceConfigurator::InstanceConfigurator(
    const PerfModel &perf_, const TapasPolicyConfig &config)
    : perf(perf_), cfg(config), space(perf_.allProfiles())
{
    // Pre-sort: quality first (last-resort ordering), then goodput.
    std::sort(space.begin(), space.end(),
              [](const ConfigProfile &a, const ConfigProfile &b) {
                  if (a.quality != b.quality)
                      return a.quality > b.quality;
                  return a.goodputTps > b.goodputTps;
              });
}

bool
InstanceConfigurator::feasible(ServerId server,
                               const ProfileBank &profiles,
                               const InstanceLimits &limits,
                               const ConfigProfile &profile,
                               double demand_tps) const
{
    if (profile.goodputTps <= 0.0)
        return false;
    const PerfModel::OperatingPoint op =
        perf.operatingPointAt(profile,
                              std::min(demand_tps,
                                       profile.goodputTps));
    return feasibleAt(server, profiles, limits, profile, op);
}

bool
InstanceConfigurator::feasibleAt(ServerId server,
                                 const ProfileBank &profiles,
                                 const InstanceLimits &limits,
                                 const ConfigProfile &profile,
                                 const PerfModel::OperatingPoint &op)
    const
{
    if (op.serverPower.value() > limits.maxServerPowerW)
        return false;

    const double gpu_power = op.gpuPower.value();
    double hottest = 0.0;
    profiles.predictHottestGpuCandidates(server, limits.inletC,
                                         &gpu_power, 1, &hottest);
    if (hottest > limits.maxGpuTempC)
        return false;

    // Airflow tracks heat: normalized GPU draw across the server.
    const double heat =
        perf.heatFraction(op.gpuPower.value(), profile.activeGpus);
    double airflow = 0.0;
    profiles.predictAirflowCandidates(server, &heat, 1, &airflow);
    return airflow <= limits.maxAirflowCfm;
}

ConfigDecision
InstanceConfigurator::choose(ServerId server,
                             const ProfileBank &profiles,
                             const InstanceLimits &limits,
                             double demand_tps, double quality_floor,
                             const ConfigProfile &current,
                             OpCache *cache) const
{
    // Demand must be met with headroom so diurnal ramps do not
    // immediately outrun the chosen configuration.
    const double target_tps = demand_tps * kDemandHeadroom;

    if (cache && cache->demandTps != demand_tps) {
        cache->demandTps = demand_tps;
        cache->valid.assign(space.size(), 0);
        cache->ops.resize(space.size());
    }

    auto power_at_demand = [&](const ConfigProfile &p) {
        const double capped =
            std::min(demand_tps, std::max(1.0, p.goodputTps));
        return perf.operatingPointAt(p, capped)
            .serverPower.value();
    };
    // Candidate ranking biases against reload-requiring switches: a
    // TP/model/quant change must beat free alternatives by the
    // reload margin to be worth the blackout.

    // Selection: among feasible configs at/above the quality floor,
    // prefer (1) highest quality, (2) meeting demand+headroom,
    // (3) minimum power at the current demand (right-sizing),
    // falling back to maximum goodput when demand cannot be met.
    const ConfigProfile *best = nullptr;
    bool best_meets = false;
    double best_power = 1e300;
    double best_raw_power_w = 1e300;

    // Candidates are scored in blocks: operating points accumulate
    // until the block fills, then one predictHottestGpuCandidates +
    // one predictAirflowCandidates pass scores the whole block (the
    // server's coefficient block streams once instead of per
    // candidate) and the sequential take/prune logic replays over
    // the precomputed values. Blocks grow 1 -> 2 -> 4 -> 8 so the
    // prune (which only advances on flushed results) can stop the
    // walk almost as early as the scalar version did, while the
    // steady tail still batches eight candidates per coefficient
    // walk.
    constexpr std::size_t kBlock = 8;
    std::size_t flush_target = 1;
    const ConfigProfile *cands[kBlock];
    double feas_demands[kBlock];
    std::size_t cand_idxs[kBlock];
    PerfModel::OperatingPoint ops[kBlock];
    double gpu_power[kBlock];
    double heat[kBlock];
    double hottest[kBlock];
    double airflow[kBlock];
    // Memo-miss lanes awaiting the batched solve at flush time.
    const ConfigProfile *miss_cands[kBlock];
    double miss_demands[kBlock];
    std::size_t miss_lanes[kBlock];
    PerfModel::OperatingPoint miss_ops[kBlock];
    std::size_t pending = 0;

    auto flush = [&]() {
        if (pending == 0)
            return;
        // Solve the memo-miss lanes of the block in one batched
        // pass, then backfill the memo so same-demand siblings hit.
        std::size_t misses = 0;
        for (std::size_t i = 0; i < pending; ++i) {
            if (cache && cache->valid[cand_idxs[i]]) {
                ops[i] = cache->ops[cand_idxs[i]];
                continue;
            }
            miss_cands[misses] = cands[i];
            miss_demands[misses] = feas_demands[i];
            miss_lanes[misses] = i;
            ++misses;
        }
        if (misses > 0) {
            perf.operatingPointBatch(miss_cands, miss_demands,
                                     misses, miss_ops);
            for (std::size_t k = 0; k < misses; ++k) {
                const std::size_t i = miss_lanes[k];
                ops[i] = miss_ops[k];
                if (cache) {
                    cache->ops[cand_idxs[i]] = miss_ops[k];
                    cache->valid[cand_idxs[i]] = 1;
                }
            }
        }
        for (std::size_t i = 0; i < pending; ++i) {
            gpu_power[i] = ops[i].gpuPower.value();
            heat[i] = perf.heatFraction(gpu_power[i],
                                        cands[i]->activeGpus);
        }
        profiles.predictHottestGpuCandidates(
            server, limits.inletC, gpu_power, pending, hottest);
        profiles.predictAirflowCandidates(server, heat, pending,
                                          airflow);
        for (std::size_t i = 0; i < pending; ++i) {
            const ConfigProfile &cand = *cands[i];
            const PerfModel::OperatingPoint &op = ops[i];
            if (op.serverPower.value() > limits.maxServerPowerW)
                continue;
            if (hottest[i] > limits.maxGpuTempC)
                continue;
            if (airflow[i] > limits.maxAirflowCfm)
                continue;
            const double feas_demand =
                std::min(demand_tps, cand.goodputTps);
            const double rank_demand =
                std::min(demand_tps, std::max(1.0, cand.goodputTps));
            const double rank_power_w = rank_demand == feas_demand
                ? op.serverPower.value()
                // Only candidates whose goodput cannot serve
                // 1 token/s re-rank here.
                : perf.operatingPointAt(cand, rank_demand)
                      .serverPower.value();
            const bool meets = cand.goodputTps >= target_tps;
            const double power =
                cand.config.requiresReload(current.config)
                ? rank_power_w * cfg.reloadHysteresisGain
                : rank_power_w;
            bool take = false;
            if (!best) {
                take = true;
            } else if (cand.quality > best->quality) {
                // Space is quality-sorted descending, so this only
                // happens on the first candidate; kept for clarity.
                take = true;
            } else if (cand.quality == best->quality) {
                if (meets && !best_meets) {
                    take = true;
                } else if (meets == best_meets) {
                    take = meets
                        ? power < best_power
                        : cand.goodputTps > best->goodputTps;
                }
            } else if (meets && !best_meets) {
                // Lower quality only buys its way in by meeting
                // demand the higher quality could not (emergency
                // last resort).
                take = true;
            }
            if (take) {
                best = &cand;
                best_meets = meets;
                best_power = power;
                best_raw_power_w = rank_power_w;
            }
        }
        pending = 0;
    };

    for (const ConfigProfile &cand : space) {
        // Pruning on the quality-desc, goodput-desc sort order: once
        // the incumbent meets demand, a candidate of lower quality
        // can never be taken (it only wins by meeting demand the
        // higher quality could not), and within the incumbent's
        // quality tier every remaining candidate has goodput no
        // higher than this one, so none can start meeting demand
        // either. The check runs against the best state as of the
        // last flushed block; that is still safe (a best over a
        // shorter prefix breaks no earlier than the exact walk, and
        // extra candidates evaluated past the exact break point can
        // never be taken by the rules above), so the selection is
        // identical to the scalar walk at a fraction of the
        // operating-point evaluations.
        if (best_meets && (cand.quality < best->quality ||
                           cand.goodputTps < target_tps)) {
            break;
        }
        if (cand.quality < quality_floor)
            continue;
        if (cand.goodputTps <= 0.0)
            continue;
        // One operating-point evaluation per candidate, shared
        // between the limit checks and the power ranking (they use
        // the same demand whenever goodput can serve one token/s) —
        // and shared across instances at the same demand via the
        // caller's memo (the point is a pure function of candidate
        // and demand). The actual solves happen batched at flush
        // time, one branch-free pass over the block's memo misses.
        cands[pending] = &cand;
        feas_demands[pending] = std::min(demand_tps,
                                         cand.goodputTps);
        cand_idxs[pending] =
            static_cast<std::size_t>(&cand - space.data());
        ++pending;
        if (pending == flush_target) {
            flush();
            flush_target = std::min(kBlock, flush_target * 2);
        }
    }
    flush();

    ConfigDecision out;
    if (!best) {
        // Nothing satisfies the limits: fall to the lowest-power
        // config at the current demand, preferring higher goodput
        // among near-equals so service degrades as little as the
        // power situation allows.
        const ConfigProfile *mildest = nullptr;
        double mildest_w = 1e300;
        for (const ConfigProfile &cand : space) {
            if (cand.quality < quality_floor ||
                cand.goodputTps <= 0.0) {
                continue;
            }
            const double w = power_at_demand(cand);
            const bool better = w < mildest_w * 0.98 ||
                (w < mildest_w * 1.02 && mildest &&
                 cand.goodputTps > mildest->goodputTps);
            if (!mildest || better) {
                mildest_w = std::min(mildest_w, w);
                mildest = &cand;
            }
        }
        tapas_assert(mildest, "config space cannot be empty");
        out.profile = *mildest;
        out.infeasible = true;
        out.changed = !(out.profile.config == current.config);
        return out;
    }

    // Hysteresis: keep the current config when it is feasible, of
    // equal quality and demand coverage, and the winner's power
    // advantage is marginal. Evaluated only when the winner actually
    // differs, with one shared operating point covering the current
    // config's feasibility check and power ranking (the same sharing
    // the walk uses); the winner's power at demand was already
    // computed when it was taken.
    if (!(best->config == current.config) &&
        current.quality >= quality_floor &&
        current.goodputTps > 0.0) {
        const double cur_feas_demand =
            std::min(demand_tps, current.goodputTps);
        const PerfModel::OperatingPoint cur_op =
            perf.operatingPointAt(current, cur_feas_demand);
        if (feasibleAt(server, profiles, limits, current, cur_op)) {
            const bool current_meets =
                current.goodputTps >= target_tps;
            const double cur_rank_demand = std::min(
                demand_tps, std::max(1.0, current.goodputTps));
            const double current_power =
                cur_rank_demand == cur_feas_demand
                ? cur_op.serverPower.value()
                // Sub-1-token/s goodput re-rank of the incumbent.
                : perf.operatingPointAt(current, cur_rank_demand)
                      .serverPower.value();
            // Reload-requiring switches (TP/model/quant) carry a
            // blackout, so they must buy a much larger gain.
            const double gain_bar =
                best->config.requiresReload(current.config)
                ? cfg.reloadHysteresisGain
                : cfg.hysteresisGain;
            const bool marginal_gain =
                best_raw_power_w * gain_bar >= current_power;
            if (best_meets == current_meets &&
                best->quality <= current.quality && marginal_gain) {
                out.profile = current;
                out.changed = false;
                return out;
            }
        }
    }

    out.profile = *best;
    out.changed = !(best->config == current.config);
    return out;
}

} // namespace tapas
