#include "core/configurator.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace tapas {

namespace {
// incumbent() compares profiles byte for byte.
static_assert(std::is_trivially_copyable_v<ConfigProfile>);

/** Demand headroom factor for right-sized configurations. */
constexpr double kDemandHeadroom = 1.5;

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** Home slot of a demand key in a power-of-two table. */
std::size_t
homeSlot(std::uint64_t bits, std::size_t mask)
{
    bits ^= bits >> 33;
    bits *= 0xff51afd7ed558ccdULL;
    bits ^= bits >> 33;
    return static_cast<std::size_t>(bits) & mask;
}
} // namespace

void
InstanceConfigurator::GroupTable::clear()
{
    groupsScratch.clear();
    candidatesScratch.clear();
    std::fill(slotsScratch.begin(), slotsScratch.end(), kUnset);
}

InstanceConfigurator::InstanceConfigurator(
    const PerfModel &perf_, const TapasPolicyConfig &config)
    : InstanceConfigurator(perf_, config, perf_.allProfiles())
{}

InstanceConfigurator::InstanceConfigurator(
    const PerfModel &perf_, const TapasPolicyConfig &config,
    std::vector<ConfigProfile> space_)
    : perf(perf_), cfg(config), space(std::move(space_))
{
    // The power-ordered walk scales the reload class by the gain;
    // only a positive gain keeps that class in ascending order.
    tapas_assert(cfg.reloadHysteresisGain > 0.0,
                 "reload hysteresis gain must be positive");
    // Pre-sort: quality first (last-resort ordering), then goodput.
    std::sort(space.begin(), space.end(),
              [](const ConfigProfile &a, const ConfigProfile &b) {
                  if (a.quality != b.quality)
                      return a.quality > b.quality;
                  return a.goodputTps > b.goodputTps;
              });
}

InstanceConfigurator::Candidate
InstanceConfigurator::score(const ConfigProfile &profile,
                            double demand_tps,
                            const PerfModel::OperatingPoint &op) const
{
    Candidate cand;
    const double feas_demand = std::min(demand_tps, profile.goodputTps);
    const double rank_demand =
        std::min(demand_tps, std::max(1.0, profile.goodputTps));
    cand.rankPowerW = rank_demand == feas_demand
        ? op.serverPower.value()
        // Only profiles whose goodput cannot serve 1 token/s re-rank.
        : perf.operatingPointAt(profile, rank_demand)
              .serverPower.value();
    cand.serverPowerW = op.serverPower.value();
    cand.gpuPowerW = op.gpuPower.value();
    cand.activeGpus = profile.activeGpus;
    return cand;
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
    const double feas_demand = std::min(demand_tps, profile.goodputTps);
    return feasibleAt(
        server, profiles, limits,
        score(profile, demand_tps,
              perf.operatingPointAt(profile, feas_demand)));
}

ConfigDecision
InstanceConfigurator::choose(ServerId server,
                             const ProfileBank &profiles,
                             const InstanceLimits &limits,
                             double demand_tps, double quality_floor,
                             const ConfigProfile &current,
                             GroupTable *table) const
{
    if (table) {
        return decide(server, profiles, limits, demand_tps,
                      quality_floor, current, *table);
    }
    GroupTable one_off;
    return decide(server, profiles, limits, demand_tps, quality_floor,
                  current, one_off);
}

// tapas-hot begin(configure-choose): one decision per SaaS instance
// on the configure pass; group-table scratch only (R3) — capacity
// persists across passes, so the steady state allocates nothing.

bool
InstanceConfigurator::feasibleAt(ServerId server,
                                 const ProfileBank &profiles,
                                 const InstanceLimits &limits,
                                 const Candidate &cand) const
{
    if (cand.serverPowerW > limits.maxServerPowerW)
        return false;
    double hottest = 0.0;
    profiles.predictHottestGpuCandidates(server, limits.inletC,
                                         &cand.gpuPowerW, 1, &hottest);
    if (hottest > limits.maxGpuTempC)
        return false;
    // Airflow tracks heat: normalized GPU draw across the server.
    const double heat =
        perf.heatFraction(cand.gpuPowerW, cand.activeGpus);
    double airflow = 0.0;
    profiles.predictAirflowCandidates(server, &heat, 1, &airflow);
    return airflow <= limits.maxAirflowCfm;
}

std::uint32_t
InstanceConfigurator::groupFor(GroupTable &table, double demand_tps,
                               double quality_floor) const
{
    using Group = GroupTable::Group;
    const std::uint64_t demand_bits = bitsOf(demand_tps);
    const std::uint64_t floor_bits = bitsOf(quality_floor);
    const std::vector<Group> &groups = table.groupsScratch;
    std::vector<std::uint32_t> &slots = table.slotsScratch;

    // Keep the load factor at or below one half after an insert.
    if (slots.size() < 2 * (groups.size() + 1)) {
        table.slotsScratch.assign(
            std::max<std::size_t>(64, 2 * slots.size()),
            GroupTable::kUnset);
        const std::size_t mask = slots.size() - 1;
        for (std::uint32_t g = 0; g < groups.size(); ++g) {
            std::size_t h = homeSlot(groups[g].demandBits, mask);
            while (slots[h] != GroupTable::kUnset)
                h = (h + 1) & mask;
            slots[h] = g;
        }
    }
    const std::size_t mask = slots.size() - 1;
    std::size_t h = homeSlot(demand_bits, mask);
    for (; slots[h] != GroupTable::kUnset; h = (h + 1) & mask) {
        const Group &g = groups[slots[h]];
        if (g.demandBits == demand_bits && g.floorBits == floor_bits)
            return slots[h];
    }

    // The "meets" prefix: the first quality tier at or above the
    // floor that has any goodput (zero-goodput candidates close
    // their tier), cut where goodput no longer covers demand plus
    // headroom. The sequential rules take its first feasible
    // candidate, then only strictly lower reload-adjusted power, and
    // stop at its end; nothing before it can be taken.
    const double target_tps = demand_tps * kDemandHeadroom;
    std::size_t begin = 0;
    while (begin < space.size() &&
           space[begin].quality >= quality_floor &&
           space[begin].goodputTps <= 0.0) {
        ++begin;
    }
    std::size_t end = begin;
    if (begin < space.size() && space[begin].quality >= quality_floor) {
        const double tier = space[begin].quality;
        while (end < space.size() && space[end].quality == tier &&
               space[end].goodputTps >= target_tps &&
               space[end].goodputTps > 0.0) {
            ++end;
        }
    }

    // One batched solve for the prefix, then rank it by power. The
    // lane buffers only grow.
    const std::size_t n = end - begin;
    if (table.laneOpsScratch.size() < n) {
        table.laneProfilesScratch.resize(n);
        table.laneDemandsScratch.resize(n);
        table.laneOpsScratch.resize(n);
    }
    for (std::size_t k = 0; k < n; ++k) {
        const ConfigProfile &cand = space[begin + k];
        table.laneProfilesScratch[k] = &cand;
        table.laneDemandsScratch[k] =
            std::min(demand_tps, cand.goodputTps);
    }
    if (n > 0) {
        perf.operatingPointBatch(table.laneProfilesScratch.data(),
                                 table.laneDemandsScratch.data(), n,
                                 table.laneOpsScratch.data());
    }
    std::vector<Candidate> &cands = table.candidatesScratch;
    const std::size_t first = cands.size();
    table.candidatesScratch.resize(first + n);
    for (std::size_t k = 0; k < n; ++k) {
        cands[first + k] = score(space[begin + k], demand_tps,
                                 table.laneOpsScratch[k]);
        cands[first + k].index = static_cast<std::uint32_t>(begin + k);
    }
    std::sort(cands.begin() + static_cast<std::ptrdiff_t>(first),
              cands.end(), [](const Candidate &a, const Candidate &b) {
                  if (a.rankPowerW != b.rankPowerW)
                      return a.rankPowerW < b.rankPowerW;
                  return a.index < b.index;
              });

    Group group;
    group.demandBits = demand_bits;
    group.floorBits = floor_bits;
    group.first = static_cast<std::uint32_t>(first);
    group.count = static_cast<std::uint32_t>(n);
    group.resumeAt = static_cast<std::uint32_t>(end);
    slots[h] = static_cast<std::uint32_t>(groups.size());
    table.groupsScratch.push_back(group);
    return slots[h];
}

InstanceConfigurator::Pick
InstanceConfigurator::orderedPick(const GroupTable &table,
                                  const GroupTable::Group &group,
                                  ServerId server,
                                  const ProfileBank &profiles,
                                  const InstanceLimits &limits,
                                  const ConfigProfile &current) const
{
    // Reload-requiring switches (TP/model/quant) rank at their power
    // times the reload gain. Each class stays ascending in the
    // group's order, so two pointers merge them into one walk in
    // adjusted-power order and the first feasible candidate wins.
    const Candidate *cands = table.candidatesScratch.data() + group.first;
    const std::size_t n = group.count;
    const double gain = cfg.reloadHysteresisGain;
    auto in_class = [&](std::size_t k, bool reload) {
        return space[cands[k].index].config.requiresReload(
                   current.config) == reload;
    };
    auto next = [&](std::size_t k, bool reload) {
        while (k < n && !in_class(k, reload))
            ++k;
        return k;
    };
    auto adjusted = [&](std::size_t k, bool reload) {
        return reload ? cands[k].rankPowerW * gain
                      : cands[k].rankPowerW;
    };

    std::size_t at[2] = {next(0, false), next(0, true)};
    std::size_t win = n;
    bool win_reload = false;
    while (at[0] < n || at[1] < n) {
        const bool reload = at[0] >= n ||
            (at[1] < n &&
             adjusted(at[1], true) < adjusted(at[0], false));
        const std::size_t k = at[reload];
        at[reload] = next(k + 1, reload);
        if (feasibleAt(server, profiles, limits, cands[k])) {
            win = k;
            win_reload = reload;
            break;
        }
    }
    if (win == n)
        return Pick{};

    // Equal adjusted power goes to the lowest space index: the rest
    // of both classes' equal-power runs is checked. (Rounding can map
    // distinct raw powers to one adjusted power in the reload class,
    // whose raw order then need not be index order.)
    const double win_power = adjusted(win, win_reload);
    for (const bool reload : {false, true}) {
        for (std::size_t k = at[reload];
             k < n && adjusted(k, reload) == win_power;
             k = next(k + 1, reload)) {
            if (cands[k].index < cands[win].index &&
                feasibleAt(server, profiles, limits, cands[k])) {
                win = k;
            }
        }
    }
    Pick pick;
    pick.index = cands[win].index;
    pick.meets = true;
    pick.rankPowerW = cands[win].rankPowerW;
    return pick;
}

InstanceConfigurator::Pick
InstanceConfigurator::walkSequential(std::size_t from, ServerId server,
                                     const ProfileBank &profiles,
                                     const InstanceLimits &limits,
                                     double demand_tps,
                                     double quality_floor,
                                     const ConfigProfile &current) const
{
    // Selection: among feasible configs at/above the quality floor,
    // prefer (1) highest quality, (2) meeting demand+headroom,
    // (3) minimum power at the current demand (right-sizing), with
    // reload-requiring switches paying the reload gain, falling back
    // to maximum goodput when demand cannot be met.
    const double target_tps = demand_tps * kDemandHeadroom;
    Pick best;
    double best_power = 1e300;
    for (std::size_t i = from; i < space.size(); ++i) {
        const ConfigProfile &cand = space[i];
        // The space is quality-sorted: nothing past the floor
        // qualifies.
        if (cand.quality < quality_floor)
            break;
        // Once the best so far meets demand, a lower-quality
        // candidate can never be taken (it only wins by meeting demand
        // the higher quality could not), and within the best's tier
        // every remaining candidate has goodput no higher than this
        // one, so none can start meeting demand either.
        if (best.meets && (cand.quality < space[best.index].quality ||
                           cand.goodputTps < target_tps)) {
            break;
        }
        if (cand.goodputTps <= 0.0)
            continue;
        // A non-meeting candidate only displaces a non-meeting best of
        // its own tier by higher goodput, and each tier comes
        // goodput-descending: once anything is taken, only candidates
        // that meet demand are worth scoring.
        const bool meets = cand.goodputTps >= target_tps;
        if (best.index != Pick::kNone && !meets)
            continue;
        const double feas_demand = std::min(demand_tps, cand.goodputTps);
        const Candidate scored = score(
            cand, demand_tps, perf.operatingPointAt(cand, feas_demand));
        if (!feasibleAt(server, profiles, limits, scored))
            continue;
        const double power = cand.config.requiresReload(current.config)
            ? scored.rankPowerW * cfg.reloadHysteresisGain
            : scored.rankPowerW;
        // Here the candidate meets demand or nothing is taken yet; a
        // meeting candidate beats a non-meeting best outright (lower
        // quality only buys its way in this way: emergency last
        // resort) and a meeting one by strictly lower power.
        if (best.index == Pick::kNone || !best.meets ||
            power < best_power) {
            best.index = i;
            best.meets = meets;
            best.rankPowerW = scored.rankPowerW;
            best_power = power;
        }
    }
    return best;
}

InstanceConfigurator::Candidate
InstanceConfigurator::incumbent(const GroupTable &table,
                                const GroupTable::Group &group,
                                const ConfigProfile &current,
                                double demand_tps) const
{
    // A byte-identical profile went through the group's solve with
    // exactly the incumbent's inputs (padding bytes can only make the
    // comparison fail, which falls back to solving).
    const Candidate *cands = table.candidatesScratch.data() + group.first;
    for (std::uint32_t k = 0; k < group.count; ++k) {
        const ConfigProfile &p = space[cands[k].index];
        if (p.config == current.config &&
            std::memcmp(&p, &current, sizeof p) == 0) {
            return cands[k];
        }
    }
    const double feas_demand = std::min(demand_tps, current.goodputTps);
    return score(current, demand_tps,
                 perf.operatingPointAt(current, feas_demand));
}

ConfigDecision
InstanceConfigurator::decide(ServerId server,
                             const ProfileBank &profiles,
                             const InstanceLimits &limits,
                             double demand_tps, double quality_floor,
                             const ConfigProfile &current,
                             GroupTable &table) const
{
    GroupTable::Group &group =
        table.groupsScratch[groupFor(table, demand_tps, quality_floor)];
    Pick pick = orderedPick(table, group, server, profiles, limits,
                            current);
    // No prefix candidate is feasible: the sequential rules take
    // over where the prefix ends.
    if (pick.index == Pick::kNone) {
        pick = walkSequential(group.resumeAt, server, profiles, limits,
                              demand_tps, quality_floor, current);
    }
#ifndef NDEBUG
    const Pick check = walkSequential(0, server, profiles, limits,
                                      demand_tps, quality_floor,
                                      current);
    tapas_assert(check.index == pick.index &&
                     check.meets == pick.meets &&
                     check.rankPowerW == pick.rankPowerW,
                 "power-ordered pick (space index %zu) diverged from "
                 "the sequential rules (%zu)",
                 pick.index, check.index);
#endif

    ConfigDecision out;
    if (pick.index == Pick::kNone) {
        // Nothing satisfies the limits: fall to the lowest-power
        // config at the current demand (a function of the group
        // alone, so it is found once per group).
        if (group.mildest == GroupTable::kUnset) {
            group.mildest = static_cast<std::uint32_t>(
                mildestIndex(demand_tps, quality_floor));
        }
        out.profile = space[group.mildest];
        out.infeasible = true;
        out.changed = !(out.profile.config == current.config);
        return out;
    }
    const ConfigProfile &best = space[pick.index];

    // Hysteresis: keep the current config when it is feasible, of
    // equal quality and demand coverage, and the winner's power
    // advantage is marginal. Evaluated only when the winner actually
    // differs, with one operating point covering the current
    // config's feasibility check and power ranking.
    if (!(best.config == current.config) &&
        current.quality >= quality_floor &&
        current.goodputTps > 0.0) {
        const Candidate cur =
            incumbent(table, group, current, demand_tps);
        if (feasibleAt(server, profiles, limits, cur)) {
            const bool current_meets =
                current.goodputTps >= demand_tps * kDemandHeadroom;
            // Reload-requiring switches (TP/model/quant) carry a
            // blackout, so they must buy a much larger gain.
            const double gain_bar =
                best.config.requiresReload(current.config)
                ? cfg.reloadHysteresisGain
                : cfg.hysteresisGain;
            const bool marginal_gain =
                pick.rankPowerW * gain_bar >= cur.rankPowerW;
            if (pick.meets == current_meets &&
                best.quality <= current.quality && marginal_gain) {
                out.profile = current;
                out.changed = false;
                return out;
            }
        }
    }

    out.profile = best;
    out.changed = !(best.config == current.config);
    return out;
}

// tapas-hot end(configure-choose)

std::size_t
InstanceConfigurator::mildestIndex(double demand_tps,
                                   double quality_floor) const
{
    // Lowest power at the current demand, preferring higher goodput
    // among near-equals so service degrades as little as the power
    // situation allows.
    std::size_t mildest = Pick::kNone;
    double mildest_w = 1e300;
    for (std::size_t i = 0; i < space.size(); ++i) {
        const ConfigProfile &cand = space[i];
        if (cand.quality < quality_floor)
            break;
        if (cand.goodputTps <= 0.0)
            continue;
        const double w = perf.operatingPointAt(
            cand, std::min(demand_tps, std::max(1.0, cand.goodputTps)))
                             .serverPower.value();
        const bool better = w < mildest_w * 0.98 ||
            (w < mildest_w * 1.02 && mildest != Pick::kNone &&
             cand.goodputTps > space[mildest].goodputTps);
        if (mildest == Pick::kNone || better) {
            mildest_w = std::min(mildest_w, w);
            mildest = i;
        }
    }
    tapas_assert(mildest != Pick::kNone, "config space cannot be empty");
    return mildest;
}

} // namespace tapas
