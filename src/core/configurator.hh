/**
 * @file
 * Instance configuration (paper Section 4.3).
 *
 * Given per-instance limits (server power, hottest-GPU temperature,
 * airflow) the configurator picks the configuration that maximizes
 * goodput with quality as the binding priority: quality-affecting
 * knobs (model size, quantization) are a last resort, engaged only
 * when the quality floor is relaxed during emergencies. Frequency and
 * batch changes are free; model/TP/quant changes carry the reload
 * blackout the engine enforces.
 */

#ifndef TAPAS_CORE_CONFIGURATOR_HH
#define TAPAS_CORE_CONFIGURATOR_HH

#include <cstdint>
#include <vector>

#include "core/context.hh"
#include "llm/perf.hh"

namespace tapas {

/** Operating limits for one SaaS instance. */
struct InstanceLimits
{
    /** Whole-server power cap, watts. */
    double maxServerPowerW = 1e12;
    /** Hottest-GPU temperature cap. */
    double maxGpuTempC = 82.0;
    /** Server airflow cap, CFM. */
    double maxAirflowCfm = 1e12;
    /** Predicted inlet temperature used for projections. */
    double inletC = 25.0;
};

/** Result of a configuration decision. */
struct ConfigDecision
{
    ConfigProfile profile;
    /** True when the decision differs from the current config. */
    bool changed = false;
    /** True when no configuration satisfied the limits (the best
     *  effort lowest-impact config is returned anyway). */
    bool infeasible = false;
};

/** Chooses instance configurations within limits. */
class InstanceConfigurator
{
  public:
    InstanceConfigurator(const PerfModel &perf,
                         const TapasPolicyConfig &config);

    /** Choose over an explicit profile space (what-if studies and
     *  tests); the space is re-sorted quality first. */
    InstanceConfigurator(const PerfModel &perf,
                         const TapasPolicyConfig &config,
                         std::vector<ConfigProfile> space);

    /**
     * Candidate lists shared by every instance at one demand level
     * (caller-owned scratch; the controller clears it once per
     * configure pass). A group holds the "meets" prefix of the first
     * quality tier at or above the floor — the candidates whose
     * goodput covers demand plus headroom — with each operating
     * point solved once and the list sorted by (rank power, space
     * index). Every entry is a pure function of (demand, floor), so
     * sharing a group across instances and passes is bit-identical
     * to solving per instance. Capacity persists across clear().
     */
    class GroupTable
    {
      public:
        /** Forget every group; capacity persists. */
        void clear();
        /** Groups built since the last clear(). */
        std::size_t groups() const { return groupsScratch.size(); }

      private:
        friend class InstanceConfigurator;

        /** One scored candidate of a group's prefix. */
        struct Candidate
        {
            /** Server power at the ranking demand. */
            double rankPowerW = 0.0;
            /** Server power at the feasibility demand. */
            double serverPowerW = 0.0;
            /** Per-active-GPU power at the feasibility demand. */
            double gpuPowerW = 0.0;
            /** Position in the sorted profile space. */
            std::uint32_t index = 0;
            int activeGpus = 0;
        };

        struct Group
        {
            std::uint64_t demandBits = 0;
            std::uint64_t floorBits = 0;
            /** Range in candidatesScratch, sorted by (rank power,
             *  space index). */
            std::uint32_t first = 0;
            std::uint32_t count = 0;
            /** Space index where the sequential rules resume when
             *  no prefix candidate is feasible. */
            std::uint32_t resumeAt = 0;
            /** All-infeasible fallback (space index), computed on
             *  first use; kUnset until then. */
            std::uint32_t mildest = kUnset;
        };
        static constexpr std::uint32_t kUnset = ~std::uint32_t{0};

        std::vector<Group> groupsScratch;
        std::vector<Candidate> candidatesScratch;
        /** Open-addressed group index keyed on demand bits;
         *  kUnset marks a free slot. */
        std::vector<std::uint32_t> slotsScratch;
        /** Solver lanes for one group's prefix. */
        std::vector<const ConfigProfile *> laneProfilesScratch;
        std::vector<double> laneDemandsScratch;
        std::vector<PerfModel::OperatingPoint> laneOpsScratch;
    };

    /**
     * Choose the best configuration.
     *
     * @param server the hosting server (for fitted projections)
     * @param profiles fitted profile bank
     * @param limits operating limits to respect
     * @param demand_tps current token demand on the instance
     * @param quality_floor minimum acceptable model quality
     * @param current the instance's active profile
     * @param table candidate groups shared across calls; null builds
     *        a one-off table
     */
    ConfigDecision choose(ServerId server,
                          const ProfileBank &profiles,
                          const InstanceLimits &limits,
                          double demand_tps, double quality_floor,
                          const ConfigProfile &current,
                          GroupTable *table = nullptr) const;

    /** Whether a profile satisfies the limits at a given demand. */
    bool feasible(ServerId server, const ProfileBank &profiles,
                  const InstanceLimits &limits,
                  const ConfigProfile &profile,
                  double demand_tps) const;

    const std::vector<ConfigProfile> &profileSpace() const
    { return space; }

  private:
    using Candidate = GroupTable::Candidate;

    /** A selection: the winner's space index (kNone when nothing is
     *  feasible), whether it meets demand plus headroom, and its
     *  unadjusted rank power. */
    struct Pick
    {
        static constexpr std::size_t kNone = ~std::size_t{0};
        std::size_t index = kNone;
        bool meets = false;
        double rankPowerW = 0.0;
    };

    const PerfModel &perf;
    TapasPolicyConfig cfg;
    std::vector<ConfigProfile> space;

    /** Group index for (demand, floor), built on first use. */
    std::uint32_t groupFor(GroupTable &table, double demand_tps,
                           double quality_floor) const;

    /** Score a profile from its operating point at the feasibility
     *  demand (re-ranks sub-1-token/s goodput; index left 0). */
    Candidate score(const ConfigProfile &profile, double demand_tps,
                    const PerfModel::OperatingPoint &op) const;

    /** Limit checks of a scored candidate: power, then hottest GPU,
     *  then airflow (on the heat of its GPU draw). */
    bool feasibleAt(ServerId server, const ProfileBank &profiles,
                    const InstanceLimits &limits,
                    const Candidate &cand) const;

    /** First feasible group candidate in reload-adjusted power
     *  order, lowest space index on equal adjusted power. */
    Pick orderedPick(const GroupTable &table,
                     const GroupTable::Group &group, ServerId server,
                     const ProfileBank &profiles,
                     const InstanceLimits &limits,
                     const ConfigProfile &current) const;

    /** The incumbent scored at demand: the group's candidate when
     *  the current profile is byte-identical to it, else solved. */
    Candidate incumbent(const GroupTable &table,
                        const GroupTable::Group &group,
                        const ConfigProfile &current,
                        double demand_tps) const;

    /** The sequential selection rules over space[from, end). */
    Pick walkSequential(std::size_t from, ServerId server,
                        const ProfileBank &profiles,
                        const InstanceLimits &limits,
                        double demand_tps, double quality_floor,
                        const ConfigProfile &current) const;

    /** choose() against a caller's group table. */
    ConfigDecision decide(ServerId server, const ProfileBank &profiles,
                          const InstanceLimits &limits,
                          double demand_tps, double quality_floor,
                          const ConfigProfile &current,
                          GroupTable &table) const;

    /** Lowest-power config at demand (all-infeasible fallback). */
    std::size_t mildestIndex(double demand_tps,
                             double quality_floor) const;
};

} // namespace tapas

#endif // TAPAS_CORE_CONFIGURATOR_HH
