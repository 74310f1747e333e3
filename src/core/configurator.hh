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

    /**
     * Operating-point memo for one demand level, keyed by candidate
     * index in the sorted profile space. The candidate walk's
     * operating point is a pure function of (candidate, demand), so
     * a caller scoring several instances at the same demand (the
     * controller groups instances by demand for exactly this) can
     * hand the same cache to consecutive choose() calls and skip
     * the re-evaluation; results are bit-identical by construction.
     * A demand change resets the cache automatically.
     */
    struct OpCache
    {
        double demandTps = -1.0;
        std::vector<char> valid;
        std::vector<PerfModel::OperatingPoint> ops;
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
     * @param cache optional cross-instance operating-point memo
     */
    ConfigDecision choose(ServerId server,
                          const ProfileBank &profiles,
                          const InstanceLimits &limits,
                          double demand_tps, double quality_floor,
                          const ConfigProfile &current,
                          OpCache *cache = nullptr) const;

    /** Whether a profile satisfies the limits at a given demand. */
    bool feasible(ServerId server, const ProfileBank &profiles,
                  const InstanceLimits &limits,
                  const ConfigProfile &profile,
                  double demand_tps) const;

    const std::vector<ConfigProfile> &profileSpace() const
    { return space; }

  private:
    const PerfModel &perf;
    TapasPolicyConfig cfg;
    std::vector<ConfigProfile> space;

    /**
     * Limit checks with the operating point already evaluated; lets
     * feasible() and choose()'s incumbent hysteresis check share one
     * operating-point solve between feasibility and power ranking
     * (the candidate walk checks its blocks batched instead).
     */
    bool feasibleAt(ServerId server, const ProfileBank &profiles,
                    const InstanceLimits &limits,
                    const ConfigProfile &profile,
                    const PerfModel::OperatingPoint &op) const;
};

} // namespace tapas

#endif // TAPAS_CORE_CONFIGURATOR_HH
