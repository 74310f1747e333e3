/**
 * @file
 * Ground-truth power model and power-distribution hierarchy (Eq. 4).
 *
 * Server power is idle-dominated-plus-load-dependent as the paper
 * characterizes: chassis idle, per-GPU dynamic power (frequency-
 * sensitive), fan power (cubic in fan speed), and load-dependent
 * component power. The hierarchy aggregates draw per row and per UPS,
 * compares against frozen provisioning, and reports capping needs.
 */

#ifndef TAPAS_DCSIM_POWER_HH
#define TAPAS_DCSIM_POWER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"
#include "dcsim/layout.hh"

namespace tapas {

class Archive;

/** Tunable constants of the ground-truth power model. */
struct PowerConfig
{
    /** Exponent on frequency for GPU dynamic power (f * V^2 law). */
    double freqPowerExponent = 2.4;
    /**
     * Row provisioning as a fraction of the row's worst-case draw at
     * construction time. 1.0 = provisioned exactly for peak.
     */
    double rowProvisionFactor = 1.0;
    /**
     * UPS provisioning as a fraction of the sum of its rows'
     * provisioned power.
     */
    double upsProvisionFactor = 1.0;
};

/** Converts load/frequency to electrical draw for one server. */
class PowerModel
{
  public:
    explicit PowerModel(const PowerConfig &config) : cfg(config) {}

    const PowerConfig &config() const { return cfg; }

    /**
     * One GPU's power draw.
     *
     * @param spec server hardware spec
     * @param load_frac GPU utilization [0,1]
     * @param freq_frac clock as a fraction of max [0,1]
     */
    Watts gpuPower(const ServerSpec &spec, double load_frac,
                   double freq_frac = 1.0) const;

    /**
     * Whole-server power from per-GPU draws plus chassis, component,
     * and fan power. @p heat_frac is the normalized GPU heat output
     * ((sum draw - sum idle) / (sum max - sum idle)); fans and the
     * load-dependent chassis components track heat, not busy time.
     */
    Watts serverPower(const ServerSpec &spec,
                      const std::vector<Watts> &gpu_draws,
                      double heat_frac) const;

    /** Normalized GPU heat output of a server, in [0, 1]. */
    static double heatFraction(const ServerSpec &spec,
                               const std::vector<Watts> &gpu_draws);

    /** Convenience: server power when all GPUs run at equal load. */
    Watts serverPowerAtLoad(const ServerSpec &spec, double load_frac,
                            double freq_frac = 1.0) const;

    /** Worst-case server draw (all GPUs at max, fans at full). */
    Watts serverPeakPower(const ServerSpec &spec) const;

  private:
    PowerConfig cfg;
};

/** Result of comparing current draw against provisioned budgets. */
struct PowerAssessment
{
    std::vector<double> rowDrawW;
    std::vector<double> rowBudgetW;
    std::vector<double> upsDrawW;
    std::vector<double> upsBudgetW;

    /** Rows currently exceeding their effective budget. */
    std::vector<RowId> overBudgetRows;
    /** UPS units currently exceeding their effective budget. */
    std::vector<UpsId> overBudgetUpses;

    bool anyViolation() const
    { return !overBudgetRows.empty() || !overBudgetUpses.empty(); }

    /** Reset for reuse as assess() scratch, keeping capacity. */
    void
    clear()
    {
        rowDrawW.clear();
        rowBudgetW.clear();
        upsDrawW.clear();
        upsBudgetW.clear();
        overBudgetRows.clear();
        overBudgetUpses.clear();
    }

    /** Row headroom in watts (can be negative). */
    double rowHeadroomW(RowId id) const
    { return rowBudgetW[id.index] - rowDrawW[id.index]; }
};

/**
 * The three-level power delivery hierarchy with frozen provisioning
 * and UPS failure support. Provisioning freezes at construction;
 * oversubscription racks added afterwards share the budgets.
 */
class PowerHierarchy
{
  public:
    PowerHierarchy(const DatacenterLayout &layout,
                   const PowerModel &model);

    /** Provisioned row power budget. */
    Watts rowProvision(RowId id) const;

    /** Budget after any emergency derating. */
    Watts effectiveRowProvision(RowId id) const;

    Watts effectiveUpsProvision(UpsId id) const;

    /** Total provisioned datacenter power. */
    Watts totalProvision() const;

    /**
     * Set a UPS's remaining fraction: per the paper's emergency
     * semantics, the remaining units absorb a failed unit's load and
     * every row's effective budget drops to the given fraction (75%
     * in the paper's 4N/3 design). Absolute per unit: the latest call
     * wins, and a fraction >= 1 repairs the unit. The fraction must
     * be positive. With several units down the datacenter-wide
     * derate is the minimum over the failed units, so restores are
     * exact — no compounding across overlapping failures.
     */
    void setUpsDerate(UpsId id, double frac);

    /** True if any UPS runs below full capacity. */
    bool anyFailure() const;

    /** Stored remaining fraction of a UPS (1.0 when healthy). */
    double upsDerate(UpsId id) const;

    /** Datacenter-wide derate: min over failed units, 1.0 if none. */
    double datacenterDerate() const { return deratingFrac; }

    /** Serialize/restore the per-UPS derates. */
    void checkpointState(Archive &ar);

    /**
     * Aggregate per-server draws up the hierarchy and flag every
     * level that exceeds its effective budget.
     */
    PowerAssessment assess(const std::vector<Watts> &server_draws)
        const;

    /**
     * Allocation-free variant: writes into a caller-owned scratch
     * assessment, reusing its vectors' capacity. The step loop calls
     * this up to 7x per step during capping convergence.
     */
    void assess(const std::vector<Watts> &server_draws,
                PowerAssessment &out) const;

  private:
    const DatacenterLayout &layout; // ckpt-skip(constant): plant wiring
    // ckpt-skip(constant): row budgets frozen at construction
    std::vector<double> rowProvisionW;
    // ckpt-skip(constant): UPS budgets frozen at construction
    std::vector<double> upsProvisionW;
    /** Per-UPS remaining fraction; < 1 marks the unit failed. */
    std::vector<double> upsRemainingFrac;
    /** Cached row -> UPS index (avoids PDU hops in assess()). */
    // ckpt-skip(constant): layout wiring
    std::vector<std::uint32_t> rowUps;
    // ckpt-skip(derived): min of upsRemainingFrac, recomputed on
    // restore
    double deratingFrac = 1.0;

    void recomputeDerating();
};

} // namespace tapas

#endif // TAPAS_DCSIM_POWER_HH
