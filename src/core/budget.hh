/**
 * @file
 * The row-power and aisle-airflow budget ledger (paper Eqs. 3-4).
 *
 * Every TAPAS budget validator (placement, risk-aware routing,
 * instance configuration, migration donor ranking) compares the
 * same two sums against the same two provisions: the fitted per-
 * server airflow summed over an aisle against the AHU provision
 * (Eq. 3), and the fitted per-server power summed over a row against
 * the row provision (Eq. 4). BudgetLedger is the one place that
 * arithmetic lives: one fill predicts every server at the caller's
 * loads, sums rows and aisles in ascending server order, and reads
 * the derated provisions.
 */

#ifndef TAPAS_CORE_BUDGET_HH
#define TAPAS_CORE_BUDGET_HH

#include <vector>

#include "core/context.hh"

namespace tapas {

/** Per-server predictions, per-row/aisle sums and provisions. */
class BudgetLedger
{
  public:
    /**
     * Heat/load level the configurator can always push a SaaS
     * instance down to; budget validators count SaaS at this
     * controllable floor because TAPAS reclaims that slack at
     * runtime (Section 4.4: oversubscription leverages the slack
     * TAPAS creates).
     */
    static constexpr double kSaasControllableLoad = 0.45;

    /**
     * Per-server predicted peak loads from the placed VM views,
     * SaaS counted at the controllable floor. Every server that
     * holds no view VM reads 0, because each view VM sits on an
     * occupied server.
     */
    static void peakLoadByServer(const ClusterView &view,
                                 std::vector<double> &out);

    /**
     * Predict every server's power and airflow at @p loads (one
     * entry per server id) and sum them per row and per aisle.
     * Servers with a nonzero @p skip entry are predicted but left
     * out of the sums; null skips none.
     */
    void fill(const DatacenterLayout &layout,
              const ProfileBank &profiles, const CoolingPlant &cooling,
              const PowerHierarchy &power, const double *loads,
              const char *skip = nullptr);

    /** fill() from the view's plants at its predicted peak loads. */
    void fillPeaks(const ClusterView &view);

    double serverPowerW(ServerId id) const
    { return serverPower[id.index]; }
    double serverAirflowCfm(ServerId id) const
    { return serverAirflow[id.index]; }

    /** Eq. 4 demand: predicted power summed over the row. */
    double rowPowerW(RowId id) const { return rowPower[id.index]; }
    /** Eq. 3 demand: predicted airflow summed over the aisle. */
    double aisleAirflowCfm(AisleId id) const
    { return aisleAirflow[id.index]; }

    /** Row provision after any UPS derate. */
    double rowProvisionW(RowId id) const
    { return rowProvision[id.index]; }
    /** Aisle provision after any AHU derate. */
    double aisleProvisionCfm(AisleId id) const
    { return aisleProvision[id.index]; }

  private:
    std::vector<double> peakLoads;
    std::vector<double> serverPower;
    std::vector<double> serverAirflow;
    std::vector<double> rowPower;
    std::vector<double> aisleAirflow;
    std::vector<double> rowProvision;
    std::vector<double> aisleProvision;
};

} // namespace tapas

#endif // TAPAS_CORE_BUDGET_HH
