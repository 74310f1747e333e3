/**
 * @file
 * Template-based power prediction (the SmartOClock approach the paper
 * adopts, Fig. 14): per hour-of-week quantile templates for row
 * power, per hour-of-day templates for customer per-VM power. Built
 * from telemetry by the Fig. 14 prediction-accuracy bench; the
 * simulator's placement decisions read the telemetry store's
 * predicted peaks (TelemetryStore::*PredictedPeak) instead.
 */

#ifndef TAPAS_TELEMETRY_TEMPLATES_HH
#define TAPAS_TELEMETRY_TEMPLATES_HH

#include <array>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "telemetry/history.hh"

namespace tapas {

/** Quantile levels the templates materialize. */
struct TemplateQuantiles
{
    double p50 = 0.50;
    double p90 = 0.90;
    double p99 = 0.99;
};

/**
 * Per-entity, per-time-bucket quantile templates over a scalar
 * signal (power).
 */
class PowerTemplates
{
  public:
    /** Template selector. */
    enum class Level { P50, P90, P99 };

    /**
     * Build row templates at hour-of-week granularity and customer
     * templates at hour-of-day granularity from the stored history.
     */
    static PowerTemplates build(const TelemetryStore &store,
                                const TemplateQuantiles &quantiles);

    /** Predicted row power at time t using the given template. */
    double predictRow(RowId id, SimTime t, Level level) const;

    /** Predicted per-VM power for an IaaS customer. */
    double predictCustomerVm(CustomerId id, SimTime t,
                             Level level) const;

    bool hasRow(RowId id) const;
    bool hasCustomer(CustomerId id) const;

    /** Peak of a row's P99 template across all buckets. */
    double rowTemplatePeak(RowId id) const;

  private:
    /** [bucket][level] quantile values. */
    using Table = std::vector<std::array<double, 3>>;

    static Table buildTable(const SeriesView<KeyedSample> &series,
                            int buckets, SimTime bucket_span,
                            const TemplateQuantiles &quantiles);

    static double lookup(const Table &table, int bucket, Level level);

    std::unordered_map<std::uint32_t, Table> rowTables;
    std::unordered_map<std::uint32_t, Table> customerTables;
};

} // namespace tapas

#endif // TAPAS_TELEMETRY_TEMPLATES_HH
