#include "telemetry/templates.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "common/stats.hh"

namespace tapas {

namespace {
constexpr int kHoursPerWeek = 168;
constexpr int kHoursPerDay = 24;

int
hourOfWeek(SimTime t)
{
    return static_cast<int>((t / kHour) % kHoursPerWeek);
}

int
hourOfDay(SimTime t)
{
    return static_cast<int>((t / kHour) % kHoursPerDay);
}
} // namespace

PowerTemplates::Table
PowerTemplates::buildTable(const SeriesView<KeyedSample> &series,
                           int buckets, SimTime bucket_span,
                           const TemplateQuantiles &quantiles)
{
    std::vector<QuantileSample> samples(
        static_cast<std::size_t>(buckets));
    for (const KeyedSample &s : series) {
        const int bucket =
            static_cast<int>((s.time / bucket_span) % buckets);
        samples[static_cast<std::size_t>(bucket)].add(s.value);
    }
    Table table(static_cast<std::size_t>(buckets),
                {0.0, 0.0, 0.0});
    // Buckets with no data borrow the global distribution.
    QuantileSample global;
    for (const KeyedSample &s : series)
        global.add(s.value);
    for (int b = 0; b < buckets; ++b) {
        QuantileSample &q = samples[static_cast<std::size_t>(b)];
        QuantileSample &use = q.count() >= 3 ? q : global;
        if (use.count() == 0)
            continue;
        table[static_cast<std::size_t>(b)] = {
            use.quantile(quantiles.p50),
            use.quantile(quantiles.p90),
            use.quantile(quantiles.p99)};
    }
    return table;
}

PowerTemplates
PowerTemplates::build(const TelemetryStore &store,
                      const TemplateQuantiles &quantiles)
{
    PowerTemplates out;
    for (RowId id : store.rowsWithData()) {
        out.rowTables[id.index] = buildTable(
            store.rowPowerSeries(id), kHoursPerWeek, kHour,
            quantiles);
    }
    for (CustomerId id : store.customersWithData()) {
        out.customerTables[id.index] = buildTable(
            store.customerVmPowerSeries(id), kHoursPerDay, kHour,
            quantiles);
    }
    return out;
}

double
PowerTemplates::lookup(const Table &table, int bucket, Level level)
{
    const auto &entry = table[static_cast<std::size_t>(bucket)];
    switch (level) {
      case Level::P50:
        return entry[0];
      case Level::P90:
        return entry[1];
      case Level::P99:
        return entry[2];
    }
    panic("unknown template level");
}

double
PowerTemplates::predictRow(RowId id, SimTime t, Level level) const
{
    const auto it = rowTables.find(id.index);
    tapas_assert(it != rowTables.end(),
                 "no row template for row %u", id.index);
    return lookup(it->second, hourOfWeek(t), level);
}

double
PowerTemplates::predictCustomerVm(CustomerId id, SimTime t,
                                  Level level) const
{
    const auto it = customerTables.find(id.index);
    tapas_assert(it != customerTables.end(),
                 "no customer template for customer %u", id.index);
    return lookup(it->second, hourOfDay(t), level);
}

bool
PowerTemplates::hasRow(RowId id) const
{
    return rowTables.count(id.index) > 0;
}

bool
PowerTemplates::hasCustomer(CustomerId id) const
{
    return customerTables.count(id.index) > 0;
}

double
PowerTemplates::rowTemplatePeak(RowId id) const
{
    const auto it = rowTables.find(id.index);
    tapas_assert(it != rowTables.end(),
                 "no row template for row %u", id.index);
    double peak = 0.0;
    for (const auto &entry : it->second)
        peak = std::max(peak, entry[2]);
    return peak;
}

} // namespace tapas
