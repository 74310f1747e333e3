/**
 * @file
 * Shared pieces of the perfbench harness: the run options, the metric
 * report the workloads fill, and helpers that read a ClusterSim only
 * through its public API (digests, metric bytes, modelled outcomes,
 * exact counts, kernel probes on live state, host diagnostics).
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/threadpool.hh"
#include "sim/cluster.hh"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for checkpoint files (inside the checkout). */
    std::string scratchDir = ".";
};

/** Wall-clock seconds since an arbitrary epoch (steady clock). */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process CPU seconds (all threads). */
double cpuNowS();

/**
 * Metric report of one run. Each metric is printed as one
 * `name: value unit` line; @ref note carries the sample count and the
 * percentile behind a timing. Failed checks are collected with their
 * reason and count against the run.
 */
class Report
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit, const std::string &note = "");

    /**
     * Record one attempted operation (one simulation, or one
     * checkpoint round trip) and whether its checks held.
     */
    void attempt(bool ok, const std::string &what);

    /** Record a failed check; it counts against the run. */
    void fail(const std::string &what) { failures_.push_back(what); }

    void setDigest(std::uint64_t digest) { digest_ = digest; }

    /** Failed over attempted operations so far (at most 1). */
    double failedFrac() const
    {
        return attempted_ ? std::min(1.0,
                                     static_cast<double>(failures_.size()) /
                                         static_cast<double>(attempted_))
                          : 1.0;
    }

    /** The run's exact counts: identical for every run of a seed. */
    void setExact(const std::string &name, double value)
    { exact_[name] = value; }

    /** Whole report as one JSON object (one line). */
    std::string json() const;

  private:
    struct Entry
    {
        double value = 0.0;
        std::string unit;
        std::string note;
    };
    std::map<std::string, Entry> metrics_;
    std::map<std::string, double> exact_;
    std::vector<std::string> failures_;
    std::uint64_t attempted_ = 0;
    std::uint64_t digest_ = 0;
};

/** One digest for a set of simulations: FNV-1a over their digests. */
std::uint64_t combineDigests(const std::vector<std::uint64_t> &digests);

/** "median of N what, IQR x%" note for a timing. */
std::string medianNote(const std::vector<double> &values,
                       const std::string &what);

/** Canonical byte image of a metric set (SimMetrics serialization). */
std::vector<std::uint8_t> metricBytes(const tapas::SimMetrics &m);

/** Modelled outcomes of one simulation, summed for aggregation. */
struct Outcomes
{
    double runs = 0.0;
    double steps = 0.0;
    double peakRowPowerFracSum = 0.0;
    double maxGpuTempCSum = 0.0;
    /** Steps with power capping or thermal throttling. */
    double throttledSteps = 0.0;
    double inletExcursionSteps = 0.0;
    double servedTokens = 0.0;
    double requestsCompleted = 0.0;
    double sloViolations = 0.0;
    double qualityWeightedTokens = 0.0;

    /** Add one finished run's metrics and its throttled-step count. */
    void add(const tapas::SimMetrics &m, std::uint64_t throttled);

    /** The seven modelled-outcome metrics, range-checked. */
    void report(Report &report) const;
};

/**
 * Exact work counts of one simulation (placement, configuration,
 * quarantine, faults, caches, requests); summed across sweep jobs.
 */
struct ExactCounts
{
    double placed = 0.0;
    double rejected = 0.0;
    double reconfigs = 0.0;
    double quarantinedServerSteps = 0.0;
    double fitQuarantines = 0.0;
    double cacheHits = 0.0;
    double cacheMisses = 0.0;
    double requestsCompleted = 0.0;
    double sloViolations = 0.0;
    double capSteps = 0.0;
    double throttleSteps = 0.0;
    double faultSteps = 0.0;

    bool operator==(const ExactCounts &) const = default;

    /** Add the counts of a finished simulation. */
    void add(const tapas::ClusterSim &sim);

    /** Add another set of counts (sweep totals). */
    void add(const ExactCounts &other);

    void report(Report &report) const;
};

/**
 * Per-step observer of a simulation the benchmark steps itself: the
 * throttled-step count (capping or throttling in the same step, which
 * SimMetrics counts separately) and, when sampling, the live VM count
 * and engine state. Observation happens between steps, outside any
 * timed interval, and reads only const accessors.
 */
struct StepObserver
{
    bool sample = false;
    std::uint64_t throttledSteps = 0;
    double activeVmSum = 0.0;
    double steps = 0.0;
    double engineSamples = 0.0;
    double queueDepthSum = 0.0;
    double batchSum = 0.0;
    double utilSum = 0.0;
    double prefillSum = 0.0;

    std::uint64_t capBefore = 0;
    std::uint64_t throttleBefore = 0;

    void before(const tapas::ClusterSim &sim);
    void after(const tapas::ClusterSim &sim);
    void merge(const StepObserver &other);

    /** Engine and VM-population means (per-layer metrics). */
    void report(Report &report) const;
};

/** Phase self time summed over steps (ClusterSim phase timer). */
struct PhaseTotals
{
    tapas::StepPhaseTimes phases;
    double stepWallS = 0.0;
    double steps = 0.0;

    void add(const tapas::StepPhaseTimes &p, double step_wall_s,
             double step_count);
    void report(Report &report) const;
};

/**
 * One simulation the benchmark builds and steps to its horizon, one
 * runSteps(1) at a time, timing construction and every step. The
 * digest, metric bytes and counts are read after the last step,
 * outside every timed interval.
 */
struct SteppedRun
{
    double setupS = 0.0;
    std::vector<double> stepS;
    double stepSumS = 0.0;
    std::uint64_t digest = 0;
    std::vector<std::uint8_t> metrics;
    ExactCounts counts;
    StepObserver observer;
    tapas::StepPhaseTimes phases;

    double wallS() const { return setupS + stepSumS; }

    /** Whether two runs of one config ended identically. */
    bool sameEnd(const SteppedRun &other) const;
};

/** Run @p cfg to its horizon; @p traced turns on the phase timer and
 *  the per-step engine sampling. */
SteppedRun runStepped(const tapas::SimConfig &cfg, bool traced);

/**
 * Wall seconds to construct a ClusterSim of @p cfg on a worker of
 * @p pool. On a pool worker the library runs its construction-time
 * fan-outs (offline profiling) inline, so this times the whole
 * construction work on one thread, free of the straggler waits a
 * parallel fan-out sees on a shared host.
 */
double setupOnWorkerS(tapas::ThreadPool &pool, const tapas::SimConfig &cfg);

/**
 * Time the public kernels on the live state of @p sim: the batched
 * operating-point solve over its SaaS VMs, the batched profile
 * predictors and the thermal model over its fleet, and a telemetry
 * refit of its profile bank. Reports the per-lane and per-server
 * costs.
 */
void probeKernels(const tapas::ClusterSim &sim, Report &report);

/**
 * Checkpoint round trip: run a fresh sim of @p cfg to mid-horizon,
 * probe its kernels when @p probe, save a checkpoint, restore it into
 * a second fresh sim and run that to the end. Fails the report unless
 * the restored run's digest equals @p expected_digest. Reports the
 * save/restore times and the checkpoint size.
 */
void checkpointRoundTrip(const tapas::SimConfig &cfg,
                         std::uint64_t expected_digest,
                         const std::string &scratch_dir, bool probe,
                         Report &report);

/**
 * Host diagnostics: a fixed-work calibration loop (median of several
 * passes, in ms) and the 1-minute load average. Diagnostics only;
 * nothing rescales a metric by them.
 */
double calibrationMs();
double loadAverage1m();

/** Peak resident set of this process, MB. */
double peakRssMb();

/** The three workloads; each fills @p report. */
void runFleetWeek(const Options &opt, Report &report);
void runRequestHour(const Options &opt, Report &report);
void runEmergencySweep(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
