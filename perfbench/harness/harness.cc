#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <sstream>

#include "common/serialize.hh"
#include "dcsim/thermal.hh"
#include "stats.hh"

namespace perfbench {

using namespace tapas;

double
cpuNowS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ------------------------------------------------------------ Report --

void
Report::set(const std::string &name, double value, const std::string &unit,
            const std::string &note)
{
    if (!std::isfinite(value))
        fail(name + " is not finite");
    metrics_[name] = Entry{value, unit, note};
}

void
Report::attempt(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok)
        fail(what);
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
Report::json() const
{
    std::ostringstream out;
    char digest[24];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(digest_));
    out << "{\"attempted\": " << attempted_
        << ", \"failed\": " << failures_.size()
        << ", \"digest\": " << jsonString(digest) << ", \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i)
        out << (i ? ", " : "") << jsonString(failures_[i]);
    out << "], \"metrics\": {";
    bool first = true;
    for (const auto &[name, e] : metrics_) {
        out << (first ? "" : ", ") << jsonString(name)
            << ": {\"value\": " << jsonNumber(e.value)
            << ", \"unit\": " << jsonString(e.unit)
            << ", \"note\": " << jsonString(e.note) << "}";
        first = false;
    }
    out << "}, \"exact\": {";
    first = true;
    for (const auto &[name, v] : exact_) {
        out << (first ? "" : ", ") << jsonString(name) << ": "
            << jsonNumber(v);
        first = false;
    }
    out << "}}";
    return out.str();
}

// ---------------------------------------------------- sim read-outs --

std::uint64_t
combineDigests(const std::vector<std::uint64_t> &digests)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t d : digests) {
        for (int b = 0; b < 8; ++b) {
            h ^= (d >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

std::string
medianNote(const std::vector<double> &values, const std::string &what)
{
    char iqr[32];
    std::snprintf(iqr, sizeof iqr, "%.1f%%", relativeIqr(values) * 100.0);
    return "median of " + std::to_string(values.size()) + " " + what +
        ", IQR " + iqr;
}

std::vector<std::uint8_t>
metricBytes(const SimMetrics &m)
{
    SimMetrics copy = m;
    Archive ar = Archive::writer();
    copy.checkpointState(ar);
    return ar.takeBuffer();
}

void
Outcomes::add(const SimMetrics &m, std::uint64_t throttled)
{
    runs += 1.0;
    steps += static_cast<double>(m.totalSteps);
    peakRowPowerFracSum += m.peakRowPowerFrac.maxValue();
    maxGpuTempCSum += m.maxGpuTempC.maxValue();
    throttledSteps += static_cast<double>(throttled);
    inletExcursionSteps += static_cast<double>(m.inletExcursionSteps);
    servedTokens += m.totalTokens;
    requestsCompleted += static_cast<double>(m.requestsCompleted);
    sloViolations += static_cast<double>(m.sloViolations);
    qualityWeightedTokens += m.qualityWeightedTokens;
}

namespace {

/** Set a metric and fail the run unless it lies in [lo, hi]. */
void
setInRange(Report &report, const std::string &name, double value,
           const std::string &unit, double lo, double hi,
           const std::string &note = "")
{
    report.set(name, value, unit, note);
    if (std::isfinite(value) && (value < lo || value > hi)) {
        std::ostringstream why;
        why << name << " = " << value << " outside [" << lo << ", "
            << hi << "]";
        report.fail(why.str());
    }
}

} // namespace

void
Outcomes::report(Report &report) const
{
    const double n = std::max(runs, 1.0);
    const double s = std::max(steps, 1.0);
    const std::string note = runs > 1.0
        ? "exact, over " + std::to_string(static_cast<int>(runs)) +
            " simulations"
        : "exact";
    // Deterministic per seed, so each is also an exact count.
    auto outcome = [&](const std::string &name, double value,
                       const std::string &unit, double lo, double hi) {
        setInRange(report, name, value, unit, lo, hi, note);
        report.setExact(name, value);
    };
    outcome("peak_row_power_frac", peakRowPowerFracSum / n, "frac", 0.01,
            2.0);
    outcome("max_gpu_temp_c", maxGpuTempCSum / n, "C", 10.0, 150.0);
    outcome("throttle_frac", throttledSteps / s, "frac", 0.0, 1.0);
    outcome("inlet_excursion_frac", inletExcursionSteps / s, "frac", 0.0,
            1.0);
    outcome("served_tokens", servedTokens, "tokens", 1.0, 1e18);
    outcome("slo_attainment",
            requestsCompleted > 0.0
                ? 1.0 - sloViolations / requestsCompleted
                : 1.0,
            "frac", 0.0, 1.0);
    outcome("mean_quality",
            servedTokens > 0.0 ? qualityWeightedTokens / servedTokens : 0.0,
            "frac", 1e-6, 1.0);
}

void
ExactCounts::add(const ClusterSim &sim)
{
    const SimMetrics &m = sim.metrics();
    placed += static_cast<double>(m.vmsPlaced);
    rejected += static_cast<double>(m.vmsRejected);
    reconfigs += static_cast<double>(m.reconfigs);
    quarantinedServerSteps +=
        static_cast<double>(m.quarantinedServerSteps);
    fitQuarantines += static_cast<double>(sim.profiles().refitsRejected());
    cacheHits += static_cast<double>(sim.perfModel().profileCacheHits());
    cacheMisses +=
        static_cast<double>(sim.perfModel().profileCacheMisses());
    requestsCompleted += static_cast<double>(m.requestsCompleted);
    sloViolations += static_cast<double>(m.sloViolations);
    capSteps += static_cast<double>(m.powerCapSteps);
    throttleSteps += static_cast<double>(m.thermalThrottleSteps);
    faultSteps += static_cast<double>(m.faultSteps);
}

void
ExactCounts::add(const ExactCounts &o)
{
    placed += o.placed;
    rejected += o.rejected;
    reconfigs += o.reconfigs;
    quarantinedServerSteps += o.quarantinedServerSteps;
    fitQuarantines += o.fitQuarantines;
    cacheHits += o.cacheHits;
    cacheMisses += o.cacheMisses;
    requestsCompleted += o.requestsCompleted;
    sloViolations += o.sloViolations;
    capSteps += o.capSteps;
    throttleSteps += o.throttleSteps;
    faultSteps += o.faultSteps;
}

void
ExactCounts::report(Report &report) const
{
    auto exact = [&](const std::string &name, double v,
                     const std::string &unit) {
        report.set(name, v, unit, "exact");
        report.setExact(name, v);
    };
    exact("core.allocator.placed", placed, "count");
    exact("core.allocator.rejected", rejected, "count");
    exact("core.allocator.accept_ratio",
          placed + rejected > 0.0 ? placed / (placed + rejected) : 0.0,
          "ratio");
    exact("core.configurator.reconfigs", reconfigs, "count");
    exact("core.risk.quarantined_server_steps", quarantinedServerSteps,
          "count");
    exact("telemetry.fit_quarantines", fitQuarantines, "count");
    exact("llm.profile_cache.hits", cacheHits, "count");
    exact("llm.profile_cache.misses", cacheMisses, "count");
    exact("llm.profile_cache.hit_ratio",
          cacheHits + cacheMisses > 0.0
              ? cacheHits / (cacheHits + cacheMisses)
              : 0.0,
          "ratio");
    exact("llm.requests_completed", requestsCompleted, "count");
    exact("llm.slo_violations", sloViolations, "count");
    exact("dcsim.power.cap_steps", capSteps, "count");
    exact("dcsim.thermal.throttle_steps", throttleSteps, "count");
    exact("sim.fault_steps", faultSteps, "count");
}

void
StepObserver::before(const ClusterSim &sim)
{
    capBefore = sim.metrics().powerCapSteps;
    throttleBefore = sim.metrics().thermalThrottleSteps;
}

void
StepObserver::after(const ClusterSim &sim)
{
    const SimMetrics &m = sim.metrics();
    if (m.powerCapSteps > capBefore ||
        m.thermalThrottleSteps > throttleBefore)
        ++throttledSteps;
    steps += 1.0;
    if (!sample)
        return;
    activeVmSum += static_cast<double>(sim.activeVmCount());
    const VmTable &vms = sim.vms();
    for (std::size_t i = 0; i < vms.size(); ++i) {
        const InferenceEngine *engine =
            vms.isSaas(i) ? vms.engineAt(i) : nullptr;
        if (engine == nullptr)
            continue;
        engineSamples += 1.0;
        queueDepthSum += static_cast<double>(engine->queueDepth());
        batchSum += engine->lastDecodeBatch();
        utilSum += engine->lastUtilization();
        prefillSum += engine->lastPrefillShare();
    }
}

void
StepObserver::merge(const StepObserver &o)
{
    throttledSteps += o.throttledSteps;
    activeVmSum += o.activeVmSum;
    steps += o.steps;
    engineSamples += o.engineSamples;
    queueDepthSum += o.queueDepthSum;
    batchSum += o.batchSum;
    utilSum += o.utilSum;
    prefillSum += o.prefillSum;
}

void
StepObserver::report(Report &report) const
{
    const double e = std::max(engineSamples, 1.0);
    const std::string note =
        "exact, n=" + std::to_string(static_cast<long long>(engineSamples)) +
        " engine-steps";
    auto exact = [&](const std::string &name, double v,
                     const std::string &unit, const std::string &n) {
        report.set(name, v, unit, n);
        report.setExact(name, v);
    };
    exact("llm.engine.queue_depth_mean", queueDepthSum / e, "requests",
          note);
    exact("llm.engine.batch_mean", batchSum / e, "requests", note);
    exact("llm.engine.util_mean", utilSum / e, "frac", note);
    exact("llm.engine.prefill_share", prefillSum / e, "frac", note);
    exact("sim.active_vms_mean", activeVmSum / std::max(steps, 1.0),
          "vms", "exact");
}

void
PhaseTotals::add(const StepPhaseTimes &p, double step_wall_s,
                 double step_count)
{
    phases.placeS += p.placeS;
    phases.riskS += p.riskS;
    phases.assignS += p.assignS;
    phases.drawsS += p.drawsS;
    phases.powerS += p.powerS;
    phases.thermalS += p.thermalS;
    phases.telemetryS += p.telemetryS;
    phases.configureS += p.configureS;
    phases.migrateS += p.migrateS;
    phases.metricsS += p.metricsS;
    stepWallS += step_wall_s;
    steps += step_count;
}

void
PhaseTotals::report(Report &report) const
{
    const double n = std::max(steps, 1.0);
    const std::string note =
        "mean per step, n=" + std::to_string(static_cast<long long>(steps));
    const StepPhaseTimes &p = phases;
    const std::pair<const char *, double> rows[] = {
        {"core.allocator.place_us", p.placeS},
        {"core.risk.refresh_us", p.riskS},
        {"llm.assign_us", p.assignS},
        {"dcsim.power.draws_us", p.drawsS},
        {"dcsim.power.cap_us", p.powerS},
        {"dcsim.thermal.eval_us", p.thermalS},
        {"telemetry.record_us", p.telemetryS},
        {"core.configurator.pass_us", p.configureS},
        {"core.migration.pass_us", p.migrateS},
        {"sim.metrics_us", p.metricsS},
    };
    double covered = 0.0;
    for (const auto &[name, s] : rows) {
        report.set(name, s / n * 1e6, "us", note);
        covered += s;
    }
    // The phase laps and the benchmark's step clock are read at
    // different instants, so the remainder can dip a hair below zero.
    report.set("sim.unphased_us",
               std::max(0.0, stepWallS - covered) / n * 1e6, "us", note);
}

SteppedRun
runStepped(const SimConfig &cfg, bool traced)
{
    SteppedRun run;
    const double t0 = nowS();
    ClusterSim sim(cfg);
    run.setupS = nowS() - t0;
    if (traced)
        sim.enablePhaseTiming();
    run.observer.sample = traced;
    while (!sim.finished()) {
        run.observer.before(sim);
        const double a = nowS();
        sim.runSteps(1);
        const double dt = nowS() - a;
        run.stepS.push_back(dt);
        run.stepSumS += dt;
        run.observer.after(sim);
    }
    run.digest = sim.stateDigest();
    run.metrics = metricBytes(sim.metrics());
    run.counts.add(sim);
    run.phases = sim.phaseTimes();
    return run;
}

bool
SteppedRun::sameEnd(const SteppedRun &other) const
{
    return digest == other.digest && metrics == other.metrics &&
        counts == other.counts &&
        observer.throttledSteps == other.observer.throttledSteps;
}

double
setupOnWorkerS(ThreadPool &pool, const SimConfig &cfg)
{
    return pool
        .submit([&cfg] {
            const double t0 = nowS();
            const ClusterSim sim(cfg);
            return nowS() - t0;
        })
        .get();
}

// ----------------------------------------------------- kernel probes --

namespace {

/**
 * Median wall seconds of one call of @p fn over at least @p min_calls
 * calls and @p min_total_s seconds (at most 5000 calls).
 */
double
medianCallS(const std::function<void()> &fn, int min_calls,
            double min_total_s)
{
    std::vector<double> samples;
    const double start = nowS();
    while (static_cast<int>(samples.size()) < min_calls ||
           (nowS() - start < min_total_s && samples.size() < 5000)) {
        const double t0 = nowS();
        fn();
        samples.push_back(nowS() - t0);
    }
    return median(samples);
}

std::string
callsNote(std::size_t lanes)
{
    return "median call, " + std::to_string(lanes) + " lanes";
}

} // namespace

void
probeKernels(const ClusterSim &sim, Report &report)
{
    const VmTable &vms = sim.vms();
    const DatacenterLayout &layout = sim.datacenter();
    const std::size_t servers = layout.serverCount();
    const int gpus = layout.specs().front().gpusPerServer;
    const ServerSpec &spec = layout.specs().front();

    // Operating-point solve over the live SaaS VMs and their demand.
    std::vector<const ConfigProfile *> profiles;
    std::vector<double> demand;
    for (std::size_t i = 0; i < vms.size(); ++i) {
        if (vms.active(i) && vms.isSaas(i) && vms.engineAt(i)) {
            profiles.push_back(&vms.engineAt(i)->profile());
            demand.push_back(vms.demandTps[i]);
        }
    }
    std::vector<PerfModel::OperatingPoint> points(profiles.size());
    double op_s = 0.0;
    if (!profiles.empty()) {
        op_s = medianCallS(
            [&] {
                sim.perfModel().operatingPointBatch(
                    profiles.data(), demand.data(), profiles.size(),
                    points.data());
            },
            50, 0.05);
    }
    report.set("llm.op_lanes", static_cast<double>(profiles.size()),
               "lanes", "exact");
    report.setExact("llm.op_lanes", static_cast<double>(profiles.size()));
    report.set("llm.op_batch_ns_per_lane",
               profiles.empty() ? 0.0 : op_s / profiles.size() * 1e9,
               "ns", callsNote(profiles.size()));

    // Live per-server load and per-GPU power (from the last step's
    // server draw, chassis share removed).
    std::vector<double> load(servers, 0.0);
    for (std::size_t i = 0; i < vms.size(); ++i) {
        if (vms.active(i) && vms.serverOf[i] < servers)
            load[vms.serverOf[i]] = vms.load[i];
    }
    std::vector<double> gpu_w(servers * static_cast<std::size_t>(gpus));
    const std::vector<double> &draw = sim.lastServerDrawW();
    for (std::size_t s = 0; s < servers; ++s) {
        const double per_gpu =
            (draw[s] - spec.chassisIdlePower.value()) / gpus;
        std::fill_n(gpu_w.begin() + static_cast<long>(s * gpus), gpus,
                    std::clamp(per_gpu, spec.gpuIdlePower.value(),
                               spec.gpuMaxPower.value()));
    }
    const double outside = sim.weather().outsideAt(sim.now()).value();

    const ProfileBank &bank = sim.profiles();
    const std::size_t fitted = bank.profiledServerCount();
    std::vector<double> inlet(fitted), power(fitted), hottest(fitted);
    const double predict_s = medianCallS(
        [&] {
            bank.predictInletBatch(outside, 0.5, fitted, inlet.data());
            bank.predictPowerBatch(load.data(), fitted, power.data());
            bank.predictHottestGpuBatch(inlet.data(), gpu_w.data(),
                                        fitted, hottest.data());
        },
        50, 0.05);
    report.set("telemetry.predict_ns_per_server", predict_s / fitted * 1e9,
               "ns",
               "median call of inlet+power+hottest-GPU batches, " +
                   std::to_string(fitted) + " servers");

    // The thermal model's heterogeneity draw does not change its cost,
    // so the probe builds one on the live layout from the config seed.
    const ThermalModel thermal(layout, sim.config().thermal,
                               sim.config().seed);
    const std::vector<double> overdraw(layout.aisleCount(), 0.0);
    std::vector<double> inlet_c(servers), gpu_c(gpu_w.size());
    const double thermal_s = medianCallS(
        [&] {
            thermal.inletTemperatures(Celsius(outside), 0.5, overdraw,
                                      inlet_c);
            for (std::size_t s = 0; s < servers; ++s) {
                thermal.gpuTemperatures(
                    ServerId(static_cast<std::uint32_t>(s)),
                    Celsius(inlet_c[s]), gpu_w.data() + s * gpus,
                    gpu_c.data() + s * gpus);
            }
        },
        50, 0.05);
    report.set("dcsim.thermal_ns_per_server", thermal_s / servers * 1e9,
               "ns",
               "median call of inlet+GPU temperatures, " +
                   std::to_string(servers) + " servers");

    // Telemetry refit of a copy of the live profile bank.
    std::vector<double> refit_s;
    for (int r = 0; r < 3; ++r) {
        ProfileBank copy = bank;
        const double t0 = nowS();
        copy.refitPowerFromTelemetry(sim.telemetry());
        refit_s.push_back(nowS() - t0);
    }
    report.set("telemetry.refit_ms", median(refit_s) * 1e3, "ms",
               "median of 3 refits, " + std::to_string(servers) +
                   " servers");
}

void
checkpointRoundTrip(const SimConfig &cfg, std::uint64_t expected_digest,
                    const std::string &scratch_dir, bool probe,
                    Report &report)
{
    const std::string path = scratch_dir + "/perfbench-" +
        std::to_string(cfg.seed) + ".ckpt";
    ClusterSim first(cfg);
    const int total = static_cast<int>(cfg.horizon / cfg.stepLength);
    first.runSteps(total / 2);
    if (probe)
        probeKernels(first, report);

    double t0 = nowS();
    const Error saved = first.saveCheckpoint(path);
    const double save_s = nowS() - t0;
    if (!saved.ok()) {
        report.fail("checkpoint save: " + saved.message());
        return;
    }
    double bytes = 0.0;
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fseek(f, 0, SEEK_END);
        bytes = static_cast<double>(std::ftell(f));
        std::fclose(f);
    }

    ClusterSim restored(cfg);
    t0 = nowS();
    const Error loaded = restored.restoreCheckpoint(path);
    const double restore_s = nowS() - t0;
    removeFileIfExists(path);
    if (!loaded.ok()) {
        report.fail("checkpoint restore: " + loaded.message());
        return;
    }
    restored.run();

    std::vector<double> digest_s;
    std::uint64_t digest = 0;
    for (int r = 0; r < 3; ++r) {
        t0 = nowS();
        digest = restored.stateDigest();
        digest_s.push_back(nowS() - t0);
    }
    report.attempt(digest == expected_digest,
                   "checkpoint restored at mid-horizon ends with another "
                   "digest than the straight-through run");
    report.set("sim.checkpoint.save_ms", save_s * 1e3, "ms", "one save");
    report.set("sim.checkpoint.restore_ms", restore_s * 1e3, "ms",
               "one restore");
    report.set("sim.checkpoint.bytes", bytes, "bytes", "exact");
    report.set("sim.digest_ms", median(digest_s) * 1e3, "ms",
               "median of 3 digests");
}

// --------------------------------------------------- host diagnostics --

double
calibrationMs()
{
    // Fixed integer and floating-point work whose result is consumed,
    // so the loop cannot be folded away.
    std::vector<double> samples;
    volatile double sink = 0.0;
    for (int pass = 0; pass < 5; ++pass) {
        const double t0 = nowS();
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        double acc = 0.0;
        for (int i = 0; i < 2000000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc * 0.999999 + static_cast<double>(x >> 40);
        }
        sink = sink + acc;
        samples.push_back(nowS() - t0);
    }
    return median(samples) * 1e3;
}

double
loadAverage1m()
{
    double load[1] = {0.0};
    return getloadavg(load, 1) == 1 ? load[0] : 0.0;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
