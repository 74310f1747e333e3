/**
 * @file
 * The emergency_sweep workload: a ScenarioSweep grid of fault drills
 * (baseline, and TAPAS with sensor quarantine, 6-hourly refits and
 * stochastic sensor faults) over many seeds, run on a ThreadPool of
 * at most nproc workers. One repetition runs the whole grid; each job
 * of each repetition is one attempted operation.
 *
 * ScenarioSweep builds its simulations itself, so the phase timer and
 * the per-step observer cannot reach them. The traced pass therefore
 * runs the same jobs on the same pool with the benchmark stepping
 * each simulation, and an untimed verification pass through
 * ScenarioSweep with an inspect callback collects the digests the
 * traced jobs are checked against.
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "common/random.hh"
#include "harness.hh"
#include "sim/scenario.hh"
#include "sim/sweep.hh"
#include "stats.hh"

namespace perfbench {

using namespace tapas;

namespace {

/** Seeds per grid; two jobs per seed. */
constexpr std::uint64_t kGridSeeds = 128;

std::vector<SweepJob>
buildGrid(std::uint64_t seed)
{
    std::vector<SweepJob> jobs;
    for (std::uint64_t k = 0; k < kGridSeeds; ++k) {
        const SimConfig drill = faultDrillScenario(mixSeed(seed, k));
        jobs.push_back({"baseline/" + std::to_string(k),
                        drill.asBaseline()});
        SimConfig tapas = drill.asTapas();
        tapas.policy.sensorQuarantineEnabled = true;
        tapas.profileRefitPeriod = 6 * kHour;
        tapas.faults.sensor.mtbfS = static_cast<double>(kDay);
        tapas.faults.sensor.mttrS = 2.0 * static_cast<double>(kHour);
        jobs.push_back({"tapas/" + std::to_string(k), tapas});
    }
    return jobs;
}

unsigned
workerCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/** One repetition of the grid. */
struct Grid
{
    bool traced = false;
    double wallS = 0.0;
    double steps = 0.0;
    std::vector<double> jobWallS;
    /** Untraced: per-job metric bytes; traced: per-job results. */
    std::vector<std::vector<std::uint8_t>> metrics;
    std::vector<SteppedRun> tracedJobs;

    double jobWallSum() const
    {
        double s = 0.0;
        for (double w : jobWallS)
            s += w;
        return s;
    }
};

Grid
runUntraced(const ScenarioSweep &sweep, const std::vector<SweepJob> &jobs)
{
    Grid grid;
    const double t0 = nowS();
    const std::vector<SweepOutcome> outcomes = sweep.run(jobs);
    grid.wallS = nowS() - t0;
    for (const SweepOutcome &o : outcomes) {
        grid.jobWallS.push_back(o.wallS);
        grid.steps += static_cast<double>(o.metrics.totalSteps);
        grid.metrics.push_back(metricBytes(o.metrics));
    }
    return grid;
}

Grid
runTracedGrid(ThreadPool &pool, const std::vector<SweepJob> &jobs)
{
    Grid grid;
    grid.traced = true;
    const double t0 = nowS();
    std::vector<std::future<SteppedRun>> futures;
    for (const SweepJob &job : jobs) {
        futures.push_back(pool.submit(
            [&cfg = job.config] { return runStepped(cfg, true); }));
    }
    for (auto &f : futures)
        grid.tracedJobs.push_back(f.get());
    grid.wallS = nowS() - t0;
    for (const SteppedRun &job : grid.tracedJobs) {
        grid.jobWallS.push_back(job.wallS());
        grid.steps += static_cast<double>(job.stepS.size());
    }
    return grid;
}

} // namespace

void
runEmergencySweep(const Options &opt, Report &report)
{
    const std::vector<SweepJob> jobs = buildGrid(opt.seed);
    const unsigned workers = workerCount();
    ThreadPool pool(workers);
    const ScenarioSweep sweep(pool);
    // The set-up probe constructs one TAPAS job on an idle worker.
    const SimConfig &setup_cfg = jobs[1].config;

    constexpr std::size_t kMinUntraced = 3;
    const double start = nowS();
    const double cpu_start = cpuNowS();
    std::vector<Grid> grids;
    std::vector<double> setup;
    std::size_t untraced = 0;
    double rss_one_grid = 0.0;
    for (;;) {
        const double rep_start = nowS();
        for (int i = 0; i < 2; ++i)
            setup.push_back(setupOnWorkerS(pool, setup_cfg));
        const bool traced = opt.trace && grids.size() % 2 == 1;
        grids.push_back(traced ? runTracedGrid(pool, jobs)
                               : runUntraced(sweep, jobs));
        if (!traced && ++untraced == 1)
            rss_one_grid = peakRssMb();
        const double rep_s = nowS() - rep_start;
        const bool enough =
            untraced >= kMinUntraced && (!opt.trace || grids.size() >= 2);
        if (enough && nowS() - start + rep_s > opt.seconds)
            break;
    }
    const double window_s = nowS() - start;
    const double cpu_s = cpuNowS() - cpu_start;
    if (!opt.trace)
        grids.push_back(runTracedGrid(pool, jobs));

    // Untimed verification pass: digests and the counts that live
    // outside SimMetrics, per job.
    std::vector<std::uint64_t> digests(jobs.size());
    std::vector<ExactCounts> counts(jobs.size());
    const std::vector<SweepOutcome> verified = sweep.run(
        jobs, [&](const SweepJob &job, ClusterSim &sim) {
            const auto i = static_cast<std::size_t>(&job - jobs.data());
            digests[i] = sim.stateDigest();
            counts[i].add(sim);
        });

    report.setDigest(combineDigests(digests));

    std::vector<std::vector<std::uint8_t>> ref_metrics;
    for (const SweepOutcome &o : verified)
        ref_metrics.push_back(metricBytes(o.metrics));

    const Grid *last_traced = nullptr;
    std::vector<double> sps, walls, job_walls, eff, straggle;
    // Untraced wall of each job, one per grid.
    std::vector<std::vector<double>> job_samples(jobs.size());
    std::vector<double> traced_job_sps, untraced_job_sps;
    PhaseTotals phase_totals;
    for (const Grid &grid : grids) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const bool same = grid.traced
                ? grid.tracedJobs[i].digest == digests[i] &&
                    grid.tracedJobs[i].metrics == ref_metrics[i] &&
                    grid.tracedJobs[i].counts == counts[i]
                : grid.metrics[i] == ref_metrics[i];
            report.attempt(same, std::string(grid.traced ? "traced"
                                                         : "untraced") +
                               " sweep job " + jobs[i].name +
                               " ended with another digest, metric set "
                               "or count than its verification run");
        }
        if (grid.traced) {
            last_traced = &grid;
            traced_job_sps.push_back(grid.steps / grid.jobWallSum());
            for (const SteppedRun &job : grid.tracedJobs)
                phase_totals.add(job.phases, job.stepSumS,
                                 static_cast<double>(job.stepS.size()));
            continue;
        }
        untraced_job_sps.push_back(grid.steps / grid.jobWallSum());
        sps.push_back(grid.steps / grid.wallS);
        walls.push_back(grid.wallS);
        eff.push_back(grid.jobWallSum() / (workers * grid.wallS));
        straggle.push_back(
            *std::max_element(grid.jobWallS.begin(), grid.jobWallS.end()) /
            median(grid.jobWallS));
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            job_walls.push_back(grid.jobWallS[i]);
            job_samples[i].push_back(grid.jobWallS[i]);
        }
    }

    Outcomes outcomes;
    ExactCounts total_counts;
    StepObserver observed;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SteppedRun &traced = last_traced->tracedJobs[i];
        outcomes.add(verified[i].metrics, traced.observer.throttledSteps);
        total_counts.add(counts[i]);
        observed.merge(traced.observer);
    }

    const std::string grid_note = std::to_string(jobs.size()) +
        " jobs on " + std::to_string(workers) + " workers";
    report.set("steps_per_s", median(sps), "1/s",
               medianNote(sps, "untraced grids") + ", " + grid_note);
    // Each job's median wall over the grids, per simulated step: the
    // grids repeat the same jobs, so the median drops the host's
    // hiccups and keeps the slow jobs for the tail.
    std::vector<double> per_step;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        per_step.push_back(
            median(job_samples[i]) /
            static_cast<double>(verified[i].metrics.totalSteps));
    }
    const double tail_p = tailPercentile(per_step.size());
    char pct[96];
    std::snprintf(pct, sizeof pct,
                  "job wall per step, p%g, n=%zu jobs, median of each "
                  "job over %zu grids",
                  50.0, per_step.size(), untraced);
    report.set("step_p50_us", median(per_step) * 1e6, "us", pct);
    std::snprintf(pct, sizeof pct,
                  "job wall per step, p%g, n=%zu jobs, median of each "
                  "job over %zu grids",
                  tail_p, per_step.size(), untraced);
    report.set("step_tail_us", percentile(per_step, tail_p) * 1e6, "us",
               pct);
    report.set("setup_s", median(setup), "s",
               medianNote(setup, "constructions of one TAPAS job on one thread"));
    report.set("run_wall_s", median(walls), "s",
               medianNote(walls, "untraced grids"));
    report.set("peak_rss_mb", rss_one_grid, "MB",
               "high-water mark after the first grid");
    outcomes.report(report);
    total_counts.report(report);
    observed.report(report);
    phase_totals.report(report);
    report.set("sim.sweep.parallel_eff", median(eff), "ratio",
               medianNote(eff, "untraced grids"));
    report.set("sim.sweep.straggler_ratio", median(straggle), "ratio",
               medianNote(straggle, "untraced grids"));
    report.set("sim.sweep.job_wall_ms", median(job_walls) * 1e3, "ms",
               "p50, n=" + std::to_string(job_walls.size()) + " jobs");
    report.set("host.cpu_wall_ratio", cpu_s / window_s, "ratio",
               "measurement window, " + std::to_string(workers) +
                   " workers");
    if (opt.trace) {
        report.set("trace.overhead_frac",
                   1.0 - median(traced_job_sps) / median(untraced_job_sps),
                   "frac", "traced vs untraced steps per job-second");
    }

    checkpointRoundTrip(setup_cfg, digests[1], opt.scratchDir, opt.trace,
                        report);
}

} // namespace perfbench
