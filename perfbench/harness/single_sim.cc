/**
 * @file
 * The single-simulation workloads, fleet_week and request_hour.
 *
 * A run simulates a few replicas of the workload's scenario: the run's
 * seed itself and seeds derived from it. Per-seed work differs (VM
 * mix, request volume), so one replica would make the timings depend
 * on the seed as much as on the program; the replica set averages
 * that out. A round builds each replica's ClusterSim and steps it to
 * its horizon one step at a time, timing construction and every step.
 * Rounds run back to back until the run's time is used up.
 *
 * Every simulation is one attempted operation: it fails unless it ends
 * with the same digest, metric bytes and exact counts as the first
 * simulation of its replica.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/serialize.hh"
#include "harness.hh"
#include "sim/scenario.hh"
#include "stats.hh"

namespace perfbench {

using namespace tapas;

namespace {

/** Rounds that feed the end-to-end medians, at least. */
constexpr std::size_t kMinUntracedRounds = 3;

/** Timings of one round (every replica once). */
struct Round
{
    bool traced = false;
    double steps = 0.0;
    double stepSumS = 0.0;
    double wallS = 0.0;
};

std::string
pctNote(double p, std::size_t n)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "p%g, n=%zu steps", p, n);
    return buf;
}

void
runSingleSim(const Options &opt, SimConfig (*scenario)(std::uint64_t),
             std::uint64_t replica_count, Report &report)
{
    std::vector<SimConfig> replicas;
    for (std::uint64_t k = 0; k < replica_count; ++k) {
        replicas.push_back(
            scenario(k == 0 ? opt.seed : mixSeed(opt.seed, k)).asTapas());
    }
    const auto steps_per_rep = static_cast<std::size_t>(
        replicas[0].horizon / replicas[0].stepLength);

    // Set-up time gets its own constructions, spread over the run:
    // a few before the first round and two per replica each round.
    ThreadPool setup_pool(1);
    std::vector<double> setup;
    auto probe_setup = [&](int per_replica) {
        for (int i = 0; i < per_replica; ++i)
            for (const SimConfig &cfg : replicas)
                setup.push_back(setupOnWorkerS(setup_pool, cfg));
    };
    probe_setup(3);

    std::vector<SteppedRun> refs;
    std::vector<Round> rounds;
    // Untraced times of each (replica, step index), one per round.
    std::vector<std::vector<double>> step_samples(replicas.size() *
                                                  steps_per_rep);
    PhaseTotals phase_totals;
    StepObserver observed;
    double rss_one_round = 0.0;
    std::size_t untraced = 0;

    auto account = [&](const SteppedRun &rep, std::size_t k,
                       bool traced) {
        if (refs.size() == k)
            refs.push_back(rep);
        report.attempt(refs[k].sameEnd(rep),
                       std::string(traced ? "traced" : "untraced") +
                           " run of replica " + std::to_string(k) +
                           " ended with another digest, metric set or "
                           "count than its first run");
        if (traced) {
            phase_totals.add(rep.phases, rep.stepSumS,
                             static_cast<double>(rep.stepS.size()));
            // Engine and VM means are exact counts, so they come from
            // the same simulation in traced and untraced runs.
            if (k == 0 && observed.steps == 0.0)
                observed = rep.observer;
        }
    };

    const double start = nowS();
    const double cpu_start = cpuNowS();
    for (;;) {
        const double round_start = nowS();
        Round round;
        round.traced = opt.trace && rounds.size() % 2 == 1;
        for (std::size_t k = 0; k < replicas.size(); ++k) {
            const SteppedRun rep = runStepped(replicas[k], round.traced);
            round.steps += static_cast<double>(rep.stepS.size());
            round.stepSumS += rep.stepSumS;
            round.wallS += rep.wallS();
            if (rep.stepS.size() != steps_per_rep)
                report.fail("replica " + std::to_string(k) + " ran " +
                            std::to_string(rep.stepS.size()) +
                            " steps, not " + std::to_string(steps_per_rep));
            else if (!round.traced)
                for (std::size_t i = 0; i < steps_per_rep; ++i)
                    step_samples[k * steps_per_rep + i].push_back(
                        rep.stepS[i]);
            account(rep, k, round.traced);
        }
        rounds.push_back(round);
        probe_setup(2);
        if (!round.traced && ++untraced == 1)
            rss_one_round = peakRssMb();
        const bool enough = untraced >= kMinUntracedRounds &&
            (!opt.trace || rounds.size() >= 2);
        const double round_s = nowS() - round_start;
        if (enough && nowS() - start + round_s > opt.seconds)
            break;
    }
    const double window_s = nowS() - start;
    const double cpu_s = cpuNowS() - cpu_start;

    // A traced run is needed for the traced-equals-untraced check even
    // when this run reports only end-to-end metrics.
    if (!opt.trace)
        account(runStepped(replicas[0], true), 0, true);

    std::vector<std::uint64_t> digests;
    Outcomes outcomes;
    ExactCounts counts;
    for (const SteppedRun &ref : refs) {
        digests.push_back(ref.digest);
        SimMetrics m;
        Archive ar = Archive::reader(ref.metrics);
        m.checkpointState(ar);
        outcomes.add(m, ref.observer.throttledSteps);
        counts.add(ref.counts);
    }
    report.setDigest(combineDigests(digests));

    std::vector<double> wall, traced_sps, untraced_sps;
    for (const Round &round : rounds) {
        const double rate = round.steps / round.stepSumS;
        (round.traced ? traced_sps : untraced_sps).push_back(rate);
        if (!round.traced)
            wall.push_back(round.wallS);
    }
    const std::string replicas_note =
        ", " + std::to_string(replicas.size()) + " replicas per round";
    report.set("steps_per_s", median(untraced_sps), "1/s",
               medianNote(untraced_sps, "untraced rounds") + replicas_note);
    // Every round repeats the same steps, so each step's median over
    // the rounds drops the host's hiccups and keeps the program's own
    // slow steps (arrival waves, refreshes) for the tail.
    std::vector<double> steps;
    for (const std::vector<double> &samples : step_samples)
        steps.push_back(median(samples));
    const std::string per_step = " of each step over " +
        std::to_string(untraced) + " rounds";
    report.set("step_p50_us", median(steps) * 1e6, "us",
               pctNote(50.0, steps.size()) + ", median" + per_step);
    const double tail_p = tailPercentile(steps.size());
    report.set("step_tail_us", percentile(steps, tail_p) * 1e6, "us",
               pctNote(tail_p, steps.size()) + ", median" + per_step);
    report.set("setup_s", median(setup), "s",
               medianNote(setup, "constructions on one thread"));
    report.set("run_wall_s", median(wall), "s",
               medianNote(wall, "untraced rounds") + replicas_note);
    report.set("peak_rss_mb", rss_one_round, "MB",
               "high-water mark after the first round");
    outcomes.report(report);
    counts.report(report);
    observed.report(report);
    phase_totals.report(report);
    report.set("host.cpu_wall_ratio", cpu_s / window_s, "ratio",
               "measurement window");
    if (opt.trace) {
        report.set("trace.overhead_frac",
                   1.0 - median(traced_sps) / median(untraced_sps),
                   "frac", "traced vs untraced steps_per_s");
    }
    report.set("sim.sweep.parallel_eff", 0.0, "ratio", "n/a, no sweep");
    report.set("sim.sweep.straggler_ratio", 0.0, "ratio", "n/a, no sweep");
    report.set("sim.sweep.job_wall_ms", 0.0, "ms", "n/a, no sweep");

    checkpointRoundTrip(replicas[0], refs[0].digest, opt.scratchDir,
                        opt.trace, report);
}

} // namespace

void
runFleetWeek(const Options &opt, Report &report)
{
    runSingleSim(opt, largeScaleScenario, 3, report);
}

void
runRequestHour(const Options &opt, Report &report)
{
    runSingleSim(opt, realClusterScenario, 3, report);
}

} // namespace perfbench
