/**
 * @file
 * Figure 20: ablation across the eight policy combinations and the
 * SaaS/IaaS mix sensitivity.
 *
 * Paper shape: each individual policy (Place, Route, Config) trims
 * both maximum temperature and peak power (up to ~12%); pairs do
 * better; full TAPAS does best (-17% temp, -23% power at 50/50).
 * With an all-IaaS fleet only Place helps; an all-SaaS fleet gives
 * TAPAS its biggest wins (-23% temp, -28% power).
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"
#include "sim/sweep.hh"

using namespace tapas;

int
main(int argc, char **argv)
{
    printBanner(std::cout,
                "Fig. 20: policy ablation x SaaS/IaaS mix");
    // --quick runs the 50/50 column only.
    const bool quick = argc > 1 &&
        std::string(argv[1]) == "--quick";

    SimConfig cfg = largeScaleScenario(7);
    // A shorter horizon keeps the 8x5 sweep tractable; two days
    // cover two full diurnal cycles.
    cfg.horizon = 2 * kDay;

    const double mixes[] = {1.0, 0.75, 0.5, 0.25, 0.0};
    const char *const mix_names[] = {"SaaS", "75/25", "50/50",
                                     "25/75", "IaaS"};
    constexpr int kQuickMix = 2;

    std::cout << "Mean max temperature / mean peak row power, "
                 "normalized to Baseline per column:\n\n";
    ConsoleTable table({"policy", "SaaS", "75/25", "50/50", "25/75",
                        "IaaS"});

    // One job per (mix, policy), fanned across the pool; outcomes
    // come back mix-major in job order.
    std::vector<SweepJob> mix_jobs;
    for (int m = 0; m < 5; ++m) {
        if (quick && m != kQuickMix)
            continue;
        SweepJob job{mix_names[m], cfg};
        job.config.vmTrace.saasFraction = mixes[m];
        mix_jobs.push_back(job);
    }
    const std::vector<PolicyVariant> policies =
        ScenarioSweep::ablationMatrix();
    ThreadPool pool;
    const std::vector<SweepOutcome> outcomes = ScenarioSweep(pool).run(
        ScenarioSweep::crossPolicies(mix_jobs, policies));

    auto cell_text = [&](std::size_t v, int m) {
        if (quick && m != kQuickMix)
            return std::string("-");
        const std::size_t column =
            quick ? 0 : static_cast<std::size_t>(m);
        const SimMetrics &cell =
            outcomes[column * policies.size() + v].metrics;
        const SimMetrics &base =
            outcomes[column * policies.size()].metrics;
        const double temp =
            cell.maxGpuTempC.mean() / base.maxGpuTempC.mean();
        const double power = cell.peakRowPowerFrac.mean() /
            base.peakRowPowerFrac.mean();
        return ConsoleTable::num(temp, 3) + "/" +
            ConsoleTable::num(power, 3);
    };

    for (std::size_t v = 0; v < policies.size(); ++v) {
        table.addRow({policies[v].name, cell_text(v, 0),
                      cell_text(v, 1), cell_text(v, 2),
                      cell_text(v, 3), cell_text(v, 4)});
    }
    table.print(std::cout);

    std::cout
        << "\nEach cell: temp/power relative to Baseline (lower is "
           "better).\n"
        << "Paper shapes to check: every single policy <= 1.0; "
           "TAPAS lowest at every mix;\n"
        << "all-IaaS column improves only via Place; all-SaaS "
           "column improves the most\n"
        << "(paper: -23% temp, -28% power all-SaaS; -17%/-23% at "
           "50/50).\n";
    return 0;
}
