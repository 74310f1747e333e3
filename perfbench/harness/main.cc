/**
 * @file
 * tapas_perfbench: runs one benchmark workload for a fixed time and
 * writes its report as one JSON object on stdout (perfbench/run.py
 * prints it as `name: value unit` lines and the summary line).
 *
 *   tapas_perfbench --workload fleet_week|request_hour|emergency_sweep
 *                   --seed N --seconds S --trace 0|1 --scratch DIR
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hh"

using namespace perfbench;

namespace {

bool
parse(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                return false;
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(opt.seconds > 0.0))
                return false;
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return false;
            opt.trace = value == "1";
        } else if (key == "--scratch") {
            opt.scratchDir = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !opt.workload.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt)) {
        std::cerr << "usage: tapas_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--scratch DIR]\n";
        return 2;
    }
    void (*run)(const Options &, Report &) = nullptr;
    if (opt.workload == "fleet_week")
        run = runFleetWeek;
    else if (opt.workload == "request_hour")
        run = runRequestHour;
    else if (opt.workload == "emergency_sweep")
        run = runEmergencySweep;
    if (run == nullptr) {
        std::cerr << "unknown workload '" << opt.workload << "'\n";
        return 2;
    }

    Report report;
    report.set("host.loadavg_1m", loadAverage1m(), "load",
               "at start, diagnostic only");
    const double calib_before = calibrationMs();
    try {
        run(opt, report);
    } catch (const std::exception &e) {
        report.fail(std::string("workload aborted: ") + e.what());
    }
    const double calib_after = calibrationMs();
    report.set("host.calib_ms", (calib_before + calib_after) / 2.0, "ms",
               "fixed-work loop, mean of before/after medians, "
               "diagnostic only");
    report.set("failed_frac", report.failedFrac(), "frac",
               "failed over attempted simulations; failed checks "
               "count as failures");
    std::cout << report.json() << std::endl;
    return 0;
}
