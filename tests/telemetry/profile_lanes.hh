/**
 * @file
 * One-lane calls of ProfileBank's batched predictors, for tests that
 * ask about a single server at a single operating point.
 */

#ifndef TAPAS_TESTS_TELEMETRY_PROFILE_LANES_HH
#define TAPAS_TESTS_TELEMETRY_PROFILE_LANES_HH

#include <vector>

#include "telemetry/profiles.hh"

namespace tapas {

/** Fitted Eq. 1 for one server (a fleet pass up to that server). */
inline double
oneInletC(const ProfileBank &bank, ServerId id, double outside_c,
          double dc_load_frac)
{
    std::vector<double> out(id.index + 1);
    bank.predictInletBatch(outside_c, dc_load_frac, out.size(),
                           out.data());
    return out.back();
}

/** Hottest fitted Eq. 2 of one server, every GPU at one power. */
inline double
oneHottestGpuC(const ProfileBank &bank, ServerId id, double inlet_c,
               double per_gpu_power_w)
{
    double out = 0.0;
    bank.predictHottestGpuCandidates(id, inlet_c, &per_gpu_power_w, 1,
                                     &out);
    return out;
}

/** Fitted Eq. 3 for one server. */
inline double
oneAirflowCfm(const ProfileBank &bank, ServerId id, double load_frac)
{
    double out = 0.0;
    bank.predictAirflowCandidates(id, &load_frac, 1, &out);
    return out;
}

/** Fitted Eq. 4 for one server (a fleet pass up to that server). */
inline double
onePowerW(const ProfileBank &bank, ServerId id, double load_frac)
{
    std::vector<double> loads(id.index + 1, load_frac);
    std::vector<double> out(loads.size());
    bank.predictPowerBatch(loads.data(), loads.size(), out.data());
    return out.back();
}

} // namespace tapas

#endif // TAPAS_TESTS_TELEMETRY_PROFILE_LANES_HH
