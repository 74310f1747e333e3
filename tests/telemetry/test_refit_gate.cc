/**
 * @file
 * Profile-refit sanity gate: refits from clean telemetry are accepted
 * and track the offline model; refits from corrupted telemetry (a
 * biased power sensor) are rejected, the server keeps its last
 * accepted model and is fit-quarantined, and a later clean refit
 * recovers it automatically.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/fixture.hh"
#include "telemetry/history.hh"
#include "telemetry/profiles.hh"
#include "telemetry/profile_lanes.hh"

namespace tapas {
namespace {

class RefitGate : public CoreFixture
{
  protected:
    /** Record one sample per load point for @p sid, with power taken
     *  from the bank's own offline model plus @p bias_w. */
    void
    feedSamples(TelemetryStore &store, ServerId sid, double bias_w)
    {
        SimTime t = 0;
        for (int i = 0; i < 24; ++i) {
            const double load = 0.1 + 0.8 * i / 23.0;
            ServerSample s;
            s.time = t;
            s.gpuLoad = static_cast<float>(load);
            s.serverPowerW = static_cast<float>(
                onePowerW(bank, sid, load) + bias_w);
            store.recordServer(sid, s);
            t += 10 * kMinute;
        }
    }

    std::vector<double>
    predictions(ServerId sid) const
    {
        std::vector<double> out;
        for (const double load : {0.0, 0.25, 0.5, 0.75, 1.0})
            out.push_back(onePowerW(bank, sid, load));
        return out;
    }
};

TEST_F(RefitGate, CleanRefitIsAcceptedAndStaysNearOfflineModel)
{
    TelemetryStore store;
    const ServerId sid(0);
    const std::vector<double> before = predictions(sid);
    feedSamples(store, sid, 0.0);

    bank.refitPowerFromTelemetry(store);
    EXPECT_EQ(bank.refitsAccepted(), 1u);
    EXPECT_EQ(bank.refitsRejected(), 0u);
    EXPECT_FALSE(bank.fitQuarantined(sid));
    EXPECT_EQ(bank.fitQuarantineCount(), 0u);

    // The refit was fitted from the model's own curve, so the new
    // polynomial reproduces it closely across the load range.
    const std::vector<double> after = predictions(sid);
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_NEAR(after[i], before[i], 25.0);

    // Servers with no telemetry are skipped, not rejected.
    EXPECT_FALSE(bank.fitQuarantined(ServerId(1)));
}

TEST_F(RefitGate, CorruptedTelemetryIsRejectedAndRecovers)
{
    const ServerId sid(3);
    const std::vector<double> before = predictions(sid);

    // A badly biased power sensor: every sample reads 1.5 kW high.
    // The fitted curve leaves the envelope around the offline
    // anchor, so the gate must reject it.
    TelemetryStore corrupted;
    feedSamples(corrupted, sid, 1500.0);
    bank.refitPowerFromTelemetry(corrupted);

    EXPECT_EQ(bank.refitsRejected(), 1u);
    EXPECT_TRUE(bank.fitQuarantined(sid));
    EXPECT_EQ(bank.fitQuarantineCount(), 1u);
    // The server keeps its last accepted model, bit-for-bit.
    const std::vector<double> after_reject = predictions(sid);
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_DOUBLE_EQ(after_reject[i], before[i]);

    // The sensor is fixed; the next clean refit passes the gate and
    // clears the quarantine.
    TelemetryStore clean;
    feedSamples(clean, sid, 0.0);
    bank.refitPowerFromTelemetry(clean);
    EXPECT_GE(bank.refitsAccepted(), 1u);
    EXPECT_FALSE(bank.fitQuarantined(sid));
    EXPECT_EQ(bank.fitQuarantineCount(), 0u);
}

TEST_F(RefitGate, SparseOrNarrowTelemetryIsSkippedNotInstalled)
{
    const ServerId sid(7);
    const std::vector<double> before = predictions(sid);

    // Too few samples.
    TelemetryStore sparse;
    for (int i = 0; i < 5; ++i) {
        ServerSample s;
        s.time = i * 10 * kMinute;
        s.gpuLoad = 0.5f;
        s.serverPowerW = 3000.0f;
        sparse.recordServer(sid, s);
    }
    bank.refitPowerFromTelemetry(sparse);

    // No load spread (a frozen load channel: stuck-at sensor).
    TelemetryStore narrow;
    for (int i = 0; i < 24; ++i) {
        ServerSample s;
        s.time = i * 10 * kMinute;
        s.gpuLoad = 0.42f;
        s.serverPowerW = 2800.0f;
        narrow.recordServer(sid, s);
    }
    bank.refitPowerFromTelemetry(narrow);

    // Neither produced an installable fit; the model is untouched
    // and the server is not quarantined (there was nothing to judge).
    EXPECT_EQ(bank.refitsAccepted(), 0u);
    EXPECT_EQ(bank.refitsRejected(), 0u);
    EXPECT_FALSE(bank.fitQuarantined(sid));
    const std::vector<double> after = predictions(sid);
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_DOUBLE_EQ(after[i], before[i]);
}

} // namespace
} // namespace tapas
