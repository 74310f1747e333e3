/**
 * @file
 * Every ProfileBank predictor against an independent oracle: the
 * fitted coefficients are read back out of the bank's checkpoint
 * (in archive order) and Eq. 1-4 are evaluated by test-local code.
 * The build keeps strict per-operation IEEE semantics and the oracle
 * evaluates each formula in the paper's term order, so EXPECT_EQ on
 * doubles below means bitwise equality, not a tolerance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "common/serialize.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "telemetry/profiles.hh"

namespace tapas {
namespace {

/** The four coefficient vectors, as the checkpoint stores them. */
struct FittedCoeffs
{
    std::vector<double> inlet;   // 5 per server
    std::vector<double> gpuTemp; // 3 per GPU
    std::vector<double> power;   // 4 per server
    std::vector<double> airflow; // 2 per server
};

FittedCoeffs
readCoeffs(ProfileBank &bank)
{
    Archive writer = Archive::writer();
    bank.checkpointState(writer);
    Archive reader = Archive::reader(writer.buffer());
    FittedCoeffs c;
    reader.podVector(c.inlet);
    reader.podVector(c.gpuTemp);
    reader.podVector(c.power);
    reader.podVector(c.airflow);
    EXPECT_TRUE(reader.ok());
    return c;
}

/** Eq. 1: intercept, outside, hinges at 15 and 25 C, then load. */
double
oracleInlet(const FittedCoeffs &c, std::size_t s, double outside_c,
            double dc_load)
{
    const double *w = &c.inlet[s * 5];
    double acc = w[0];
    acc += w[1] * outside_c;
    acc += w[2] * std::max(0.0, outside_c - 15.0);
    acc += w[3] * std::max(0.0, outside_c - 25.0);
    acc += w[4] * dc_load;
    return acc;
}

/** Eq. 2 for one GPU. */
double
oracleGpuTemp(const FittedCoeffs &c, std::size_t gpus, std::size_t s,
              std::size_t g, double inlet_c, double power_w)
{
    const double *w = &c.gpuTemp[(s * gpus + g) * 3];
    return w[0] + w[1] * inlet_c + w[2] * power_w;
}

/** Eq. 2 maximized over a server's GPUs; powers[g * stride]. */
double
oracleHottest(const FittedCoeffs &c, std::size_t gpus, std::size_t s,
              double inlet_c, const double *powers, std::size_t stride)
{
    double hottest = -1e9;
    for (std::size_t g = 0; g < gpus; ++g) {
        hottest = std::max(hottest, oracleGpuTemp(c, gpus, s, g, inlet_c,
                                                  powers[g * stride]));
    }
    return hottest;
}

/** Eq. 3 at a load clamped to [0, 1]. */
double
oracleAirflow(const FittedCoeffs &c, std::size_t s, double load)
{
    const double x = std::clamp(load, 0.0, 1.0);
    return c.airflow[s * 2] + c.airflow[s * 2 + 1] * x;
}

/** Eq. 4, the cubic, at a load clamped to [0, 1]. */
double
oraclePower(const FittedCoeffs &c, std::size_t s, double load)
{
    const double x = std::clamp(load, 0.0, 1.0);
    const double *w = &c.power[s * 4];
    double acc = w[0];
    acc += w[1] * x;
    acc += w[2] * (x * x);
    acc += w[3] * (x * x * x);
    return acc;
}

class ProfileOracleTest : public ::testing::Test
{
  protected:
    ProfileOracleTest()
        : dc(makeLayout()), thermal(dc, ThermalConfig{}, 91),
          powerModel(PowerConfig{}), bank(dc),
          gpus(static_cast<std::size_t>(
              dc.specs().front().gpusPerServer))
    {
        bank.offlineProfile(thermal, powerModel, 17);
        coeffs = readCoeffs(bank);
    }

    static LayoutConfig
    makeLayout()
    {
        LayoutConfig cfg;
        cfg.aisleCount = 2;
        cfg.rowsPerAisle = 2;
        cfg.racksPerRow = 3;
        cfg.serversPerRack = 4;
        return cfg;
    }

    DatacenterLayout dc;
    ThermalModel thermal;
    PowerModel powerModel;
    ProfileBank bank;
    std::size_t gpus;
    FittedCoeffs coeffs;
};

TEST_F(ProfileOracleTest, CheckpointHoldsOneBlockPerServer)
{
    const std::size_t n = dc.serverCount();
    EXPECT_EQ(coeffs.inlet.size(), n * 5);
    EXPECT_EQ(coeffs.gpuTemp.size(), n * gpus * 3);
    EXPECT_EQ(coeffs.power.size(), n * 4);
    EXPECT_EQ(coeffs.airflow.size(), n * 2);
}

TEST_F(ProfileOracleTest, InletBatchMatchesOracle)
{
    const std::size_t n = dc.serverCount();
    std::vector<double> out(n);
    // Cover both hinge knots (15 C and 25 C) and beyond.
    for (double outside : {5.0, 15.0, 20.0, 25.0, 34.0, 40.0}) {
        for (double dc_load : {0.0, 0.5, 1.0}) {
            bank.predictInletBatch(outside, dc_load, n, out.data());
            for (std::size_t s = 0; s < n; ++s) {
                EXPECT_EQ(out[s],
                          oracleInlet(coeffs, s, outside, dc_load));
            }
        }
    }
}

TEST_F(ProfileOracleTest, GpuTempMatchesOracle)
{
    for (std::size_t s = 0; s < dc.serverCount(); ++s) {
        for (std::size_t g = 0; g < gpus; ++g) {
            EXPECT_EQ(bank.predictGpuTempC(
                          ServerId(static_cast<std::uint32_t>(s)),
                          static_cast<int>(g), 27.5, 310.0),
                      oracleGpuTemp(coeffs, gpus, s, g, 27.5, 310.0));
        }
    }
}

TEST_F(ProfileOracleTest, PowerBatchesMatchOracle)
{
    const std::size_t n = dc.serverCount();
    Rng rng(5);
    std::vector<double> loads(n);
    for (double &l : loads)
        l = rng.uniform(-0.2, 1.3); // exercises the clamp too
    std::vector<double> out(n);
    bank.predictPowerBatch(loads.data(), n, out.data());
    for (std::size_t s = 0; s < n; ++s)
        EXPECT_EQ(out[s], oraclePower(coeffs, s, loads[s]));

    for (double load : {-0.5, 0.0, 0.45, 1.0, 1.7}) {
        bank.predictPowerUniformBatch(load, n, out.data());
        for (std::size_t s = 0; s < n; ++s)
            EXPECT_EQ(out[s], oraclePower(coeffs, s, load));
    }
}

TEST_F(ProfileOracleTest, AirflowBatchesMatchOracle)
{
    const std::size_t n = dc.serverCount();
    Rng rng(6);
    std::vector<double> loads(n);
    for (double &l : loads)
        l = rng.uniform(-0.2, 1.3);
    std::vector<double> out(n);
    bank.predictAirflowBatch(loads.data(), n, out.data());
    for (std::size_t s = 0; s < n; ++s)
        EXPECT_EQ(out[s], oracleAirflow(coeffs, s, loads[s]));

    for (double load : {-0.5, 0.0, 0.45, 1.0, 1.7}) {
        bank.predictAirflowUniformBatch(load, n, out.data());
        for (std::size_t s = 0; s < n; ++s)
            EXPECT_EQ(out[s], oracleAirflow(coeffs, s, load));
    }
}

TEST_F(ProfileOracleTest, HottestGpuBatchesMatchOracle)
{
    const std::size_t n = dc.serverCount();
    Rng rng(7);

    std::vector<double> inlet(n);
    for (double &v : inlet)
        v = rng.uniform(18.0, 38.0);

    // Measured per-GPU powers (risk-refresh shape).
    std::vector<double> gpu_w(n * gpus);
    for (double &v : gpu_w)
        v = rng.uniform(60.0, 420.0);
    std::vector<double> out(n);
    bank.predictHottestGpuBatch(inlet.data(), gpu_w.data(), n,
                                out.data());
    for (std::size_t s = 0; s < n; ++s) {
        EXPECT_EQ(out[s], oracleHottest(coeffs, gpus, s, inlet[s],
                                        &gpu_w[s * gpus], 1));
    }

    // Uniform per-server power (placement-projection shape).
    std::vector<double> per_gpu(n);
    for (double &v : per_gpu)
        v = rng.uniform(60.0, 420.0);
    bank.predictHottestGpuUniformBatch(inlet.data(), per_gpu.data(),
                                       n, out.data());
    for (std::size_t s = 0; s < n; ++s) {
        EXPECT_EQ(out[s], oracleHottest(coeffs, gpus, s, inlet[s],
                                        &per_gpu[s], 0));
    }
}

TEST_F(ProfileOracleTest, CandidateBatchesMatchOracle)
{
    // One server's model streamed over many candidate operating
    // points (the configurator's scoring shape).
    const ServerId server(13);
    Rng rng(8);
    std::vector<double> powers(32);
    std::vector<double> heats(32);
    for (std::size_t i = 0; i < powers.size(); ++i) {
        powers[i] = rng.uniform(60.0, 420.0);
        heats[i] = rng.uniform(-0.1, 1.2);
    }
    std::vector<double> out(powers.size());
    bank.predictHottestGpuCandidates(server, 27.5, powers.data(),
                                     powers.size(), out.data());
    for (std::size_t i = 0; i < powers.size(); ++i) {
        EXPECT_EQ(out[i], oracleHottest(coeffs, gpus, server.index,
                                        27.5, &powers[i], 0));
    }

    bank.predictAirflowCandidates(server, heats.data(), heats.size(),
                                  out.data());
    for (std::size_t i = 0; i < heats.size(); ++i) {
        EXPECT_EQ(out[i],
                  oracleAirflow(coeffs, server.index, heats[i]));
    }
}

TEST_F(ProfileOracleTest, ClassesFollowOracleInletAtReference)
{
    // Thermal classes and biases come from the fitted inlet at the
    // reference conditions (24 C outside, 70% datacenter load).
    const std::size_t n = dc.serverCount();
    std::vector<double> ref(n);
    for (std::size_t s = 0; s < n; ++s)
        ref[s] = oracleInlet(coeffs, s, 24.0, 0.7);
    std::vector<double> sorted = ref;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[n / 2];
    for (std::size_t s = 0; s < n; ++s) {
        EXPECT_EQ(bank.inletBiasC(
                      ServerId(static_cast<std::uint32_t>(s))),
                  ref[s] - median);
    }
}

TEST_F(ProfileOracleTest, BatchesCoverNewlyProfiledServers)
{
    // Servers profiled after construction (oversubscription racks)
    // must be reachable by every entry point.
    const std::size_t before = dc.serverCount();
    dc.addRack(RowId(0));
    thermal.extend();
    bank.profileNewServers(thermal, powerModel, 21);
    const std::size_t after = dc.serverCount();
    ASSERT_GT(after, before);
    const FittedCoeffs grown = readCoeffs(bank);
    ASSERT_EQ(grown.inlet.size(), after * 5);

    std::vector<double> out(after);
    bank.predictInletBatch(30.0, 0.8, after, out.data());
    for (std::size_t s = 0; s < after; ++s)
        EXPECT_EQ(out[s], oracleInlet(grown, s, 30.0, 0.8));

    std::vector<double> loads(after, 0.65);
    bank.predictPowerBatch(loads.data(), after, out.data());
    for (std::size_t s = 0; s < after; ++s)
        EXPECT_EQ(out[s], oraclePower(grown, s, 0.65));
    bank.predictAirflowBatch(loads.data(), after, out.data());
    for (std::size_t s = 0; s < after; ++s)
        EXPECT_EQ(out[s], oracleAirflow(grown, s, 0.65));

    std::vector<double> inlet(after, 26.0);
    std::vector<double> per_gpu(after, 280.0);
    bank.predictHottestGpuUniformBatch(inlet.data(), per_gpu.data(),
                                       after, out.data());
    for (std::size_t s = 0; s < after; ++s) {
        EXPECT_EQ(out[s], oracleHottest(grown, gpus, s, 26.0,
                                        &per_gpu[s], 0));
    }

    const ServerId fresh(static_cast<std::uint32_t>(after - 1));
    EXPECT_EQ(bank.predictGpuTempC(fresh, 3, 26.0, 280.0),
              oracleGpuTemp(grown, gpus, fresh.index, 3, 26.0, 280.0));
}

TEST_F(ProfileOracleTest, GpuIndexOutOfRangePanics)
{
    // An index past the block would read the next server's lines.
    const int per_server = static_cast<int>(gpus);
    EXPECT_DEATH(bank.predictGpuTempC(ServerId(0), per_server, 25.0,
                                      300.0),
                 "out of range");
    EXPECT_DEATH(bank.predictGpuTempC(ServerId(0), -1, 25.0, 300.0),
                 "out of range");
}

} // namespace
} // namespace tapas
