/**
 * @file
 * Unit and property tests for the ground-truth thermal model:
 * cooling-curve regimes, spatial heterogeneity, GPU process
 * variation, fan curves, and aisle recirculation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hh"
#include "dcsim/layout.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"

namespace tapas {
namespace {

LayoutConfig
mediumConfig()
{
    LayoutConfig cfg;
    cfg.aisleCount = 4;
    cfg.rowsPerAisle = 2;
    cfg.racksPerRow = 10;
    cfg.serversPerRack = 4;
    return cfg;
}

class ThermalTest : public ::testing::Test
{
  protected:
    ThermalTest()
        : dc(mediumConfig()), thermal(dc, ThermalConfig{}, 42)
    {}

    DatacenterLayout dc;
    ThermalModel thermal;
};

TEST_F(ThermalTest, CoolingCurveHoldsHumidityFloorWhenCold)
{
    // Below 15C outside the plant holds ~18C inlet (Fig. 3).
    EXPECT_NEAR(thermal.coolingCurve(Celsius(5.0)), 17.8, 0.5);
    EXPECT_NEAR(thermal.coolingCurve(Celsius(14.0)), 18.0, 0.2);
}

TEST_F(ThermalTest, CoolingCurveTracksLinearlyInMidBand)
{
    const double at16 = thermal.coolingCurve(Celsius(16.0));
    const double at24 = thermal.coolingCurve(Celsius(24.0));
    EXPECT_NEAR((at24 - at16) / 8.0, 0.7, 1e-9);
}

TEST_F(ThermalTest, CoolingCurveCompressesWhenHot)
{
    const double at26 = thermal.coolingCurve(Celsius(26.0));
    const double at36 = thermal.coolingCurve(Celsius(36.0));
    EXPECT_NEAR((at36 - at26) / 10.0, 0.35, 1e-9);
}

TEST_F(ThermalTest, CoolingCurveIsContinuousAtKnees)
{
    const double eps = 1e-6;
    EXPECT_NEAR(thermal.coolingCurve(Celsius(15.0 - eps)),
                thermal.coolingCurve(Celsius(15.0 + eps)), 1e-3);
    EXPECT_NEAR(thermal.coolingCurve(Celsius(25.0 - eps)),
                thermal.coolingCurve(Celsius(25.0 + eps)), 1e-3);
}

TEST_F(ThermalTest, InletMonotonicInOutsideTemperature)
{
    const ServerId sid(0);
    double prev = -1e9;
    for (double out = -5.0; out <= 40.0; out += 1.0) {
        const double t =
            thermal.inletTemperature(sid, Celsius(out), 0.5, 0.0)
                .value();
        EXPECT_GE(t, prev - 1e-9);
        prev = t;
    }
}

TEST_F(ThermalTest, InletRisesWithDatacenterLoad)
{
    const ServerId sid(3);
    const double low =
        thermal.inletTemperature(sid, Celsius(30.0), 0.1, 0.0).value();
    const double high =
        thermal.inletTemperature(sid, Celsius(30.0), 0.9, 0.0).value();
    // Fig. 5: ~2C swing between low and high load.
    EXPECT_NEAR(high - low, 2.0 * 0.8, 0.2);
}

TEST_F(ThermalTest, RecirculationPenaltyAppliesOnOverdraw)
{
    const ServerId sid(5);
    const double ok =
        thermal.inletTemperature(sid, Celsius(20.0), 0.5, 0.0).value();
    const double bad =
        thermal.inletTemperature(sid, Celsius(20.0), 0.5, 0.1).value();
    EXPECT_GT(bad, ok + 1.0);
}

TEST_F(ThermalTest, SpatialOffsetsSpreadAcrossServers)
{
    StatAccumulator acc;
    for (const Server &server : dc.servers())
        acc.add(thermal.spatialOffset(server.id));
    // Row spread (1C) + rack spread (2C) should give a visible range.
    EXPECT_GT(acc.max() - acc.min(), 1.5);
    EXPECT_LT(acc.max() - acc.min(), 5.0);
}

TEST_F(ThermalTest, SpatialOffsetsStableAcrossQueries)
{
    const ServerId sid(11);
    EXPECT_DOUBLE_EQ(thermal.spatialOffset(sid),
                     thermal.spatialOffset(sid));
}

TEST_F(ThermalTest, SameSeedSameHeterogeneity)
{
    ThermalModel other(dc, ThermalConfig{}, 42);
    for (const Server &server : dc.servers()) {
        EXPECT_DOUBLE_EQ(thermal.spatialOffset(server.id),
                         other.spatialOffset(server.id));
        EXPECT_DOUBLE_EQ(thermal.gpuCoeff(server.id, 3),
                         other.gpuCoeff(server.id, 3));
    }
}

TEST_F(ThermalTest, DifferentSeedDifferentHeterogeneity)
{
    ThermalModel other(dc, ThermalConfig{}, 43);
    int differing = 0;
    for (const Server &server : dc.servers()) {
        if (thermal.spatialOffset(server.id) !=
            other.spatialOffset(server.id)) {
            ++differing;
        }
    }
    EXPECT_GT(differing, static_cast<int>(dc.serverCount()) / 2);
}

TEST_F(ThermalTest, GpuTemperatureLinearInPower)
{
    const ServerId sid(7);
    const Celsius inlet(22.0);
    const double at100 =
        thermal.gpuTemperature(sid, 0, inlet, Watts(100)).value();
    const double at200 =
        thermal.gpuTemperature(sid, 0, inlet, Watts(200)).value();
    const double at300 =
        thermal.gpuTemperature(sid, 0, inlet, Watts(300)).value();
    EXPECT_NEAR(at300 - at200, at200 - at100, 1e-9);
    EXPECT_GT(at200, at100);
}

TEST_F(ThermalTest, EvenGpusRunCoolerOnAverage)
{
    // Fig. 9: even-indexed GPUs sit closer to the inlet.
    double even_sum = 0.0;
    double odd_sum = 0.0;
    int n = 0;
    for (const Server &server : dc.servers()) {
        for (int g = 0; g < 8; g += 2) {
            even_sum += thermal.gpuOffset(server.id, g);
            odd_sum += thermal.gpuOffset(server.id, g + 1);
            ++n;
        }
    }
    EXPECT_GT(odd_sum / n - even_sum / n, 3.0);
}

TEST_F(ThermalTest, IntraServerGpuSpreadCanExceedTenDegrees)
{
    // Fig. 8: up to ~10C spread across GPUs of one server at equal
    // load. Check that at least some servers show a wide spread.
    const PowerModel power{PowerConfig{}};
    const Watts full =
        power.gpuPower(dc.specOf(ServerId(0)), 1.0, 1.0);
    int wide = 0;
    for (const Server &server : dc.servers()) {
        double lo = 1e9;
        double hi = -1e9;
        for (int g = 0; g < 8; ++g) {
            const double t = thermal
                .gpuTemperature(server.id, g, Celsius(22.0), full)
                .value();
            lo = std::min(lo, t);
            hi = std::max(hi, t);
        }
        if (hi - lo >= 10.0)
            ++wide;
    }
    EXPECT_GT(wide, static_cast<int>(dc.serverCount()) / 4);
}

TEST_F(ThermalTest, MemTemperatureTracksPhase)
{
    const ServerId sid(2);
    const Celsius inlet(22.0);
    const Watts pw(300.0);
    const double die =
        thermal.gpuTemperature(sid, 0, inlet, pw).value();
    const double mem_compute =
        thermal.memTemperature(sid, 0, inlet, pw, 0.0).value();
    const double mem_decode =
        thermal.memTemperature(sid, 0, inlet, pw, 1.0).value();
    EXPECT_LT(mem_compute, die);
    EXPECT_GT(mem_decode, die);
}

TEST_F(ThermalTest, FanCurveHitsSpecPoint)
{
    // Manufacturer spec: 840 CFM at 80% PWM for A100. Our fan speed
    // hits 80% duty at ~69% load.
    const double load_at_80pct = (0.8 - 0.35) / 0.65;
    const double cfm =
        thermal.serverAirflow(ServerId(0), load_at_80pct).value();
    EXPECT_NEAR(cfm, 840.0, 1.0);
}

TEST_F(ThermalTest, AirflowMonotonicInLoad)
{
    double prev = 0.0;
    for (double load = 0.0; load <= 1.0; load += 0.1) {
        const double cfm =
            thermal.serverAirflow(ServerId(0), load).value();
        EXPECT_GT(cfm, prev);
        prev = cfm;
    }
}

TEST_F(ThermalTest, NoiseIsZeroMeanAndBounded)
{
    Rng rng(1);
    StatAccumulator acc;
    for (int i = 0; i < 5000; ++i) {
        acc.add(thermal
                    .inletTemperature(ServerId(0), Celsius(20.0), 0.5,
                                      0.0, &rng)
                    .value());
    }
    const double noiseless =
        thermal.inletTemperature(ServerId(0), Celsius(20.0), 0.5, 0.0)
            .value();
    EXPECT_NEAR(acc.mean(), noiseless, 0.05);
    EXPECT_NEAR(acc.stddev(), 0.25, 0.05);
}

class CoolingPlantTest : public ThermalTest
{
  protected:
    CoolingPlantTest() : plant(dc, thermal) {}

    CoolingPlant plant;
};

TEST_F(CoolingPlantTest, ProvisionCoversFullLoad)
{
    std::vector<double> full(dc.serverCount(), 1.0);
    for (const Aisle &aisle : dc.aisles()) {
        EXPECT_DOUBLE_EQ(plant.overdrawFraction(aisle.id, full), 0.0);
        EXPECT_NEAR(plant.demand(aisle.id, full).value(),
                    plant.provision(aisle.id).value(), 1e-6);
    }
}

TEST_F(CoolingPlantTest, AhuFailureCreatesOverdrawAtFullLoad)
{
    std::vector<double> full(dc.serverCount(), 1.0);
    const AisleId aid(0);
    const double design = plant.effectiveProvision(aid).value();
    // The setter is absolute: a deeper then a shallower derate
    // leaves the shallower one (the fault engine composes overlap).
    plant.setAhuDerate(aid, 0.7);
    plant.setAhuDerate(aid, 0.9);
    EXPECT_DOUBLE_EQ(plant.ahuDerate(aid), 0.9);
    EXPECT_TRUE(plant.anyFailure());
    EXPECT_NEAR(plant.overdrawFraction(aid, full), 1.0 / 0.9 - 1.0,
                1e-6);
    // Other aisles unaffected.
    EXPECT_DOUBLE_EQ(plant.overdrawFraction(AisleId(1), full), 0.0);
    // Any fraction >= 1 restores the exact design value, not a
    // near-1.0 product of derate and un-derate.
    plant.setAhuDerate(aid, 1.5);
    EXPECT_DOUBLE_EQ(plant.ahuDerate(aid), 1.0);
    EXPECT_FALSE(plant.anyFailure());
    EXPECT_EQ(plant.effectiveProvision(aid).value(), design);
    EXPECT_DOUBLE_EQ(plant.overdrawFraction(aid, full), 0.0);
}

TEST_F(CoolingPlantTest, IdleLoadHasAmpleHeadroom)
{
    std::vector<double> idle(dc.serverCount(), 0.0);
    for (const Aisle &aisle : dc.aisles()) {
        const double frac = plant.demand(aisle.id, idle).value() /
            plant.provision(aisle.id).value();
        EXPECT_NEAR(frac, 0.35, 0.01);
    }
}

TEST_F(CoolingPlantTest, OversubscribedRackRaisesDemand)
{
    // Adding a rack after plant construction must not grow provision.
    const Cfm before = plant.provision(AisleId(0));
    const RowId row0 = dc.aisle(AisleId(0)).rows.front();
    dc.addRack(row0);
    EXPECT_DOUBLE_EQ(plant.provision(AisleId(0)).value(),
                     before.value());
    std::vector<double> full(dc.serverCount(), 1.0);
    EXPECT_GT(plant.overdrawFraction(AisleId(0), full), 0.0);
}

} // namespace
} // namespace tapas
