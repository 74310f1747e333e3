/**
 * @file
 * Stochastic fault-injection engine (ROADMAP item 6's compound
 * emergencies, paper Sections 4.4/5.4 generalized).
 *
 * A FaultPlan describes component fault processes — per-aisle AHU
 * groups, per-UPS units, a plant-wide chiller, and per-server sensor
 * faults — either as seeded-stochastic MTBF/MTTR renewal processes or
 * as scripted (start, end) windows, freely mixed. The FaultEngine
 * materializes the full fault timeline deterministically at
 * construction (every stream is a counter-derived Rng off
 * SimConfig::seed, so results are independent of thread count and
 * replication order) and replays it as the simulation advances:
 *
 *  - Component faults derate the cooling/power plants through
 *    their absolute setters (CoolingPlant::setAhuDerate,
 *    PowerHierarchy::setUpsDerate), which own the derate state.
 *    Overlapping faults on one component compose by minimum in the
 *    engine; repairs restore exact design capacity.
 *  - Sensor faults corrupt only the *observation* path (the GPU-power
 *    vector handed to the risk assessor and the telemetry samples),
 *    never the ground-truth physics: dropped samples, stuck-at
 *    readings, bias drift, and noise bursts.
 *
 * Compound emergencies (chiller derate during a heat wave at diurnal
 * peak) are just a plan plus a WeatherConfig — see
 * bench/bench_fault_drill.cc and examples/failure_drill.cpp.
 */

#ifndef TAPAS_CORE_FAULTS_HH
#define TAPAS_CORE_FAULTS_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "dcsim/layout.hh"

namespace tapas {

class Archive;
class CoolingPlant;
class PowerHierarchy;
struct ServerSample;

/** Component class a fault applies to. */
enum class FaultKind
{
    /** One aisle's AHU group (airflow derate). */
    Ahu,
    /** One UPS unit (row power budget derate). */
    Ups,
    /** Plant-wide chiller capacity (derates every aisle). */
    Chiller,
    /** One server's sensor/telemetry path (no physics effect). */
    Sensor,
};

/** How a faulty sensor misbehaves. */
enum class SensorFaultKind
{
    /** Samples never arrive (telemetry gap; risk sees last value). */
    Dropped,
    /** Readings freeze at the value seen at fault onset. */
    StuckAt,
    /** Readings drift linearly away from truth over time. */
    BiasDrift,
    /** Readings pick up heavy gaussian noise. */
    NoiseBurst,
};

/** One scripted fault window [at, until). */
struct ScriptedFault
{
    SimTime at = 0;
    SimTime until = 0;
    FaultKind kind = FaultKind::Ahu;
    /** Aisle/UPS/server index; -1 = every instance of the class. */
    int target = -1;
    /** Remaining capacity fraction for component faults. */
    double remainingFrac = 0.9;
    /** Sensor misbehavior for FaultKind::Sensor windows. */
    SensorFaultKind sensor = SensorFaultKind::StuckAt;
    /** Drift slopes for BiasDrift (sign is honored as given). */
    double driftCPerHour = 0.5;
    double driftWPerHour = 40.0;
    /** Noise sigmas for NoiseBurst. */
    double noiseSigmaC = 2.0;
    double noiseSigmaW = 120.0;
};

/** A renewal fault process: exponential up-times and repair times. */
struct FaultProcess
{
    /** Mean time between failures, seconds; 0 disables the process. */
    double mtbfS = 0.0;
    /** Mean time to repair, seconds. */
    double mttrS = 2.0 * static_cast<double>(kHour);
    /** Remaining capacity fraction while failed (component kinds). */
    double remainingFrac = 0.9;
};

/** Full fault-injection description for one run. */
struct FaultPlan
{
    /** Independent per-aisle AHU fault processes. */
    FaultProcess ahu;
    /** Independent per-UPS fault processes. */
    FaultProcess ups;
    /** One plant-wide chiller derate process. */
    FaultProcess chiller;
    /** Independent per-server sensor fault processes; each episode
     *  draws its misbehavior kind uniformly and its drift sign by a
     *  fair coin from the same seeded stream. */
    FaultProcess sensor;

    /** Episode parameters for stochastic sensor faults. */
    double sensorDriftCPerHour = 0.5;
    double sensorDriftWPerHour = 40.0;
    double sensorNoiseSigmaC = 2.0;
    double sensorNoiseSigmaW = 120.0;

    /** Scripted windows, applied alongside the processes. */
    std::vector<ScriptedFault> scripted;

    bool
    any() const
    {
        return ahu.mtbfS > 0.0 || ups.mtbfS > 0.0 ||
            chiller.mtbfS > 0.0 || sensor.mtbfS > 0.0 ||
            !scripted.empty();
    }
};

/**
 * Deterministic replay of a materialized fault timeline. Construction
 * expands the plan into concrete fault instances and a sorted event
 * list; advanceTo() is called once per step and applies component
 * state changes to the cooling and power plants. Sensor corruption is
 * queried by the observation paths (risk refresh, telemetry
 * recording) — the engine never touches ground truth.
 */
class FaultEngine
{
  public:
    FaultEngine(const FaultPlan &plan, const DatacenterLayout &layout,
                SimTime horizon, std::uint64_t seed);

    /**
     * Process every fault transition with time <= now and set each
     * touched aisle's and UPS's composed derate on the plants.
     */
    void advanceTo(SimTime now, CoolingPlant &cooling,
                   PowerHierarchy &power);

    /** Any AHU/UPS/chiller fault currently active. */
    bool anyComponentFaultActive() const
    { return activeComponentFaults > 0; }

    /** Any sensor fault currently active. */
    bool anySensorFaultActive() const
    { return activeSensorFaults > 0; }

    /** The materialized timeline contains sensor faults at all
     *  (gates the observation-copy hot path off when it cannot
     *  matter). */
    bool planHasSensorFaults() const { return hasSensorFaults; }

    bool sensorFaultActive(ServerId id) const;

    /** Kind of the active sensor fault on a server (active only). */
    SensorFaultKind sensorFaultKind(ServerId id) const;

    /**
     * Corrupt the observed per-GPU power slice of a server in place
     * (risk-assessor observation path). No-op when the server's
     * sensor is healthy.
     */
    void corruptObservedGpuPower(ServerId id, SimTime now,
                                 double *gpu_w, int gpus);

    /**
     * Corrupt a telemetry sample in place. Returns false when the
     * sample is dropped entirely (the caller skips recording).
     */
    bool corruptSample(ServerId id, SimTime now,
                       ServerSample &sample);

    // --- Introspection (tests, benches, reports). ---
    std::size_t instanceCount() const { return instances.size(); }
    std::size_t startsProcessed() const { return startCount; }
    std::size_t endsProcessed() const { return endCount; }
    std::size_t activeComponentCount() const
    { return activeComponentFaults; }
    std::size_t activeSensorCount() const
    { return activeSensorFaults; }

    /** Engine-composed derate views (min over active faults). */
    double composedAisleDerate(AisleId id) const;
    double composedUpsDerate(UpsId id) const;

    /** Facility-wide cooling floor from active chiller derates
     *  (1.0 when the chiller plant is healthy). */
    double chillerFloor() const;

    /**
     * Serialize/restore the replay state: timeline cursor, per-
     * instance active flags and stuck-at snapshots, and the active
     * counters. The materialized timeline itself is rebuilt
     * deterministically by the constructor from (plan, layout,
     * horizon, seed); a count mismatch fails the archive.
     */
    void checkpointState(Archive &ar);

  private:
    /** One concrete fault with a fixed [at, until) window. */
    struct FaultInstance
    {
        SimTime at = 0;
        SimTime until = 0;
        FaultKind kind = FaultKind::Ahu;
        /** Aisle/UPS/server index (chiller: 0). */
        std::uint32_t target = 0;
        double remainingFrac = 1.0;
        SensorFaultKind sensor = SensorFaultKind::StuckAt;
        double driftCPerHour = 0.0;
        double driftWPerHour = 0.0;
        double noiseSigmaC = 0.0;
        double noiseSigmaW = 0.0;
        bool active = false;

        // Lazily captured stuck-at snapshots, one per observation
        // path (risk refresh and telemetry tick run on different
        // cadences).
        bool haveFrozenGpuW = false;
        std::vector<double> frozenGpuW;
        bool haveFrozenSample = false;
        float frozenInletC = 0.0f;
        float frozenHottestGpuC = 0.0f;
        float frozenPowerW = 0.0f;
        float frozenGpuLoad = 0.0f;
    };

    struct Event
    {
        SimTime time = 0;
        std::uint32_t instance = 0;
        bool start = false;
    };

    // ckpt-skip(constant): layout wiring bound at construction
    const DatacenterLayout &layout;
    // ckpt-skip(constant): fixed seed input; the timeline it drove
    // is rebuilt by the constructor
    std::uint64_t noiseSeed = 0;

    std::vector<FaultInstance> instances;
    std::vector<Event> events;
    std::size_t cursor = 0;

    /** Per-component instance index lists (composition scans),
     *  rebuilt with the timeline by the constructor. */
    // ckpt-skip(derived): index over instances
    std::vector<std::vector<std::uint32_t>> aisleInstances;
    // ckpt-skip(derived): index over instances
    std::vector<std::vector<std::uint32_t>> upsInstances;
    // ckpt-skip(derived): index over instances
    std::vector<std::uint32_t> chillerInstances;
    // ckpt-skip(derived): index over instances
    std::vector<std::vector<std::uint32_t>> serverInstances;

    /** Active sensor instance per server, -1 = healthy. */
    std::vector<std::int32_t> activeSensor;

    std::size_t activeComponentFaults = 0;
    std::size_t activeSensorFaults = 0;
    std::size_t startCount = 0;
    std::size_t endCount = 0;
    // ckpt-skip(derived): set while materializing the timeline
    bool hasSensorFaults = false;

    // Dirty-component scratch for advanceTo.
    std::vector<std::uint32_t> dirtyAisles; // ckpt-skip(scratch): per-advance
    std::vector<std::uint32_t> dirtyUpses;  // ckpt-skip(scratch): per-advance
    std::vector<char> aisleDirty;           // ckpt-skip(scratch): per-advance
    std::vector<char> upsDirty;             // ckpt-skip(scratch): per-advance

    void addInstance(const FaultInstance &inst);
    void materializeProcess(const FaultProcess &proc, FaultKind kind,
                            std::uint32_t target, SimTime horizon,
                            std::uint64_t stream_seed,
                            const FaultPlan &plan);
    void expandScripted(const ScriptedFault &fault);
    FaultInstance *activeSensorInstance(ServerId id);
};

} // namespace tapas

#endif // TAPAS_CORE_FAULTS_HH
